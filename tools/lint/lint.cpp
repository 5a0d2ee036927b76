#include "lint.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

namespace taglets::lint {

namespace fs = std::filesystem;

const std::vector<Rule>& rules() {
  static const std::vector<Rule> table = {
      {"layering",
       "a module may only #include modules its CMake library links "
       "(transitively); keeps obs < util < tensor < everything acyclic",
       {{"util/check.hpp",
         "contracts header is std-only and sits below every layer"},
        {"util/sync.hpp",
         "annotated sync primitives are header-only and std-only, so "
         "obs (below util) may use them without linking taglets_util"}}},
      {"naked-mutex",
       "no raw std::mutex/std::shared_mutex/std::condition_variable "
       "outside util/sync.hpp — locking goes through the annotated, "
       "rank-checked util::Mutex family",
       {{"util/sync.hpp",
         "the annotated wrapper layer is the single place raw "
         "primitives may live; everything else builds on it"}}},
      {"cv-wait-predicate",
       "every condition-variable wait must carry a predicate — a bare "
       "wait hangs on a spurious wakeup or a lost notify",
       {}},
      {"naked-thread",
       "no std::thread/std::jthread outside util/ — concurrency goes "
       "through util::Parallel",
       {{"serve/server.hpp",
         "the server owns its worker threads by design (drain/shutdown "
         "semantics need raw join control)"},
        {"serve/server.cpp",
         "the server owns its worker threads by design (drain/shutdown "
         "semantics need raw join control)"},
        {"fleet/shard.hpp",
         "socket accept/reader/writer threads need raw join control for "
         "drain and SIGKILL-failover semantics"},
        {"fleet/shard.cpp",
         "socket accept/reader/writer threads need raw join control for "
         "drain and SIGKILL-failover semantics"},
        {"fleet/frontend.hpp",
         "heartbeat/accept/channel-reader threads need raw join control "
         "for failover and eviction semantics"},
        {"fleet/frontend.cpp",
         "heartbeat/accept/channel-reader threads need raw join control "
         "for failover and eviction semantics"},
        {"fleet/client.hpp",
         "the response-matching reader thread is the client's core "
         "pipelining mechanism"},
        {"fleet/client.cpp",
         "the response-matching reader thread is the client's core "
         "pipelining mechanism"}}},
      {"rand-time",
       "no rand()/srand()/time() outside util/rng — randomness must be "
       "seeded and reproducible via util::Rng",
       {}},
      {"own-header-first",
       "every .cpp must #include its own header first so headers are "
       "proven self-contained",
       {}},
      {"using-namespace-header",
       "no `using namespace` at namespace scope in headers — it leaks "
       "into every includer",
       {}},
  };
  return table;
}

namespace {

const Rule& rule_by_id(const std::string& id) {
  for (const Rule& r : rules()) {
    if (r.id == id) return r;
  }
  throw std::logic_error("unknown lint rule: " + id);
}

bool allowlisted(const std::string& rule_id, const std::string& needle) {
  for (const auto& [suffix, justification] : rule_by_id(rule_id).allowlist) {
    (void)justification;
    if (needle.size() >= suffix.size() &&
        needle.compare(needle.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Finds `token` at offsets where it is not preceded by an identifier
/// character or member access (`.`/`->`), and is followed (after
/// optional spaces) by `(` when `call_only` is set.
std::vector<std::size_t> find_token(const std::string& code,
                                    const std::string& token,
                                    bool call_only) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    std::size_t before = pos;
    while (before > 0 &&
           (code[before - 1] == ' ' || code[before - 1] == '\t')) {
      --before;
    }
    const bool member_access =
        before > 0 &&
        (code[before - 1] == '.' ||
         (before > 1 && code[before - 2] == '-' && code[before - 1] == '>'));
    const bool boundary =
        (pos == 0 || !ident_char(code[pos - 1])) && !member_access;
    std::size_t after = pos + token.size();
    bool call = true;
    if (call_only) {
      while (after < code.size() && (code[after] == ' ' || code[after] == '\t'))
        ++after;
      call = after < code.size() && code[after] == '(';
    }
    if (boundary && call) hits.push_back(pos);
    pos += token.size();
  }
  return hits;
}

}  // namespace

std::string strip_comments_and_strings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out.push_back(c);
        } else if (c == '\'') {
          state = State::kChar;
          out.push_back(c);
        } else {
          out.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out.push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          out.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out.push_back(c);
        } else if (c == '\n') {
          out.push_back(c);
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

Linter::Linter(fs::path src_root) : src_root_(std::move(src_root)) {
  parse_cmake_layering();
}

void Linter::parse_cmake_layering() {
  // Pass 1: dir -> library name from add_library(<name> ...).
  std::map<std::string, std::string> lib_to_dir;
  std::map<std::string, std::string> cmake_text;
  for (const auto& entry : fs::directory_iterator(src_root_)) {
    if (!entry.is_directory()) continue;
    const std::string dir = entry.path().filename().string();
    const fs::path cmake = entry.path() / "CMakeLists.txt";
    if (!fs::exists(cmake)) continue;
    std::ifstream in(cmake);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    cmake_text[dir] = text;
    const std::size_t pos = text.find("add_library(");
    if (pos == std::string::npos) continue;
    std::size_t start = pos + std::string("add_library(").size();
    std::size_t end = start;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end])) &&
           text[end] != ')')
      ++end;
    const std::string lib = text.substr(start, end - start);
    dir_to_lib_[dir] = lib;
    lib_to_dir[lib] = dir;
  }

  // Pass 2: direct deps from target_link_libraries(<lib> ... <dep>...).
  std::map<std::string, std::set<std::string>> direct;
  for (const auto& [dir, text] : cmake_text) {
    direct[dir];  // every module gets an entry, even leaf ones
    std::size_t pos = 0;
    while ((pos = text.find("target_link_libraries(", pos)) !=
           std::string::npos) {
      const std::size_t close = text.find(')', pos);
      if (close == std::string::npos) break;
      std::istringstream args(
          text.substr(pos + std::string("target_link_libraries(").size(),
                      close - pos - std::string("target_link_libraries(").size()));
      std::string word;
      while (args >> word) {
        auto it = lib_to_dir.find(word);
        if (it != lib_to_dir.end() && it->second != dir) {
          direct[dir].insert(it->second);
        }
      }
      pos = close;
    }
  }

  // Transitive closure.
  for (const auto& [dir, deps] : direct) {
    std::set<std::string>& reach = closure_[dir];
    std::vector<std::string> stack(deps.begin(), deps.end());
    while (!stack.empty()) {
      const std::string d = stack.back();
      stack.pop_back();
      if (!reach.insert(d).second) continue;
      auto it = direct.find(d);
      if (it == direct.end()) continue;
      for (const std::string& dd : it->second) stack.push_back(dd);
    }
  }
}

std::vector<Linter::SourceFile> Linter::load_sources() const {
  std::vector<SourceFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(src_root_)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".h" && ext != ".cc")
      continue;
    SourceFile f;
    f.path = entry.path();
    const fs::path rel = fs::relative(entry.path(), src_root_);
    f.module = rel.begin()->string();
    f.rel = (src_root_.filename() / rel).generic_string();
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    f.text = ss.str();
    f.code = strip_comments_and_strings(f.text);
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  return files;
}

void Linter::check_layering(const SourceFile& f,
                            std::vector<Violation>& out) const {
  std::size_t pos = 0;
  // Quoted includes survive in `text`, not `code` (they are string
  // literals), so scan the raw text but only at line starts.
  while ((pos = f.text.find("#include \"", pos)) != std::string::npos) {
    if (pos != 0 && f.text[pos - 1] != '\n') {
      pos += 1;
      continue;
    }
    const std::size_t start = pos + std::string("#include \"").size();
    const std::size_t close = f.text.find('"', start);
    if (close == std::string::npos) break;
    const std::string target = f.text.substr(start, close - start);
    pos = close;
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // in-module relative include
    const std::string target_module = target.substr(0, slash);
    if (target_module == f.module) continue;
    if (closure_.count(target_module) == 0) continue;  // not a module path
    if (allowlisted("layering", target)) continue;
    auto it = closure_.find(f.module);
    const bool allowed =
        it != closure_.end() && it->second.count(target_module) > 0;
    if (!allowed) {
      out.push_back(
          {f.rel, line_of_offset(f.text, pos), "layering",
           "includes \"" + target + "\" but module '" + f.module +
               "' does not link '" + target_module + "' in CMake",
           "link taglets_" + target_module + " (or the owning library) in " +
               "src/" + f.module + "/CMakeLists.txt, or move the shared " +
               "code to a lower layer"});
    }
  }
}

void Linter::check_naked_thread(const SourceFile& f,
                                std::vector<Violation>& out) const {
  if (f.module == "util") return;
  if (allowlisted("naked-thread", f.rel)) return;
  for (const std::string token : {"std::thread", "std::jthread"}) {
    for (std::size_t off : find_token(f.code, token, /*call_only=*/false)) {
      out.push_back({f.rel, line_of_offset(f.code, off), "naked-thread",
                     "uses " + token + " outside util/",
                     "run the work through util::Parallel, or "
                     "allowlist this file in tools/lint/lint.cpp with a "
                     "justification"});
    }
  }
}

void Linter::check_naked_mutex(const SourceFile& f,
                               std::vector<Violation>& out) const {
  if (allowlisted("naked-mutex", f.rel)) return;
  for (const std::string token :
       {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
        "std::timed_mutex", "std::condition_variable_any",
        "std::condition_variable"}) {
    for (std::size_t off : find_token(f.code, token, /*call_only=*/false)) {
      // find_token checks only the leading boundary; reject trailing
      // identifier continuation so std::condition_variable does not
      // also fire inside std::condition_variable_any.
      const std::size_t end = off + token.size();
      if (end < f.code.size() && ident_char(f.code[end])) continue;
      out.push_back({f.rel, line_of_offset(f.code, off), "naked-mutex",
                     "uses " + token + " outside util/sync.hpp",
                     "use util::Mutex / util::SharedMutex / util::CondVar "
                     "(util/sync.hpp) so the lock carries a name, a rank, "
                     "and thread-safety annotations, or allowlist this "
                     "file in tools/lint/lint.cpp with a justification"});
    }
  }
}

void Linter::check_cv_wait_predicate(const SourceFile& f,
                                     std::vector<Violation>& out) const {
  if (allowlisted("cv-wait-predicate", f.rel)) return;
  // A predicate-bearing call has 2 args for wait and 3 for
  // wait_for/wait_until (lock [, time], predicate). Receivers are
  // matched by naming convention: an identifier ending in "cv" after
  // trailing underscores (cv_, q_cv, heartbeat_cv_, ...).
  static constexpr struct {
    const char* method;
    std::size_t min_args;
  } kWaits[] = {{"wait_until", 3}, {"wait_for", 3}, {"wait", 2}};
  for (const auto& w : kWaits) {
    const std::string method = w.method;
    std::size_t pos = 0;
    while ((pos = f.code.find(method, pos)) != std::string::npos) {
      const std::size_t off = pos;
      pos += method.size();
      // Method call: preceded by '.' or '->', followed by '('.
      if (off == 0) continue;
      std::size_t recv_end = off;
      if (f.code[off - 1] == '.') {
        recv_end = off - 1;
      } else if (off >= 2 && f.code[off - 2] == '-' &&
                 f.code[off - 1] == '>') {
        recv_end = off - 2;
      } else {
        continue;
      }
      std::size_t open = off + method.size();
      if (open >= f.code.size() || f.code[open] != '(') continue;
      // Receiver identifier must look like a condition variable.
      std::size_t recv_begin = recv_end;
      while (recv_begin > 0 && ident_char(f.code[recv_begin - 1])) {
        --recv_begin;
      }
      std::string recv = f.code.substr(recv_begin, recv_end - recv_begin);
      while (!recv.empty() && recv.back() == '_') recv.pop_back();
      if (recv.size() < 2 || recv.compare(recv.size() - 2, 2, "cv") != 0) {
        continue;
      }
      // Count top-level arguments of the balanced call.
      int paren = 1;
      int brace = 0;
      int brack = 0;
      bool any = false;
      std::size_t args = 1;
      for (std::size_t i = open + 1; i < f.code.size() && paren > 0; ++i) {
        const char c = f.code[i];
        if (c == '(') ++paren;
        else if (c == ')') --paren;
        else if (c == '{') ++brace;
        else if (c == '}') --brace;
        else if (c == '[') ++brack;
        else if (c == ']') --brack;
        else if (c == ',' && paren == 1 && brace == 0 && brack == 0) ++args;
        if (paren > 0 && c != ' ' && c != '\t' && c != '\n') any = true;
      }
      if (!any) args = 0;
      if (args >= w.min_args) continue;
      out.push_back(
          {f.rel, line_of_offset(f.code, off), "cv-wait-predicate",
           recv + "." + method + " without a predicate",
           "pass the wakeup condition as the final argument so spurious "
           "wakeups and lost notifies cannot hang the wait "
           "(util::CondVar only offers predicate waits)"});
    }
  }
}

void Linter::check_rand_time(const SourceFile& f,
                             std::vector<Violation>& out) const {
  if (f.module == "util" &&
      f.path.filename().string().rfind("rng", 0) == 0)
    return;
  for (const std::string token : {"rand", "srand", "time"}) {
    for (std::size_t off : find_token(f.code, token, /*call_only=*/true)) {
      // `std::time(` is caught via the bare token after `::`; skip
      // member calls like `.time(` explicitly — the project has none,
      // but synthetic trees in tests might.
      if (off >= 1 && (f.code[off - 1] == '.')) continue;
      out.push_back({f.rel, line_of_offset(f.code, off), "rand-time",
                     "calls " + token + "() outside util/rng",
                     "use util::Rng so results are seeded and "
                     "reproducible across runs and thread counts"});
    }
  }
}

void Linter::check_own_header_first(const SourceFile& f,
                                    std::vector<Violation>& out) const {
  if (f.path.extension() != ".cpp" && f.path.extension() != ".cc") return;
  fs::path header = f.path;
  header.replace_extension(".hpp");
  if (!fs::exists(header)) return;  // mains and test drivers are exempt
  const std::string expected =
      f.module + "/" + header.filename().string();
  const std::size_t first_quoted = f.text.find("#include \"");
  const std::size_t first_angled = f.text.find("#include <");
  if (first_quoted == std::string::npos) return;
  std::string got;
  bool ok = false;
  if (first_angled == std::string::npos || first_quoted < first_angled) {
    const std::size_t start = first_quoted + std::string("#include \"").size();
    const std::size_t close = f.text.find('"', start);
    got = f.text.substr(start, close - start);
    // Accept both "module/name.hpp" and a plain "name.hpp" relative
    // include — what matters is that the file's own header leads.
    ok = got == expected || got == header.filename().string();
  } else {
    got = "<a system header>";
  }
  if (!ok) {
    out.push_back({f.rel,
                   line_of_offset(f.text, first_angled != std::string::npos
                                              ? std::min(first_quoted,
                                                         first_angled)
                                              : first_quoted),
                   "own-header-first",
                   "first #include is \"" + got + "\", expected \"" +
                       expected + "\"",
                   "move #include \"" + expected +
                       "\" to the top so the header is proven "
                       "self-contained"});
  }
}

void Linter::check_using_namespace(const SourceFile& f,
                                   std::vector<Violation>& out) const {
  if (f.path.extension() != ".hpp" && f.path.extension() != ".h") return;
  for (std::size_t off : find_token(f.code, "using namespace",
                                    /*call_only=*/false)) {
    out.push_back({f.rel, line_of_offset(f.code, off),
                   "using-namespace-header",
                   "`using namespace` at header scope leaks into every "
                   "includer",
                   "qualify the names, or scope the directive inside a "
                   "function body in a .cpp"});
  }
}

std::vector<Violation> Linter::run(const std::set<std::string>& only) const {
  std::vector<Violation> out;
  const auto enabled = [&](const char* id) {
    return only.empty() || only.count(id) > 0;
  };
  for (const SourceFile& f : load_sources()) {
    if (enabled("layering")) check_layering(f, out);
    if (enabled("naked-mutex")) check_naked_mutex(f, out);
    if (enabled("cv-wait-predicate")) check_cv_wait_predicate(f, out);
    if (enabled("naked-thread")) check_naked_thread(f, out);
    if (enabled("rand-time")) check_rand_time(f, out);
    if (enabled("own-header-first")) check_own_header_first(f, out);
    if (enabled("using-namespace-header")) check_using_namespace(f, out);
  }
  return out;
}

std::string format_report(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message
       << "\n  suggestion: " << v.suggestion << "\n";
  }
  return os.str();
}

}  // namespace taglets::lint
