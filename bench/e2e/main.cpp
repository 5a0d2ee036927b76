// taglets_bench — runs one workload of the end-to-end benchmark
// (bench/e2e/README.md).
//
//   taglets_bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//   taglets_bench --self-test
//
// Prints `workload metric value unit` lines, then, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}; writes the
// full result with provenance to DIR/<workload>-s<seed>[.layers].json.
// Exits 1 when an output check fails, 2 when it was not built Release.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "tensor/backend.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"

namespace taglets::bench {

namespace {

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pipeline-oh1", "serve-steady", "serve-saturate", "fleet-steady"};
  return names;
}

/// "<workload>-s<seed>", the stem of every file a run writes.
std::string file_stem(const Options& options) {
  return options.workload + "-s" + std::to_string(options.seed);
}

/// Writes `text` to `<out_dir>/<name>`, creating the directory.
void write_out_file(const Options& options, const std::string& name,
                    const std::string& text) {
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool release_build() {
#ifdef NDEBUG
  return std::string(TAGLETS_BENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

/// Shortest text that reads back as the same double: all its digits.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";  // += form: GCC 12 -Wrestrict FP (PR105329)
  out += obs::json_escape(s);
  out += '"';
  return out;
}

std::string metrics_json(const Result& result) {
  std::string out = "{";
  for (const auto& [name, metric] : result.metrics) {
    if (out.size() > 1) out += ",";
    out += quoted(name) + ":{\"value\":" + number(metric.value) +
           ",\"unit\":" + quoted(metric.unit) + "}";
  }
  return out + "}";
}

std::string provenance_json(const Options& options) {
  std::ostringstream os;
  os << "{\"git_sha\":" << quoted(options.git_sha)
     << ",\"git_dirty\":" << quoted(options.git_dirty)
     << ",\"build_type\":" << quoted(TAGLETS_BENCH_BUILD_TYPE)
     << ",\"ndebug\":" << (release_build() ? "true" : "false")
     << ",\"compiler\":" << quoted(TAGLETS_BENCH_COMPILER)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"parallel_threads\":" << util::Parallel::global().threads()
     << ",\"tensor_backend\":" << quoted(tensor::backend::active_name())
     << ",\"workload\":" << quoted(options.workload)
     << ",\"seed\":" << options.seed << ",\"seconds\":" << number(options.seconds)
     << ",\"trace\":" << (options.trace ? "true" : "false") << "}";
  return os.str();
}

std::string result_json(const Options& options, const Result& result) {
  std::ostringstream os;
  os << "{\"workload\":" << quoted(options.workload)
     << ",\"seed\":" << options.seed
     << ",\"trace\":" << (options.trace ? "true" : "false")
     << ",\"correct\":" << (result.correct() ? "true" : "false")
     << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
     << ",\n \"provenance\":" << provenance_json(options)
     << ",\n \"metrics\":" << metrics_json(result) << ",\n \"info\":{";
  bool first = true;
  for (const auto& [name, value] : result.info) {
    os << (first ? "" : ",") << quoted(name) << ":" << number(value);
    first = false;
  }
  os << "},\n \"checks\":[";
  first = true;
  for (const Check& c : result.checks) {
    os << (first ? "" : ",") << "{\"name\":" << quoted(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << quoted(c.detail) << "}";
    first = false;
  }
  os << "]";
  if (!result.spans.empty()) {
    os << ",\n \"spans\":{";
    first = true;
    for (const auto& [name, s] : result.spans) {
      os << (first ? "" : ",") << "\n  " << quoted(name)
         << ":{\"count\":" << s.count << ",\"incl_s\":" << number(s.incl_us * 1e-6)
         << ",\"self_s\":" << number(s.self_us * 1e-6) << "}";
      first = false;
    }
    os << "}";
  }
  os << "}\n";
  return os.str();
}

Options parse(const util::ArgParser& args) {
  Options options;
  options.workload = args.get("workload", "");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("--workload must be one of pipeline-oh1, "
                                "serve-steady, serve-saturate, fleet-steady");
  }
  const long seed = args.get_long("seed", 1);
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = args.get_double("seconds", 15.0);
  if (!(options.seconds >= 1.0 && options.seconds <= 60.0)) {
    throw std::invalid_argument("--seconds must be in [1, 60]");
  }
  options.trace = args.get_long("trace", 0) != 0;
  options.out_dir = args.get("out", "bench/e2e/out");
  options.git_sha = args.get("git-sha", "unknown");
  options.git_dirty = args.get("git-dirty", "unknown");
  return options;
}

Result run(const Options& options) {
  Result result;
  if (!options.trace) {
    if (options.workload == "pipeline-oh1") return run_pipeline(options);
    if (options.workload == "fleet-steady") return run_fleet(options);
    return run_serve(options);
  }
  const bool serving = options.workload.rfind("serve-", 0) == 0;
  pipeline_layers(options, options.workload == "pipeline-oh1", result);
  serve_layers(options, serving, result);
  fleet_layers(options, options.workload == "fleet-steady", result);
  kernel_layers(result);
  result.attempted = 1;
  return result;
}

}  // namespace

}  // namespace taglets::bench

int main(int argc, char** argv) {
  using namespace taglets;
  try {
    const util::ArgParser args(argc, argv);
    if (args.get_flag("self-test")) {
      const bool ok = bench::reducer_self_test();
      std::cout << "reducer self-test " << (ok ? "passed" : "FAILED") << "\n";
      return ok ? 0 : 1;
    }
    if (!bench::release_build()) {
      std::cerr << "taglets_bench: refusing to run a non-Release build "
                   "(build type '" TAGLETS_BENCH_BUILD_TYPE "')\n";
      return 2;
    }
    const bench::Options options = bench::parse(args);
    // Untraced numbers are untraced whatever TAGLETS_TRACE says.
    obs::set_trace_enabled(false);
    const bench::Result result = bench::run(options);

    const std::string stem = bench::file_stem(options);
    bench::write_out_file(options, stem + (options.trace ? ".layers.json" : ".json"),
                          bench::result_json(options, result));
    if (!result.raw_trace.empty()) {
      bench::write_out_file(options, stem + ".trace.json", result.raw_trace);
    }
    for (const bench::Check& c : result.checks) {
      if (!c.ok) std::cerr << "CHECK FAILED: " << c.name << " " << c.detail << "\n";
    }
    for (const auto& [name, metric] : result.metrics) {
      std::cout << options.workload << " " << name << " "
                << bench::number(metric.value) << " " << metric.unit << "\n";
    }
    std::cout << "{\"correct\":" << (result.correct() ? "true" : "false")
              << ",\"attempted\":" << result.attempted
              << ",\"failed\":" << result.failed
              << ",\"metrics\":" << bench::metrics_json(result) << "}"
              << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "taglets_bench: " << e.what() << "\n";
    return 1;
  }
}
