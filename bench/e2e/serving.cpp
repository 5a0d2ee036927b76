// serve-steady, serve-saturate and fleet-steady, and the serve, fleet
// and kernel parts of every traced run.
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ensemble/servable.hpp"
#include "fleet/client.hpp"
#include "fleet/socket.hpp"
#include "fleet/trace_merge.hpp"
#include "nn/sequential.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace taglets::bench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using tensor::Tensor;

// Traffic shapes; bench/e2e/README.md gives the reason for each.
constexpr double kSteadyRate = 20000.0;     // serve-steady, req/s
constexpr double kFleetRate = 10000.0;      // fleet-steady, req/s
constexpr std::size_t kSaturateDepth = 64;  // serve-saturate, outstanding
constexpr double kWarmupS = 1.0;
/// Traffic seconds per phase when a traced run measures a layer that is
/// not on its own workload's path.
constexpr double kProbeS = 2.0;
/// Traffic seconds with the tracer on: enough to price it, short enough
/// that the raw trace stays tens of MB at serve-saturate's rate.
constexpr double kTracedS = 1.0;
constexpr int kServeSetups = 15;
constexpr int kFleetSetups = 9;
/// Distinct request inputs; request i sends input i % kInputs.
constexpr std::size_t kInputs = 4096;
constexpr std::size_t kInputDim = 64;
constexpr std::size_t kClasses = 65;
constexpr auto kResolveTimeout = std::chrono::seconds(30);
constexpr auto kStartTimeout = std::chrono::seconds(20);

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Shaped like the OfficeHome end model (64 -> 160 -> 32 encoder,
/// 65-way head); the weights come from a fixed seed.
ensemble::ServableModel make_model() {
  util::Rng rng(23);
  nn::Sequential encoder = nn::make_mlp({kInputDim, 160, 32}, rng);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::string name = "c";  // += form: GCC 12 -Wrestrict FP (PR105329)
    name += std::to_string(c);
    names.push_back(name);
  }
  return ensemble::ServableModel(nn::Classifier(encoder, 32, kClasses, rng),
                                 std::move(names));
}

/// Submission queue bound. Admission control is not under test: the
/// bound holds 200 ms of serve-steady's arrivals, because on a shared
/// 4-vCPU VM whole vCPUs were seen descheduled for up to 44 ms, which
/// overflowed the product default of 256 in about half of 15 s runs.
constexpr std::size_t kQueueCapacity = 4096;

/// The `taglets_run --serve` defaults but for the queue bound.
serve::ServerConfig server_config() {
  serve::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = kQueueCapacity;
  config.batching.max_batch_size = 16;
  config.batching.max_delay_ms = 1.0;
  return config;
}

/// Request inputs from the seed, and the label each must come back with,
/// computed up front on a private copy of the model.
struct Inputs {
  Tensor matrix;
  std::vector<std::size_t> labels;
};

Inputs make_inputs(std::uint64_t seed, const ensemble::ServableModel& model) {
  Inputs inputs;
  inputs.matrix = Tensor::zeros(kInputs, kInputDim);
  util::Rng rng(util::combine_seeds({seed, 0x5E7EULL}));
  for (float& v : inputs.matrix.data()) v = static_cast<float>(rng.normal());
  ensemble::ServableModel reference = model;
  inputs.labels = reference.predict_batch(inputs.matrix);
  return inputs;
}

/// Samples grow in small blocks: growing one large array while the
/// server runs unmaps the old one, which stalled every thread of the
/// process for up to 14 ms.
using Samples = std::deque<float>;

double pct(const Samples& samples, double p) {
  return percentile({samples.begin(), samples.end()}, p);
}

/// The measured window is cut into slices of this length, and each
/// end-to-end metric but p99 is the median over the slices: a burst of
/// lost CPU (vCPUs of a shared VM were seen descheduled for up to 44 ms)
/// then moves one slice, not the run. A median of slice p99s is noisy
/// when the program itself stalls often: in fleet-steady every 50 ms
/// heartbeat stalls a shard, a slice's p99 is set by its slowest one or
/// two stalls, and the median spread 13-22% across seeds. So p99 pools
/// the slices instead, leaving out those whose p99 is more than twice
/// the median slice's, which hold a stall of the host: 3-5% spread in
/// fleet-steady and serve-steady on a quiet host.
constexpr double kSliceS = 1.0;

/// serve-saturate reads its peak resident set when it has sent this many
/// requests, not at the end: the server keeps every latency it records,
/// so memory grows with the request count, and a closed loop's count
/// follows the host's speed. A fixed count, well between the powers of
/// two at which those sample arrays grow, makes the reading repeatable.
/// Reached after about 4 s at the measured 170k-260k req/s.
constexpr std::size_t kRssMarkRequests = 786432;  // 0.75 * 2^20

struct Slice {
  Samples latency_ms;  // ok requests
  std::size_t measured = 0;
  std::size_t ok = 0;
  double cpu_s = 0.0;
};

/// What the client saw. Slices and layer fields cover the measured
/// window; the correctness counts cover every request.
struct Traffic {
  explicit Traffic(double seconds, bool layer_fields)
      : window_s(seconds),
        layers(layer_fields),
        slices(static_cast<std::size_t>(std::ceil(seconds / kSliceS))) {}

  double window_s;
  bool layers;  // also record the per-layer fields below
  std::vector<Slice> slices;
  std::size_t submitted = 0;
  std::size_t resolved = 0;
  std::size_t wrong = 0;  // ok, but not the reference label
  std::size_t measured = 0;
  std::size_t measured_ok = 0;
  std::size_t measured_right = 0;
  Samples lateness_ms;  // open loop: send time minus due time
  Samples submit_us;    // time inside the submit call
  Samples queue_ms, compute_ms, batch_rows;      // serve
  Samples shard_ms, shard_queue_ms, outside_ms;  // fleet
  /// Closed loop: peak resident set when request kRssMarkRequests was
  /// sent; 0 if the run sent fewer.
  double rss_mark_mib = 0.0;

  Slice& slice_at(double window_offset_s) {
    const auto k = static_cast<std::size_t>(std::max(0.0, window_offset_s / kSliceS));
    return slices[std::min(k, slices.size() - 1)];
  }
  /// The median over slices of one per-slice statistic.
  template <class F>
  double slice_median(F per_slice) const {
    std::vector<double> values;
    for (const Slice& s : slices) {
      if (s.ok > 0) values.push_back(per_slice(s));
    }
    return median(values);
  }
  double p50_ms() const {
    return slice_median([](const Slice& s) { return pct(s.latency_ms, 0.50); });
  }
  double ok_per_s() const {
    return slice_median([](const Slice& s) { return s.ok / kSliceS; });
  }
  /// p99 over the slices, leaving out those whose own p99 is more than
  /// twice the median slice's; `dropped` counts them.
  double p99_ms(std::size_t* dropped) const {
    std::vector<double> slice_p99;
    for (const Slice& s : slices) {
      if (s.ok > 0) slice_p99.push_back(pct(s.latency_ms, 0.99));
    }
    const double limit = 2.0 * median(slice_p99);
    Samples kept;
    *dropped = 0;
    for (const Slice& s : slices) {
      if (s.ok == 0) continue;
      if (pct(s.latency_ms, 0.99) > limit) {
        ++*dropped;
      } else {
        kept.insert(kept.end(), s.latency_ms.begin(), s.latency_ms.end());
      }
    }
    return pct(kept, 0.99);
  }
};

/// Calls into an in-process serve::Server.
struct ServeTarget {
  serve::Server& server;
  const Inputs& inputs;

  Tensor make(std::size_t i) const { return inputs.matrix.row_copy(i % kInputs); }
  std::future<serve::Response> send(std::size_t, Tensor x) {
    return server.submit(std::move(x));
  }
  static bool ok(const serve::Response& r) { return r.ok(); }
  bool right(std::size_t i, const serve::Response& r) const {
    return r.label == inputs.labels[i % kInputs];
  }
  static void record(const serve::Response& r, double, Traffic& t) {
    t.queue_ms.push_back(static_cast<float>(r.queue_ms));
    t.compute_ms.push_back(static_cast<float>(r.total_ms - r.queue_ms));
    t.batch_rows.push_back(static_cast<float>(r.batch_size));
  }
};

/// Calls through a FleetClient to the frontend; routing key = index.
struct FleetTarget {
  fleet::FleetClient& client;
  const Inputs& inputs;

  std::vector<float> make(std::size_t i) const {
    const auto row = inputs.matrix.row(i % kInputs);
    return {row.begin(), row.end()};
  }
  std::future<fleet::PredictResponse> send(std::size_t i, std::vector<float> x) {
    return client.submit(std::move(x), i);
  }
  static bool ok(const fleet::PredictResponse& r) {
    return r.status == fleet::Status::kOk;
  }
  bool right(std::size_t i, const fleet::PredictResponse& r) const {
    return r.label == inputs.labels[i % kInputs];
  }
  static void record(const fleet::PredictResponse& r, double service_ms,
                     Traffic& t) {
    t.shard_ms.push_back(static_cast<float>(r.shard_ms));
    t.shard_queue_ms.push_back(static_cast<float>(r.queue_wait_ms));
    t.outside_ms.push_back(static_cast<float>(service_ms - r.shard_ms));
  }
};

/// Books one resolved request; `slice` is null outside the window.
template <class Target, class Response>
void tally(Target& target, std::size_t i, const Response& response,
           Slice* slice, double latency_ms, double service_ms, Traffic& t) {
  ++t.resolved;
  const bool ok = Target::ok(response);
  const bool right = ok && target.right(i, response);
  if (ok && !right) ++t.wrong;
  if (slice == nullptr) return;
  ++t.measured;
  ++slice->measured;
  if (!ok) return;
  ++t.measured_ok;
  ++slice->ok;
  if (right) ++t.measured_right;
  slice->latency_ms.push_back(static_cast<float>(latency_ms));
  if (t.layers) Target::record(response, service_ms, t);
}

/// Open loop: one thread sends on a Poisson schedule from the seed,
/// this thread collects in send order. Latency runs from each request's
/// due time, so a stalled sender charges its delay to the requests.
template <class Target>
Traffic open_loop(Target& target, double rate, double warmup_s, double seconds,
                  std::uint64_t seed, bool layers,
                  const std::function<double()>& cpu_now) {
  util::Rng rng(util::combine_seeds({seed, 0xA881ULL}));
  std::vector<double> due_s;
  for (double t = -std::log(1.0 - rng.uniform()) / rate; t < warmup_s + seconds;
       t += -std::log(1.0 - rng.uniform()) / rate) {
    due_s.push_back(t);
  }
  const std::size_t n = due_s.size();
  using Future = decltype(target.send(0, target.make(0)));
  std::vector<Future> futures(n);
  std::vector<double> lateness_ms(n), submit_us(n);
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_failed{false};
  std::exception_ptr sender_error;
  Traffic t(seconds, layers);
  // CPU read at each slice boundary; read here after the sender joins.
  std::vector<double> cpu_marks(t.slices.size() + 1, 0.0);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(10);
  const auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  std::thread sender([&] {
    try {
      // Wake as close to each due time as the kernel allows.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::size_t mark = 0;
      for (std::size_t i = 0; i < n; ++i) {
        auto request = target.make(i);
        const Clock::time_point due = at(due_s[i]);
        std::this_thread::sleep_until(due);
        while (mark < t.slices.size() && due_s[i] >= warmup_s + mark * kSliceS) {
          cpu_marks[mark++] = cpu_now();
        }
        const Clock::time_point t0 = Clock::now();
        futures[i] = target.send(i, std::move(request));
        const Clock::time_point t1 = Clock::now();
        lateness_ms[i] = ms_between(due, t0);
        submit_us[i] = 1e3 * ms_between(t0, t1);
        sent.store(i + 1, std::memory_order_release);
        sent.notify_one();
      }
      for (; mark <= t.slices.size(); ++mark) {
        std::this_thread::sleep_until(at(warmup_s + mark * kSliceS));
        cpu_marks[mark] = cpu_now();
      }
    } catch (...) {
      sender_error = std::current_exception();
      sender_failed.store(true, std::memory_order_release);
      sent.notify_one();
    }
  });

  t.submitted = n;
  bool stalled = false;
  for (std::size_t i = 0; i < n && !stalled; ++i) {
    // Block (not spin) until request i is sent: the collector must not
    // take CPU from the server it measures.
    for (std::size_t seen = sent.load(std::memory_order_acquire);
         seen <= i && !sender_failed.load(std::memory_order_acquire);
         seen = sent.load(std::memory_order_acquire)) {
      sent.wait(seen, std::memory_order_acquire);
    }
    if (sent.load(std::memory_order_acquire) <= i) break;
    if (futures[i].wait_for(kResolveTimeout) != std::future_status::ready) {
      stalled = true;
      break;
    }
    const auto response = futures[i].get();
    const double latency_ms = ms_between(at(due_s[i]), Clock::now());
    const bool measured = due_s[i] >= warmup_s;
    tally(target, i, response, measured ? &t.slice_at(due_s[i] - warmup_s) : nullptr,
          latency_ms, latency_ms - lateness_ms[i], t);
    if (measured) {
      t.lateness_ms.push_back(static_cast<float>(lateness_ms[i]));
      if (layers) t.submit_us.push_back(static_cast<float>(submit_us[i]));
    }
  }
  sender.join();
  if (sender_error) std::rethrow_exception(sender_error);
  if (stalled) throw std::runtime_error("a request did not resolve in time");
  for (std::size_t k = 0; k < t.slices.size(); ++k) {
    t.slices[k].cpu_s = cpu_marks[k + 1] - cpu_marks[k];
  }
  return t;
}

/// Closed loop: this thread keeps `depth` requests outstanding and
/// sends the next one each time the oldest resolves.
template <class Target>
Traffic closed_loop(Target& target, std::size_t depth, double warmup_s,
                    double seconds, bool layers,
                    const std::function<double()>& cpu_now) {
  using Future = decltype(target.send(0, target.make(0)));
  struct InFlight {
    std::size_t index;
    Clock::time_point sent;
    Future future;
  };
  std::deque<InFlight> outstanding;
  std::size_t next = 0;
  Traffic t(seconds, layers);
  const auto send = [&] {
    auto request = target.make(next);
    const Clock::time_point t0 = Clock::now();
    Future future = target.send(next, std::move(request));
    if (layers) t.submit_us.push_back(static_cast<float>(1e3 * ms_between(t0, Clock::now())));
    outstanding.push_back({next++, t0, std::move(future)});
    if (next == kRssMarkRequests) t.rss_mark_mib = peak_rss_mib();
  };
  const auto resolve = [&](InFlight& f) {
    if (f.future.wait_for(kResolveTimeout) != std::future_status::ready) {
      throw std::runtime_error("a request did not resolve in time");
    }
    return f.future.get();
  };

  const Clock::time_point start = Clock::now();
  const auto offset_s = [&](Clock::time_point tp) {
    return std::chrono::duration<double>(tp - start).count();
  };
  while (outstanding.size() < depth) send();
  std::vector<double> cpu_marks;  // at each slice boundary
  for (;;) {
    InFlight f = std::move(outstanding.front());
    outstanding.pop_front();
    const auto response = resolve(f);
    const double done_s = offset_s(Clock::now());
    while (cpu_marks.size() <= t.slices.size() &&
           done_s >= warmup_s + static_cast<double>(cpu_marks.size()) * kSliceS) {
      cpu_marks.push_back(cpu_now());
    }
    const bool measured = !cpu_marks.empty() && cpu_marks.size() <= t.slices.size();
    const double latency_ms = 1e3 * (done_s - offset_s(f.sent));
    tally(target, f.index, response,
          measured ? &t.slice_at(done_s - warmup_s) : nullptr, latency_ms,
          latency_ms, t);
    if (cpu_marks.size() > t.slices.size()) break;
    send();
  }
  for (std::size_t k = 0; k < t.slices.size(); ++k) {
    t.slices[k].cpu_s = cpu_marks[k + 1] - cpu_marks[k];
  }
  for (InFlight& f : outstanding) {
    tally(target, f.index, resolve(f), nullptr, 0.0, 0.0, t);
  }
  t.submitted = next;
  return t;
}

/// Per-run directory under the out dir for the model file, the
/// fleet's sockets and the child logs; removed when the run ends.
class RunDir {
 public:
  explicit RunDir(const Options& options)
      : dir_(fs::absolute(fs::path(options.out_dir) /
                          ("tmp-" + std::to_string(::getpid())))) {
    fs::create_directories(dir_);
    // A socket path has at most 107 bytes; the children share this
    // process's working directory, so a relative path is shortest.
    std::error_code ec;
    const fs::path relative = fs::relative(dir_, ec);
    socket_dir_ = ec || relative.empty() ? dir_ : relative;
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  std::string file(const std::string& name) const { return (dir_ / name).string(); }
  std::string socket(const std::string& name) const {
    return "unix:" + (socket_dir_ / name).string();
  }

 private:
  fs::path dir_;
  fs::path socket_dir_;
};

/// `taglets_run --fleet-frontend` over two `--fleet-shard` processes,
/// with product defaults but for the queue bound, and one client
/// connected to the frontend.
class Fleet {
 public:
  Fleet(const RunDir& run_dir, const std::string& name, bool traced,
        const Inputs& inputs) {
    try {
      std::string groups;
      for (int s = 0; s < 2; ++s) {
        const std::string shard = name + "-s" + std::to_string(s);
        const std::string endpoint = run_dir.socket(shard + ".sock");
        pids_.push_back(spawn({"--fleet-shard", "--load", run_dir.file("model.bin"),
                               "--fleet-endpoint", endpoint, "--serve-queue",
                               std::to_string(kQueueCapacity)},
                              run_dir.file(shard + ".log"), traced));
        wait_connectable(endpoint, pids_.back(), run_dir.file(shard + ".log"));
        groups += (s == 0 ? "g0=" : ";g1=") + endpoint;
      }
      const std::string front = run_dir.socket(name + "-front.sock");
      pids_.push_back(spawn({"--fleet-frontend", "--fleet-endpoint", front,
                             "--fleet-groups", groups},
                            run_dir.file(name + "-front.log"), traced));
      wait_connectable(front, pids_.back(), run_dir.file(name + "-front.log"));
      fleet::FleetClientConfig config;
      config.endpoint = front;
      client_ = std::make_unique<fleet::FleetClient>(config);
      // Ready once the frontend has heard from the shards and answers.
      const auto row = inputs.matrix.row(0);
      const Clock::time_point deadline = Clock::now() + kStartTimeout;
      for (;;) {
        const fleet::PredictResponse r =
            client_->predict(std::vector<float>(row.begin(), row.end()), 0);
        if (r.status == fleet::Status::kOk) {
          if (r.label != inputs.labels[0]) {
            throw std::runtime_error("fleet answered with a wrong label");
          }
          break;
        }
        if (Clock::now() > deadline) throw std::runtime_error("fleet never became ready");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  fleet::FleetClient& client() { return *client_; }

  double children_cpu_s() const {
    double total = 0.0;
    for (const pid_t pid : pids_) total += process_cpu_seconds(pid);
    return total;
  }

  /// Stops every process, frontend first, and returns their summed peak
  /// resident set in MiB. Idempotent.
  double stop() {
    if (client_) client_->close();
    client_.reset();
    for (auto it = pids_.rbegin(); it != pids_.rend(); ++it) {
      rusage usage{};
      reap(*it, &usage);
      peak_rss_mib_ += static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    pids_.clear();
    return peak_rss_mib_;
  }

 private:
  static pid_t spawn(const std::vector<std::string>& args, const std::string& log,
                     bool traced) {
    // Everything the child needs is built before fork(): after it, only
    // async-signal-safe calls are allowed.
    std::vector<std::string> argv_text = {TAGLETS_RUN_PATH};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    std::vector<std::string> env_text;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "TAGLETS_TRACE=", 14) != 0) env_text.emplace_back(*e);
    }
    if (traced) env_text.emplace_back("TAGLETS_TRACE=1");
    std::vector<char*> argv, envp;
    for (std::string& s : argv_text) argv.push_back(s.data());
    for (std::string& s : env_text) envp.push_back(s.data());
    argv.push_back(nullptr);
    envp.push_back(nullptr);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw std::runtime_error("cannot open " + log);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Die with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close_range(3, ~0U, 0);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(fd);
    if (pid < 0) throw std::runtime_error("fork failed");
    return pid;
  }

  static void wait_connectable(const std::string& endpoint, pid_t pid,
                               const std::string& log) {
    const fleet::Endpoint ep = fleet::Endpoint::parse(endpoint);
    const Clock::time_point deadline = Clock::now() + kStartTimeout;
    for (;;) {
      try {
        const fleet::Connection probe =
            fleet::Connection::connect(ep, std::chrono::milliseconds(250));
        (void)probe;
        return;
      } catch (const fleet::SocketError&) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          throw std::runtime_error("fleet process exited early; see " + log);
        }
        if (Clock::now() > deadline) {
          throw std::runtime_error(endpoint + " never accepted; see " + log);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  /// SIGTERM, then SIGKILL if the process has not exited within 5 s.
  static void reap(pid_t pid, rusage* usage) {
    int status = 0;
    ::kill(pid, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (::wait4(pid, &status, WNOHANG, usage) != 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    ::wait4(pid, &status, 0, usage);
  }

  std::vector<pid_t> pids_;
  std::unique_ptr<fleet::FleetClient> client_;
  double peak_rss_mib_ = 0.0;
};

void check_traffic(const std::string& phase, const Traffic& t, Result& result) {
  result.check(phase + ": every request resolved exactly once",
               t.resolved == t.submitted,
               std::to_string(t.resolved) + " of " + std::to_string(t.submitted));
  result.check(phase + ": every ok label equals the reference label",
               t.wrong == 0, std::to_string(t.wrong) + " wrong");
}

/// The end-to-end metrics every serving workload reports.
void report(const Traffic& t, const std::vector<double>& setup_s,
            double peak_rss, Result& result) {
  check_traffic("traffic", t, result);
  result.attempted = t.measured;
  result.failed = t.measured - t.measured_ok;
  const double attempted = static_cast<double>(std::max<std::size_t>(1, t.measured));
  std::size_t p99_slices_dropped = 0;
  auto& m = result.metrics;
  m["setup_s"] = {median(setup_s), "s"};
  m["p50_ms"] = {t.p50_ms(), "ms"};
  m["p99_ms"] = {t.p99_ms(&p99_slices_dropped), "ms"};
  m["throughput"] = {t.ok_per_s(), "1/s"};
  m["cpu_ms_per_op"] = {t.slice_median([](const Slice& s) {
                          return 1e3 * s.cpu_s / static_cast<double>(s.measured);
                        }),
                        "ms"};
  m["peak_rss_mb"] = {peak_rss, "MiB"};
  m["accuracy"] = {static_cast<double>(t.measured_right) / attempted, "fraction"};
  // Whole-window figures, for context.
  Samples all;
  for (const Slice& s : t.slices) all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
  result.info["samples"] = static_cast<double>(all.size());
  result.info["window_p50_ms"] = pct(all, 0.50);
  result.info["window_p99_ms"] = pct(all, 0.99);
  result.info["window_p999_ms"] = pct(all, 0.999);
  result.info["p99_slices_dropped"] = static_cast<double>(p99_slices_dropped);
  result.info["window_ok_per_s"] = static_cast<double>(t.measured_ok) / t.window_s;
  result.info["submitted"] = static_cast<double>(t.submitted);
  result.info["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  result.info["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());
  if (!t.lateness_ms.empty()) {
    result.info["lateness_p50_ms"] = pct(t.lateness_ms, 0.50);
    result.info["lateness_p99_ms"] = pct(t.lateness_ms, 0.99);
  }
}

std::uint64_t frontend_counter(const fleet::MetricsResponse& metrics,
                               const std::string& name) {
  for (const obs::MetricsSnapshot& snap : metrics.snapshots) {
    const bool is_shard =
        std::any_of(snap.meta.begin(), snap.meta.end(),
                    [](const auto& kv) { return kv.first == "replica_endpoint"; });
    if (is_shard) continue;
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
  }
  return 0;
}

}  // namespace

Result run_serve(const Options& options) {
  const bool saturate = options.workload == "serve-saturate";
  // glibc's default (128 KiB) made fixed, which turns off its dynamic
  // threshold: otherwise whether the server's growing sample arrays are
  // re-served from a freed heap block or freshly mapped depends on which
  // thread grows them, and the peak resident set at a fixed request count
  // varied between 28 and 34 MiB. Requests and batches are far below the
  // threshold, so the serving path allocates as before.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Result result;
  RunDir run_dir(options);
  const std::string model_path = run_dir.file("model.bin");
  const ensemble::ServableModel model = make_model();
  model.save(model_path);
  const Inputs inputs = make_inputs(options.seed, model);

  // Set-up: load the model file, start the server, answer one request.
  std::vector<double> setup_s;
  bool first_right = true;
  for (int i = 0; i < kServeSetups; ++i) {
    util::Timer timer;
    serve::Server server(ensemble::ServableModel::load(model_path), server_config());
    server.start();
    const serve::Response first = server.predict(inputs.matrix.row_copy(0));
    setup_s.push_back(timer.elapsed_seconds());
    first_right = first_right && first.ok() && first.label == inputs.labels[0];
  }
  result.check("set-up: first request answered with the reference label",
               first_right);

  serve::Server server(ensemble::ServableModel::load(model_path), server_config());
  server.start();
  ServeTarget target{server, inputs};
  const std::function<double()> cpu = [] { return process_cpu_seconds(); };
  const Traffic t =
      saturate ? closed_loop(target, kSaturateDepth, kWarmupS, options.seconds, false, cpu)
               : open_loop(target, kSteadyRate, kWarmupS, options.seconds, options.seed,
                           false, cpu);
  server.stop();
  if (saturate) {
    result.check("traffic: sent the requests peak_rss_mb is read at",
                 t.rss_mark_mib > 0.0, std::to_string(t.submitted) + " sent");
  }
  report(t, setup_s, saturate ? t.rss_mark_mib : peak_rss_mib(), result);
  return result;
}

Result run_fleet(const Options& options) {
  Result result;
  RunDir run_dir(options);
  const ensemble::ServableModel model = make_model();
  model.save(run_dir.file("model.bin"));
  const Inputs inputs = make_inputs(options.seed, model);

  // Set-up: start the processes and wait until the fleet answers.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kFleetSetups; ++i) {
    std::string name = "f";  // += form: GCC 12 -Wrestrict FP (PR105329)
    name += std::to_string(i);
    fleet.reset();
    util::Timer timer;
    fleet = std::make_unique<Fleet>(run_dir, name, false, inputs);
    setup_s.push_back(timer.elapsed_seconds());
  }
  FleetTarget target{fleet->client(), inputs};
  const std::function<double()> cpu = [&] {
    return process_cpu_seconds() + fleet->children_cpu_s();
  };
  const Traffic t =
      open_loop(target, kFleetRate, kWarmupS, options.seconds, options.seed, false, cpu);
  const double children_rss = fleet->stop();
  report(t, setup_s, peak_rss_mib() + children_rss, result);
  return result;
}

void serve_layers(const Options& options, bool own, Result& result) {
  const bool saturate = own && options.workload == "serve-saturate";
  const double phase_s = own ? std::max(kProbeS, options.seconds / 2) : kProbeS;
  const ensemble::ServableModel model = make_model();
  const Inputs inputs = make_inputs(options.seed, model);
  const std::function<double()> cpu = [] { return process_cpu_seconds(); };
  serve::Server server(model, server_config());
  server.start();
  ServeTarget target{server, inputs};
  const auto phase = [&](double warmup_s, double seconds) {
    return saturate ? closed_loop(target, kSaturateDepth, warmup_s, seconds, true, cpu)
                    : open_loop(target, kSteadyRate, warmup_s, seconds, options.seed,
                                true, cpu);
  };

  // Response fields need no tracing, so the layer numbers come from the
  // untraced phase; a traced phase on the warm server prices the tracer.
  const Traffic plain = phase(kWarmupS, phase_s);
  obs::Tracer& tracer = obs::Tracer::global();
  obs::set_trace_enabled(true);
  const double begin_us = tracer.now_us();
  const Traffic traced = phase(0.0, kTracedS);
  const double end_us = tracer.now_us();
  obs::set_trace_enabled(false);
  server.stop();
  check_traffic("serve untraced", plain, result);
  check_traffic("serve traced", traced, result);

  auto& m = result.metrics;
  m["serve.submit_us_p50"] = {pct(plain.submit_us, 0.50), "us"};
  m["serve.queue_ms_p50"] = {pct(plain.queue_ms, 0.50), "ms"};
  m["serve.queue_ms_p99"] = {pct(plain.queue_ms, 0.99), "ms"};
  m["serve.compute_ms_p50"] = {pct(plain.compute_ms, 0.50), "ms"};
  m["serve.batch_rows_mean"] = {mean({plain.batch_rows.begin(), plain.batch_rows.end()}), "rows"};
  if (own) {
    // Saturated: time per request; otherwise the median latency.
    const auto main_metric = [&](const Traffic& t) {
      return saturate ? 1.0 / t.ok_per_s() : t.p50_ms();
    };
    m["obs.trace_overhead"] = {main_metric(traced) / main_metric(plain), "ratio"};
    result.spans = reduce_spans(tracer_spans(begin_us, end_us));
    result.raw_trace = tracer.export_json();
  }
  tracer.clear();
}

void fleet_layers(const Options& options, bool own, Result& result) {
  const double phase_s = own ? std::max(kProbeS, options.seconds / 2) : kProbeS;
  RunDir run_dir(options);
  const ensemble::ServableModel model = make_model();
  model.save(run_dir.file("model.bin"));
  const Inputs inputs = make_inputs(options.seed, model);
  const std::function<double()> cpu = [] { return process_cpu_seconds(); };

  Traffic plain(phase_s, true);
  std::uint64_t failovers = 0, overloaded = 0;
  {
    Fleet fleet(run_dir, "plain", false, inputs);
    FleetTarget target{fleet.client(), inputs};
    plain = open_loop(target, kFleetRate, kWarmupS, phase_s, options.seed, true, cpu);
    const fleet::MetricsResponse metrics = fleet.client().fleet_metrics();
    failovers = frontend_counter(metrics, "fleet.frontend.failovers_total");
    overloaded = frontend_counter(metrics, "fleet.frontend.overloaded_total");
  }
  Traffic traced(kTracedS, true);
  fleet::TraceExportResponse trace;
  {
    Fleet fleet(run_dir, "traced", true, inputs);
    FleetTarget target{fleet.client(), inputs};
    obs::set_trace_enabled(true);
    traced = open_loop(target, kFleetRate, kWarmupS, kTracedS, options.seed, true, cpu);
    obs::set_trace_enabled(false);
    if (own) trace = fleet.client().trace_export();
  }
  check_traffic("fleet untraced", plain, result);
  check_traffic("fleet traced", traced, result);

  auto& m = result.metrics;
  m["fleet.client_submit_us_p50"] = {pct(plain.submit_us, 0.50), "us"};
  m["fleet.shard_ms_p50"] = {pct(plain.shard_ms, 0.50), "ms"};
  m["fleet.shard_ms_p99"] = {pct(plain.shard_ms, 0.99), "ms"};
  m["fleet.shard_queue_ms_p99"] = {pct(plain.shard_queue_ms, 0.99), "ms"};
  m["fleet.outside_shard_ms_p50"] = {pct(plain.outside_ms, 0.50), "ms"};
  m["fleet.outside_shard_ms_p99"] = {pct(plain.outside_ms, 0.99), "ms"};
  m["fleet.failovers"] = {static_cast<double>(failovers), "count"};
  m["fleet.overloaded"] = {static_cast<double>(overloaded), "count"};
  if (own) {
    m["obs.trace_overhead"] = {traced.p50_ms() / plain.p50_ms(), "ratio"};
    // Lanes are per process and thread; timestamps on the frontend's clock.
    std::vector<Span> spans;
    for (std::size_t p = 0; p < trace.processes.size(); ++p) {
      const fleet::ProcessTrace& process = trace.processes[p];
      for (const fleet::WireSpan& s : process.spans) {
        spans.push_back({s.name, (static_cast<std::uint64_t>(p + 1) << 32) | s.tid,
                         s.ts_us + process.align_offset_us, s.dur_us, s.depth});
      }
    }
    result.spans = reduce_spans(std::move(spans));
    result.raw_trace = fleet::render_chrome_trace(trace.processes);
  }
  obs::Tracer::global().clear();
}

void kernel_layers(Result& result) {
  // GFLOP/s of tensor::matmul: the median of short batches of calls.
  double checksum = 0.0;
  const auto gemm_gflops = [&](std::size_t m, std::size_t k, std::size_t n) {
    util::Rng rng(7);
    Tensor a = Tensor::zeros(m, k);
    Tensor b = Tensor::zeros(k, n);
    for (float& v : a.data()) v = static_cast<float>(rng.normal());
    for (float& v : b.data()) v = static_cast<float>(rng.normal());
    checksum += tensor::matmul(a, b).data()[0];
    std::vector<double> rates;
    for (int batch = 0; batch < 9; ++batch) {
      std::size_t calls = 0;
      util::Timer timer;
      while (timer.elapsed_seconds() < 0.02) {
        checksum += tensor::matmul(a, b).data()[0];
        ++calls;
      }
      rates.push_back(2e-9 * static_cast<double>(m * k * n * calls) /
                      timer.elapsed_seconds());
    }
    return median(rates);
  };
  // The encoder's first layer at the end model's fit batch (64 rows),
  // and at a full serving micro-batch (16 rows).
  result.metrics["tensor.gemm_train_gflops"] = {gemm_gflops(64, kInputDim, 160), "GFLOP/s"};
  result.metrics["tensor.gemm_serve_gflops"] = {gemm_gflops(16, kInputDim, 160), "GFLOP/s"};

  ensemble::ServableModel model = make_model();
  const Inputs inputs = make_inputs(1, model);
  std::vector<std::size_t> rows(16);
  std::vector<double> us;
  for (int call = 0; call < 2000; ++call) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = (static_cast<std::size_t>(call) * rows.size() + r) % kInputs;
    }
    const Tensor x = inputs.matrix.gather_rows(rows);
    util::Timer timer;
    checksum += static_cast<double>(model.predict_batch(x)[0]);
    us.push_back(1e6 * timer.elapsed_seconds());
  }
  result.metrics["ensemble.forward16_us"] = {median(us), "us"};
  result.check("kernel outputs are finite", std::isfinite(checksum));
}

}  // namespace taglets::bench
