// taglets_run — command-line front end for the full pipeline.
//
//   taglets_run --dataset grocery --shots 1 --backbone rn50
//   taglets_run --dataset oh-product --shots 5 --prune 1 --report
//   taglets_run --dataset fmd --shots 5 --save model.bin --modules transfer,fixmatch
//   taglets_run --dataset fmd --shots 5 --serve --serve-workers 4
//   taglets_run --load model.bin --serve --serve-rate 2000
//
// Flags:
//   --dataset  fmd | oh-product | oh-clipart | grocery   (default fmd)
//   --shots    labeled examples per class                 (default 1)
//   --split    train/test split index                     (default 0)
//   --backbone rn50 | bit                                 (default rn50)
//   --prune    -1 (off), 0, 1                             (default -1)
//   --modules  comma list from the registry               (default all 4)
//   --seed     training seed                              (default 0)
//   --scale    epoch scale, e.g. 0.3 for a smoke run      (default 1.0)
//   --save     write the servable end model to this path
//   --report   print the per-class confusion report
//   --compare  also run the fine-tuning baseline
//
// Crash safety (docs/ROBUSTNESS.md):
//   --checkpoint-dir DIR  checkpoint each completed pipeline stage
//                         (selection, per-module taglets) into DIR
//                         with atomic writes
//   --resume              skip stages whose checkpoints exist in DIR;
//                         the resumed run's end model is bitwise
//                         identical to an uninterrupted run
// TAGLETS_FAULT=<site>:<nth> deterministically fails the Nth I/O call
// at a named site (fault-injection testing; see docs/ROBUSTNESS.md).
//
// Observability (both pipeline and --serve/--load modes):
//   --trace-out FILE    enable tracing and write a Chrome-trace /
//                       Perfetto JSON file of the run's spans
//   --metrics-out FILE  write the process metrics registry snapshot
//                       (counters/gauges/histograms) as JSON
// See docs/OBSERVABILITY.md for span and metric names.
//
// Serving load-test mode (--serve): runs the in-process dynamic-batching
// server (src/serve/) against the end model — either the one just
// trained, or one restored with --load PATH (which skips training).
//   --serve-requests     total requests                    (default 2000)
//   --serve-clients      client threads                    (default 4)
//   --serve-rate         open-loop aggregate arrival rate in req/s;
//                        0 = closed loop (submit, wait, repeat)
//   --serve-workers      server worker threads             (default 2)
//   --serve-batch        max micro-batch size              (default 16)
//   --serve-delay-ms     max batching delay                (default 1.0)
//   --serve-queue        submission queue capacity         (default 256)
//   --serve-deadline-ms  per-request deadline, 0 = none    (default 0)
//   --serve-json         also print the stats JSON blob
//
// Tensor backend (docs/PERFORMANCE.md):
//   --backend-info       print the active and available tensor SIMD
//                        backends (TAGLETS_TENSOR_BACKEND) and exit
//
// Serving fleet (docs/FLEET.md) — multi-process sharded serving:
//   --fleet-shard --load M.bin --fleet-endpoint unix:/tmp/s0.sock
//       run one shard process until SIGTERM/SIGINT (SIGKILL is the
//       failover drill). Reuses the --serve-* server knobs above.
//   --fleet-frontend --fleet-endpoint tcp:127.0.0.1:9100
//       --fleet-groups "g0=unix:/tmp/s0.sock;g1=unix:/tmp/s1.sock"
//       run the routing frontend over those shard groups
//       (--fleet-heartbeat-ms / --fleet-suspect-ms / --fleet-dead-ms
//       tune the health machine).
//   --fleet-connect EP with one of:
//     --fleet-ping           print the peer's pong (readiness probe)
//     --fleet-reload PATH    hot-swap the serving model
//     --fleet-predict N      send N pipelined predicts, print outcomes
//
// Fleet observability (docs/OBSERVABILITY.md, "Fleet observability"):
//   --fleet-connect EP with one of:
//     --fleet-trace-dump FILE  pull every fleet process's span buffer
//                              through the frontend and write ONE merged
//                              Chrome/Perfetto trace with per-process
//                              lanes (clock-aligned via ping-RTT midpoint)
//     --fleet-metrics          print the federated metrics JSON (one
//                              structured snapshot per fleet process,
//                              per-shard labeled); --fleet-metrics-out
//                              FILE writes it atomically instead
//     --fleet-top              live ops console: per-shard health, model
//                              version, qps, p50/p99, queue depth, flap/
//                              rejoin counts, plus the frontend's
//                              network-vs-queue-vs-compute breakdown.
//                              --fleet-top-interval-ms (default 1000)
//                              and --fleet-top-iters N (0 = until ^C)
//                              bound the refresh loop for CI.
//   Frontend-side:
//     --fleet-events-out FILE  append structured JSON-lines operational
//                              events (health transitions, failover,
//                              reload, rejoin) to FILE
//     --fleet-scrape-out FILE  append a federated metrics snapshot line
//                              every --fleet-scrape-interval-ms
//                              (default 1000) — a self-contained
//                              JSON-lines time series
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "baselines/finetune.hpp"
#include "eval/lab.hpp"
#include "fleet/client.hpp"
#include "fleet/frontend.hpp"
#include "fleet/shard.hpp"
#include "fleet/trace_merge.hpp"
#include "tensor/backend.hpp"
#include "nn/metrics.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "taglets/controller.hpp"
#include "util/args.hpp"
#include "util/atomic_io.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

using namespace taglets;

namespace {

const synth::TaskSpec& spec_for(const std::string& name) {
  if (name == "fmd") return synth::fmd_spec();
  if (name == "oh-product") return synth::officehome_product_spec();
  if (name == "oh-clipart") return synth::officehome_clipart_spec();
  if (name == "grocery") return synth::grocery_spec();
  throw std::invalid_argument(
      "unknown --dataset (use fmd | oh-product | oh-clipart | grocery)");
}

/// Request inputs for the load test: test-set rows when the model was
/// just trained on a task, otherwise random vectors of the right width.
std::vector<tensor::Tensor> serve_inputs(const ensemble::ServableModel& model,
                                         const tensor::Tensor* test_inputs,
                                         std::size_t count) {
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(count);
  if (test_inputs != nullptr && test_inputs->rows() > 0) {
    for (std::size_t i = 0; i < count; ++i) {
      inputs.push_back(test_inputs->row_copy(i % test_inputs->rows()));
    }
    return inputs;
  }
  util::Rng rng(29);
  const std::size_t dim = model.model().input_dim();
  for (std::size_t i = 0; i < count; ++i) {
    tensor::Tensor x = tensor::Tensor::zeros(dim);
    for (float& v : x.data()) v = static_cast<float>(rng.normal());
    inputs.push_back(std::move(x));
  }
  return inputs;
}

/// Closed-loop clients (submit, wait, repeat) or — when rate > 0 — an
/// open-loop arrival process that fires at fixed intervals regardless
/// of completions, which is what exposes queueing and load shedding.
void run_serve_load_test(ensemble::ServableModel& model,
                         const tensor::Tensor* test_inputs,
                         const util::ArgParser& args) {
  const std::size_t requests =
      static_cast<std::size_t>(args.get_long("serve-requests", 2000));
  const std::size_t clients =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_long("serve-clients", 4)));
  const double rate = args.get_double("serve-rate", 0.0);

  serve::ServerConfig config;
  config.workers =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_long("serve-workers", 2)));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_long("serve-queue", 256));
  config.batching.max_batch_size =
      static_cast<std::size_t>(args.get_long("serve-batch", 16));
  config.batching.max_delay_ms = args.get_double("serve-delay-ms", 1.0);
  config.default_deadline_ms = args.get_double("serve-deadline-ms", 0.0);

  const auto inputs = serve_inputs(model, test_inputs, requests);
  std::cout << "[serve] " << requests << " requests, " << clients
            << (rate > 0.0 ? " open-loop clients @ " + std::to_string(rate) +
                                 " req/s aggregate"
                           : " closed-loop clients")
            << ", " << config.workers << " workers, batch<="
            << config.batching.max_batch_size << " delay<="
            << config.batching.max_delay_ms << "ms queue="
            << config.queue_capacity << "\n";

  serve::Server server(model, config);
  server.start();
  util::Timer wall;
  std::vector<std::thread> threads;
  std::vector<std::array<std::size_t, 5>> outcome_counts(
      clients, std::array<std::size_t, 5>{});
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& counts = outcome_counts[c];
      auto count = [&counts](const serve::Response& r) {
        ++counts[static_cast<std::size_t>(r.status)];
      };
      if (rate > 0.0) {
        // Open loop: this client fires every clients/rate seconds.
        const auto interval = std::chrono::nanoseconds(
            static_cast<std::chrono::nanoseconds::rep>(
                1e9 * static_cast<double>(clients) / rate));
        auto next = serve::Clock::now();
        std::vector<std::future<serve::Response>> pending;
        for (std::size_t i = c; i < requests; i += clients) {
          std::this_thread::sleep_until(next);
          next += interval;
          pending.push_back(server.submit(inputs[i]));
        }
        for (auto& f : pending) count(f.get());
      } else {
        for (std::size_t i = c; i < requests; i += clients) {
          count(server.predict(inputs[i]));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.elapsed_seconds();
  server.stop();

  std::array<std::size_t, 5> totals{};
  for (const auto& counts : outcome_counts) {
    for (std::size_t s = 0; s < totals.size(); ++s) totals[s] += counts[s];
  }
  std::size_t responded = 0;
  for (std::size_t s = 0; s < totals.size(); ++s) responded += totals[s];
  const std::size_t ok = totals[static_cast<std::size_t>(serve::Status::kOk)];

  std::cout << server.stats().report();
  std::cout << "[serve] wall=" << seconds << "s throughput="
            << static_cast<double>(ok) / seconds << " ok req/s\n"
            << "[serve] client-side: responses=" << responded << "/" << requests
            << " ok=" << ok << " rejected="
            << totals[static_cast<std::size_t>(serve::Status::kRejected)]
            << " deadline="
            << totals[static_cast<std::size_t>(serve::Status::kDeadlineExceeded)]
            << " shutdown="
            << totals[static_cast<std::size_t>(serve::Status::kShutdown)]
            << " error="
            << totals[static_cast<std::size_t>(serve::Status::kError)] << "\n";
  if (responded != requests) {
    throw std::runtime_error("serve load test lost responses");
  }
  if (args.get_flag("serve-json")) {
    std::cout << server.stats().json() << "\n";
  }
}

/// Write the observability artifacts the run asked for. Called on
/// every successful exit path so pipeline, --serve, and --load runs
/// all export the same way. Both artifacts go through the atomic
/// write path, so a failed export never leaves a partial JSON file.
void write_observability_artifacts(const util::ArgParser& args) {
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", "");
    util::atomic_write_file(path, obs::trace_export_json() + "\n",
                            "trace.export");
    std::cout << "wrote trace (" << obs::Tracer::global().snapshot().size()
              << " spans) to " << path << "\n";
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "");
    util::atomic_write_file(path,
                            obs::MetricsRegistry::global().to_json() + "\n",
                            "metrics.export");
    std::cout << "wrote metrics snapshot to " << path << "\n";
  }
}

// --------------------------------------------------------- fleet modes

std::atomic<bool> g_fleet_stop{false};
void handle_fleet_stop(int) { g_fleet_stop.store(true); }

/// Block until SIGTERM/SIGINT (the smoke script's graceful stop).
void wait_for_stop_signal() {
  std::signal(SIGINT, handle_fleet_stop);
  std::signal(SIGTERM, handle_fleet_stop);
  while (!g_fleet_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

serve::ServerConfig serve_config_from(const util::ArgParser& args) {
  serve::ServerConfig config;
  config.workers =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_long("serve-workers", 2)));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_long("serve-queue", 256));
  config.batching.max_batch_size =
      static_cast<std::size_t>(args.get_long("serve-batch", 16));
  config.batching.max_delay_ms = args.get_double("serve-delay-ms", 1.0);
  config.default_deadline_ms = args.get_double("serve-deadline-ms", 0.0);
  return config;
}

/// Wall-clock milliseconds for event/scrape lines (the tracer clock is
/// per-process; operational logs want a shared human timeline).
std::int64_t wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// One self-contained JSON line for the whole federation: a timestamp
/// plus every process's structured snapshot. The scraper appends these,
/// so the output file is a metrics time series.
std::string federation_json(const fleet::MetricsResponse& resp) {
  std::string out =
      "{\"ts_ms\":" + std::to_string(wall_ms()) + ",\"snapshots\":[";
  for (std::size_t i = 0; i < resp.snapshots.size(); ++i) {
    if (i > 0) out += ",";
    out += resp.snapshots[i].to_json();
  }
  out += "]}";
  return out;
}

int run_fleet_shard(const util::ArgParser& args) {
  ensemble::ServableModel model =
      ensemble::ServableModel::load(args.get("load", ""));
  fleet::ShardConfig config;
  config.endpoint = args.get("fleet-endpoint", "");
  config.server = serve_config_from(args);
  obs::set_process_name("shard " + config.endpoint);
  fleet::ShardServer shard(std::move(model), config);
  shard.start();
  // The trailing endl flushes: launchers wait for this line.
  std::cout << "[fleet-shard] serving on " << config.endpoint << " (model v"
            << shard.model_version() << ", " << config.server.workers
            << " workers)" << std::endl;
  wait_for_stop_signal();
  shard.stop();
  write_observability_artifacts(args);
  std::cout << "[fleet-shard] stopped\n";
  return 0;
}

/// "--fleet-groups g0=unix:/a.sock;g1=unix:/b.sock,unix:/c.sock":
/// ';' between groups, '=' after the group name, ',' between replicas.
std::vector<fleet::GroupSpec> parse_fleet_groups(const std::string& spec) {
  std::vector<fleet::GroupSpec> groups;
  for (const std::string& part : util::split(spec, ';')) {
    if (part.empty()) continue;
    const auto eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("--fleet-groups: expected name=endpoints in '" +
                                  part + "'");
    }
    fleet::GroupSpec group;
    group.name = part.substr(0, eq);
    group.replicas = util::split(part.substr(eq + 1), ',');
    groups.push_back(std::move(group));
  }
  return groups;
}

int run_fleet_frontend(const util::ArgParser& args) {
  fleet::FrontendConfig config;
  config.endpoint = args.get("fleet-endpoint", "");
  config.groups = parse_fleet_groups(args.get("fleet-groups", ""));
  config.heartbeat_interval_ms = args.get_double("fleet-heartbeat-ms", 50.0);
  config.health.suspect_after_ms = args.get_double("fleet-suspect-ms", 250.0);
  config.health.dead_after_ms = args.get_double("fleet-dead-ms", 1000.0);
  config.event_log_path = args.get("fleet-events-out", "");
  obs::set_process_name("frontend");
  fleet::Frontend frontend(config);
  frontend.start();

  // Metrics scraper: a background thread appending one federated
  // snapshot line per interval, so the run leaves a queryable time
  // series behind without any external collector.
  std::atomic<bool> scrape_stop{false};
  std::thread scraper;
  if (args.has("fleet-scrape-out")) {
    const std::string path = args.get("fleet-scrape-out", "");
    auto out = std::make_shared<std::ofstream>(path, std::ios::app);
    if (!*out) {
      frontend.stop();
      throw std::runtime_error("cannot open --fleet-scrape-out " + path);
    }
    const double interval_ms =
        std::max(10.0, args.get_double("fleet-scrape-interval-ms", 1000.0));
    scraper = std::thread([&frontend, &scrape_stop, out, interval_ms] {
      auto next = std::chrono::steady_clock::now();
      while (!scrape_stop.load(std::memory_order_acquire)) {
        next += std::chrono::microseconds(
            static_cast<std::int64_t>(1000.0 * interval_ms));
        *out << federation_json(frontend.federated_metrics()) << "\n";
        out->flush();
        // Chunked sleep so shutdown never waits a full interval.
        while (!scrape_stop.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }

  std::cout << "[fleet-frontend] serving on " << config.endpoint << " ("
            << config.groups.size() << " groups)" << std::endl;
  wait_for_stop_signal();
  scrape_stop.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();
  frontend.stop();
  write_observability_artifacts(args);
  std::cout << "[fleet-frontend] stopped\n";
  return 0;
}

// ------------------------------------------------- fleet ops console

/// Snapshot accessors: the wire form stores sorted vectors, and the
/// console reads a handful of names per refresh, so linear scans are
/// fine.
const std::string* snap_meta(const obs::MetricsSnapshot& s,
                             const std::string& key) {
  for (const auto& kv : s.meta) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

std::uint64_t snap_counter(const obs::MetricsSnapshot& s,
                           const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double snap_gauge(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& g : s.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const obs::Histogram::Snapshot* snap_hist(const obs::MetricsSnapshot& s,
                                          const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h.snap;
  }
  return nullptr;
}

/// "p50/p99" for one histogram, or "-" when it has no observations.
std::string quantile_cell(const obs::Histogram::Snapshot* snap) {
  if (snap == nullptr || snap->count == 0) return "-";
  std::ostringstream out;
  out << std::fixed << std::setprecision(2)
      << obs::histogram_quantile(*snap, 0.50) << "/"
      << obs::histogram_quantile(*snap, 0.99);
  return out.str();
}

/// One --fleet-top refresh: the frontend summary with its per-group
/// network-vs-queue-vs-compute latency decomposition, then a per-shard
/// table. `prev_ok` carries ok-counter readings between refreshes for
/// the qps column.
void render_fleet_top(
    const fleet::MetricsResponse& resp, double dt_seconds,
    std::unordered_map<std::string, std::uint64_t>& prev_ok) {
  std::ostringstream out;
  out << std::left;
  for (const auto& snap : resp.snapshots) {
    if (snap_meta(snap, "replica_endpoint") != nullptr) continue;
    // The frontend's own snapshot (the only one without shard meta).
    out << "frontend " << snap.source << ": requests="
        << snap_counter(snap, "fleet.frontend.requests_total") << " ok="
        << snap_counter(snap, "fleet.frontend.requests_ok_total")
        << " failovers="
        << snap_counter(snap, "fleet.frontend.failovers_total")
        << " overloaded="
        << snap_counter(snap, "fleet.frontend.overloaded_total")
        << " unavailable="
        << snap_counter(snap, "fleet.frontend.unavailable_total") << " alive="
        << snap_gauge(snap, "fleet.frontend.alive_replicas") << " ring_groups="
        << snap_gauge(snap, "fleet.frontend.ring_groups") << "\n";
    // Per-group latency decomposition, keyed off the labeled totals.
    const std::string prefix = "fleet.frontend.latency_ms{shard=";
    for (const auto& h : snap.histograms) {
      if (h.name.rfind(prefix, 0) != 0 || h.name.back() != '}') continue;
      const std::string group =
          h.name.substr(prefix.size(), h.name.size() - prefix.size() - 1);
      const std::string suffix = "_ms{shard=" + group + "}";
      out << "  " << std::setw(10) << group << " p50/p99 ms  total "
          << quantile_cell(&h.snap) << "  network "
          << quantile_cell(snap_hist(snap, "fleet.frontend.network" + suffix))
          << "  queue "
          << quantile_cell(
                 snap_hist(snap, "fleet.frontend.queue_wait" + suffix))
          << "  compute "
          << quantile_cell(snap_hist(snap, "fleet.frontend.compute" + suffix))
          << "\n";
    }
  }
  out << std::setw(8) << "SHARD" << std::setw(24) << "ENDPOINT" << " "
      << std::setw(9) << "HEALTH" << std::setw(5) << "VER" << std::setw(9)
      << "QPS" << std::setw(14) << "P50/P99MS" << std::setw(7) << "QUEUE"
      << std::setw(7) << "FLAPS" << "REJOINS\n";
  for (const auto& snap : resp.snapshots) {
    const std::string* endpoint = snap_meta(snap, "replica_endpoint");
    if (endpoint == nullptr) continue;
    const std::string* group = snap_meta(snap, "group");
    const std::string* health = snap_meta(snap, "health");
    const std::string* flaps = snap_meta(snap, "flaps");
    const std::string* rejoins = snap_meta(snap, "rejoins");
    const std::uint64_t ok = snap_counter(snap, "serve.requests_ok_total");
    double qps = 0.0;
    const auto prev = prev_ok.find(*endpoint);
    if (prev != prev_ok.end() && dt_seconds > 0.0 && ok >= prev->second) {
      qps = static_cast<double>(ok - prev->second) / dt_seconds;
    }
    prev_ok[*endpoint] = ok;
    out << std::setw(8) << (group != nullptr ? *group : "?") << std::setw(24)
        << *endpoint << " " << std::setw(9)
        << (health != nullptr ? *health : "?")
        << std::setw(5)
        << static_cast<long>(snap_gauge(snap, "fleet.shard.model_version"))
        << std::setw(9) << std::fixed << std::setprecision(1) << qps
        << std::setw(14)
        << quantile_cell(snap_hist(snap, "serve.latency_ms")) << std::setw(7)
        << static_cast<long>(snap_gauge(snap, "serve.queue_depth"))
        << std::setw(7) << (flaps != nullptr ? *flaps : "0")
        << (rejoins != nullptr ? *rejoins : "0") << "\n";
  }
  std::cout << out.str() << std::flush;
}

int run_fleet_top(fleet::FleetClient& client, const util::ArgParser& args) {
  const long iters = args.get_long("fleet-top-iters", 0);
  const double interval_ms =
      std::max(10.0, args.get_double("fleet-top-interval-ms", 1000.0));
  std::signal(SIGINT, handle_fleet_stop);
  std::signal(SIGTERM, handle_fleet_stop);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::unordered_map<std::string, std::uint64_t> prev_ok;
  auto last = std::chrono::steady_clock::now();
  for (long round = 0; iters <= 0 || round < iters; ++round) {
    if (round > 0) {
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       static_cast<std::int64_t>(1000.0 * interval_ms));
      while (!g_fleet_stop.load() &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (g_fleet_stop.load()) break;
    const fleet::MetricsResponse resp = client.fleet_metrics();
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - last).count();
    last = now;
    if (tty) {
      std::cout << "\x1b[H\x1b[2J";  // home + clear, like top(1)
    }
    std::cout << "[fleet-top] " << resp.snapshots.size()
              << " processes, refresh " << interval_ms << "ms, round "
              << (round + 1);
    if (iters > 0) std::cout << "/" << iters;
    std::cout << "\n";
    render_fleet_top(resp, round == 0 ? 0.0 : dt, prev_ok);
  }
  return 0;
}

int run_fleet_client(const util::ArgParser& args) {
  fleet::FleetClientConfig config;
  config.endpoint = args.get("fleet-connect", "");
  if (config.endpoint.empty()) {
    throw std::invalid_argument("--fleet-connect ENDPOINT is required");
  }
  fleet::FleetClient client(config);
  if (args.get_flag("fleet-ping")) {
    const fleet::Pong pong = client.ping();
    std::cout << "[fleet-ping] model_version=" << pong.model_version
              << " queue=" << pong.queue_depth << "/" << pong.queue_capacity
              << " ok=" << pong.requests_ok << " rejected="
              << pong.requests_rejected << " deadline_missed="
              << pong.requests_deadline_missed
              << " draining=" << static_cast<int>(pong.draining) << "\n";
    return 0;
  }
  if (args.has("fleet-reload")) {
    const fleet::ReloadResponse resp =
        client.reload(args.get("fleet-reload", ""));
    std::cout << "[fleet-reload] " << (resp.ok ? "ok" : "FAILED")
              << " model_version=" << resp.model_version
              << (resp.message.empty() ? "" : " (" + resp.message + ")")
              << "\n";
    return resp.ok ? 0 : 1;
  }
  if (args.has("fleet-trace-dump")) {
    const std::string path = args.get("fleet-trace-dump", "");
    const fleet::TraceExportResponse resp = client.trace_export();
    std::size_t spans = 0;
    for (const auto& proc : resp.processes) spans += proc.spans.size();
    util::atomic_write_file(path,
                            fleet::render_chrome_trace(resp.processes) + "\n",
                            "fleet.trace.export");
    std::cout << "[fleet-trace-dump] wrote " << spans << " spans from "
              << resp.processes.size() << " processes to " << path << "\n";
    return 0;
  }
  if (args.get_flag("fleet-metrics") || args.has("fleet-metrics-out")) {
    const std::string json = federation_json(client.fleet_metrics());
    if (args.has("fleet-metrics-out")) {
      const std::string path = args.get("fleet-metrics-out", "");
      util::atomic_write_file(path, json + "\n", "fleet.metrics.export");
      std::cout << "[fleet-metrics] wrote federated snapshot to " << path
                << "\n";
    } else {
      std::cout << json << "\n";
    }
    return 0;
  }
  if (args.get_flag("fleet-top")) {
    return run_fleet_top(client, args);
  }
  if (args.has("fleet-predict")) {
    const std::size_t requests =
        static_cast<std::size_t>(args.get_long("fleet-predict", 100));
    const std::size_t dim =
        static_cast<std::size_t>(args.get_long("fleet-dim", 64));
    util::Rng rng(31);
    std::vector<std::future<fleet::PredictResponse>> pending;
    pending.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      std::vector<float> features(dim);
      for (float& v : features) v = static_cast<float>(rng.normal());
      pending.push_back(client.submit(std::move(features), i));
    }
    std::array<std::size_t, 6> counts{};
    for (auto& f : pending) {
      ++counts[static_cast<std::size_t>(f.get().status)];
    }
    std::cout << "[fleet-predict] sent=" << requests << " ok=" << counts[0]
              << " overloaded=" << counts[1] << " unavailable=" << counts[2]
              << " deadline=" << counts[3] << " error=" << counts[4]
              << " shutdown=" << counts[5] << "\n";
    return counts[0] == requests ? 0 : 1;
  }
  throw std::invalid_argument(
      "--fleet-connect needs one of --fleet-ping / --fleet-reload / "
      "--fleet-predict / --fleet-trace-dump / "
      "--fleet-metrics / --fleet-top");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    // Tracing is opt-in: asking for a trace file turns the span layer
    // on for the whole run (TAGLETS_TRACE=1 also works).
    if (args.has("trace-out")) obs::set_trace_enabled(true);

    if (args.get_flag("backend-info")) {
      // Dispatch smoke check: which SIMD backend this process resolved
      // (CI greps this to confirm dispatch works on the runner).
      std::cout << "tensor backend: " << tensor::backend::active_name()
                << "\navailable:";
      for (const auto& name : tensor::backend::available()) {
        std::cout << " " << name;
      }
      std::cout << "\n";
      return 0;
    }

    if (args.get_flag("fleet-shard")) return run_fleet_shard(args);
    if (args.get_flag("fleet-frontend")) return run_fleet_frontend(args);
    if (args.has("fleet-connect")) return run_fleet_client(args);

    if (args.has("load")) {
      // Serving-only path: restore a saved end model and skip training.
      ensemble::ServableModel model =
          ensemble::ServableModel::load(args.get("load", ""));
      std::cout << "loaded servable model (" << model.num_classes()
                << " classes, " << model.parameter_count()
                << " parameters)\n";
      if (args.get_flag("serve")) {
        run_serve_load_test(model, nullptr, args);
      }
      write_observability_artifacts(args);
      return 0;
    }

    const auto& spec = spec_for(args.get("dataset", "fmd"));
    const std::size_t shots =
        static_cast<std::size_t>(args.get_long("shots", 1));
    const std::size_t split =
        static_cast<std::size_t>(args.get_long("split", 0));
    const std::string backbone_name = args.get("backbone", "rn50");
    const backbone::Kind kind = backbone_name == "bit"
                                    ? backbone::Kind::kBitS
                                    : backbone::Kind::kRn50S;

    std::cout << "building environment (world + SCADS + backbones)...\n";
    eval::Lab lab;
    synth::FewShotTask task = lab.task(spec, shots, split);
    std::cout << "task: " << task.dataset_name << ", " << task.num_classes()
              << " classes, " << shots << " shot(s), "
              << task.unlabeled_inputs.rows() << " unlabeled\n";

    SystemConfig config;
    config.backbone = kind;
    config.selection.prune_level =
        static_cast<int>(args.get_long("prune", -1));
    config.train_seed = static_cast<std::uint64_t>(args.get_long("seed", 0)) + 1;
    config.epoch_scale = args.get_double("scale", 1.0);
    if (args.has("modules")) {
      config.module_names = util::split(args.get("modules", ""), ',');
    }
    config.checkpoint_dir = args.get("checkpoint-dir", "");
    config.resume = args.get_flag("resume");
    if (config.resume && config.checkpoint_dir.empty()) {
      throw std::invalid_argument("--resume requires --checkpoint-dir");
    }

    const bool needs_zsl =
        std::count(config.module_names.begin(), config.module_names.end(),
                   "zsl-kg") > 0;
    Controller controller(&lab.scads(), &lab.zoo(),
                          needs_zsl ? &lab.zsl_engine() : nullptr);
    SystemResult result = controller.run(task, config);
    std::cout << "trained " << result.taglets.size() << " taglets in "
              << result.train_seconds << "s (|R| = "
              << result.selection.data.size() << ")\n";

    tensor::Tensor logits =
        result.end_model.model().logits(task.test_inputs, false);
    const auto cm = nn::evaluate_confusion(logits, task.test_labels);
    std::cout << "TAGLETS end model: " << 100.0 * cm.accuracy()
              << "% accuracy, macro-F1 " << cm.macro_f1() << "\n";
    for (auto& taglet : result.taglets) {
      std::cout << "  taglet " << taglet.name() << ": "
                << 100.0 * nn::evaluate_accuracy(taglet.model(),
                                                 task.test_inputs,
                                                 task.test_labels)
                << "%\n";
    }

    if (args.get_flag("compare")) {
      baselines::FineTune fine_tune;
      nn::Classifier baseline = fine_tune.train(
          task, lab.zoo().get(kind), config.train_seed, config.epoch_scale);
      std::cout << "fine-tuning baseline: "
                << 100.0 * nn::evaluate_accuracy(baseline, task.test_inputs,
                                                 task.test_labels)
                << "%\n";
    }

    if (args.get_flag("report")) {
      std::cout << cm.report(task.class_names);
    }

    if (args.has("save")) {
      const std::string path = args.get("save", "");
      result.end_model.save(path);
      std::cout << "saved servable model to " << path << " ("
                << result.end_model.parameter_count() << " parameters)\n";
    }

    if (args.get_flag("serve")) {
      run_serve_load_test(result.end_model, &task.test_inputs, args);
    }
    write_observability_artifacts(args);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
