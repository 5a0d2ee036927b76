// Shared declarations of the end-to-end benchmark (bench/e2e/README.md).
//
// A run measures one workload. An untraced run reports the end-to-end
// metrics of BENCHMARK.json; a traced run reports the per-layer metrics:
// calls into each layer timed from outside, and the program's own trace
// spans reduced per name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace taglets::bench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir;  // result files go here
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Count, inclusive and self time of one span name (see reduce_spans).
struct SpanStats {
  std::uint64_t count = 0;
  double incl_us = 0.0;  // summed durations
  double self_us = 0.0;  // durations minus same-lane child coverage
};

/// A named output check; a failed check makes the run incorrect.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run reports. `metrics` holds exactly the names of
/// BENCHMARK.json's end_to_end (untraced) or per_layer (traced) list;
/// `info` holds context that is recorded but never gated on.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  std::vector<Check> checks;
  /// Traced runs: the reduced spans and the raw Chrome trace of the
  /// part on the workload's own path.
  std::map<std::string, SpanStats> spans;
  std::string raw_trace;

  void check(std::string name, bool ok, std::string detail = "");
  bool correct() const;
};

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// ------------------------------------------------------ process counters

/// User + system CPU seconds of this process so far.
double process_cpu_seconds();
/// User + system CPU seconds of another process so far (from /proc).
double process_cpu_seconds(int pid);
/// Peak resident set of this process, MiB.
double peak_rss_mib();

// --------------------------------------------------------- trace reducer

/// One span as the reducer sees it. `lane` identifies the recording
/// thread (and process, for merged fleet traces): only spans of one
/// lane can be children of each other.
struct Span {
  std::string name;
  std::uint64_t lane = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t depth = 0;
};

/// Count, inclusive and self time per span name. A span's children are
/// the deeper spans of its lane that lie inside it; self time is its
/// duration minus the union of their intervals.
std::map<std::string, SpanStats> reduce_spans(std::vector<Span> spans);

/// The process tracer's spans that start inside [from_us, to_us].
std::vector<Span> tracer_spans(double from_us, double to_us);

/// The reducer check on a hand-built span list; prints failures.
bool reducer_self_test();

// -------------------------------------------------------------- workloads

/// The untraced end-to-end measurement of each workload.
Result run_pipeline(const Options& options);
Result run_serve(const Options& options);  // serve-steady / serve-saturate
Result run_fleet(const Options& options);

/// Per-layer parts of a traced run. Every traced run measures every
/// layer; `own` is true for the part on the workload's own path, which
/// then runs the workload's own traffic and supplies obs.trace_overhead,
/// the reduced spans and the raw Chrome trace.
void pipeline_layers(const Options& options, bool own, Result& result);
void serve_layers(const Options& options, bool own, Result& result);
void fleet_layers(const Options& options, bool own, Result& result);

/// Standalone kernel timings shared by every traced run.
void kernel_layers(Result& result);

}  // namespace taglets::bench
