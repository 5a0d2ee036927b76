// Process-wide metrics surface for the pipeline and the serve path
// (challenge 3: multi-module SSL systems are hard to serve in
// production — the first requirement is knowing where time and work
// go). One registry holds every named counter, gauge, and fixed-bucket
// histogram; hot paths cache the returned references and update them
// with a single atomic op, and any reader can snapshot the whole
// surface to text or JSON at any time.
//
// Deliberately dependency-free (std only, environment read via
// std::getenv): obs sits *below* util in the library stack so that
// util::Parallel, util::logging, and everything above them can be
// instrumented without a cycle.
//
// Naming conventions (see docs/OBSERVABILITY.md):
//   <layer>.<noun>[_<unit>][_total]   e.g. serve.requests_ok_total,
//   pipeline.last_train_seconds, nn.epoch_loss. Counters end in
//   _total; gauges name their unit; histograms name their unit (_ms).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace taglets::obs {

/// Monotonically increasing event count. All methods are thread-safe.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, last epoch loss).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: counts per upper bound plus an implicit
/// +inf overflow bucket, with total count and sum for mean recovery.
/// Bucket bounds are fixed at creation so concurrent observes never
/// allocate or lock. Registry-owned histograms come from
/// MetricsRegistry::histogram(); a component that needs counts of its
/// own (one per server instance) constructs one directly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;          // upper bounds, ascending
    std::vector<std::uint64_t> counts;   // bounds.size() + 1 (+inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  Snapshot snapshot() const;

 private:
  friend class MetricsRegistry;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Bucket bounds for millisecond latencies, shared by every latency
/// histogram: log-spaced at ten per decade (adjacent bounds 10^0.1 ≈
/// 1.259x apart) from 10 us to 10 s, so a quantile interpolated inside
/// one bucket is off by at most ~26% of its value.
std::vector<double> default_latency_buckets_ms();

/// Quantile estimate (q in [0,1]) from a histogram snapshot by linear
/// interpolation inside the bucket holding the q-th observation. The
/// +inf overflow bucket reports its lower bound (the largest finite
/// bound); an empty histogram reports 0.
double histogram_quantile(const Histogram::Snapshot& snap, double q);

/// One process's entire metrics surface as plain data: the structured
/// form the fleet tier serializes over the wire (replacing opaque JSON
/// blobs) so a frontend can aggregate per-shard counters, gauges, and
/// full histogram bucket layouts. `source` labels the producing process
/// ("frontend", "shard:g0"); `meta` carries free-form key/value context
/// the aggregator attaches (endpoint, health state, version, ...).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot snap;
  };

  std::string source;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  /// {"source":...,"meta":{...},"counters":{...},"gauges":{...},
  ///  "histograms":{name:{count,sum,mean,bounds,counts}}}.
  std::string to_json() const;
};

/// Named metric registry. counter()/gauge()/histogram() create on
/// first use and return a reference that stays valid for the life of
/// the registry; callers on hot paths should call once and cache it.
/// Requesting an existing name as a different kind (or a histogram
/// with different bounds) throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Structured copy of every registered metric, sorted by name.
  MetricsSnapshot snapshot(std::string source = "") const;

  /// Human-readable snapshot, one metric per line, sorted by name.
  std::string to_text() const;
  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  /// Write to_json() to `path` (throws std::runtime_error on failure).
  void write_json(const std::string& path) const;

  /// Zero every registered metric (names and bucket layouts survive).
  /// For tests and benches that need a clean surface; cached references
  /// stay valid.
  void reset_for_testing();

  /// The process-wide registry every instrumented layer records into.
  static MetricsRegistry& global();

 private:
  struct State;
  State& state() const { return *state_; }
  std::unique_ptr<State> state_;  // pointer-stable across moves of names
};

}  // namespace taglets::obs
