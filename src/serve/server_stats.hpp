// Thread-safe serving telemetry: outcome counters, peak queue depth,
// mean batch size, and queue-wait and end-to-end latency percentiles.
// All recording methods may be called concurrently from client threads,
// batching workers, and the shutdown path, and none of them locks or
// allocates: counters are relaxed atomics and the two latency
// distributions are fixed-bucket obs::Histograms owned by this instance.
// A snapshot therefore costs O(buckets) however long the server has
// run; its percentiles are interpolated inside the bucket that holds
// them (obs::histogram_quantile). Exported both as a human-readable
// text report and as a single-line JSON blob so benches and CI can
// track the serving trajectory across PRs.
//
// Every recording method also updates the process-wide
// obs::MetricsRegistry (serve.* counters and histograms), so the serve
// path shares one metrics surface with the pipeline — a --metrics-out
// snapshot covers both without a second export path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"

namespace taglets::serve {

class ServerStats {
 public:
  ServerStats();
  /// Number of worker replicas serving this stats surface; set once by
  /// the owning Server so exports carry the capacity context (fleet
  /// aggregation joins on it instead of re-deriving from config).
  void set_workers(std::size_t workers);
  /// One request admitted; `queue_depth` is the submission-queue depth
  /// observed right after the push.
  void record_submitted(std::size_t queue_depth);
  /// One request turned away at admission (kRejected / kShutdown).
  void record_rejected(Status reason);
  /// One micro-batch of `batch_size` live rows dispatched to the model.
  void record_batch(std::size_t batch_size);
  /// Terminal outcome of one admitted request (kOk / kDeadlineExceeded /
  /// kShutdown / kError) with its latency breakdown.
  void record_response(const Response& response);

  /// Point-in-time copy of every counter and distribution summary.
  struct Snapshot {
    std::size_t workers = 0;             // replica/worker count
    std::uint64_t submitted = 0;         // admitted into the queue
    std::uint64_t completed = 0;         // resolved kOk
    std::uint64_t rejected_full = 0;     // load shed: queue full
    std::uint64_t rejected_shutdown = 0; // turned away after stop
    std::uint64_t deadline_missed = 0;   // resolved kDeadlineExceeded
    std::uint64_t failed_shutdown = 0;   // pending, failed by stop
    std::uint64_t failed_error = 0;      // resolved kError
    std::uint64_t batches = 0;           // micro-batches dispatched
    std::size_t peak_queue_depth = 0;
    double mean_batch_size = 0.0;
    double queue_p50_ms = 0.0, queue_p95_ms = 0.0, queue_p99_ms = 0.0;
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0, latency_p95_ms = 0.0, latency_p99_ms = 0.0;

    /// Every admitted request that has been resolved, by any status.
    std::uint64_t resolved() const {
      return completed + deadline_missed + failed_shutdown + failed_error;
    }
    /// Turned away at admission (load shed + post-stop), the "reject"
    /// side of the reject-vs-deadline breakdown fleet aggregation uses.
    std::uint64_t rejected_total() const {
      return rejected_full + rejected_shutdown;
    }
    /// Admitted but not served (deadline misses + shutdown fails +
    /// model errors).
    std::uint64_t failed_total() const {
      return deadline_missed + failed_shutdown + failed_error;
    }
  };
  /// The counters alone, with mean_batch_size; the latency fields stay
  /// zero. A handful of atomic loads, for readers on a hot or periodic
  /// path such as the fleet heartbeat.
  Snapshot counters() const;
  /// counters() plus the latency mean and percentiles.
  Snapshot snapshot() const;
  /// Admission-to-response latency of every kOk request.
  const obs::Histogram& latency_histogram() const { return latency_ms_; }

  /// Multi-line human-readable report.
  std::string report() const;
  /// Single-line JSON object with the same fields.
  std::string json() const;

 private:
  std::atomic<std::size_t> workers_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> deadline_missed_{0};
  std::atomic<std::uint64_t> failed_shutdown_{0};
  std::atomic<std::uint64_t> failed_error_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_rows_{0};
  std::atomic<std::size_t> peak_queue_depth_{0};

  obs::Histogram queue_wait_ms_;  // admission -> dispatch (resolved only)
  obs::Histogram latency_ms_;     // admission -> response, kOk only

  // Cached registry handles (registry references are stable for the
  // process lifetime, so recording is a single atomic op per metric).
  obs::Counter* reg_submitted_ = nullptr;
  obs::Counter* reg_completed_ = nullptr;
  obs::Counter* reg_rejected_full_ = nullptr;
  obs::Counter* reg_rejected_shutdown_ = nullptr;
  obs::Counter* reg_deadline_missed_ = nullptr;
  obs::Counter* reg_failed_shutdown_ = nullptr;
  obs::Counter* reg_failed_error_ = nullptr;
  obs::Counter* reg_batches_ = nullptr;
  obs::Histogram* reg_batch_size_ = nullptr;
  obs::Histogram* reg_latency_ms_ = nullptr;
  obs::Histogram* reg_queue_wait_ms_ = nullptr;
};

}  // namespace taglets::serve
