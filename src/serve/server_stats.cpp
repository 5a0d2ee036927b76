#include "serve/server_stats.hpp"

#include <sstream>

namespace taglets::serve {

namespace {

/// Batch-size buckets up to the largest plausible micro-batch.
std::vector<double> batch_size_buckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

}  // namespace

ServerStats::ServerStats()
    : queue_wait_ms_(obs::default_latency_buckets_ms()),
      latency_ms_(obs::default_latency_buckets_ms()) {
  // One metrics surface: every ServerStats (there is normally one per
  // server, all servers in a process share the registry) mirrors its
  // counters into the process-wide registry at record time, so
  // pipeline and serve metrics export together.
  auto& registry = obs::MetricsRegistry::global();
  reg_submitted_ = &registry.counter("serve.requests_submitted_total");
  reg_completed_ = &registry.counter("serve.requests_ok_total");
  reg_rejected_full_ = &registry.counter("serve.requests_rejected_full_total");
  reg_rejected_shutdown_ =
      &registry.counter("serve.requests_rejected_shutdown_total");
  reg_deadline_missed_ =
      &registry.counter("serve.requests_deadline_missed_total");
  reg_failed_shutdown_ =
      &registry.counter("serve.requests_failed_shutdown_total");
  reg_failed_error_ = &registry.counter("serve.requests_failed_error_total");
  reg_batches_ = &registry.counter("serve.batches_total");
  reg_batch_size_ = &registry.histogram("serve.batch_size",
                                        batch_size_buckets());
  reg_latency_ms_ = &registry.histogram("serve.latency_ms",
                                        obs::default_latency_buckets_ms());
  reg_queue_wait_ms_ = &registry.histogram("serve.queue_wait_ms",
                                           obs::default_latency_buckets_ms());
}

void ServerStats::set_workers(std::size_t workers) {
  workers_.store(workers, std::memory_order_relaxed);
}

void ServerStats::record_submitted(std::size_t queue_depth) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  reg_submitted_->add();
  std::size_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (queue_depth > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, queue_depth,
                                                  std::memory_order_relaxed)) {
  }
}

void ServerStats::record_rejected(Status reason) {
  if (reason == Status::kShutdown) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    reg_rejected_shutdown_->add();
  } else {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    reg_rejected_full_->add();
  }
}

void ServerStats::record_batch(std::size_t batch_size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(batch_size, std::memory_order_relaxed);
  reg_batches_->add();
  reg_batch_size_->observe(static_cast<double>(batch_size));
}

void ServerStats::record_response(const Response& response) {
  switch (response.status) {
    case Status::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      reg_completed_->add();
      latency_ms_.observe(response.total_ms);
      reg_latency_ms_->observe(response.total_ms);
      break;
    case Status::kDeadlineExceeded:
      deadline_missed_.fetch_add(1, std::memory_order_relaxed);
      reg_deadline_missed_->add();
      break;
    case Status::kShutdown:
      failed_shutdown_.fetch_add(1, std::memory_order_relaxed);
      reg_failed_shutdown_->add();
      break;
    default:
      failed_error_.fetch_add(1, std::memory_order_relaxed);
      reg_failed_error_->add();
      break;
  }
  queue_wait_ms_.observe(response.queue_ms);
  reg_queue_wait_ms_->observe(response.queue_ms);
}

ServerStats::Snapshot ServerStats::counters() const {
  Snapshot s;
  s.workers = workers_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.deadline_missed = deadline_missed_.load(std::memory_order_relaxed);
  s.failed_shutdown = failed_shutdown_.load(std::memory_order_relaxed);
  s.failed_error = failed_error_.load(std::memory_order_relaxed);
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  const std::uint64_t rows = batched_rows_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches == 0 ? 0.0
                     : static_cast<double>(rows) / static_cast<double>(s.batches);
  return s;
}

ServerStats::Snapshot ServerStats::snapshot() const {
  Snapshot s = counters();
  const obs::Histogram::Snapshot queue = queue_wait_ms_.snapshot();
  s.queue_p50_ms = obs::histogram_quantile(queue, 0.50);
  s.queue_p95_ms = obs::histogram_quantile(queue, 0.95);
  s.queue_p99_ms = obs::histogram_quantile(queue, 0.99);
  const obs::Histogram::Snapshot latency = latency_ms_.snapshot();
  s.latency_mean_ms = latency.mean();
  s.latency_p50_ms = obs::histogram_quantile(latency, 0.50);
  s.latency_p95_ms = obs::histogram_quantile(latency, 0.95);
  s.latency_p99_ms = obs::histogram_quantile(latency, 0.99);
  return s;
}

std::string ServerStats::report() const {
  const Snapshot s = snapshot();
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "serve stats:\n"
     << "  workers: " << s.workers << "\n"
     << "  requests: submitted=" << s.submitted << " ok=" << s.completed
     << " rejected_full=" << s.rejected_full
     << " rejected_shutdown=" << s.rejected_shutdown
     << " deadline_missed=" << s.deadline_missed
     << " failed_shutdown=" << s.failed_shutdown
     << " failed_error=" << s.failed_error << "\n"
     << "  batches: n=" << s.batches << " mean_size=" << s.mean_batch_size
     << "\n"
     << "  queue: peak_depth=" << s.peak_queue_depth
     << " wait p50=" << s.queue_p50_ms << "ms p95=" << s.queue_p95_ms
     << "ms p99=" << s.queue_p99_ms << "ms\n"
     << "  latency (ok): mean=" << s.latency_mean_ms
     << "ms p50=" << s.latency_p50_ms << "ms p95=" << s.latency_p95_ms
     << "ms p99=" << s.latency_p99_ms << "ms\n";
  return os.str();
}

std::string ServerStats::json() const {
  const Snapshot s = snapshot();
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\"workers\":" << s.workers << ",\"submitted\":" << s.submitted
     << ",\"ok\":" << s.completed
     << ",\"rejected_full\":" << s.rejected_full
     << ",\"rejected_shutdown\":" << s.rejected_shutdown
     << ",\"rejected_total\":" << s.rejected_total()
     << ",\"deadline_missed\":" << s.deadline_missed
     << ",\"failed_shutdown\":" << s.failed_shutdown
     << ",\"failed_error\":" << s.failed_error
     << ",\"failed_total\":" << s.failed_total()
     << ",\"batches\":" << s.batches
     << ",\"mean_batch_size\":" << s.mean_batch_size
     << ",\"peak_queue_depth\":" << s.peak_queue_depth
     << ",\"queue_p50_ms\":" << s.queue_p50_ms
     << ",\"queue_p95_ms\":" << s.queue_p95_ms
     << ",\"queue_p99_ms\":" << s.queue_p99_ms
     << ",\"latency_mean_ms\":" << s.latency_mean_ms
     << ",\"latency_p50_ms\":" << s.latency_p50_ms
     << ",\"latency_p95_ms\":" << s.latency_p95_ms
     << ",\"latency_p99_ms\":" << s.latency_p99_ms << "}";
  return os.str();
}

}  // namespace taglets::serve
