#include "serve/request_queue.hpp"
#include "util/check.hpp"

#include <stdexcept>

namespace taglets::serve {

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kShutdown: return "shutdown";
    case Status::kError: return "error";
  }
  return "unknown";
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  TAGLETS_CHECK_NE(capacity_, 0, "RequestQueue: capacity must be >= 1");
}

RequestQueue::Push RequestQueue::try_push(Request& request) {
  bool filling = false;
  {
    util::MutexLock lock(mu_);
    if (closed_) return Push::kClosed;
    if (items_.size() >= capacity_) return Push::kFull;
    items_.push_back(std::move(request));
    filling = filling_;
  }
  (filling ? fill_cv_ : cv_).notify_one();
  return Push::kOk;
}

RequestQueue::Push RequestQueue::force_push(Request& request) {
  bool filling = false;
  {
    util::MutexLock lock(mu_);
    if (closed_) return Push::kClosed;
    items_.push_back(std::move(request));
    filling = filling_;
  }
  (filling ? fill_cv_ : cv_).notify_one();
  return Push::kOk;
}

std::vector<Request> RequestQueue::pop_batch(
    std::size_t max_batch, std::chrono::nanoseconds max_delay) {
  std::vector<Request> batch;
  if (max_batch == 0) return batch;

  util::MutexLock lock(mu_);
  cv_.wait(lock, [this] { return pop_ready(); });
  if (closed_) return batch;  // leftovers belong to drain()

  // First request claimed; the flush clock starts now, not at enqueue
  // time, so an idle server answers a lone request after max_delay at
  // the latest even if nothing else ever arrives. Until this batch
  // flushes, every arrival is ours: two half-filled batches would each
  // wait out max_delay, and a closed-loop client blocked on a request
  // in one of them would send nothing to fill either.
  filling_ = true;
  const Clock::time_point flush_at = Clock::now() + max_delay;
  for (;;) {
    while (!items_.empty() && batch.size() < max_batch) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (batch.size() >= max_batch || closed_) break;
    if (max_delay <= std::chrono::nanoseconds::zero()) break;
    const bool woke =
        fill_cv_.wait_until(lock, flush_at, [this] { return fill_ready(); });
    if (!woke) break;  // max_delay elapsed: flush what we have
  }
  filling_ = false;
  const bool more = !items_.empty();
  lock.unlock();
  if (more) cv_.notify_one();  // the next batch can start at once
  return batch;
}

void RequestQueue::close() {
  {
    util::MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  fill_cv_.notify_all();
}

bool RequestQueue::closed() const {
  util::MutexLock lock(mu_);
  return closed_;
}

std::vector<Request> RequestQueue::drain() {
  util::MutexLock lock(mu_);
  std::vector<Request> pending;
  pending.reserve(items_.size());
  while (!items_.empty()) {
    pending.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  return pending;
}

std::size_t RequestQueue::size() const {
  util::MutexLock lock(mu_);
  return items_.size();
}

}  // namespace taglets::serve
