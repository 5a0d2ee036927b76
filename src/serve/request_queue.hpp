// Request admission path of the serving subsystem (design principle 3:
// the distilled end model is what production traffic hits, under
// latency SLAs). A bounded MPMC queue connects client threads to the
// server's batching workers. Admission control is reject-on-full:
// producers are never blocked indefinitely — a full queue is reported
// back as load shedding, which keeps tail latency bounded instead of
// letting the backlog grow without limit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/sync.hpp"

namespace taglets::serve {

using Clock = std::chrono::steady_clock;

/// Terminal outcome of one request.
enum class Status {
  kOk,                // prediction produced before shutdown
  kRejected,          // load shed at admission: submission queue full
  kDeadlineExceeded,  // still queued past its deadline
  kShutdown,          // queued but unexpired when the server stopped
  kError,             // model execution threw; see Response::error
};

/// Stable lowercase name for reports/JSON ("ok", "rejected", ...).
const char* status_name(Status status);

/// What the submitter's future resolves to. Every submitted request
/// resolves exactly once, whatever happens to the server.
struct Response {
  Status status = Status::kError;
  /// Id assigned to the request at submission (see Request::id); lets
  /// load-test output be joined with trace spans and logs.
  std::uint64_t request_id = 0;
  std::size_t label = 0;      // argmax class (valid when status == kOk)
  std::string class_name;     // class name for `label`
  float confidence = 0.0f;    // softmax probability of `label`
  double queue_ms = 0.0;      // admission -> batch dispatch
  double total_ms = 0.0;      // admission -> response
  std::size_t batch_size = 0; // size of the micro-batch this rode in
  std::string error;          // diagnostic for kError

  bool ok() const { return status == Status::kOk; }
};

/// One queued inference request: a rank-1 feature vector plus timing
/// metadata. The deadline is a wall-clock point after which the server
/// no longer runs the model for this request; `Clock::time_point::max()`
/// means no deadline.
struct Request {
  tensor::Tensor input;
  /// Per-server id, assigned at submission starting from 1 (0 = never
  /// submitted). Echoed in Response::request_id and attached to the
  /// request's "serve.request" trace span.
  std::uint64_t id = 0;
  /// Distributed-trace id propagated from the caller (fleet frontend);
  /// 0 = no trace context. Attached to the "serve.request" span so a
  /// merged cross-process trace joins this request's spans end to end.
  std::uint64_t trace_id = 0;
  Clock::time_point enqueued_at{};
  Clock::time_point deadline = Clock::time_point::max();
  std::promise<Response> promise;

  bool expired(Clock::time_point now) const { return now >= deadline; }
};

/// Bounded multi-producer/multi-consumer submission queue.
///
/// Producers call try_push, which returns immediately: kOk, kFull
/// (admission control), or kClosed (after close()). Consumers call
/// pop_batch, which blocks until work arrives or the queue closes.
/// After close(), pop_batch returns empty even if requests remain
/// queued — leftover requests are the *pending* set that shutdown must
/// fail deterministically, and drain() hands them to the owner for
/// exactly that.
class RequestQueue {
 public:
  enum class Push { kOk, kFull, kClosed };

  /// `capacity` must be >= 1.
  explicit RequestQueue(std::size_t capacity);

  /// Non-blocking admission. On kFull/kClosed the request is returned
  /// untouched in `request` so the caller still owns the promise.
  Push try_push(Request& request);

  /// Admission for a request that was already admitted once (the
  /// reload-handoff path, Server::adopt): ignores the capacity bound,
  /// so a replacement queue that filled up during the drain cannot
  /// re-reject work the old server accepted. Never returns kFull;
  /// kClosed (a shutdown race) is still reported, request untouched.
  Push force_push(Request& request);

  /// Pop up to `max_batch` requests as one micro-batch. Blocks until at
  /// least one request is queued or the queue is closed. Once the first
  /// request of a batch is claimed, waits at most `max_delay` for more
  /// before flushing (max_delay == 0 flushes whatever is immediately
  /// available). One batch fills at a time: a concurrent caller waits
  /// until the filling batch flushes, so arrivals are never split
  /// between two partial batches. Returns empty only when the queue is
  /// closed.
  std::vector<Request> pop_batch(std::size_t max_batch,
                                 std::chrono::nanoseconds max_delay);

  /// Stop handing out work: wakes all blocked consumers, makes further
  /// try_push return kClosed. Queued requests stay for drain().
  void close();
  bool closed() const;

  /// Remove and return everything still queued (shutdown fail path).
  std::vector<Request> drain();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  /// Wait predicates; they run with mu_ held by the CondVar machinery,
  /// which the static analysis cannot see.
  bool pop_ready() const TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    return closed_ || (!filling_ && !items_.empty());
  }
  bool fill_ready() const TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    return closed_ || !items_.empty();
  }

  const std::size_t capacity_;
  mutable util::Mutex mu_{"serve.queue", util::lockrank::kServeQueue};
  util::CondVar cv_;       // consumers waiting to start a batch
  util::CondVar fill_cv_;  // the consumer whose batch is filling
  std::deque<Request> items_ TAGLETS_GUARDED_BY(mu_);
  bool closed_ TAGLETS_GUARDED_BY(mu_) = false;
  /// A pop_batch call is filling a batch; arrivals wake it via fill_cv_.
  bool filling_ TAGLETS_GUARDED_BY(mu_) = false;
};

}  // namespace taglets::serve
