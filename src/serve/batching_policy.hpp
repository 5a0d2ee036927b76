// Dynamic micro-batching policy: a batch flushes when it reaches
// max_batch_size or when max_delay_ms has elapsed since its first
// request was claimed — whichever comes first; one batch fills at a
// time (RequestQueue::pop_batch). Larger batches amortize
// per-forward overhead across the GEMM rows; the delay cap bounds the
// latency cost of waiting for stragglers.
#pragma once

#include <chrono>
#include <cstddef>

namespace taglets::serve {

struct BatchingPolicy {
  /// Upper bound on micro-batch rows handed to one forward pass.
  std::size_t max_batch_size = 16;
  /// Longest a claimed batch may wait for more requests before flushing.
  double max_delay_ms = 1.0;

  /// Throws std::invalid_argument on max_batch_size == 0 or a negative
  /// delay.
  void validate() const;

  /// The flush delay the server actually uses: max_delay_ms, clamped
  /// to zero when the shared util::Parallel pool is serial
  /// (TAGLETS_THREADS=1), so a worker then flushes whatever is already
  /// queued instead of waiting for a fuller batch.
  std::chrono::nanoseconds effective_delay() const;
};

}  // namespace taglets::serve
