// Process-wide parallel execution layer. Training and evaluation are
// embarrassingly parallel at two granularities — GEMM row blocks and
// whole modules (Section 3.2) — so every hot path shares one
// lazily-initialized pool instead of spinning up per-call pools.
// Serving parallelizes across requests instead: each serve worker holds
// an InlineScope, so its micro-batch forward never fans out.
//
// Guarantees:
//  * Thread count comes from TAGLETS_THREADS (0/unset selects
//    hardware_concurrency); `TAGLETS_THREADS=1` forces serial inline
//    execution with no worker threads at all.
//  * Nesting-safe: a caller that is itself inside a parallel region
//    executes chunks of its own loop and helps drain the shared queue
//    while waiting, so nested parallel_for cannot deadlock.
//  * Exception-safe: a throwing iteration cancels unclaimed chunks, but
//    the owner joins *all* in-flight chunks before rethrowing the first
//    exception — no task can outlive the caller's stack frame.
//  * Deterministic: chunk boundaries are a pure function of (n, thread
//    count); callers that write disjoint outputs per index and keep a
//    fixed within-chunk order get bitwise-identical results at every
//    thread count.
//  * Inline scopes: while an InlineScope is alive on a thread, loops
//    that thread starts run as one inline chunk, exactly as in serial
//    mode — so they too give bitwise-identical results.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace taglets::util {

class Parallel {
 public:
  /// `threads == 0` reads TAGLETS_THREADS, falling back to
  /// hardware_concurrency() (min 1). `threads == 1` is serial mode.
  explicit Parallel(std::size_t threads = 0);
  ~Parallel();

  Parallel(const Parallel&) = delete;
  Parallel& operator=(const Parallel&) = delete;

  /// Configured concurrency (1 means serial inline execution).
  std::size_t threads() const { return threads_; }

  /// Run `fn(begin, end)` over a deterministic partition of [0, n)
  /// (one inline `fn(0, n)` in serial mode or under an InlineScope).
  /// Blocks until every chunk has finished; rethrows the first
  /// exception only after all in-flight chunks are joined.
  void for_ranges(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  /// Run `fn(i)` for every i in [0, n); chunked via for_ranges.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Pops and runs one queued helper task inline; returns false when
  /// the queue was empty. Blocking coordination layered on top of the
  /// pool (the task-graph executor's wait-for-ready loop) calls this
  /// instead of sleeping, so a lane stuck waiting keeps the pool
  /// making progress — a nested loop's chunks may be queued behind it.
  bool help_one();

  /// The process-wide pool, created on first use.
  static Parallel& global();

  /// Testing hook: swap the pool `global()` returns (nullptr restores
  /// the default). Returns the previous override. Not thread-safe
  /// against concurrent global() users — swap only from a quiesced
  /// test/bench thread.
  static Parallel* exchange_global(Parallel* pool);

 private:
  struct Loop;

  void worker_loop();
  void run_chunks(const std::shared_ptr<Loop>& loop);

  /// Wait predicates; they run with mu_ held by the CondVar machinery,
  /// which the static analysis cannot see.
  bool wake_ready() const TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    return stopping_ || !queue_.empty();
  }
  bool join_wake_ready(const Loop& loop) const;

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
  Mutex mu_{"util.parallel", lockrank::kUtilPool};
  std::queue<std::function<void()>> queue_ TAGLETS_GUARDED_BY(mu_);
  CondVar cv_;
  bool stopping_ TAGLETS_GUARDED_BY(mu_) = false;
};

/// RAII: while alive, every for_ranges/for_each the current thread
/// starts runs `fn(0, n)` inline on that thread, on any pool. Scopes
/// nest; destruction restores the enclosing state. Serve workers hold
/// one for their lifetime: their parallelism is the worker count, and a
/// fork-join per micro-batch GEMM costs more than the arithmetic.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();

  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool prev_;
};

/// Convenience wrappers over Parallel::global().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
void parallel_for_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace taglets::util
