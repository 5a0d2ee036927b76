#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/env.hpp"

namespace taglets::util {

namespace {

/// Chunks per thread: small oversubscription smooths load imbalance
/// without making chunk dispatch overhead visible.
constexpr std::size_t kChunksPerThread = 4;

std::atomic<Parallel*> g_global_override{nullptr};

/// Set while an InlineScope is alive on this thread.
thread_local bool t_inline = false;

}  // namespace

/// Shared state of one for_ranges call. Helper tasks hold the Loop via
/// shared_ptr; `fn` is a borrowed pointer into the owner's stack frame,
/// which is safe because a chunk is only claimed while the owner is
/// still blocked in for_ranges (stale helpers see next >= chunks and
/// return without touching fn).
struct Parallel::Loop {
  std::size_t n = 0;
  std::size_t chunks = 0;
  std::size_t chunk_size = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> cancelled{false};
  Mutex err_mu{"util.parallel.err", lockrank::kUtilParallelErr};
  std::exception_ptr error TAGLETS_GUARDED_BY(err_mu);
};

bool Parallel::join_wake_ready(const Loop& loop) const
    TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
  return loop.remaining.load(std::memory_order_acquire) == 0 ||
         !queue_.empty();
}

Parallel::Parallel(std::size_t threads) {
  if (threads == 0) {
    const long env = env_long("TAGLETS_THREADS", 0);
    if (env > 0) threads = static_cast<std::size_t>(env);
  }
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_ = threads;
  // The caller of for_ranges always participates, so `threads` total
  // concurrency needs only threads-1 pool workers; serial mode spawns
  // none and runs everything inline.
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Parallel::~Parallel() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Workers run arbitrary loop bodies, so the destructor must not hold
  // any tracked lock while joining.
  check_join_safe(0, "Parallel::~Parallel");
  for (auto& w : workers_) w.join();
}

void Parallel::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      cv_.wait(lock, [this] { return wake_ready(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void Parallel::run_chunks(const std::shared_ptr<Loop>& loop) {
  for (;;) {
    const std::size_t c = loop->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= loop->chunks) return;
    if (!loop->cancelled.load(std::memory_order_acquire)) {
      const std::size_t begin = c * loop->chunk_size;
      const std::size_t end = std::min(loop->n, begin + loop->chunk_size);
      try {
        (*loop->fn)(begin, end);
      } catch (...) {
        {
          MutexLock g(loop->err_mu);
          if (!loop->error) loop->error = std::current_exception();
        }
        loop->cancelled.store(true, std::memory_order_release);
      }
    }
    if (loop->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk overall: wake the owner (and any waiters helping).
      MutexLock g(mu_);
      cv_.notify_all();
    }
  }
}

void Parallel::for_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ <= 1 || n == 1 || t_inline) {
    fn(0, n);
    return;
  }

  // Task-batch span: covers chunk enqueue, the owner's own chunk work,
  // and the join. One relaxed atomic load when tracing is off.
  TAGLETS_TRACE_SCOPE("parallel.for_ranges", {{"n", std::to_string(n)}});

  auto loop = std::make_shared<Loop>();
  loop->n = n;
  // Deterministic partition: a pure function of (n, threads_), never of
  // runtime scheduling.
  const std::size_t target = std::min(n, threads_ * kChunksPerThread);
  loop->chunk_size = (n + target - 1) / target;
  loop->chunks = (n + loop->chunk_size - 1) / loop->chunk_size;
  loop->fn = &fn;
  loop->remaining.store(loop->chunks, std::memory_order_relaxed);

  // One helper task per potential extra worker; helpers that arrive
  // after the loop drained exit immediately.
  const std::size_t helpers = std::min(loop->chunks - 1, threads_ - 1);
  {
    MutexLock lock(mu_);
    if (stopping_) throw std::runtime_error("Parallel: enqueue after stop");
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.emplace([this, loop] { run_chunks(loop); });
    }
  }
  cv_.notify_all();

  // The owner claims chunks itself, so the loop completes even if every
  // pool worker is busy elsewhere.
  run_chunks(loop);

  // Join all in-flight chunks before returning/rethrowing. While other
  // threads finish our chunks, help drain the shared queue — this is
  // what makes nested parallel_for deadlock-free: a blocked owner keeps
  // executing other loops' work instead of holding a worker hostage.
  {
    MutexLock lock(mu_);
    while (loop->remaining.load(std::memory_order_acquire) != 0) {
      if (!queue_.empty()) {
        std::function<void()> task = std::move(queue_.front());
        queue_.pop();
        lock.unlock();
        task();
        lock.lock();
        continue;
      }
      cv_.wait(lock, [this, &loop] { return join_wake_ready(*loop); });
    }
  }

  std::exception_ptr error;
  {
    MutexLock g(loop->err_mu);
    error = loop->error;
  }
  if (error) std::rethrow_exception(error);
}

bool Parallel::help_one() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void Parallel::for_each(std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  for_ranges(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

Parallel& Parallel::global() {
  Parallel* override = g_global_override.load(std::memory_order_acquire);
  if (override != nullptr) return *override;
  static Parallel instance;
  return instance;
}

Parallel* Parallel::exchange_global(Parallel* pool) {
  return g_global_override.exchange(pool, std::memory_order_acq_rel);
}

InlineScope::InlineScope() : prev_(t_inline) { t_inline = true; }

InlineScope::~InlineScope() { t_inline = prev_; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  Parallel::global().for_each(n, fn);
}

void parallel_for_ranges(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  Parallel::global().for_ranges(n, fn);
}

}  // namespace taglets::util
