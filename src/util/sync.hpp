// Annotated synchronization primitives: the one place in the tree that
// may touch std::mutex / std::shared_mutex / std::condition_variable
// (enforced by the `naked-mutex` lint rule).
//
// Three things live here, all std-only so every layer (including obs,
// which sits below util) can use them — the layering lint allowlists
// this header exactly like util/check.hpp:
//
//  1. Clang thread-safety macros (TAGLETS_GUARDED_BY & friends).
//     Under `clang -Wthread-safety` they make lock misuse a compile
//     error; under GCC they expand to nothing.
//  2. util::Mutex / util::SharedMutex / util::CondVar wrappers. Every
//     mutex carries a name and a lock rank (see util::lockrank below —
//     the table is documented in docs/CORRECTNESS.md).
//  3. A runtime lock-order checker (debug builds, i.e. when
//     TAGLETS_LOCK_ORDER_CHECKS is 1): a per-thread held-lock stack
//     detects rank inversions, recursive self-acquisition, and
//     cross-thread acquisition cycles among same-rank locks, printing
//     the held stacks of both threads involved. Mode comes from
//     TAGLETS_LOCK_ORDER=enforce|warn|off (default enforce).
//     util::check_join_safe() guards thread joins against the PR 7
//     frontend failover deadlock shape (joining a reader while holding
//     a lock the reader's exit path may need).
//
// CondVar deliberately has no predicate-less wait: lost-wakeup-prone
// `cv.wait(lk)` does not compile (and is also linted in case a raw
// std::condition_variable ever sneaks back in).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

// --------------------------------------------------- clang TSA macros

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TAGLETS_TSA(x) __attribute__((x))
#endif
#endif
#ifndef TAGLETS_TSA
#define TAGLETS_TSA(x)  // no-op outside clang
#endif

#define TAGLETS_CAPABILITY(x) TAGLETS_TSA(capability(x))
#define TAGLETS_SCOPED_CAPABILITY TAGLETS_TSA(scoped_lockable)
#define TAGLETS_GUARDED_BY(x) TAGLETS_TSA(guarded_by(x))
#define TAGLETS_PT_GUARDED_BY(x) TAGLETS_TSA(pt_guarded_by(x))
#define TAGLETS_REQUIRES(...) TAGLETS_TSA(requires_capability(__VA_ARGS__))
#define TAGLETS_REQUIRES_SHARED(...) \
  TAGLETS_TSA(requires_shared_capability(__VA_ARGS__))
#define TAGLETS_ACQUIRE(...) TAGLETS_TSA(acquire_capability(__VA_ARGS__))
#define TAGLETS_ACQUIRE_SHARED(...) \
  TAGLETS_TSA(acquire_shared_capability(__VA_ARGS__))
#define TAGLETS_RELEASE(...) TAGLETS_TSA(release_capability(__VA_ARGS__))
#define TAGLETS_RELEASE_SHARED(...) \
  TAGLETS_TSA(release_shared_capability(__VA_ARGS__))
#define TAGLETS_TRY_ACQUIRE(...) \
  TAGLETS_TSA(try_acquire_capability(__VA_ARGS__))
#define TAGLETS_EXCLUDES(...) TAGLETS_TSA(locks_excluded(__VA_ARGS__))
#define TAGLETS_ASSERT_CAPABILITY(x) TAGLETS_TSA(assert_capability(x))
#define TAGLETS_RETURN_CAPABILITY(x) TAGLETS_TSA(lock_returned(x))
#define TAGLETS_NO_THREAD_SAFETY_ANALYSIS \
  TAGLETS_TSA(no_thread_safety_analysis)

// Runtime lock-order checking is a debug-build feature; release builds
// compile util::Mutex down to a bare std::mutex (BM_SyncMutex* in
// bench/micro_core measures the difference away). Override with
// -DTAGLETS_LOCK_ORDER_CHECKS=0/1 — but uniformly for a whole build
// tree: the flag changes the layout of Mutex, so mixing TUs is an ODR
// violation.
#ifndef TAGLETS_LOCK_ORDER_CHECKS
#ifdef NDEBUG
#define TAGLETS_LOCK_ORDER_CHECKS 0
#else
#define TAGLETS_LOCK_ORDER_CHECKS 1
#endif
#endif

namespace taglets::util {

// Lock ranks: a thread may only acquire a lock whose rank is >= the
// rank of every lock it already holds (strictly greater for a
// different rank; equal ranks are allowed so per-instance locks of one
// class can nest, and the cycle detector below catches opposite-order
// pairs among them). Lower rank = acquired earlier / closer to the
// outside of the system. The full table with the acquisition paths
// that pin each value lives in docs/CORRECTNESS.md — keep the two in
// sync.
namespace lockrank {
// Outermost: lifecycle and control-plane serialization.
inline constexpr int kFleetFrontendLifecycle = 100;
inline constexpr int kFleetShardLifecycle = 102;
inline constexpr int kFleetClientControl = 104;
inline constexpr int kFleetFrontendHeartbeat = 106;
inline constexpr int kFleetShardReload = 108;
// Fleet data plane.
inline constexpr int kFleetFrontendConn = 120;
inline constexpr int kFleetFrontendPending = 130;
inline constexpr int kFleetClientPending = 132;
inline constexpr int kFleetFrontendRetired = 140;
inline constexpr int kFleetFrontendRing = 150;
inline constexpr int kFleetHealth = 160;
inline constexpr int kFleetFrontendClients = 170;
inline constexpr int kFleetFrontendEvents = 175;
inline constexpr int kFleetWrite = 180;
inline constexpr int kFleetShardHandlers = 190;
inline constexpr int kFleetShardConnQueue = 195;
inline constexpr int kFleetShardSwap = 200;
// Serving tier (acquired under fleet locks via shard dispatch).
inline constexpr int kServeLifecycle = 210;
inline constexpr int kServeQueue = 220;
// Pipeline tier: the task-graph scheduler state and the backbone zoo.
// Both are leaf-like (their critical sections acquire nothing — node
// bodies and pretraining run with the lock dropped), but they are
// acquired from inside pool chunks, so they sit below the util leaves.
inline constexpr int kPipelineGraph = 232;
inline constexpr int kBackboneZoo = 236;
// Util leaves.
inline constexpr int kUtilPool = 250;
inline constexpr int kUtilParallelErr = 255;
inline constexpr int kUtilFault = 260;
inline constexpr int kUtilLogSink = 270;
inline constexpr int kUtilLogEmit = 275;
// Obs innermost: metrics/trace are mirrored into from everywhere.
inline constexpr int kObsProcessName = 280;
inline constexpr int kObsTraceRegistry = 290;
inline constexpr int kObsTraceBuffer = 300;
inline constexpr int kObsMetrics = 310;
// Tests and benches that need ad-hoc locks.
inline constexpr int kTest = 900;
}  // namespace lockrank

enum class LockOrderMode { kOff, kWarn, kEnforce };

#if TAGLETS_LOCK_ORDER_CHECKS

namespace sync_detail {

struct OrderInfo {
  const char* name;
  int rank;
  std::uint64_t serial;  // unique per instance, never reused
};

struct Held {
  const OrderInfo* info;
  bool shared;
};

/// Per-thread stack of held locks. Deliberately a fixed-capacity POD
/// aggregate with a trivial destructor: thread_local objects destruct
/// in reverse construction order, and other TLS destructors (e.g. an
/// obs trace buffer deregistering itself) still lock mutexes on their
/// way out — were this a std::vector it could already be destroyed by
/// then, and the unlock bookkeeping would scribble on freed memory.
/// Trivially-destructible TLS storage stays valid for the whole
/// thread lifetime. Acquisitions past kCapacity are counted, not
/// recorded, so pops stay balanced even if something nests absurdly.
struct HeldStack {
  static constexpr std::size_t kCapacity = 64;
  Held entries[kCapacity];
  std::size_t size;
  std::size_t overflowed;  // acquisitions dropped at capacity
};
static_assert(std::is_trivially_destructible<HeldStack>::value,
              "held stack must not have a TLS destructor");

inline HeldStack& held_stack() {
  thread_local HeldStack stack{{}, 0, 0};
  return stack;
}

inline std::uint64_t next_serial() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

inline LockOrderMode mode_from_env() {
  const char* raw = std::getenv("TAGLETS_LOCK_ORDER");
  if (raw == nullptr || std::strcmp(raw, "enforce") == 0) {
    return LockOrderMode::kEnforce;
  }
  if (std::strcmp(raw, "warn") == 0) return LockOrderMode::kWarn;
  if (std::strcmp(raw, "off") == 0) return LockOrderMode::kOff;
  std::fprintf(stderr,
               "[taglets] unknown TAGLETS_LOCK_ORDER='%s' "
               "(want enforce|warn|off), using enforce\n",
               raw);
  return LockOrderMode::kEnforce;
}

inline std::atomic<LockOrderMode>& mode_slot() {
  static std::atomic<LockOrderMode> mode{mode_from_env()};
  return mode;
}

inline std::atomic<std::uint64_t>& violation_counter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Cross-thread acquisition-order graph over mutex instances. Nodes
/// are instance serials; an edge a->b is recorded the first time some
/// thread acquires b while holding a, together with that thread's held
/// stack so a later cycle report can print both sides.
struct OrderGraph {
  std::mutex mu;  // raw by design: the checker cannot check itself
  struct Edge {
    std::string holder_stack;  // formatted held stack at record time
    unsigned long long thread_id;
  };
  std::map<std::uint64_t, std::set<std::uint64_t>> adjacency;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Edge> edges;
  std::map<std::uint64_t, const char*> names;
};

inline OrderGraph& graph() {
  static OrderGraph* g = new OrderGraph();  // leaked: outlives all threads
  return *g;
}

inline std::string& last_report_slot() {
  static std::string* text = new std::string();
  return *text;
}

inline unsigned long long this_thread_value() {
  return static_cast<unsigned long long>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

inline std::string format_stack(const HeldStack& stack) {
  std::string out;
  for (std::size_t i = 0; i < stack.size; ++i) {
    out += "    #" + std::to_string(i) + " \"" + stack.entries[i].info->name +
           "\" (rank " + std::to_string(stack.entries[i].info->rank) +
           (stack.entries[i].shared ? ", shared" : "") + ")\n";
  }
  if (stack.overflowed != 0) {
    out += "    (+" + std::to_string(stack.overflowed) +
           " more, past stack capacity)\n";
  }
  if (stack.size == 0 && stack.overflowed == 0) out = "    (none)\n";
  return out;
}

inline void report(const std::string& text) {
  violation_counter().fetch_add(1, std::memory_order_relaxed);
  const LockOrderMode mode = mode_slot().load(std::memory_order_relaxed);
  {
    OrderGraph& g = graph();
    std::lock_guard<std::mutex> lock(g.mu);
    last_report_slot() = text;
  }
  std::fprintf(stderr, "%s", text.c_str());
  std::fflush(stderr);
  if (mode == LockOrderMode::kEnforce) std::abort();
}

/// Depth-first search for a path new_serial -> ... -> target in the
/// recorded order graph. Fills `path` with the serials along the way.
inline bool find_path_locked(const OrderGraph& g, std::uint64_t from,
                             std::uint64_t target, std::set<std::uint64_t>& seen,
                             std::vector<std::uint64_t>& path) {
  if (from == target) {
    path.push_back(from);
    return true;
  }
  if (!seen.insert(from).second) return false;
  auto it = g.adjacency.find(from);
  if (it == g.adjacency.end()) return false;
  for (const std::uint64_t next : it->second) {
    if (find_path_locked(g, next, target, seen, path)) {
      path.push_back(from);
      return true;
    }
  }
  return false;
}

inline void before_acquire(const OrderInfo& info) {
  if (mode_slot().load(std::memory_order_relaxed) == LockOrderMode::kOff) {
    return;
  }
  HeldStack& stack = held_stack();
  if (stack.size == 0) return;
  for (std::size_t i = 0; i < stack.size; ++i) {
    if (stack.entries[i].info->serial == info.serial) {
      report("[taglets] lock-order violation (recursive acquisition): "
             "this thread already holds \"" +
             std::string(info.name) + "\" (rank " + std::to_string(info.rank) +
             ")\n  held locks (outermost first):\n" + format_stack(stack));
      return;
    }
  }
  const Held& top = stack.entries[stack.size - 1];
  if (info.rank < top.info->rank) {
    report("[taglets] lock-order violation (rank inversion): acquiring \"" +
           std::string(info.name) + "\" (rank " + std::to_string(info.rank) +
           ") while holding \"" + std::string(top.info->name) + "\" (rank " +
           std::to_string(top.info->rank) +
           ")\n  held locks (outermost first):\n" + format_stack(stack));
    return;
  }
  // Record held -> new edges and look for a reverse path, which means
  // some thread (maybe this one, earlier) acquired these instances in
  // the opposite order — the classic two-replica conn_mu deadlock.
  // The violation text is composed under g.mu but reported after
  // releasing it: report() takes g.mu itself to stash the last-report
  // slot, so calling it here would self-deadlock the checker.
  OrderGraph& g = graph();
  std::string violation;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.names[info.serial] = info.name;
    for (std::size_t i = 0; i < stack.size; ++i) {
      const Held& held = stack.entries[i];
      g.names[held.info->serial] = held.info->name;
      std::set<std::uint64_t> seen;
      std::vector<std::uint64_t> path;
      if (find_path_locked(g, info.serial, held.info->serial, seen, path)) {
        std::string cycle;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          cycle += "\"" + std::string(g.names[*it]) + "\" -> ";
        }
        cycle += "\"" + std::string(info.name) + "\"";
        std::string prior;
        auto edge = g.edges.find({info.serial, path.size() >= 2
                                                   ? *(path.rbegin() + 1)
                                                   : held.info->serial});
        if (edge != g.edges.end()) {
          prior = "  prior edge recorded on thread " +
                  std::to_string(edge->second.thread_id) +
                  " which held:\n" + edge->second.holder_stack;
        }
        violation = "[taglets] lock-order violation (acquisition cycle): " +
                    cycle + "\n  this thread holds (outermost first):\n" +
                    format_stack(stack) + prior;
        break;
      }
      const auto key = std::make_pair(held.info->serial, info.serial);
      if (g.edges.find(key) == g.edges.end()) {
        g.adjacency[held.info->serial].insert(info.serial);
        g.edges[key] = {format_stack(stack), this_thread_value()};
      }
    }
  }
  if (!violation.empty()) report(violation);
}

inline void after_acquire(const OrderInfo& info, bool shared) {
  if (mode_slot().load(std::memory_order_relaxed) == LockOrderMode::kOff) {
    return;
  }
  HeldStack& stack = held_stack();
  if (stack.size < HeldStack::kCapacity) {
    stack.entries[stack.size++] = {&info, shared};
  } else {
    ++stack.overflowed;
  }
}

inline void on_release(const OrderInfo& info) {
  HeldStack& stack = held_stack();
  // Search from the top: releases are almost always LIFO, but unlock
  // order is not required to match.
  for (std::size_t i = stack.size; i > 0; --i) {
    if (stack.entries[i - 1].info->serial == info.serial) {
      for (std::size_t j = i - 1; j + 1 < stack.size; ++j) {
        stack.entries[j] = stack.entries[j + 1];
      }
      --stack.size;
      return;
    }
  }
  if (stack.overflowed != 0) {
    --stack.overflowed;
    return;
  }
  // Not on the stack: acquired while checks were off, or mode was
  // toggled mid-flight (tests do this). Ignore.
}

}  // namespace sync_detail

inline bool lock_order_checks_enabled() { return true; }

inline LockOrderMode lock_order_mode() {
  return sync_detail::mode_slot().load(std::memory_order_relaxed);
}

inline void set_lock_order_mode_for_testing(LockOrderMode mode) {
  sync_detail::mode_slot().store(mode, std::memory_order_relaxed);
}

inline std::uint64_t lock_order_violation_count() {
  return sync_detail::violation_counter().load(std::memory_order_relaxed);
}

inline std::string last_lock_order_report() {
  sync_detail::OrderGraph& g = sync_detail::graph();
  std::lock_guard<std::mutex> lock(g.mu);
  return sync_detail::last_report_slot();
}

/// Guards a std::thread::join() against the PR 7 frontend failover
/// deadlock shape: joining a thread while holding a lock the joined
/// thread's exit path may acquire. `joinee_min_rank` is the lowest
/// rank the joined thread can take; holding anything at or above it
/// here is reported as a violation.
inline void check_join_safe(int joinee_min_rank, const char* site) {
  if (lock_order_mode() == LockOrderMode::kOff) return;
  const sync_detail::HeldStack& stack = sync_detail::held_stack();
  for (std::size_t i = 0; i < stack.size; ++i) {
    const sync_detail::Held& held = stack.entries[i];
    if (held.info->rank >= joinee_min_rank) {
      sync_detail::report(
          "[taglets] lock-order violation (join while holding a lock the "
          "joined thread may need) at " +
          std::string(site) + ": joining with \"" +
          std::string(held.info->name) + "\" (rank " +
          std::to_string(held.info->rank) + ") held, joinee floor rank " +
          std::to_string(joinee_min_rank) +
          "\n  held locks (outermost first):\n" +
          sync_detail::format_stack(stack));
      return;
    }
  }
}

#else  // !TAGLETS_LOCK_ORDER_CHECKS

inline bool lock_order_checks_enabled() { return false; }
inline LockOrderMode lock_order_mode() { return LockOrderMode::kOff; }
inline void set_lock_order_mode_for_testing(LockOrderMode) {}
inline std::uint64_t lock_order_violation_count() { return 0; }
inline std::string last_lock_order_report() { return {}; }
inline void check_join_safe(int, const char*) {}

#endif  // TAGLETS_LOCK_ORDER_CHECKS

/// std::mutex with a name, a lock rank, and (in debug builds) runtime
/// order checking. Prefer MutexLock over calling lock()/unlock().
class TAGLETS_CAPABILITY("mutex") Mutex {
 public:
  Mutex(const char* name, int rank)
#if TAGLETS_LOCK_ORDER_CHECKS
      : ord_{name, rank, sync_detail::next_serial()}
#endif
  {
    (void)name;
    (void)rank;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TAGLETS_ACQUIRE() {
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::before_acquire(ord_);
#endif
    mu_.lock();
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::after_acquire(ord_, /*shared=*/false);
#endif
  }

  void unlock() TAGLETS_RELEASE() {
    mu_.unlock();
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::on_release(ord_);
#endif
  }

  bool try_lock() TAGLETS_TRY_ACQUIRE(true) {
    // A try-lock cannot block, so it is exempt from the rank check,
    // but a success still lands on the held stack so later ordinary
    // acquisitions are checked against it.
    if (!mu_.try_lock()) return false;
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::after_acquire(ord_, /*shared=*/false);
#endif
    return true;
  }

  /// The wrapped handle, for CondVar only.
  std::mutex& native() { return mu_; }

  const char* name() const {
#if TAGLETS_LOCK_ORDER_CHECKS
    return ord_.name;
#else
    return "";
#endif
  }

  int rank() const {
#if TAGLETS_LOCK_ORDER_CHECKS
    return ord_.rank;
#else
    return 0;
#endif
  }

 private:
  std::mutex mu_;
#if TAGLETS_LOCK_ORDER_CHECKS
  sync_detail::OrderInfo ord_;
#endif
};

/// std::shared_mutex with the same bookkeeping; shared acquisitions
/// participate in rank and cycle checks too (a reader can deadlock
/// against a writer exactly like a writer against a writer).
class TAGLETS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(const char* name, int rank)
#if TAGLETS_LOCK_ORDER_CHECKS
      : ord_{name, rank, sync_detail::next_serial()}
#endif
  {
    (void)name;
    (void)rank;
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() TAGLETS_ACQUIRE() {
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::before_acquire(ord_);
#endif
    mu_.lock();
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::after_acquire(ord_, /*shared=*/false);
#endif
  }

  void unlock() TAGLETS_RELEASE() {
    mu_.unlock();
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::on_release(ord_);
#endif
  }

  void lock_shared() TAGLETS_ACQUIRE_SHARED() {
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::before_acquire(ord_);
#endif
    mu_.lock_shared();
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::after_acquire(ord_, /*shared=*/true);
#endif
  }

  void unlock_shared() TAGLETS_RELEASE_SHARED() {
    mu_.unlock_shared();
#if TAGLETS_LOCK_ORDER_CHECKS
    sync_detail::on_release(ord_);
#endif
  }

 private:
  std::shared_mutex mu_;
#if TAGLETS_LOCK_ORDER_CHECKS
  sync_detail::OrderInfo ord_;
#endif
};

/// RAII exclusive lock over Mutex; relockable (unlock()/lock()) so
/// hand-over-hand patterns keep their annotations.
class TAGLETS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TAGLETS_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    owns_ = true;
  }

  ~MutexLock() TAGLETS_RELEASE() {
    if (owns_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() TAGLETS_RELEASE() {
    mu_->unlock();
    owns_ = false;
  }

  void lock() TAGLETS_ACQUIRE() {
    mu_->lock();
    owns_ = true;
  }

  bool owns_lock() const { return owns_; }
  Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_;
  bool owns_ = false;
};

/// RAII exclusive lock over SharedMutex (the writer side).
class TAGLETS_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) TAGLETS_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  ~WriterMutexLock() TAGLETS_RELEASE() { mu_->unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock over SharedMutex (the reader side).
class TAGLETS_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) TAGLETS_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->lock_shared();
  }
  ~ReaderMutexLock() TAGLETS_RELEASE_SHARED() { mu_->unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to util::Mutex. Every wait takes a
/// predicate — there is deliberately no way to write the
/// lost-wakeup-prone `cv.wait(lk)`.
///
/// Rule for notifiers: mutate the state the predicate reads while
/// holding the mutex (or at minimum take-and-drop it after mutating),
/// otherwise a waiter can check the predicate, miss the change, and
/// sleep through the notify.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename Pred>
  void wait(MutexLock& lock, Pred pred) TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native = adopt(lock);
    cv_.wait(native, std::move(pred));
    native.release();  // ownership stays with `lock`
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(MutexLock& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Pred pred) TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native = adopt(lock);
    const bool satisfied = cv_.wait_for(native, timeout, std::move(pred));
    native.release();
    return satisfied;
  }

  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(MutexLock& lock,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native = adopt(lock);
    const bool satisfied = cv_.wait_until(native, deadline, std::move(pred));
    native.release();
    return satisfied;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  /// Temporarily adopts the already-held native mutex so the std wait
  /// machinery can unlock/relock it; the held-lock stack keeps the
  /// mutex marked held across the wait, which is conservative and
  /// cannot produce false positives (a blocked thread acquires
  /// nothing).
  static std::unique_lock<std::mutex> adopt(MutexLock& lock) {
    return std::unique_lock<std::mutex>(lock.mutex()->native(),
                                        std::adopt_lock);
  }

  std::condition_variable cv_;
};

}  // namespace taglets::util
