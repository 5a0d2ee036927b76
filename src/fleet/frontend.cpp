#include "fleet/frontend.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fleet/trace_merge.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace taglets::fleet {

namespace {

std::chrono::milliseconds ms(double v) {
  return std::chrono::milliseconds(static_cast<long>(v));
}

/// Idle client/replica channels are legal (a client may hold a
/// connection open between bursts); only stop()/shutdown_rw unblocks
/// a reader early.
constexpr std::chrono::milliseconds kIdleRecvBudget{3'600'000};

}  // namespace

void FrontendConfig::validate() const {
  if (endpoint.empty()) {
    throw std::invalid_argument("FrontendConfig: endpoint must be set");
  }
  if (groups.empty()) {
    throw std::invalid_argument("FrontendConfig: need at least one group");
  }
  std::vector<std::string> names;
  std::vector<std::string> endpoints;
  for (const GroupSpec& group : groups) {
    if (group.name.empty()) {
      throw std::invalid_argument("FrontendConfig: group name must be set");
    }
    if (group.replicas.empty()) {
      throw std::invalid_argument("FrontendConfig: group " + group.name +
                                  " has no replicas");
    }
    names.push_back(group.name);
    for (const std::string& ep : group.replicas) endpoints.push_back(ep);
  }
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
    throw std::invalid_argument("FrontendConfig: duplicate group name");
  }
  std::sort(endpoints.begin(), endpoints.end());
  if (std::adjacent_find(endpoints.begin(), endpoints.end()) !=
      endpoints.end()) {
    throw std::invalid_argument("FrontendConfig: duplicate replica endpoint");
  }
  if (heartbeat_interval_ms <= 0.0 || connect_timeout_ms <= 0.0 ||
      io_timeout_ms <= 0.0) {
    throw std::invalid_argument("FrontendConfig: timeouts must be > 0");
  }
  if (ring_vnodes == 0) {
    throw std::invalid_argument("FrontendConfig: ring_vnodes must be >= 1");
  }
  health.validate();
}

/// One upstream shard replica: a lazily (re)connected channel, its
/// health tracker, and the predicts in flight on it. The reader thread
/// never takes conn_mu — senders hold conn_mu, the reader only reads
/// the fd (full-duplex socket). Teardown synchronizes through
/// `accepting` + `broken`: the exiting reader turns `accepting` off
/// and drains `pending` *before* raising `broken`, so whoever observes
/// `broken` under conn_mu knows the drain is over and may rebuild the
/// channel without joining the old thread (joins happen later, on the
/// retired list, outside every conn_mu — see ensure_connected_locked).
struct Frontend::Replica {
  explicit Replica(HealthPolicy policy) : tracker(policy) {}

  std::string group;
  std::string endpoint;
  Endpoint parsed;
  HealthTracker tracker;

  /// Guards conn/connected/reader lifecycle + sends.
  util::Mutex conn_mu{"fleet.frontend.conn",
                      util::lockrank::kFleetFrontendConn};
  Connection conn;
  bool connected TAGLETS_GUARDED_BY(conn_mu) = false;
  std::atomic<bool> broken{false};  // reader drained pending; reset under conn_mu
  std::thread reader;
  std::shared_ptr<std::atomic<bool>> reader_done;  // set as the thread's last act

  util::Mutex pending_mu{"fleet.frontend.pending",
                         util::lockrank::kFleetFrontendPending};
  /// Admission gate for `pending`: true while the current reader is
  /// live. The exiting reader turns it off before draining, so a
  /// racing send_to can never register a predict nobody will drain.
  bool accepting TAGLETS_GUARDED_BY(pending_mu) = false;
  std::unordered_map<std::uint64_t, std::shared_ptr<RouteTask>> pending
      TAGLETS_GUARDED_BY(pending_mu);

  /// Heartbeat-thread-only: last Dead-endpoint reconnect probe.
  HealthTracker::Clock::time_point last_dead_probe{};

  // Shard-reported load from the latest pong (routing reads these).
  std::atomic<std::uint32_t> queue_depth{0};
  std::atomic<std::uint32_t> queue_capacity{0};
  std::atomic<std::uint64_t> model_version{0};

  /// Heartbeat-thread-only: last state written to the event log, so
  /// transitions are logged once at heartbeat granularity.
  HealthState last_logged_state = HealthState::kUnknown;
  /// Lifetime rejoin count (tracker.reset() wipes transition history).
  std::atomic<std::uint64_t> rejoins{0};

  // Latency attribution histograms, shared per group (same registry
  // names resolve to the same instances): end-to-end as the frontend
  // saw it, plus the network / queue-wait / compute decomposition.
  obs::Histogram* latency_hist = nullptr;     // ..latency_ms{shard=G}
  obs::Histogram* network_hist = nullptr;     // total - shard_ms
  obs::Histogram* queue_wait_hist = nullptr;  // shard admission->dispatch
  obs::Histogram* compute_hist = nullptr;     // shard dispatch->done
};

/// One client request making its way through the candidate list. At
/// any moment exactly one thread owns the cursor (the dispatcher, or
/// the replica reader that popped it from a pending map), but a
/// broken-channel redispatch can race a failing send — `next` and
/// `completed` are atomic so the overlap is at worst a duplicated
/// (idempotent) predict, never a double client reply.
struct Frontend::RouteTask {
  PredictRequest request;  // original client id preserved
  Completion done;
  std::vector<Replica*> candidates;
  obs::TraceClock::time_point t_start{};  // admission at the frontend
  std::atomic<std::size_t> next{0};
  std::atomic<bool> saw_overload{false};
  std::atomic<bool> completed{false};
};

struct Frontend::ClientConn {
  Connection conn;
  util::Mutex write_mu{"fleet.frontend.client_write",
                       util::lockrank::kFleetWrite};
  std::thread reader;
  std::atomic<bool> finished{false};
};

// ------------------------------------------------------------ lifecycle

Frontend::Frontend(FrontendConfig config)
    : config_((config.validate(), std::move(config))),
      ring_(config_.ring_vnodes) {
  for (const GroupSpec& group : config_.groups) {
    std::vector<Replica*>& members = group_members_[group.name];
    for (const std::string& ep : group.replicas) {
      auto replica = std::make_unique<Replica>(config_.health);
      replica->group = group.name;
      replica->endpoint = ep;
      replica->parsed = Endpoint::parse(ep);
      by_endpoint_[ep] = replica.get();
      members.push_back(replica.get());
      replicas_.push_back(std::move(replica));
    }
    ring_.add_node(group.name);
  }
  auto& registry = obs::MetricsRegistry::global();
  requests_total_ = &registry.counter("fleet.frontend.requests_total");
  requests_ok_total_ = &registry.counter("fleet.frontend.requests_ok_total");
  failovers_total_ = &registry.counter("fleet.frontend.failovers_total");
  overloaded_total_ = &registry.counter("fleet.frontend.overloaded_total");
  unavailable_total_ = &registry.counter("fleet.frontend.unavailable_total");
  evicted_groups_total_ =
      &registry.counter("fleet.frontend.evicted_groups_total");
  dead_rejoins_total_ = &registry.counter("fleet.frontend.dead_rejoins_total");
  alive_replicas_gauge_ = &registry.gauge("fleet.frontend.alive_replicas");
  ring_groups_gauge_ = &registry.gauge("fleet.frontend.ring_groups");
  ring_groups_gauge_->set(static_cast<double>(config_.groups.size()));
  // Per-group latency decomposition; replicas of one group share the
  // registry instances (histogram() returns the existing one).
  for (auto& replica : replicas_) {
    const std::string suffix = "_ms{shard=" + replica->group + "}";
    replica->latency_hist = &registry.histogram(
        "fleet.frontend.latency" + suffix, obs::default_latency_buckets_ms());
    replica->network_hist = &registry.histogram(
        "fleet.frontend.network" + suffix, obs::default_latency_buckets_ms());
    replica->queue_wait_hist =
        &registry.histogram("fleet.frontend.queue_wait" + suffix,
                            obs::default_latency_buckets_ms());
    replica->compute_hist = &registry.histogram(
        "fleet.frontend.compute" + suffix, obs::default_latency_buckets_ms());
  }
  if (!config_.event_log_path.empty()) {
    event_log_ = std::make_unique<std::ofstream>(config_.event_log_path,
                                                 std::ios::app);
    if (!*event_log_) {
      throw std::runtime_error("Frontend: cannot open event log " +
                               config_.event_log_path);
    }
  }
}

Frontend::~Frontend() { stop(); }

void Frontend::start() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::runtime_error("Frontend::start: already stopped");
  }
  listener_ = std::make_unique<Listener>(Endpoint::parse(config_.endpoint));
  accept_thread_ = std::thread([this] { accept_loop(); });
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  running_.store(true, std::memory_order_release);
}

void Frontend::stop() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  running_.store(false, std::memory_order_release);
  {
    // Empty critical section before the notify: without it a heartbeat
    // thread that already evaluated its predicate (stopping_ still
    // false) but has not yet blocked would miss this wakeup entirely
    // and sleep a full extra interval. Holding the wait lock across
    // the stopping_ publication pins the waiter on either side of the
    // race: it re-checks the predicate under the lock, or it is
    // already blocked and the notify reaches it.
    util::MutexLock pin(heartbeat_mu_);
  }
  heartbeat_cv_.notify_all();
  if (listener_) listener_->shutdown();
  // The accept and heartbeat threads take the heartbeat, conn, ring,
  // retired, and clients locks — all ranked above the lifecycle lock
  // held here.
  util::check_join_safe(util::lockrank::kFleetFrontendHeartbeat,
                        "Frontend::stop");
  if (accept_thread_.joinable()) accept_thread_.join();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  // Wake and join replica readers. Join OUTSIDE conn_mu: a reader's
  // exit path redispatches its pending tasks, which locks other
  // replicas' conn_mu — joining under our own would close a lock cycle
  // between two exiting readers.
  for (auto& replica : replicas_) {
    std::thread reader;
    {
      util::MutexLock lock(replica->conn_mu);
      if (replica->connected) replica->conn.shutdown_rw();
      reader = std::move(replica->reader);
    }
    if (reader.joinable()) reader.join();
  }
  // Plus any readers of previously-broken channels still parked on the
  // retired list (stopping_ is set, so nothing retires after this).
  reap_retired_readers(/*wait=*/true);
  // Readers redispatched their pending sets on exit; with stopping_
  // set those dispatches terminated with kShutdown, so nothing is in
  // flight past this point.
  std::vector<std::shared_ptr<ClientConn>> clients;
  {
    util::MutexLock lock(clients_mu_);
    clients.swap(clients_);
  }
  for (auto& client : clients) client->conn.shutdown_rw();
  for (auto& client : clients) {
    if (client->reader.joinable()) client->reader.join();
  }
  listener_.reset();
}

bool Frontend::wait_until_ready(std::size_t min_alive,
                                std::chrono::milliseconds timeout) {
  const auto deadline = HealthTracker::Clock::now() + timeout;
  for (;;) {
    std::size_t alive = 0;
    for (const auto& replica : replicas_) {
      if (replica->tracker.state() == HealthState::kAlive) ++alive;
    }
    if (alive >= min_alive) return true;
    if (HealthTracker::Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ------------------------------------------------------------- routing

void Frontend::route(PredictRequest request, Completion done) {
  requests_total_->add();
  auto task = std::make_shared<RouteTask>();
  task->request = std::move(request);
  task->done = std::move(done);
  task->t_start = obs::TraceClock::now();
  if (obs::trace_enabled() && task->request.trace_id == 0) {
    // Originate trace context here when the client sent none: pid in
    // the high bits keeps ids distinct across fleet processes.
    task->request.trace_id =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        next_trace_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  task->candidates = candidates_for(task->request.routing_key);
  dispatch(std::move(task));
}

std::vector<Frontend::Replica*> Frontend::candidates_for(std::uint64_t key) {
  std::vector<std::string> order;
  {
    util::MutexLock lock(ring_mu_);
    if (ring_.node_count() > 0) order = ring_.successors(key);
  }
  // Evicted groups are gone from `order` already; within each group
  // prefer confirmed-healthy replicas, try never-seen ones
  // optimistically, keep Suspect as the last resort, never Dead.
  static constexpr HealthState kPasses[] = {
      HealthState::kAlive, HealthState::kUnknown, HealthState::kSuspect};
  std::vector<Replica*> out;
  for (const std::string& group : order) {
    const auto it = group_members_.find(group);
    if (it == group_members_.end()) continue;
    for (const HealthState pass : kPasses) {
      for (Replica* replica : it->second) {
        if (replica->tracker.state() == pass) out.push_back(replica);
      }
    }
  }
  return out;
}

void Frontend::dispatch(std::shared_ptr<RouteTask> task) {
  const auto now = [] { return HealthTracker::Clock::now(); };
  for (;;) {
    const std::size_t i =
        task->next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= task->candidates.size()) break;
    if (i > 0) failovers_total_->add();
    Replica* replica = task->candidates[i];
    if (replica->tracker.state() == HealthState::kDead) continue;
    const std::uint32_t capacity =
        replica->queue_capacity.load(std::memory_order_relaxed);
    if (capacity != 0 &&
        replica->queue_depth.load(std::memory_order_relaxed) >= capacity) {
      task->saw_overload.store(true, std::memory_order_relaxed);
      continue;  // shard-reported saturation: skip, don't pile on
    }
    if (send_to(*replica, task)) return;  // now pending on this replica
    replica->tracker.record_failure(now());
  }
  PredictResponse resp;
  resp.id = task->request.id;
  if (stopping_.load(std::memory_order_acquire)) {
    resp.status = Status::kShutdown;
    resp.error = "frontend stopping";
  } else if (task->saw_overload.load(std::memory_order_relaxed)) {
    resp.status = Status::kOverloaded;
    resp.error = "all candidate replicas saturated";
    overloaded_total_->add();
  } else {
    resp.status = Status::kUnavailable;
    resp.error = "no routable replica";
    unavailable_total_->add();
  }
  complete(task, std::move(resp), nullptr);
}

bool Frontend::send_to(Replica& replica,
                       const std::shared_ptr<RouteTask>& task) {
  const std::uint64_t wire_id =
      next_wire_id_.fetch_add(1, std::memory_order_relaxed);
  PredictRequest wire = task->request;
  wire.id = wire_id;
  util::MutexLock conn_lock(replica.conn_mu);
  if (!ensure_connected_locked(replica)) return false;
  {
    util::MutexLock lock(replica.pending_mu);
    // The reader may have exited (and drained pending) between the
    // connect check and here; registering now would orphan the task —
    // nobody would ever redispatch it. Fail over instead.
    if (!replica.accepting) return false;
    replica.pending.emplace(wire_id, task);
  }
  try {
    replica.conn.send_frame(encode(wire), ms(config_.io_timeout_ms));
  } catch (const SocketError&) {
    {
      util::MutexLock lock(replica.pending_mu);
      replica.pending.erase(wire_id);
    }
    replica.conn.shutdown_rw();  // reader exits, redispatches the rest
    return false;
  }
  return true;
}

bool Frontend::ensure_connected_locked(Replica& replica) {
  if (stopping_.load(std::memory_order_acquire)) return false;
  if (replica.broken.load(std::memory_order_acquire)) {
    // The exited reader already turned `accepting` off and drained its
    // pending set (it raises `broken` only after the drain), so the
    // channel can be rebuilt immediately. Do NOT join it here: a
    // reader's exit path dispatches into other replicas' conn_mu, so
    // two readers failing over into each other (or the heartbeat
    // thread holding this conn_mu) joining under conn_mu would
    // deadlock. Park the thread for the heartbeat reaper instead.
    retire_reader_locked(replica);
    replica.conn.close();
    replica.connected = false;
    replica.broken.store(false, std::memory_order_release);
  }
  if (replica.connected) return true;
  if (replica.tracker.state() == HealthState::kDead) return false;
  try {
    replica.conn =
        Connection::connect(replica.parsed, ms(config_.connect_timeout_ms));
  } catch (const SocketError&) {
    return false;
  }
  replica.connected = true;
  {
    util::MutexLock lock(replica.pending_mu);
    replica.accepting = true;
  }
  auto done = std::make_shared<std::atomic<bool>>(false);
  replica.reader_done = done;
  Replica* raw = &replica;
  replica.reader = std::thread([this, raw, done] {
    replica_reader(raw);
    done->store(true, std::memory_order_release);
  });
  return true;
}

void Frontend::retire_reader_locked(Replica& replica) {
  if (!replica.reader.joinable()) return;
  util::MutexLock lock(retired_mu_);
  retired_readers_.emplace_back(std::move(replica.reader),
                                std::move(replica.reader_done));
}

void Frontend::reap_retired_readers(bool wait) {
  std::vector<std::thread> joinable;
  {
    util::MutexLock lock(retired_mu_);
    for (auto it = retired_readers_.begin(); it != retired_readers_.end();) {
      if (wait ||
          (it->second && it->second->load(std::memory_order_acquire))) {
        joinable.push_back(std::move(it->first));
        it = retired_readers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Exiting readers redispatch their pending sets, which takes other
  // replicas' conn_mu — never join while holding one.
  util::check_join_safe(util::lockrank::kFleetFrontendConn,
                        "Frontend::reap_retired_readers");
  for (std::thread& thread : joinable) {
    if (thread.joinable()) thread.join();
  }
}

void Frontend::replica_reader(Replica* replica) {
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = replica->conn.recv_frame(kIdleRecvBudget);
    } catch (const SocketError&) {
      break;
    }
    if (!frame) break;
    const auto now = HealthTracker::Clock::now();
    try {
      switch (peek_type(*frame)) {
        case MsgType::kPredictResponse: {
          PredictResponse resp = decode_predict_response(*frame);
          std::shared_ptr<RouteTask> task;
          {
            util::MutexLock lock(replica->pending_mu);
            const auto it = replica->pending.find(resp.id);
            if (it != replica->pending.end()) {
              task = it->second;
              replica->pending.erase(it);
            }
          }
          if (!task) break;  // stale (already redispatched elsewhere)
          if (resp.status == Status::kOverloaded) {
            // This replica is full, others may not be: fail over.
            task->saw_overload.store(true, std::memory_order_relaxed);
            dispatch(std::move(task));
            break;
          }
          if (resp.status == Status::kShutdown) {
            replica->tracker.record_failure(now);
            dispatch(std::move(task));
            break;
          }
          replica->tracker.record_success(now);
          resp.id = task->request.id;
          complete(task, std::move(resp), replica);
          break;
        }
        case MsgType::kPong: {
          const Pong pong = decode_pong(*frame);
          replica->queue_depth.store(pong.queue_depth,
                                     std::memory_order_relaxed);
          replica->queue_capacity.store(pong.queue_capacity,
                                        std::memory_order_relaxed);
          replica->model_version.store(pong.model_version,
                                       std::memory_order_relaxed);
          replica->tracker.record_success(now);
          break;
        }
        default:
          break;  // tolerated: unknown-but-well-formed frame
      }
    } catch (const ProtocolError&) {
      break;  // corrupt peer: drop the channel
    }
  }
  // Exit order matters: close admissions and drain pending BEFORE
  // raising `broken` — once `broken` is observed (under conn_mu) the
  // channel may be rebuilt and the pending map reused, so the drain
  // must already be over. Dispatching the drained tasks happens last;
  // it may route back here, in which case ensure_connected_locked
  // retires this very thread (moves the std::thread object, no join)
  // and rebuilds the channel.
  std::vector<std::shared_ptr<RouteTask>> stranded;
  {
    util::MutexLock lock(replica->pending_mu);
    replica->accepting = false;
    stranded.reserve(replica->pending.size());
    for (auto& [id, task] : replica->pending) {
      stranded.push_back(std::move(task));
    }
    replica->pending.clear();
  }
  replica->tracker.record_failure(HealthTracker::Clock::now());
  replica->broken.store(true, std::memory_order_release);
  if (!stranded.empty()) {
    log_event("failover", "\"endpoint\":\"" +
                              obs::json_escape(replica->endpoint) +
                              "\",\"group\":\"" +
                              obs::json_escape(replica->group) +
                              "\",\"redispatched\":" +
                              std::to_string(stranded.size()));
  }
  for (auto& task : stranded) dispatch(std::move(task));
}

void Frontend::complete(const std::shared_ptr<RouteTask>& task,
                        PredictResponse resp, Replica* served_by) {
  if (task->completed.exchange(true, std::memory_order_acq_rel)) return;
  if (resp.status == Status::kOk) requests_ok_total_->add();
  const obs::TraceClock::time_point now = obs::TraceClock::now();
  const double total_ms =
      std::chrono::duration<double, std::milli>(now - task->t_start).count();
  if (served_by != nullptr) {
    // Attribute where the time went: everything the shard did not
    // account for is transport + frontend queueing ("network").
    served_by->latency_hist->observe(total_ms);
    served_by->network_hist->observe(std::max(0.0, total_ms - resp.shard_ms));
    served_by->queue_wait_hist->observe(resp.queue_wait_ms);
    served_by->compute_hist->observe(resp.compute_ms);
  }
  if (obs::trace_enabled()) {
    obs::TraceAttrs attrs = {{"id", std::to_string(task->request.id)},
                             {"status", status_name(resp.status)}};
    if (task->request.trace_id != 0) {
      attrs.emplace_back("trace_id", std::to_string(task->request.trace_id));
    }
    if (served_by != nullptr) attrs.emplace_back("shard", served_by->group);
    obs::Tracer::global().record_complete("fleet.request", task->t_start, now,
                                          std::move(attrs));
  }
  task->done(std::move(resp));
}

// ------------------------------------------------------------ heartbeat

void Frontend::heartbeat_loop() {
  util::MutexLock lock(heartbeat_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    lock.unlock();
    heartbeat_round();
    lock.lock();
    heartbeat_cv_.wait_for(lock, ms(config_.heartbeat_interval_ms), [this] {
      return stopping_.load(std::memory_order_acquire);
    });
  }
}

void Frontend::heartbeat_round() {
  const auto now = HealthTracker::Clock::now();
  // Join readers of channels that broke since the last round. This
  // thread is the single reaper (stop() aside), and it joins outside
  // every conn_mu — the exiting readers' dispatch calls may need those.
  reap_retired_readers(/*wait=*/false);
  std::size_t alive = 0;
  for (auto& entry : replicas_) {
    Replica& replica = *entry;
    if (replica.tracker.state() != HealthState::kDead) {
      Ping ping;
      ping.seq = next_ping_seq_.fetch_add(1, std::memory_order_relaxed);
      util::MutexLock conn_lock(replica.conn_mu);
      if (ensure_connected_locked(replica)) {
        try {
          replica.conn.send_frame(encode(ping), ms(config_.io_timeout_ms));
        } catch (const SocketError&) {
          replica.conn.shutdown_rw();
          replica.tracker.record_failure(now);
        }
      } else {
        replica.tracker.record_failure(now);
      }
    } else if (config_.dead_probe_interval_ms > 0.0) {
      probe_dead_replica(replica, now);
    }
    replica.tracker.tick(now);
    const HealthState state = replica.tracker.state();
    if (state != replica.last_logged_state) {
      log_event("health", "\"endpoint\":\"" +
                              obs::json_escape(replica.endpoint) +
                              "\",\"group\":\"" +
                              obs::json_escape(replica.group) +
                              "\",\"from\":\"" +
                              health_state_name(replica.last_logged_state) +
                              "\",\"to\":\"" + health_state_name(state) +
                              "\"");
      replica.last_logged_state = state;
    }
    if (state == HealthState::kAlive) ++alive;
  }
  alive_replicas_gauge_->set(static_cast<double>(alive));
  // Evict groups whose every replica is Dead — the ring must never map
  // a key to a shard nobody can reach — and re-add a group as soon as
  // a probed-back replica revives it.
  util::MutexLock ring_lock(ring_mu_);
  for (const auto& [group, members] : group_members_) {
    const bool all_dead =
        std::all_of(members.begin(), members.end(), [](Replica* r) {
          return r->tracker.state() == HealthState::kDead;
        });
    if (all_dead) {
      if (ring_.contains(group)) {
        ring_.remove_node(group);
        evicted_groups_total_->add();
      }
    } else if (!ring_.contains(group)) {
      ring_.add_node(group);
    }
  }
  ring_groups_gauge_->set(static_cast<double>(ring_.node_count()));
}

void Frontend::probe_dead_replica(Replica& replica,
                                  HealthTracker::Clock::time_point now) {
  if (replica.last_dead_probe != HealthTracker::Clock::time_point{} &&
      std::chrono::duration<double, std::milli>(now - replica.last_dead_probe)
              .count() < config_.dead_probe_interval_ms) {
    return;
  }
  replica.last_dead_probe = now;
  try {
    const Connection probe =
        Connection::connect(replica.parsed, ms(config_.connect_timeout_ms));
    (void)probe;
  } catch (const SocketError&) {
    return;  // still down; next probe after the interval
  }
  // The endpoint answers again. Dead stays terminal inside the state
  // machine — recovery is re-registration: the tracker restarts as a
  // brand-new Unknown member (docs/FLEET.md) and the next round's ping
  // walks it back toward Alive.
  replica.tracker.reset();
  replica.rejoins.fetch_add(1, std::memory_order_relaxed);
  dead_rejoins_total_->add();
  log_event("rejoin", "\"endpoint\":\"" + obs::json_escape(replica.endpoint) +
                          "\",\"group\":\"" + obs::json_escape(replica.group) +
                          "\"");
}

// ------------------------------------------------------------- control

ReloadOutcome Frontend::reload_all(const std::string& path) {
  ReloadOutcome out;
  out.ok = true;
  std::string detail;
  std::uint64_t min_version = std::numeric_limits<std::uint64_t>::max();
  bool any_swapped = false;
  for (auto& entry : replicas_) {
    Replica& replica = *entry;
    if (replica.tracker.state() == HealthState::kDead) {
      detail += replica.endpoint + ": dead, skipped; ";
      continue;
    }
    try {
      Connection control =
          Connection::connect(replica.parsed, ms(config_.connect_timeout_ms));
      ReloadRequest request;
      request.path = path;
      control.send_frame(encode(request), ms(config_.io_timeout_ms));
      // Loading + starting the replacement server takes real time.
      const auto frame =
          control.recv_frame(std::chrono::milliseconds(60'000));
      if (!frame) throw SocketError("eof before reload response");
      const ReloadResponse resp = decode_reload_response(*frame);
      if (resp.ok) {
        any_swapped = true;
        min_version = std::min(min_version, resp.model_version);
        replica.model_version.store(resp.model_version,
                                    std::memory_order_relaxed);
      } else {
        out.ok = false;
        detail += replica.endpoint + ": " + resp.message + "; ";
      }
    } catch (const std::exception& e) {
      out.ok = false;
      detail += replica.endpoint + ": " + e.what() + "; ";
    }
  }
  if (any_swapped &&
      min_version != std::numeric_limits<std::uint64_t>::max()) {
    out.model_version = min_version;
  }
  out.message = detail;
  log_event("reload", "\"path\":\"" + obs::json_escape(path) +
                          "\",\"ok\":" + (out.ok ? "true" : "false") +
                          ",\"model_version\":" +
                          std::to_string(out.model_version) + ",\"detail\":\"" +
                          obs::json_escape(detail) + "\"");
  return out;
}

void Frontend::log_event(const std::string& type, const std::string& fields) {
  if (!event_log_) return;
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  util::MutexLock lock(event_mu_);
  *event_log_ << "{\"ts_ms\":" << wall_ms << ",\"event\":\""
              << obs::json_escape(type) << "\"";
  if (!fields.empty()) *event_log_ << "," << fields;
  *event_log_ << "}\n";
  event_log_->flush();  // ops tail this file; a buffered line is invisible
}

TraceExportResponse Frontend::collect_traces() {
  obs::Tracer& tracer = obs::Tracer::global();
  TraceExportResponse out;
  out.processes.push_back(build_local_process_trace());  // offset 0: us
  for (auto& entry : replicas_) {
    Replica& replica = *entry;
    if (replica.tracker.state() == HealthState::kDead) continue;
    try {
      Connection control =
          Connection::connect(replica.parsed, ms(config_.connect_timeout_ms));
      // The round-trip IS the clock-alignment handshake: the shard
      // stamps its tracer clock while answering, and we assume that
      // instant fell halfway between t0 and t1 on ours.
      const double t0 = tracer.now_us();
      control.send_frame(encode(TraceExportRequest{}),
                         ms(config_.io_timeout_ms));
      const auto frame = control.recv_frame(ms(config_.io_timeout_ms));
      const double t1 = tracer.now_us();
      if (!frame) continue;  // shard died mid-export; skip its lane
      TraceExportResponse shard_trace = decode_trace_export_response(*frame);
      for (ProcessTrace& proc : shard_trace.processes) {
        proc.align_offset_us = estimate_clock_offset_us(t0, t1, proc.now_us);
        out.processes.push_back(std::move(proc));
      }
    } catch (const std::exception&) {
      // Unreachable or hostile shard: the merged trace simply misses
      // its lane; health tracking handles the rest.
    }
  }
  return out;
}

MetricsResponse Frontend::federated_metrics() {
  MetricsResponse out;
  obs::MetricsSnapshot own =
      obs::MetricsRegistry::global().snapshot(obs::process_name());
  own.meta.emplace_back("endpoint", config_.endpoint);
  out.snapshots.push_back(std::move(own));
  for (auto& entry : replicas_) {
    Replica& replica = *entry;
    if (replica.tracker.state() == HealthState::kDead) continue;
    try {
      Connection control =
          Connection::connect(replica.parsed, ms(config_.connect_timeout_ms));
      control.send_frame(encode(MetricsRequest{}), ms(config_.io_timeout_ms));
      const auto frame = control.recv_frame(ms(config_.io_timeout_ms));
      if (!frame) continue;
      MetricsResponse shard_metrics = decode_metrics_response(*frame);
      for (obs::MetricsSnapshot& snap : shard_metrics.snapshots) {
        // Per-shard labels: the aggregator, not the shard, knows where
        // this snapshot sits in the fleet.
        if (snap.source.empty()) snap.source = replica.endpoint;
        snap.meta.emplace_back("group", replica.group);
        snap.meta.emplace_back("replica_endpoint", replica.endpoint);
        snap.meta.emplace_back(
            "health", health_state_name(replica.tracker.state()));
        snap.meta.emplace_back(
            "flaps", std::to_string(replica.tracker.transitions().size()));
        snap.meta.emplace_back(
            "rejoins",
            std::to_string(replica.rejoins.load(std::memory_order_relaxed)));
        out.snapshots.push_back(std::move(snap));
      }
    } catch (const std::exception&) {
      // Skipped: the federation reports what answered.
    }
  }
  return out;
}

Pong Frontend::make_aggregate_pong(std::uint64_t seq) const {
  Pong pong;
  pong.seq = seq;
  std::uint64_t min_version = std::numeric_limits<std::uint64_t>::max();
  for (const auto& replica : replicas_) {
    if (replica->tracker.state() == HealthState::kDead) continue;
    pong.queue_depth += replica->queue_depth.load(std::memory_order_relaxed);
    pong.queue_capacity +=
        replica->queue_capacity.load(std::memory_order_relaxed);
    const std::uint64_t version =
        replica->model_version.load(std::memory_order_relaxed);
    if (version != 0) min_version = std::min(min_version, version);
  }
  if (min_version != std::numeric_limits<std::uint64_t>::max()) {
    pong.model_version = min_version;
  }
  // ok = completions the clients actually saw as kOk (not merely
  // routed); rejected = every request the frontend turned away,
  // whether for saturation or for want of a routable replica.
  pong.requests_ok = requests_ok_total_->value();
  pong.requests_rejected =
      overloaded_total_->value() + unavailable_total_->value();
  return pong;
}

HealthState Frontend::replica_state(const std::string& endpoint) const {
  const auto it = by_endpoint_.find(endpoint);
  if (it == by_endpoint_.end()) return HealthState::kDead;
  return it->second->tracker.state();
}

std::vector<std::string> Frontend::ring_groups() const {
  util::MutexLock lock(ring_mu_);
  return ring_.nodes();
}

// --------------------------------------------------------- client front

void Frontend::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::optional<Connection> peer;
    try {
      peer = listener_->accept(std::chrono::milliseconds(200));
    } catch (const SocketError&) {
      break;
    }
    if (!peer) {
      reap_finished_clients();
      continue;
    }
    auto client = std::make_shared<ClientConn>();
    client->conn = std::move(*peer);
    client->reader =
        std::thread([this, client] { client_reader(client); });
    {
      util::MutexLock lock(clients_mu_);
      clients_.push_back(std::move(client));
    }
    reap_finished_clients();
  }
}

void Frontend::reap_finished_clients() {
  // Move finished clients out first so the joins run without
  // clients_mu_ held: a client reader routes into replica conn_mu
  // (ranked below clients_mu_), so joining under the lock would be the
  // join-under-lock shape the order checker rejects — even though the
  // finished flag means these readers have already exited.
  std::vector<std::shared_ptr<ClientConn>> finished;
  {
    util::MutexLock lock(clients_mu_);
    for (auto it = clients_.begin(); it != clients_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
  }
  util::check_join_safe(util::lockrank::kFleetFrontendConn,
                        "Frontend::reap_finished_clients");
  for (auto& client : finished) {
    if (client->reader.joinable()) client->reader.join();
  }
}

void Frontend::client_reader(std::shared_ptr<ClientConn> client) {
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = client->conn.recv_frame(kIdleRecvBudget);
    } catch (const SocketError&) {
      break;
    }
    if (!frame) break;
    try {
      switch (peek_type(*frame)) {
        case MsgType::kPredictRequest: {
          PredictRequest request = decode_predict_request(*frame);
          route(std::move(request), [this, client](PredictResponse resp) {
            util::MutexLock lock(client->write_mu);
            try {
              client->conn.send_frame(encode(resp),
                                      ms(config_.io_timeout_ms));
            } catch (const SocketError&) {
              // Client gone; the outcome is already counted.
            }
          });
          break;
        }
        case MsgType::kPing: {
          const Ping ping = decode_ping(*frame);
          const std::vector<std::uint8_t> reply =
              encode(make_aggregate_pong(ping.seq));
          util::MutexLock lock(client->write_mu);
          client->conn.send_frame(reply, ms(config_.io_timeout_ms));
          break;
        }
        case MsgType::kReloadRequest: {
          const ReloadRequest request = decode_reload_request(*frame);
          const ReloadOutcome outcome = reload_all(request.path);
          ReloadResponse resp;
          resp.ok = outcome.ok ? 1 : 0;
          resp.model_version = outcome.model_version;
          resp.message = outcome.message;
          const std::vector<std::uint8_t> reply = encode(resp);
          util::MutexLock lock(client->write_mu);
          client->conn.send_frame(reply, ms(config_.io_timeout_ms));
          break;
        }
        case MsgType::kTraceExportRequest: {
          (void)decode_trace_export_request(*frame);
          const std::vector<std::uint8_t> reply = encode(collect_traces());
          util::MutexLock lock(client->write_mu);
          client->conn.send_frame(reply, ms(config_.io_timeout_ms));
          break;
        }
        case MsgType::kMetricsRequest: {
          (void)decode_metrics_request(*frame);
          const std::vector<std::uint8_t> reply = encode(federated_metrics());
          util::MutexLock lock(client->write_mu);
          client->conn.send_frame(reply, ms(config_.io_timeout_ms));
          break;
        }
        default:
          throw ProtocolError("unexpected message type from a client");
      }
    } catch (const std::exception&) {
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  client->finished.store(true, std::memory_order_release);
}

}  // namespace taglets::fleet
