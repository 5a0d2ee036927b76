// Fleet frontend: the process clients talk to. Routes each predict to
// a shard replica group via the consistent-hash ring, picks a replica
// inside the group by health (Alive first, Unknown optimistically
// next, Suspect as a last resort, Dead never), and fails over — a
// request in flight on a replica whose connection breaks is re-sent to
// the next candidate, so a SIGKILLed shard costs retries, not errors.
//
// Health: one heartbeat thread pings every replica each interval; the
// pong carries queue depth/capacity, so saturation decisions ride on
// shard-reported state. Trackers move Unknown -> Alive -> Suspect ->
// Dead per fleet/health.hpp; when every replica of a group is Dead the
// group is evicted from the ring (the ring never maps to a Dead shard).
// Dead replicas are re-probed at dead_probe_interval_ms: when the
// endpoint answers again the replica re-registers as a new member
// (tracker reset to Unknown) and its group rejoins the ring, so a
// restarted shard recovers without a frontend restart.
//
// Backpressure: a replica whose last pong reported a full queue is
// skipped; if every candidate is saturated (or answers kOverloaded)
// the client gets kOverloaded immediately — the frontend buffers
// nothing. With no routable candidate at all the answer is
// kUnavailable.
//
// Control: reload requests from clients fan out to every replica
// over dedicated one-shot connections (they never head-of-line-block
// the data channels).
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/health.hpp"
#include "fleet/protocol.hpp"
#include "fleet/ring.hpp"
#include "fleet/shard.hpp"  // ReloadOutcome
#include "fleet/socket.hpp"
#include "util/sync.hpp"

namespace taglets::fleet {

/// One shard: a named replica group. The group is the unit of ring
/// placement; its replicas are interchangeable servers of the same
/// key range.
struct GroupSpec {
  std::string name;
  std::vector<std::string> replicas;  // endpoints ("unix:..." / "tcp:...")
};

struct FrontendConfig {
  /// Client-facing listen endpoint.
  std::string endpoint;
  std::vector<GroupSpec> groups;
  HealthPolicy health;
  double heartbeat_interval_ms = 50.0;
  double connect_timeout_ms = 1000.0;
  /// Per-frame socket send/recv budget on replica and client channels.
  double io_timeout_ms = 5000.0;
  std::size_t ring_vnodes = 64;
  /// While a replica is Dead the heartbeat thread re-probes its
  /// endpoint at this interval; a successful connect re-registers the
  /// replica as a brand-new member (tracker back to Unknown) and its
  /// group rejoins the ring. <= 0 disables probing, making Dead
  /// effectively terminal until the frontend restarts.
  double dead_probe_interval_ms = 1000.0;
  /// Structured JSON-lines operational event log (health transitions,
  /// failover drains, dead-replica rejoins, reload broadcasts),
  /// appended to this path. Empty disables.
  std::string event_log_path;

  void validate() const;  // throws std::invalid_argument
};

class Frontend {
 public:
  explicit Frontend(FrontendConfig config);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Bind the client endpoint, start the heartbeat and accept threads.
  void start();
  /// Stop accepting, fail in-flight work deterministically, join all
  /// threads. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Wait until at least `min_alive` replicas are Alive (heartbeats
  /// answered). Returns false on timeout.
  bool wait_until_ready(std::size_t min_alive, std::chrono::milliseconds timeout);

  /// In-process routing entry (the socket front calls this too).
  /// `done` is invoked exactly once — possibly on an internal I/O
  /// thread, possibly before route() returns — with response.id equal
  /// to request.id.
  using Completion = std::function<void(PredictResponse)>;
  void route(PredictRequest request, Completion done);

  /// Broadcast a model reload to every replica (dedicated one-shot
  /// control connections). ok only when every reachable replica
  /// swapped; Dead replicas are skipped and reported in the message.
  ReloadOutcome reload_all(const std::string& path);

  /// Pull every reachable shard's span buffer over one-shot control
  /// connections and return it with this process's own, each shard's
  /// clock offset estimated from its export round-trip (ping-RTT
  /// midpoint). Render with render_chrome_trace() for one merged
  /// per-process-lane Chrome trace.
  TraceExportResponse collect_traces();

  /// Metrics federation: this process's structured registry snapshot
  /// plus one per reachable shard (one-shot control connections), each
  /// annotated with group, endpoint, health state, flap and rejoin
  /// context.
  MetricsResponse federated_metrics();

  /// Health state of one replica endpoint (kDead for unknown names).
  HealthState replica_state(const std::string& endpoint) const;
  /// Group names currently on the ring (all-Dead groups are evicted).
  std::vector<std::string> ring_groups() const;

 private:
  struct Replica;
  struct RouteTask;
  struct ClientConn;

  void heartbeat_loop();
  void heartbeat_round();
  void accept_loop();
  void client_reader(std::shared_ptr<ClientConn> client);
  void reap_finished_clients();

  /// Health-ordered candidate list for a key: ring successor groups,
  /// replicas Alive < Unknown < Suspect within each, Dead skipped.
  std::vector<Replica*> candidates_for(std::uint64_t key);
  /// Try candidates from task->next onward; completes the task when a
  /// send sticks, or terminally when the list is exhausted.
  void dispatch(std::shared_ptr<RouteTask> task);
  /// Send to one replica; registers the task in the pending map first.
  bool send_to(Replica& replica, const std::shared_ptr<RouteTask>& task);
  /// conn_mu held. Reconnects a broken/unopened channel unless the
  /// tracker is Dead or the frontend is stopping. Never blocks on a
  /// thread join: a broken reader is parked for reap_retired_readers.
  bool ensure_connected_locked(Replica& replica);
  void replica_reader(Replica* replica);
  /// conn_mu held: park the exited reader thread (and its done flag)
  /// on the retired list for the heartbeat thread / stop() to join.
  void retire_reader_locked(Replica& replica);
  /// Join parked reader threads. `wait` joins unconditionally (stop
  /// path); otherwise only threads whose done flag is already set, so
  /// the heartbeat loop never blocks on a still-exiting reader.
  void reap_retired_readers(bool wait);
  /// Heartbeat-thread-only: attempt a reconnect to a Dead replica at
  /// dead_probe_interval_ms; success re-registers it (fresh tracker).
  void probe_dead_replica(Replica& replica, HealthTracker::Clock::time_point now);
  /// Terminal delivery: latency attribution (network vs queue vs
  /// compute, labeled per shard group when `served_by` is known), the
  /// "fleet.request" span, then the client callback — exactly once.
  void complete(const std::shared_ptr<RouteTask>& task, PredictResponse resp,
                Replica* served_by);
  Pong make_aggregate_pong(std::uint64_t seq) const;
  /// Append {"ts_ms":...,"event":type,<fields>} to the event log (no-op
  /// when disabled). `fields` is a pre-rendered JSON fragment.
  void log_event(const std::string& type, const std::string& fields);

  FrontendConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;  // fixed after ctor
  std::unordered_map<std::string, Replica*> by_endpoint_;
  std::unordered_map<std::string, std::vector<Replica*>> group_members_;

  mutable util::Mutex ring_mu_{"fleet.frontend.ring",
                               util::lockrank::kFleetFrontendRing};
  HashRing ring_ TAGLETS_GUARDED_BY(ring_mu_);

  std::atomic<std::uint64_t> next_wire_id_{1};
  std::atomic<std::uint64_t> next_ping_seq_{1};
  std::atomic<std::uint64_t> next_trace_seq_{1};

  util::Mutex event_mu_{"fleet.frontend.events",
                        util::lockrank::kFleetFrontendEvents};
  std::unique_ptr<std::ofstream> event_log_;  // null when disabled

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::thread heartbeat_thread_;
  util::Mutex heartbeat_mu_{"fleet.frontend.heartbeat",
                            util::lockrank::kFleetFrontendHeartbeat};
  util::CondVar heartbeat_cv_;

  util::Mutex clients_mu_{"fleet.frontend.clients",
                          util::lockrank::kFleetFrontendClients};
  std::vector<std::shared_ptr<ClientConn>> clients_
      TAGLETS_GUARDED_BY(clients_mu_);

  /// Reader threads of broken channels, parked until a single owner
  /// (heartbeat thread, or stop()) joins them outside every conn_mu.
  /// The paired flag is set as the thread's last act, so a reap with
  /// wait=false never blocks. Joining a reader from another reader's
  /// exit path (two replicas failing over into each other) or under a
  /// conn_mu the exiting reader needs would deadlock — see
  /// ensure_connected_locked.
  util::Mutex retired_mu_{"fleet.frontend.retired",
                          util::lockrank::kFleetFrontendRetired};
  std::vector<std::pair<std::thread, std::shared_ptr<std::atomic<bool>>>>
      retired_readers_ TAGLETS_GUARDED_BY(retired_mu_);

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  util::Mutex lifecycle_mu_{"fleet.frontend.lifecycle",
                            util::lockrank::kFleetFrontendLifecycle};

  // Cached registry references (fleet.frontend.* namespace).
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* requests_ok_total_ = nullptr;
  obs::Counter* failovers_total_ = nullptr;
  obs::Counter* overloaded_total_ = nullptr;
  obs::Counter* unavailable_total_ = nullptr;
  obs::Counter* evicted_groups_total_ = nullptr;
  obs::Counter* dead_rejoins_total_ = nullptr;
  obs::Gauge* alive_replicas_gauge_ = nullptr;
  obs::Gauge* ring_groups_gauge_ = nullptr;
};

}  // namespace taglets::fleet
