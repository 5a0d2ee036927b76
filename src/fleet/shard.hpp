// One shard of the serving fleet: a socket front over the in-process
// serve::Server. A shard process owns one listening endpoint and
// serves these kinds of traffic on any connection:
//
//  * predict  — decoded, submitted to the active server, answered from
//    a per-connection writer thread (requests pipeline: many predicts
//    may be in flight per connection, responses return in submission
//    order). When the writer's pending window is full the shard
//    answers kOverloaded immediately — backpressure, not buffering.
//  * ping     — answered inline with a pong carrying queue depth,
//    capacity, and outcome counters, so the frontend's health and
//    saturation decisions ride on real shard state.
//  * reload   — zero-downtime model swap (see reload() below).
//  * trace export and metrics — the observability pulls (docs/FLEET.md).
//
// Hot reload sequence (docs/FLEET.md): load + validate the new
// ServableModel (input-dimension check), start a replacement
// serve::Server beside the old one,
// flip the active pointer under a writer lock, then close_and_drain()
// the old server and adopt() its still-queued requests into the new
// one. In-flight batches finish on the old model; nothing is dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/protocol.hpp"
#include "fleet/socket.hpp"
#include "serve/server.hpp"
#include "util/sync.hpp"

namespace taglets::fleet {

struct ShardConfig {
  /// Endpoint to listen on ("unix:/path" or "tcp:host:port").
  std::string endpoint;
  serve::ServerConfig server;
  /// Per-frame socket send/recv budget.
  double io_timeout_ms = 5000.0;
  /// Max predicts in flight per connection before kOverloaded.
  std::size_t max_inflight_per_connection = 256;

  void validate() const;  // throws std::invalid_argument
};

/// Outcome of a reload attempt (also the in-process API result).
struct ReloadOutcome {
  bool ok = false;
  std::uint64_t model_version = 0;  // active version after the attempt
  std::string message;
};

class ShardServer {
 public:
  /// Takes the initial model by value; the active serve::Server copies
  /// it per worker. Throws on invalid config or a bind failure at
  /// start().
  ShardServer(ensemble::ServableModel model, ShardConfig config);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Bind, listen, and start serving. Throws SocketError on bind
  /// failure; no-op when already started.
  void start();
  /// Stop accepting, resolve everything (queued requests fail with
  /// kShutdown), close connections, join all threads. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Swap the serving model to the ServableModel at `path`. Never
  /// takes the shard down: on any validation failure the old model
  /// keeps serving and the outcome says why. Thread-safe; concurrent
  /// reloads serialize.
  ReloadOutcome reload(const std::string& path);

  std::uint64_t model_version() const {
    return model_version_.load(std::memory_order_acquire);
  }
  const std::string& endpoint() const { return config_.endpoint; }
  /// Snapshot of the active server's stats (reload swaps the surface).
  serve::ServerStats::Snapshot stats_snapshot() const;

 private:
  struct ConnectionHandler;

  std::shared_ptr<serve::Server> active() const;
  void accept_loop();
  void reap_finished_handlers();
  Pong make_pong(std::uint64_t seq) const;

  ShardConfig config_;
  std::size_t input_dim_ = 0;
  /// Guards the active-server pointer swap: predict submission holds
  /// it shared, reload holds it unique for the flip — so a submission
  /// that grabbed the old server completes its enqueue before the old
  /// queue closes (no kShutdown window during a swap).
  mutable util::SharedMutex swap_mu_{"fleet.shard.swap",
                                     util::lockrank::kFleetShardSwap};
  std::shared_ptr<serve::Server> active_ TAGLETS_GUARDED_BY(swap_mu_);
  /// Serializes reload().
  util::Mutex reload_mu_{"fleet.shard.reload",
                         util::lockrank::kFleetShardReload};
  std::atomic<std::uint64_t> model_version_{1};
  std::atomic<bool> draining_{false};  // mid-swap, reported in pongs

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  util::Mutex handlers_mu_{"fleet.shard.handlers",
                           util::lockrank::kFleetShardHandlers};
  std::vector<std::unique_ptr<ConnectionHandler>> handlers_
      TAGLETS_GUARDED_BY(handlers_mu_);
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  util::Mutex lifecycle_mu_{"fleet.shard.lifecycle",
                            util::lockrank::kFleetShardLifecycle};

  // Cached registry references (fleet.shard.* namespace).
  obs::Counter* predicts_total_ = nullptr;
  obs::Counter* overloaded_total_ = nullptr;
  obs::Counter* reloads_total_ = nullptr;
  obs::Counter* reload_failures_total_ = nullptr;
  obs::Gauge* model_version_gauge_ = nullptr;
};

}  // namespace taglets::fleet
