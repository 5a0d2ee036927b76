// Client half of the fleet protocol. One FleetClient owns one
// connection (to a frontend, or directly to a shard — same wire
// language) and pipelines predicts over it: submit() returns a future
// immediately and a reader thread matches responses to futures by id,
// so responses may resolve out of submission order when the peer is a
// frontend multiplexing several shards.
//
// Control calls (ping / reload / trace / metrics) share the connection; they are
// serialized against each other but ride alongside in-flight predicts.
//
// When the connection breaks, every outstanding future resolves with
// kUnavailable and later calls throw SocketError — a client is
// single-use, like the connection it wraps.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/protocol.hpp"
#include "fleet/socket.hpp"
#include "util/sync.hpp"

namespace taglets::fleet {

struct FleetClientConfig {
  std::string endpoint;
  double connect_timeout_ms = 2000.0;
  double io_timeout_ms = 10000.0;
};

class FleetClient {
 public:
  /// Connects eagerly; throws SocketError when the peer is unreachable.
  explicit FleetClient(FleetClientConfig config);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Pipelined predict. The future always resolves: with the peer's
  /// response, or with kUnavailable when the connection dies first.
  /// `trace_id` propagates distributed-trace context (0 = let the
  /// frontend originate one when tracing is on).
  std::future<PredictResponse> submit(std::vector<float> features,
                                      std::uint64_t routing_key = 0,
                                      double deadline_ms = 0.0,
                                      std::uint64_t trace_id = 0);
  /// submit + wait.
  PredictResponse predict(std::vector<float> features,
                          std::uint64_t routing_key = 0,
                          double deadline_ms = 0.0,
                          std::uint64_t trace_id = 0);

  /// Heartbeat round-trip. Throws SocketError on a dead connection or
  /// reply timeout.
  Pong ping();
  /// Ask the peer to hot-swap its model (a frontend broadcasts).
  ReloadResponse reload(const std::string& path);
  /// Pull the peer's span buffers (a frontend answers with every fleet
  /// process's trace, clock-aligned onto its own epoch). Render with
  /// render_chrome_trace(). Throws SocketError on a dead connection.
  TraceExportResponse trace_export();
  /// Pull the peer's structured metrics (a frontend answers with the
  /// whole federation, per-shard labeled). Throws SocketError.
  MetricsResponse fleet_metrics();

  /// Fail outstanding futures, close, join. Idempotent.
  void close();
  bool connected() const { return !broken_.load(std::memory_order_acquire); }

 private:
  struct Waiters;

  void reader_loop();
  void fail_all_pending();
  void send_locked_checked(const std::vector<std::uint8_t>& frame);

  FleetClientConfig config_;
  Connection conn_;
  util::Mutex write_mu_{"fleet.client.write", util::lockrank::kFleetWrite};

  /// Guards pending_ and the control waiters.
  util::Mutex pending_mu_{"fleet.client.pending",
                          util::lockrank::kFleetClientPending};
  std::unordered_map<std::uint64_t, std::promise<PredictResponse>> pending_
      TAGLETS_GUARDED_BY(pending_mu_);
  std::unique_ptr<Waiters> waiters_ TAGLETS_PT_GUARDED_BY(pending_mu_);

  /// One control round-trip at a time.
  util::Mutex control_mu_{"fleet.client.control",
                          util::lockrank::kFleetClientControl};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<bool> broken_{false};
  std::atomic<bool> closed_{false};
  std::thread reader_;
};

}  // namespace taglets::fleet
