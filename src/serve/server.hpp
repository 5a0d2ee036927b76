// In-process inference server for the distilled end model (design
// principle 3: production traffic hits one compact servable classifier,
// not the taglet ensemble). Single-example requests are coalesced in a
// bounded submission queue and executed as dynamic micro-batches on
// ServableModel::predict_proba. Each forward pass runs inline on its
// worker thread (util::InlineScope): throughput scales with the worker
// count, not with a fork-join per GEMM.
//
// Concurrency model: layer forward passes cache activations on the
// model instance (see nn/layers.hpp), so one ServableModel cannot run
// two forwards at once. The server therefore keeps one private model
// replica per worker thread — workers never share mutable model state,
// and clients only ever touch the queue.
//
// Lifecycle:
//  * construct  — queue is open; submissions are accepted and parked.
//  * start()    — worker threads begin pulling micro-batches.
//  * stop()     — in-flight batches complete; requests still queued are
//                 failed deterministically (kDeadlineExceeded when
//                 already expired, kShutdown otherwise); later
//                 submissions resolve immediately with kShutdown. Every
//                 future ever handed out resolves exactly once.
// A stopped server stays stopped; the destructor calls stop().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "ensemble/servable.hpp"
#include "util/sync.hpp"
#include "obs/metrics.hpp"
#include "serve/batching_policy.hpp"
#include "serve/request_queue.hpp"
#include "serve/server_stats.hpp"

namespace taglets::serve {

struct ServerConfig {
  /// Worker threads, each with a private model replica.
  std::size_t workers = 1;
  /// Submission-queue bound; admission control rejects beyond this.
  std::size_t queue_capacity = 256;
  BatchingPolicy batching;
  /// Applied to submit() calls without an explicit deadline; <= 0
  /// means no deadline.
  double default_deadline_ms = 0.0;

  void validate() const;  // throws std::invalid_argument
};

class Server {
 public:
  /// Copies `model` once per worker. Throws on invalid config.
  Server(const ensemble::ServableModel& model, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the worker threads. No-op when already running; throws
  /// std::runtime_error after stop().
  void start();
  /// Drain and shut down (see lifecycle above). Idempotent, blocks
  /// until every admitted request has resolved.
  void stop();
  /// Stop pulling new work without deciding the pending requests'
  /// fate: closes the queue, waits for in-flight batches to finish,
  /// and returns every request still queued with its promise
  /// *unresolved* — the caller owns them now. This is the hot-swap
  /// hook: fleet shards hand the pending set to the replacement
  /// server via adopt(), so a model reload fails zero requests.
  /// stop() is exactly close_and_drain() + fail-the-pending-set.
  /// Idempotent: later calls return empty.
  std::vector<Request> close_and_drain();
  /// Enqueue an already-built request, preserving its id and promise
  /// (the reload handoff path). Unlike submit(), adoption bypasses the
  /// capacity bound — the request was admitted once and must not be
  /// re-rejected just because new traffic saturated this queue during
  /// the drain. Never blocks; only a closed queue (shutdown racing the
  /// handoff) resolves the request, with kShutdown, so the caller
  /// never holds an unresolved promise afterwards. Throws on a
  /// wrong-shape input.
  void adopt(Request request);
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Enqueue one example (rank-1, length input_dim()) under the
  /// config's default deadline. Never blocks: a full queue or a stopped
  /// server resolves the returned future immediately with
  /// kRejected/kShutdown. Throws std::invalid_argument on a
  /// wrong-shape input (programming error, not an operational outcome).
  std::future<Response> submit(tensor::Tensor input);
  /// Same with an explicit deadline; `deadline_ms <= 0` means none.
  std::future<Response> submit(tensor::Tensor input, double deadline_ms);
  /// Same, carrying the caller's distributed-trace id (0 = none); the
  /// fleet shard path, so a request's frontend and shard spans share a
  /// trace_id in merged traces.
  std::future<Response> submit(tensor::Tensor input, double deadline_ms,
                               std::uint64_t trace_id);

  /// Synchronous convenience wrappers: submit + wait, with the default
  /// or an explicit deadline.
  Response predict(tensor::Tensor input);
  Response predict(tensor::Tensor input, double deadline_ms);

  const ServerStats& stats() const { return stats_; }
  const ServerConfig& config() const { return config_; }
  std::size_t input_dim() const { return input_dim_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  void worker_loop(std::size_t worker_index);
  void run_batch(ensemble::ServableModel& model, std::vector<Request> batch);
  void resolve(Request& request, Response response);

  ServerConfig config_;
  std::size_t input_dim_ = 0;
  std::vector<ensemble::ServableModel> replicas_;  // one per worker
  RequestQueue queue_;
  ServerStats stats_;
  /// Per-server id sequence; ids start at 1 and are echoed in
  /// Response::request_id and the "serve.request" trace spans.
  std::atomic<std::uint64_t> next_request_id_{1};
  obs::Gauge* queue_depth_gauge_ = nullptr;  // serve.queue_depth
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  util::Mutex lifecycle_mu_{"serve.lifecycle",
                            util::lockrank::kServeLifecycle};
};

}  // namespace taglets::serve
