#include "fleet/shard.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "fleet/trace_merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace taglets::fleet {

using tensor::Tensor;

namespace {

Status to_fleet_status(serve::Status s) {
  switch (s) {
    case serve::Status::kOk: return Status::kOk;
    case serve::Status::kRejected: return Status::kOverloaded;
    case serve::Status::kDeadlineExceeded: return Status::kDeadlineExceeded;
    case serve::Status::kShutdown: return Status::kShutdown;
    case serve::Status::kError: return Status::kError;
  }
  return Status::kError;
}

std::chrono::milliseconds ms(double v) {
  return std::chrono::milliseconds(static_cast<long>(v));
}

/// Waiting for the NEXT frame is idleness, not an I/O in progress, so
/// the reader's recv budget is hours, not io_timeout_ms — an idle but
/// healthy client keeps its connection. stop() wakes blocked readers
/// via shutdown_rw.
constexpr std::chrono::milliseconds kIdleRecvBudget{3'600'000};

}  // namespace

void ShardConfig::validate() const {
  if (endpoint.empty()) {
    throw std::invalid_argument("ShardConfig: endpoint must be set");
  }
  if (io_timeout_ms <= 0.0) {
    throw std::invalid_argument("ShardConfig: io_timeout_ms must be > 0");
  }
  if (max_inflight_per_connection == 0) {
    throw std::invalid_argument(
        "ShardConfig: max_inflight_per_connection must be >= 1");
  }
  server.validate();
}

/// Per-connection I/O pair: the reader decodes and dispatches frames,
/// the writer resolves pipelined predict futures in FIFO order and
/// sends the responses. Control traffic (ping/reload/trace/metrics) is
/// answered inline by the reader under the shared write lock, so a
/// heartbeat never queues behind a slow batch.
struct ShardServer::ConnectionHandler {
  ShardServer* shard = nullptr;
  Connection conn;
  util::Mutex write_mu{"fleet.shard.write", util::lockrank::kFleetWrite};

  struct Pending {
    std::uint64_t id = 0;
    serve::Clock::time_point t0{};
    std::future<serve::Response> future;
  };
  util::Mutex q_mu{"fleet.shard.connq",
                   util::lockrank::kFleetShardConnQueue};
  util::CondVar q_cv;
  std::deque<Pending> q TAGLETS_GUARDED_BY(q_mu);
  bool closing TAGLETS_GUARDED_BY(q_mu) = false;

  /// Writer wait predicate; runs with q_mu held by the CondVar
  /// machinery, which the static analysis cannot see.
  bool writer_wake_ready() const TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    return closing || !q.empty();
  }

  std::thread reader;
  std::thread writer;
  std::atomic<int> live_threads{2};

  void send(const std::vector<std::uint8_t>& frame) {
    util::MutexLock lock(write_mu);
    conn.send_frame(frame, ms(shard->config_.io_timeout_ms));
  }

  void begin_close() {
    {
      util::MutexLock lock(q_mu);
      closing = true;
    }
    q_cv.notify_all();
    conn.shutdown_rw();
  }

  bool finished() const { return live_threads.load(std::memory_order_acquire) == 0; }

  void reader_loop();
  void writer_loop();
  void dispatch(const std::vector<std::uint8_t>& frame);
};

void ShardServer::ConnectionHandler::reader_loop() {
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = conn.recv_frame(kIdleRecvBudget);
    } catch (const SocketError&) {
      break;  // broken/killed peer, or shutdown_rw from stop()
    }
    if (!frame) break;  // clean EOF
    try {
      dispatch(*frame);
    } catch (const std::exception&) {
      break;  // malformed frame or dead peer: drop the connection
    }
    if (shard->stopping_.load(std::memory_order_acquire)) break;
  }
  begin_close();
  live_threads.fetch_sub(1, std::memory_order_acq_rel);
}

void ShardServer::ConnectionHandler::dispatch(
    const std::vector<std::uint8_t>& frame) {
  switch (peek_type(frame)) {
    case MsgType::kPredictRequest: {
      const PredictRequest req = decode_predict_request(frame);
      shard->predicts_total_->add();
      PredictResponse early;
      early.id = req.id;
      {
        util::MutexLock lock(q_mu);
        if (q.size() >= shard->config_.max_inflight_per_connection) {
          early.status = Status::kOverloaded;
          early.error = "per-connection inflight window full";
        }
      }
      if (early.status != Status::kOverloaded &&
          req.features.size() != shard->input_dim_) {
        early.status = Status::kError;
        early.error = "input dim " + std::to_string(req.features.size()) +
                      " != model dim " + std::to_string(shard->input_dim_);
      }
      if (early.status == Status::kOverloaded ||
          !early.error.empty()) {
        if (early.status == Status::kOverloaded) shard->overloaded_total_->add();
        send(encode(early));
        return;
      }
      Tensor input = Tensor::zeros(req.features.size());
      std::memcpy(input.data().data(), req.features.data(),
                  req.features.size() * sizeof(float));
      Pending pending;
      pending.id = req.id;
      pending.t0 = serve::Clock::now();
      {
        // Shared lock: the pointer read and the enqueue are atomic
        // with respect to a reload's pointer flip, so a request can
        // never land in a queue that is already being drained.
        util::ReaderMutexLock swap(shard->swap_mu_);
        pending.future = shard->active_->submit(std::move(input),
                                                req.deadline_ms, req.trace_id);
      }
      {
        util::MutexLock lock(q_mu);
        q.push_back(std::move(pending));
      }
      q_cv.notify_one();
      return;
    }
    case MsgType::kPing: {
      const Ping ping = decode_ping(frame);
      send(encode(shard->make_pong(ping.seq)));
      return;
    }
    case MsgType::kReloadRequest: {
      const ReloadRequest req = decode_reload_request(frame);
      const ReloadOutcome out = shard->reload(req.path);
      ReloadResponse resp;
      resp.ok = out.ok ? 1 : 0;
      resp.model_version = out.model_version;
      resp.message = out.message;
      send(encode(resp));
      return;
    }
    case MsgType::kTraceExportRequest: {
      // now_us is stamped inside build_local_process_trace(), between
      // the collector's send and receive — the midpoint assumption the
      // clock-offset estimate rides on.
      TraceExportResponse resp;
      resp.processes.push_back(build_local_process_trace());
      send(encode(resp));
      return;
    }
    case MsgType::kMetricsRequest: {
      MetricsResponse resp;
      obs::MetricsSnapshot snap =
          obs::MetricsRegistry::global().snapshot(obs::process_name());
      snap.meta.emplace_back("endpoint", shard->config_.endpoint);
      snap.meta.emplace_back("model_version",
                             std::to_string(shard->model_version()));
      resp.snapshots.push_back(std::move(snap));
      send(encode(resp));
      return;
    }
    default:
      throw ProtocolError("unexpected message type on a shard connection");
  }
}

void ShardServer::ConnectionHandler::writer_loop() {
  for (;;) {
    Pending pending;
    {
      util::MutexLock lock(q_mu);
      q_cv.wait(lock, [this] { return writer_wake_ready(); });
      if (q.empty()) break;  // closing and fully drained
      pending = std::move(q.front());
      q.pop_front();
    }
    // Resolves exactly once whatever happens to the server (drain,
    // reload adoption, shutdown) — the serve layer's contract.
    const serve::Response r = pending.future.get();
    PredictResponse resp;
    resp.id = pending.id;
    resp.status = to_fleet_status(r.status);
    resp.label = static_cast<std::uint32_t>(r.label);
    resp.confidence = r.confidence;
    resp.class_name = r.class_name;
    resp.error = r.error;
    resp.shard_ms = r.total_ms;
    resp.queue_wait_ms = r.queue_ms;
    resp.compute_ms = std::max(0.0, r.total_ms - r.queue_ms);
    try {
      send(encode(resp));
    } catch (const SocketError&) {
      break;  // peer gone; remaining futures resolve into the void
    }
  }
  live_threads.fetch_sub(1, std::memory_order_acq_rel);
}

// ------------------------------------------------------------ ShardServer

ShardServer::ShardServer(ensemble::ServableModel model, ShardConfig config)
    : config_((config.validate(), std::move(config))) {
  input_dim_ = model.model().input_dim();
  active_ = std::make_shared<serve::Server>(model, config_.server);
  auto& registry = obs::MetricsRegistry::global();
  predicts_total_ = &registry.counter("fleet.shard.predicts_total");
  overloaded_total_ = &registry.counter("fleet.shard.overloaded_total");
  reloads_total_ = &registry.counter("fleet.shard.reloads_total");
  reload_failures_total_ =
      &registry.counter("fleet.shard.reload_failures_total");
  model_version_gauge_ = &registry.gauge("fleet.shard.model_version");
  model_version_gauge_->set(1.0);
}

ShardServer::~ShardServer() { stop(); }

std::shared_ptr<serve::Server> ShardServer::active() const {
  util::ReaderMutexLock lock(swap_mu_);
  return active_;
}

void ShardServer::start() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ShardServer::start: already stopped");
  }
  active()->start();
  listener_ = std::make_unique<Listener>(Endpoint::parse(config_.endpoint));
  accept_thread_ = std::thread([this] { accept_loop(); });
  running_.store(true, std::memory_order_release);
}

void ShardServer::stop() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  running_.store(false, std::memory_order_release);
  if (listener_) listener_->shutdown();
  // The accept and handler threads take handlers_mu_/q_mu/swap_mu_ and,
  // on the reload path, reload_mu_ — all ranked above the lifecycle
  // lock held here, so joining them cannot close a cycle.
  util::check_join_safe(util::lockrank::kFleetShardReload,
                        "ShardServer::stop");
  if (accept_thread_.joinable()) accept_thread_.join();
  // Resolve every admitted request (queued ones fail with kShutdown)
  // *before* tearing down connections, so writers can still deliver
  // the terminal responses to connected peers.
  active()->stop();
  std::vector<std::unique_ptr<ConnectionHandler>> handlers;
  {
    util::MutexLock lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (auto& h : handlers) h->begin_close();
  for (auto& h : handlers) {
    if (h->reader.joinable()) h->reader.join();
    if (h->writer.joinable()) h->writer.join();
  }
  listener_.reset();
}

void ShardServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::optional<Connection> peer;
    try {
      peer = listener_->accept(std::chrono::milliseconds(200));
    } catch (const SocketError&) {
      break;
    }
    if (!peer) {
      reap_finished_handlers();
      continue;
    }
    auto handler = std::make_unique<ConnectionHandler>();
    handler->shard = this;
    handler->conn = std::move(*peer);
    ConnectionHandler* raw = handler.get();
    handler->reader = std::thread([raw] { raw->reader_loop(); });
    handler->writer = std::thread([raw] { raw->writer_loop(); });
    {
      util::MutexLock lock(handlers_mu_);
      handlers_.push_back(std::move(handler));
    }
    reap_finished_handlers();
  }
}

void ShardServer::reap_finished_handlers() {
  // Move finished handlers out first so the joins below run without
  // handlers_mu_ held: a handler's reader can take reload_mu_ (rank
  // below handlers_mu_), so joining under the lock would be exactly
  // the join-under-lock shape the order checker rejects — even though
  // finished() means these particular threads have already exited.
  std::vector<std::unique_ptr<ConnectionHandler>> finished;
  {
    util::MutexLock lock(handlers_mu_);
    for (auto it = handlers_.begin(); it != handlers_.end();) {
      if ((*it)->finished()) {
        finished.push_back(std::move(*it));
        it = handlers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  util::check_join_safe(util::lockrank::kFleetShardReload,
                        "ShardServer::reap_finished_handlers");
  for (auto& h : finished) {
    if (h->reader.joinable()) h->reader.join();
    if (h->writer.joinable()) h->writer.join();
  }
}

Pong ShardServer::make_pong(std::uint64_t seq) const {
  Pong pong;
  pong.seq = seq;
  pong.model_version = model_version();
  const std::shared_ptr<serve::Server> srv = active();
  pong.queue_depth = static_cast<std::uint32_t>(srv->queue_depth());
  pong.queue_capacity =
      static_cast<std::uint32_t>(srv->config().queue_capacity);
  // Counters only: the heartbeat runs every few tens of milliseconds
  // on the connection's reader thread and carries no percentiles.
  const serve::ServerStats::Snapshot s = srv->stats().counters();
  pong.requests_ok = s.completed;
  pong.requests_rejected = s.rejected_total();
  pong.requests_deadline_missed = s.deadline_missed;
  pong.draining = draining_.load(std::memory_order_acquire) ? 1 : 0;
  return pong;
}

serve::ServerStats::Snapshot ShardServer::stats_snapshot() const {
  return active()->stats().snapshot();
}

ReloadOutcome ShardServer::reload(const std::string& path) {
  util::MutexLock serialize(reload_mu_);
  ReloadOutcome out;
  out.model_version = model_version();
  try {
    // 1. Load and validate off to the side; the old model serves on.
    ensemble::ServableModel fresh = ensemble::ServableModel::load(path);
    if (fresh.model().input_dim() != input_dim_) {
      reload_failures_total_->add();
      out.message = "reload rejected: input_dim " +
                    std::to_string(fresh.model().input_dim()) +
                    " != serving dim " + std::to_string(input_dim_);
      return out;
    }
    // 2. Start the replacement beside the old server.
    auto next = std::make_shared<serve::Server>(fresh, config_.server);
    next->start();
    // 3. Flip. New submissions land on the new server from here on.
    draining_.store(true, std::memory_order_release);
    std::shared_ptr<serve::Server> old;
    {
      util::WriterMutexLock swap(swap_mu_);
      old = active_;
      active_ = next;
    }
    // 4. In-flight batches finish on the old model; still-queued
    // requests transfer to the new server with promises intact.
    // adopt() bypasses the replacement queue's capacity bound: new
    // submissions landed there since the flip, and already-admitted
    // work must not be re-rejected because of them.
    std::vector<serve::Request> pending = old->close_and_drain();
    for (serve::Request& request : pending) {
      next->adopt(std::move(request));
    }
    old.reset();
    draining_.store(false, std::memory_order_release);
    const std::uint64_t version =
        model_version_.fetch_add(1, std::memory_order_acq_rel) + 1;
    model_version_gauge_->set(static_cast<double>(version));
    reloads_total_->add();
    out.ok = true;
    out.model_version = version;
    return out;
  } catch (const std::exception& e) {
    draining_.store(false, std::memory_order_release);
    reload_failures_total_->add();
    out.message = e.what();
    return out;
  }
}

}  // namespace taglets::fleet
