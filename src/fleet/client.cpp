#include "fleet/client.hpp"

#include <stdexcept>
#include <utility>

namespace taglets::fleet {

namespace {

std::chrono::milliseconds ms(double v) {
  return std::chrono::milliseconds(static_cast<long>(v));
}

constexpr std::chrono::milliseconds kIdleRecvBudget{3'600'000};
/// Reload covers a full model load + server start on the far side.
constexpr std::chrono::milliseconds kReloadReplyBudget{60'000};

}  // namespace

/// Single-flight control reply slots; armed/resolved under pending_mu_.
struct FleetClient::Waiters {
  bool pong_armed = false;
  std::promise<Pong> pong;
  bool reload_armed = false;
  std::promise<ReloadResponse> reload;
  bool trace_armed = false;
  std::promise<TraceExportResponse> trace;
  bool metrics_armed = false;
  std::promise<MetricsResponse> metrics;
};

FleetClient::FleetClient(FleetClientConfig config)
    : config_(std::move(config)), waiters_(std::make_unique<Waiters>()) {
  conn_ = Connection::connect(Endpoint::parse(config_.endpoint),
                              ms(config_.connect_timeout_ms));
  reader_ = std::thread([this] { reader_loop(); });
}

FleetClient::~FleetClient() { close(); }

void FleetClient::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  conn_.shutdown_rw();  // reader wakes, fails anything still pending
  // The reader takes pending_mu_ to resolve futures; joining while
  // holding it (or anything below it) would recreate the PR 7 shape.
  util::check_join_safe(util::lockrank::kFleetClientPending,
                        "FleetClient::close");
  if (reader_.joinable()) reader_.join();
  conn_.close();
}

void FleetClient::send_locked_checked(
    const std::vector<std::uint8_t>& frame) {
  if (broken_.load(std::memory_order_acquire) ||
      closed_.load(std::memory_order_acquire)) {
    throw SocketError("connection closed");
  }
  util::MutexLock lock(write_mu_);
  conn_.send_frame(frame, ms(config_.io_timeout_ms));
}

std::future<PredictResponse> FleetClient::submit(std::vector<float> features,
                                                 std::uint64_t routing_key,
                                                 double deadline_ms,
                                                 std::uint64_t trace_id) {
  PredictRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.routing_key = routing_key;
  request.deadline_ms = deadline_ms;
  request.trace_id = trace_id;
  request.features = std::move(features);

  std::promise<PredictResponse> promise;
  std::future<PredictResponse> future = promise.get_future();
  {
    util::MutexLock lock(pending_mu_);
    pending_.emplace(request.id, std::move(promise));
  }
  try {
    send_locked_checked(encode(request));
  } catch (const SocketError& e) {
    std::promise<PredictResponse> orphan;
    bool mine = false;
    {
      util::MutexLock lock(pending_mu_);
      const auto it = pending_.find(request.id);
      if (it != pending_.end()) {
        orphan = std::move(it->second);
        pending_.erase(it);
        mine = true;
      }
    }
    if (mine) {
      PredictResponse resp;
      resp.id = request.id;
      resp.status = Status::kUnavailable;
      resp.error = e.what();
      orphan.set_value(std::move(resp));
    }
    conn_.shutdown_rw();
  }
  return future;
}

PredictResponse FleetClient::predict(std::vector<float> features,
                                     std::uint64_t routing_key,
                                     double deadline_ms,
                                     std::uint64_t trace_id) {
  return submit(std::move(features), routing_key, deadline_ms, trace_id)
      .get();
}

Pong FleetClient::ping() {
  util::MutexLock control(control_mu_);
  std::future<Pong> future;
  {
    util::MutexLock lock(pending_mu_);
    if (broken_.load(std::memory_order_acquire)) {
      throw SocketError("connection closed");
    }
    waiters_->pong = std::promise<Pong>();
    future = waiters_->pong.get_future();
    waiters_->pong_armed = true;
  }
  Ping ping;
  ping.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  try {
    send_locked_checked(encode(ping));
  } catch (const SocketError&) {
    util::MutexLock lock(pending_mu_);
    waiters_->pong_armed = false;
    throw;
  }
  if (future.wait_for(ms(config_.io_timeout_ms)) !=
      std::future_status::ready) {
    util::MutexLock lock(pending_mu_);
    if (waiters_->pong_armed) {
      waiters_->pong_armed = false;
      throw SocketError("ping reply timeout");
    }
    // Reader resolved it between the timeout and the lock: take it.
  }
  return future.get();
}

ReloadResponse FleetClient::reload(const std::string& path) {
  util::MutexLock control(control_mu_);
  std::future<ReloadResponse> future;
  {
    util::MutexLock lock(pending_mu_);
    if (broken_.load(std::memory_order_acquire)) {
      throw SocketError("connection closed");
    }
    waiters_->reload = std::promise<ReloadResponse>();
    future = waiters_->reload.get_future();
    waiters_->reload_armed = true;
  }
  ReloadRequest request;
  request.path = path;
  try {
    send_locked_checked(encode(request));
  } catch (const SocketError&) {
    util::MutexLock lock(pending_mu_);
    waiters_->reload_armed = false;
    throw;
  }
  if (future.wait_for(kReloadReplyBudget) != std::future_status::ready) {
    util::MutexLock lock(pending_mu_);
    if (waiters_->reload_armed) {
      waiters_->reload_armed = false;
      throw SocketError("reload reply timeout");
    }
  }
  return future.get();
}

TraceExportResponse FleetClient::trace_export() {
  util::MutexLock control(control_mu_);
  std::future<TraceExportResponse> future;
  {
    util::MutexLock lock(pending_mu_);
    if (broken_.load(std::memory_order_acquire)) {
      throw SocketError("connection closed");
    }
    waiters_->trace = std::promise<TraceExportResponse>();
    future = waiters_->trace.get_future();
    waiters_->trace_armed = true;
  }
  try {
    send_locked_checked(encode(TraceExportRequest{}));
  } catch (const SocketError&) {
    util::MutexLock lock(pending_mu_);
    waiters_->trace_armed = false;
    throw;
  }
  if (future.wait_for(ms(config_.io_timeout_ms)) !=
      std::future_status::ready) {
    util::MutexLock lock(pending_mu_);
    if (waiters_->trace_armed) {
      waiters_->trace_armed = false;
      throw SocketError("trace export reply timeout");
    }
  }
  return future.get();
}

MetricsResponse FleetClient::fleet_metrics() {
  util::MutexLock control(control_mu_);
  std::future<MetricsResponse> future;
  {
    util::MutexLock lock(pending_mu_);
    if (broken_.load(std::memory_order_acquire)) {
      throw SocketError("connection closed");
    }
    waiters_->metrics = std::promise<MetricsResponse>();
    future = waiters_->metrics.get_future();
    waiters_->metrics_armed = true;
  }
  try {
    send_locked_checked(encode(MetricsRequest{}));
  } catch (const SocketError&) {
    util::MutexLock lock(pending_mu_);
    waiters_->metrics_armed = false;
    throw;
  }
  if (future.wait_for(ms(config_.io_timeout_ms)) !=
      std::future_status::ready) {
    util::MutexLock lock(pending_mu_);
    if (waiters_->metrics_armed) {
      waiters_->metrics_armed = false;
      throw SocketError("metrics reply timeout");
    }
  }
  return future.get();
}

void FleetClient::reader_loop() {
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = conn_.recv_frame(kIdleRecvBudget);
    } catch (const SocketError&) {
      break;
    }
    if (!frame) break;
    try {
      switch (peek_type(*frame)) {
        case MsgType::kPredictResponse: {
          PredictResponse resp = decode_predict_response(*frame);
          std::promise<PredictResponse> promise;
          bool found = false;
          {
            util::MutexLock lock(pending_mu_);
            const auto it = pending_.find(resp.id);
            if (it != pending_.end()) {
              promise = std::move(it->second);
              pending_.erase(it);
              found = true;
            }
          }
          if (found) promise.set_value(std::move(resp));
          break;
        }
        case MsgType::kPong: {
          const Pong pong = decode_pong(*frame);
          util::MutexLock lock(pending_mu_);
          if (waiters_->pong_armed) {
            waiters_->pong_armed = false;
            waiters_->pong.set_value(pong);
          }
          break;
        }
        case MsgType::kReloadResponse: {
          const ReloadResponse resp = decode_reload_response(*frame);
          util::MutexLock lock(pending_mu_);
          if (waiters_->reload_armed) {
            waiters_->reload_armed = false;
            waiters_->reload.set_value(resp);
          }
          break;
        }
        case MsgType::kTraceExportResponse: {
          TraceExportResponse resp = decode_trace_export_response(*frame);
          util::MutexLock lock(pending_mu_);
          if (waiters_->trace_armed) {
            waiters_->trace_armed = false;
            waiters_->trace.set_value(std::move(resp));
          }
          break;
        }
        case MsgType::kMetricsResponse: {
          MetricsResponse resp = decode_metrics_response(*frame);
          util::MutexLock lock(pending_mu_);
          if (waiters_->metrics_armed) {
            waiters_->metrics_armed = false;
            waiters_->metrics.set_value(std::move(resp));
          }
          break;
        }
        default:
          break;
      }
    } catch (const ProtocolError&) {
      break;
    }
  }
  broken_.store(true, std::memory_order_release);
  fail_all_pending();
}

void FleetClient::fail_all_pending() {
  std::unordered_map<std::uint64_t, std::promise<PredictResponse>> orphans;
  {
    util::MutexLock lock(pending_mu_);
    orphans.swap(pending_);
    const auto gone =
        std::make_exception_ptr(SocketError("connection lost"));
    if (waiters_->pong_armed) {
      waiters_->pong_armed = false;
      waiters_->pong.set_exception(gone);
    }
    if (waiters_->reload_armed) {
      waiters_->reload_armed = false;
      waiters_->reload.set_exception(gone);
    }
    if (waiters_->trace_armed) {
      waiters_->trace_armed = false;
      waiters_->trace.set_exception(gone);
    }
    if (waiters_->metrics_armed) {
      waiters_->metrics_armed = false;
      waiters_->metrics.set_exception(gone);
    }
  }
  for (auto& [id, promise] : orphans) {
    PredictResponse resp;
    resp.id = id;
    resp.status = Status::kUnavailable;
    resp.error = "connection lost";
    promise.set_value(std::move(resp));
  }
}

}  // namespace taglets::fleet
