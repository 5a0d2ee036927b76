#include "serve/server.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace taglets::serve {

using tensor::Tensor;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point deadline_from(Clock::time_point now, double deadline_ms) {
  if (deadline_ms <= 0.0) return Clock::time_point::max();
  return now + std::chrono::nanoseconds(
                   static_cast<std::chrono::nanoseconds::rep>(deadline_ms * 1e6));
}

}  // namespace

void ServerConfig::validate() const {
  TAGLETS_CHECK_NE(workers, 0, "ServerConfig: workers must be >= 1");
  TAGLETS_CHECK_NE(queue_capacity, 0,
                   "ServerConfig: queue_capacity must be >= 1");
  batching.validate();
}

Server::Server(const ensemble::ServableModel& model, ServerConfig config)
    : config_((config.validate(), std::move(config))),
      queue_(config_.queue_capacity) {
  replicas_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) replicas_.push_back(model);
  input_dim_ = replicas_.front().model().input_dim();
  stats_.set_workers(config_.workers);
  queue_depth_gauge_ = &obs::MetricsRegistry::global().gauge("serve.queue_depth");
}

Server::~Server() { stop(); }

void Server::start() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (stopped_.load(std::memory_order_acquire)) {
    throw std::runtime_error("Server::start: server already stopped");
  }
  if (running_.load(std::memory_order_acquire)) return;
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  running_.store(true, std::memory_order_release);
}

std::vector<Request> Server::close_and_drain() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return {};
  running_.store(false, std::memory_order_release);
  // Closing the queue lets each worker finish the batch it already
  // claimed (in-flight work completes) and then exit. Because close()
  // and try_push() serialize on the queue mutex, a racing submit()
  // either lands its request before the close — and is part of the
  // drained set below — or observes kClosed and resolves its own
  // future with kShutdown. Either way no future is left dangling.
  queue_.close();
  // Workers touch the queue and stats locks (ranks above lifecycle),
  // never the lifecycle lock itself, so joining under lifecycle_mu_ is
  // safe — and the guard proves no lower-ranked lock leaks in here.
  util::check_join_safe(util::lockrank::kServeQueue,
                        "Server::close_and_drain");
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  return queue_.drain();
}

void Server::stop() {
  std::vector<Request> pending = close_and_drain();
  const Clock::time_point now = Clock::now();
  for (Request& request : pending) {
    Response response;
    response.status = request.expired(now) ? Status::kDeadlineExceeded
                                           : Status::kShutdown;
    response.queue_ms = ms_between(request.enqueued_at, now);
    response.total_ms = response.queue_ms;
    resolve(request, std::move(response));
  }
}

void Server::adopt(Request request) {
  TAGLETS_CHECK(request.input.is_vector() && request.input.size() == input_dim_,
                "Server::adopt: input must be a rank-1 tensor of length " +
                    std::to_string(input_dim_));
  // Adopted work was already admitted by the predecessor server, so it
  // bypasses the capacity bound: a queue that saturated while the old
  // server drained must not re-reject requests it contractually owns
  // (a reload fails zero admitted requests). Only a closed queue — a
  // shutdown racing the handoff — can still fail the request.
  const RequestQueue::Push outcome = queue_.force_push(request);
  if (outcome == RequestQueue::Push::kOk) {
    const std::size_t depth = queue_.size();
    stats_.record_submitted(depth);
    queue_depth_gauge_->set(static_cast<double>(depth));
    return;
  }
  Response response;
  response.status = Status::kShutdown;
  response.request_id = request.id;
  stats_.record_rejected(response.status);
  request.promise.set_value(std::move(response));
}

std::future<Response> Server::submit(Tensor input) {
  return submit(std::move(input), config_.default_deadline_ms);
}

std::future<Response> Server::submit(Tensor input, double deadline_ms) {
  return submit(std::move(input), deadline_ms, 0);
}

std::future<Response> Server::submit(Tensor input, double deadline_ms,
                                     std::uint64_t trace_id) {
  TAGLETS_CHECK(!(!input.is_vector() || input.size() != input_dim_),
                "Server::submit: input must be a rank-1 tensor of length " +
                    std::to_string(input_dim_));
  Request request;
  request.input = std::move(input);
  request.trace_id = trace_id;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.enqueued_at = Clock::now();
  request.deadline = deadline_from(request.enqueued_at, deadline_ms);
  std::future<Response> future = request.promise.get_future();

  const RequestQueue::Push outcome = queue_.try_push(request);
  if (outcome == RequestQueue::Push::kOk) {
    const std::size_t depth = queue_.size();
    stats_.record_submitted(depth);
    queue_depth_gauge_->set(static_cast<double>(depth));
    return future;
  }
  // Admission control: resolve immediately, never block the producer.
  Response response;
  response.status = outcome == RequestQueue::Push::kFull ? Status::kRejected
                                                         : Status::kShutdown;
  response.request_id = request.id;
  stats_.record_rejected(response.status);
  request.promise.set_value(std::move(response));
  return future;
}

Response Server::predict(Tensor input) {
  return submit(std::move(input)).get();
}

Response Server::predict(Tensor input, double deadline_ms) {
  return submit(std::move(input), deadline_ms).get();
}

void Server::worker_loop(std::size_t worker_index) {
  // Parallelism comes from the worker count: each micro-batch forward
  // runs on this thread, never fanning out over the shared pool.
  util::InlineScope inline_scope;
  ensemble::ServableModel& model = replicas_[worker_index];
  const std::chrono::nanoseconds delay = config_.batching.effective_delay();
  for (;;) {
    std::vector<Request> batch =
        queue_.pop_batch(config_.batching.max_batch_size, delay);
    if (batch.empty()) return;  // queue closed
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    run_batch(model, std::move(batch));
  }
}

void Server::run_batch(ensemble::ServableModel& model,
                       std::vector<Request> batch) {
  TAGLETS_TRACE_SCOPE("serve.batch",
                      {{"claimed", std::to_string(batch.size())}});
  const Clock::time_point dispatch = Clock::now();
  // Requests that sat in the queue past their deadline never touch the
  // model; once a live request is dispatched it always completes, even
  // if its deadline passes mid-forward (the result already exists).
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    if (request.expired(dispatch)) {
      Response response;
      response.status = Status::kDeadlineExceeded;
      response.queue_ms = ms_between(request.enqueued_at, dispatch);
      response.total_ms = response.queue_ms;
      resolve(request, std::move(response));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  // Exactly-once bookkeeping: a throw anywhere below (the forward
  // pass, but also response assembly for request i after 0..i-1 were
  // already resolved) must fail only the *unresolved* remainder.
  // Without this flag a mid-loop throw would re-resolve the early
  // requests in the catch block — std::future_error out of a catch
  // block, taking the worker thread (and the process) with it.
  std::vector<bool> resolved(live.size(), false);
  auto resolve_at = [&](std::size_t i, Response response) {
    resolve(live[i], std::move(response));
    resolved[i] = true;
  };
  try {
    stats_.record_batch(live.size());
    Tensor inputs = Tensor::zeros(live.size(), input_dim_);
    for (std::size_t i = 0; i < live.size(); ++i) {
      auto row = inputs.row(i);
      const auto data = live[i].input.data();
      std::copy(data.begin(), data.end(), row.begin());
    }
    Tensor proba;
    {
      TAGLETS_TRACE_SCOPE("serve.forward",
                          {{"rows", std::to_string(live.size())}});
      proba = model.predict_proba(inputs);
    }
    const Clock::time_point done = Clock::now();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t label = tensor::argmax(proba.row(i));
      Response response;
      response.status = Status::kOk;
      response.label = label;
      response.class_name = model.class_names().at(label);
      response.confidence = proba.at(i, label);
      response.queue_ms = ms_between(live[i].enqueued_at, dispatch);
      response.total_ms = ms_between(live[i].enqueued_at, done);
      response.batch_size = live.size();
      resolve_at(i, std::move(response));
    }
  } catch (const std::exception& e) {
    const Clock::time_point done = Clock::now();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (resolved[i]) continue;
      Response response;
      response.status = Status::kError;
      response.error = e.what();
      response.queue_ms = ms_between(live[i].enqueued_at, dispatch);
      response.total_ms = ms_between(live[i].enqueued_at, done);
      response.batch_size = live.size();
      resolve_at(i, std::move(response));
    }
  }
}

void Server::resolve(Request& request, Response response) {
  response.request_id = request.id;
  // The request's whole enqueue -> batch -> forward -> resolve life as
  // one retroactive span (it crosses threads, so it cannot be RAII).
  if (obs::trace_enabled()) {
    obs::TraceAttrs attrs = {{"id", std::to_string(request.id)},
                             {"status", status_name(response.status)}};
    if (request.trace_id != 0) {
      attrs.emplace_back("trace_id", std::to_string(request.trace_id));
    }
    obs::Tracer::global().record_complete("serve.request", request.enqueued_at,
                                          Clock::now(), std::move(attrs));
  }
  // Counters first, promise last, so a future.get() observer always
  // sees the stats for its own request already recorded.
  stats_.record_response(response);
  request.promise.set_value(std::move(response));
}

}  // namespace taglets::serve
