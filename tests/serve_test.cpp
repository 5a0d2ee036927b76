#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "nn/sequential.hpp"
#include "obs/trace.hpp"
#include "serve/batching_policy.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "serve/server_stats.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace taglets::serve {
namespace {

using tensor::Tensor;

/// dim == classes; logits are the input itself, so the expected label
/// is the index of the largest input element.
ensemble::ServableModel make_identity_servable(std::size_t dim) {
  nn::Sequential encoder;
  encoder.add(std::make_unique<nn::Linear>(Tensor::identity(dim),
                                           Tensor::zeros(dim)));
  std::vector<std::string> names;
  for (std::size_t c = 0; c < dim; ++c) names.push_back("class" + std::to_string(c));
  return ensemble::ServableModel(
      nn::Classifier(encoder, nn::Linear(Tensor::identity(dim),
                                         Tensor::zeros(dim))),
      std::move(names));
}

/// Randomly-initialized MLP classifier — heavy enough that a forward
/// pass takes measurable time, deterministic for a fixed seed.
ensemble::ServableModel make_mlp_servable(std::size_t dim, std::size_t hidden,
                                          std::size_t classes) {
  util::Rng rng(17);
  nn::Sequential encoder = nn::make_mlp({dim, hidden, hidden / 2}, rng);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < classes; ++c) {
    std::string name = "c";  // += form: GCC 12 -Wrestrict FP (PR105329)
    name += std::to_string(c);
    names.push_back(std::move(name));
  }
  return ensemble::ServableModel(
      nn::Classifier(encoder, hidden / 2, classes, rng), std::move(names));
}

Tensor one_hot_input(std::size_t dim, std::size_t hot) {
  Tensor input = Tensor::zeros(dim);
  input[hot] = 1.0f;
  return input;
}

Request make_request(std::size_t dim) {
  Request request;
  request.input = Tensor::zeros(dim);
  request.enqueued_at = Clock::now();
  return request;
}

// --------------------------------------------------------- request queue

TEST(RequestQueue, AdmissionControlRejectsWhenFull) {
  RequestQueue queue(2);
  Request a = make_request(3), b = make_request(3), c = make_request(3);
  EXPECT_EQ(queue.try_push(a), RequestQueue::Push::kOk);
  EXPECT_EQ(queue.try_push(b), RequestQueue::Push::kOk);
  EXPECT_EQ(queue.try_push(c), RequestQueue::Push::kFull);
  EXPECT_EQ(queue.size(), 2u);
  // The rejected request keeps its promise: the caller can still
  // resolve it.
  c.promise.set_value(Response{});
  queue.close();
  Request d = make_request(3);
  EXPECT_EQ(queue.try_push(d), RequestQueue::Push::kClosed);
  d.promise.set_value(Response{});
  auto pending = queue.drain();
  EXPECT_EQ(pending.size(), 2u);
  for (auto& r : pending) r.promise.set_value(Response{});
}

TEST(RequestQueue, ForcePushBypassesCapacityButNotClose) {
  RequestQueue queue(1);
  Request a = make_request(3), b = make_request(3);
  EXPECT_EQ(queue.try_push(a), RequestQueue::Push::kOk);
  // Past capacity: try_push sheds, force_push (the adoption path)
  // still admits — the request was already admitted once upstream.
  EXPECT_EQ(queue.force_push(b), RequestQueue::Push::kOk);
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
  Request c = make_request(3);
  EXPECT_EQ(queue.force_push(c), RequestQueue::Push::kClosed);
  c.promise.set_value(Response{});
  auto pending = queue.drain();
  EXPECT_EQ(pending.size(), 2u);
  for (auto& r : pending) r.promise.set_value(Response{});
}

TEST(RequestQueue, PopBatchRespectsMaxBatch) {
  RequestQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    Request r = make_request(2);
    ASSERT_EQ(queue.try_push(r), RequestQueue::Push::kOk);
  }
  auto first = queue.pop_batch(3, std::chrono::nanoseconds::zero());
  EXPECT_EQ(first.size(), 3u);
  auto second = queue.pop_batch(3, std::chrono::nanoseconds::zero());
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);
  for (auto& r : first) r.promise.set_value(Response{});
  for (auto& r : second) r.promise.set_value(Response{});
}

TEST(RequestQueue, FullBatchFlushesWithoutWaiting) {
  RequestQueue queue(8);
  for (int i = 0; i < 4; ++i) {
    Request r = make_request(2);
    ASSERT_EQ(queue.try_push(r), RequestQueue::Push::kOk);
  }
  // max_batch already satisfied: a long delay must not be waited out.
  const auto start = Clock::now();
  auto batch = queue.pop_batch(4, std::chrono::seconds(10));
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(), 5.0);
  for (auto& r : batch) r.promise.set_value(Response{});
}

TEST(RequestQueue, CloseWakesConsumersAndKeepsPendingForDrain) {
  RequestQueue queue(4);
  Request r = make_request(2);
  ASSERT_EQ(queue.try_push(r), RequestQueue::Push::kOk);
  queue.close();
  EXPECT_TRUE(queue.closed());
  // After close, consumers get nothing — pending work is shutdown's to
  // fail, not a worker's to run.
  EXPECT_TRUE(queue.pop_batch(4, std::chrono::milliseconds(1)).empty());
  auto pending = queue.drain();
  ASSERT_EQ(pending.size(), 1u);
  pending[0].promise.set_value(Response{});
}

TEST(RequestQueue, BlockedConsumerWokenByPush) {
  RequestQueue queue(4);
  auto consumer = std::async(std::launch::async, [&] {
    return queue.pop_batch(2, std::chrono::milliseconds(1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Request r = make_request(2);
  ASSERT_EQ(queue.try_push(r), RequestQueue::Push::kOk);
  auto batch = consumer.get();
  ASSERT_GE(batch.size(), 1u);
  for (auto& item : batch) item.promise.set_value(Response{});
}

// One batch fills at a time: arrivals go to the batch already claimed,
// which flushes the moment it is full, instead of a second consumer
// taking some of them and both batches waiting out their delay.
TEST(RequestQueue, SecondConsumerWaitsWhileABatchFills) {
  RequestQueue queue(8);
  Request first = make_request(2);
  ASSERT_EQ(queue.try_push(first), RequestQueue::Push::kOk);
  auto filling = std::async(std::launch::async, [&] {
    return queue.pop_batch(4, std::chrono::seconds(2));
  });
  while (queue.size() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto second = std::async(std::launch::async, [&] {
    return queue.pop_batch(4, std::chrono::seconds(2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = Clock::now();
  for (int i = 0; i < 3; ++i) {
    Request r = make_request(2);
    ASSERT_EQ(queue.try_push(r), RequestQueue::Push::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto batch = filling.get();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(), 1.0);
  queue.close();
  auto rest = second.get();
  EXPECT_TRUE(rest.empty());
  for (auto& r : batch) r.promise.set_value(Response{});
  for (auto& r : rest) r.promise.set_value(Response{});
}

TEST(RequestQueue, ZeroCapacityThrows) {
  EXPECT_THROW(RequestQueue(0), std::invalid_argument);
}

// ------------------------------------------------------- batching policy

TEST(BatchingPolicy, ValidateRejectsDegenerateSettings) {
  BatchingPolicy policy;
  policy.max_batch_size = 0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy.max_batch_size = 8;
  policy.max_delay_ms = -1.0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy.max_delay_ms = 0.5;
  EXPECT_NO_THROW(policy.validate());
}

TEST(BatchingPolicy, SerialPoolClampsDelayToZero) {
  BatchingPolicy policy;
  policy.max_delay_ms = 5.0;
  {
    util::Parallel serial(1);
    util::Parallel* prev = util::Parallel::exchange_global(&serial);
    EXPECT_EQ(policy.effective_delay(), std::chrono::nanoseconds::zero());
    util::Parallel::exchange_global(prev);
  }
  {
    util::Parallel pooled(2);
    util::Parallel* prev = util::Parallel::exchange_global(&pooled);
    EXPECT_EQ(policy.effective_delay(), std::chrono::milliseconds(5));
    util::Parallel::exchange_global(prev);
  }
}

// ---------------------------------------------------------------- server

TEST(Server, ConfigValidation) {
  auto model = make_identity_servable(3);
  ServerConfig bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW(Server(model, bad_workers), std::invalid_argument);
  ServerConfig bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(Server(model, bad_queue), std::invalid_argument);
}

TEST(Server, PredictsCorrectLabelAndName) {
  auto model = make_identity_servable(4);
  Server server(model);
  server.start();
  for (std::size_t hot = 0; hot < 4; ++hot) {
    Response response = server.predict(one_hot_input(4, hot));
    ASSERT_TRUE(response.ok()) << status_name(response.status);
    EXPECT_EQ(response.label, hot);
    EXPECT_EQ(response.class_name, "class" + std::to_string(hot));
    EXPECT_GT(response.confidence, 0.0f);
    EXPECT_GE(response.batch_size, 1u);
    EXPECT_GE(response.total_ms, response.queue_ms);
  }
  server.stop();
  const auto s = server.stats().snapshot();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.resolved(), 4u);
}

// Every submission gets a unique id, assigned at enqueue and echoed in
// the response — including rejected ones — so clients and trace spans
// can correlate requests end to end.
TEST(Server, ResponsesCarryUniqueRequestIds) {
  auto model = make_identity_servable(4);
  Server server(model);
  server.start();
  for (std::uint64_t expected_id = 1; expected_id <= 3; ++expected_id) {
    Response response = server.predict(one_hot_input(4, 0));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.request_id, expected_id);
  }
  server.stop();
}

TEST(Server, RejectedResponsesStillCarryRequestIds) {
  auto model = make_identity_servable(3);
  ServerConfig config;
  config.queue_capacity = 1;
  Server server(model, config);  // not started: second submit overflows
  auto first = server.submit(one_hot_input(3, 0));
  auto second = server.submit(one_hot_input(3, 1));
  Response rejected = second.get();
  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_EQ(rejected.request_id, 2u);
  server.start();
  EXPECT_EQ(first.get().request_id, 1u);
  server.stop();
}

TEST(Server, SubmitRejectsWrongShape) {
  auto model = make_identity_servable(4);
  Server server(model);
  EXPECT_THROW(server.submit(Tensor::zeros(3)), std::invalid_argument);
  EXPECT_THROW(server.submit(Tensor::zeros(1, 4)), std::invalid_argument);
}

// Concurrent clients against a multi-worker server: every response must
// match the single-threaded reference prediction for its input. Run
// under ThreadSanitizer in CI (TAGLETS_THREADS=4).
TEST(Server, ConcurrentClientsMatchReferencePredictions) {
  constexpr std::size_t kDim = 16, kClients = 4, kPerClient = 40;
  auto model = make_mlp_servable(kDim, 64, 8);

  // Build all inputs and reference labels serially, before the server
  // exists, on a private reference replica.
  util::Rng rng(91);
  std::vector<Tensor> inputs;
  std::vector<std::size_t> expected;
  ensemble::ServableModel reference = model;
  for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
    Tensor x = Tensor::zeros(kDim);
    for (float& v : x.data()) v = static_cast<float>(rng.normal());
    expected.push_back(reference.predict(x));
    inputs.push_back(std::move(x));
  }

  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 512;
  config.batching.max_batch_size = 8;
  config.batching.max_delay_ms = 0.2;
  Server server(model, config);
  server.start();

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t idx = c * kPerClient + i;
        Response response = server.predict(inputs[idx]);
        if (!response.ok() || response.label != expected[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  EXPECT_EQ(mismatches.load(), 0u);
  const auto s = server.stats().snapshot();
  EXPECT_EQ(s.submitted, kClients * kPerClient);
  EXPECT_EQ(s.completed, kClients * kPerClient);
  EXPECT_EQ(s.resolved(), s.submitted);
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.mean_batch_size, 1.0);
}

std::size_t count_spans(const std::vector<obs::TraceEvent>& events,
                        const std::string& name) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : events) n += e.name == name ? 1 : 0;
  return n;
}

// Serve workers run each micro-batch inline: even on a 4-thread global
// pool a served batch makes no fork-join, and every label and
// confidence is bitwise what the pooled predict_proba gives the same
// rows.
TEST(Server, ForwardRunsInlineAndMatchesPooledProbaBitwise) {
  constexpr std::size_t kDim = 32, kRows = 16;
  util::Parallel pool(4);
  util::Parallel* prev_pool = util::Parallel::exchange_global(&pool);
  const bool was_tracing = obs::trace_enabled();
  obs::Tracer::global().clear();
  obs::set_trace_enabled(true);

  auto model = make_mlp_servable(kDim, 64, 8);
  util::Rng rng(23);
  Tensor rows = Tensor::zeros(kRows, kDim);
  for (float& v : rows.data()) v = static_cast<float>(rng.normal());
  ensemble::ServableModel reference = model;
  const Tensor expected = reference.predict_proba(rows);
  // The same forward off a serve worker does fan out over the pool.
  EXPECT_GT(count_spans(obs::Tracer::global().snapshot(),
                        "parallel.for_ranges"),
            0u);
  obs::Tracer::global().clear();

  ServerConfig config;
  config.workers = 1;
  config.batching.max_batch_size = kRows;
  Server server(model, config);  // not started: all rows form one batch
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kRows; ++i) {
    futures.push_back(server.submit(rows.row_copy(i)));
  }
  server.start();
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  server.stop();
  const std::vector<obs::TraceEvent> events = obs::Tracer::global().snapshot();
  obs::set_trace_enabled(was_tracing);
  obs::Tracer::global().clear();
  util::Parallel::exchange_global(prev_pool);

  EXPECT_EQ(count_spans(events, "serve.forward"), 1u);
  EXPECT_EQ(count_spans(events, "parallel.for_ranges"), 0u);
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(responses[i].ok()) << status_name(responses[i].status);
    EXPECT_EQ(responses[i].batch_size, kRows);
    const std::size_t label = tensor::argmax(expected.row(i));
    EXPECT_EQ(responses[i].label, label) << "row " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(responses[i].confidence),
              std::bit_cast<std::uint32_t>(expected.at(i, label)))
        << "row " << i;
  }
}

TEST(Server, QueueFullShedsLoadWithoutBlocking) {
  auto model = make_identity_servable(3);
  ServerConfig config;
  config.queue_capacity = 2;
  Server server(model, config);  // not started: requests park in the queue
  auto first = server.submit(one_hot_input(3, 0));
  auto second = server.submit(one_hot_input(3, 1));
  auto third = server.submit(one_hot_input(3, 2));
  // Admission control resolved the overflow immediately.
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(third.get().status, Status::kRejected);
  server.start();  // parked requests now complete
  EXPECT_EQ(first.get().label, 0u);
  EXPECT_EQ(second.get().label, 1u);
  server.stop();
  const auto s = server.stats().snapshot();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.rejected_full, 1u);
}

TEST(Server, AdoptBypassesCapacityForAlreadyAdmittedWork) {
  auto model = make_identity_servable(3);
  ServerConfig config;
  config.queue_capacity = 1;
  Server server(model, config);  // not started: requests park in the queue
  auto parked = server.submit(one_hot_input(3, 0));  // queue now full
  // A reload handoff must not re-reject work the old server admitted,
  // even when new traffic saturated the replacement's queue first.
  Request handoff;
  handoff.input = one_hot_input(3, 2);
  handoff.id = 77;
  handoff.enqueued_at = Clock::now();
  auto adopted = handoff.promise.get_future();
  server.adopt(std::move(handoff));
  EXPECT_EQ(server.queue_depth(), 2u);  // admitted past capacity
  server.start();
  EXPECT_EQ(parked.get().label, 0u);
  const Response resp = adopted.get();
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.label, 2u);
  server.stop();
}

TEST(Server, ExpiredRequestNeverRunsTheModel) {
  auto model = make_identity_servable(3);
  Server server(model);  // not started, so the deadline passes while queued
  auto future = server.submit(one_hot_input(3, 1), /*deadline_ms=*/1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.start();
  Response response = future.get();
  EXPECT_EQ(response.status, Status::kDeadlineExceeded);
  server.stop();
  const auto s = server.stats().snapshot();
  EXPECT_EQ(s.deadline_missed, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.batches, 0u);  // nothing was dispatched to the model
}

TEST(Server, StopFailsPendingDeterministically) {
  auto model = make_identity_servable(3);
  ServerConfig config;
  config.queue_capacity = 32;
  Server server(model, config);  // never started: everything stays pending
  std::vector<std::future<Response>> no_deadline, expired;
  for (int i = 0; i < 5; ++i) {
    no_deadline.push_back(server.submit(one_hot_input(3, 0)));
    expired.push_back(server.submit(one_hot_input(3, 1), 1e-6));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  for (auto& f : no_deadline) EXPECT_EQ(f.get().status, Status::kShutdown);
  for (auto& f : expired) {
    EXPECT_EQ(f.get().status, Status::kDeadlineExceeded);
  }
  // Submissions after stop resolve immediately with kShutdown.
  auto late = server.submit(one_hot_input(3, 2));
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(late.get().status, Status::kShutdown);
  const auto s = server.stats().snapshot();
  EXPECT_EQ(s.submitted, 10u);
  EXPECT_EQ(s.resolved(), 10u);
  EXPECT_EQ(s.failed_shutdown, 5u);
  EXPECT_EQ(s.deadline_missed, 5u);
  EXPECT_EQ(s.rejected_shutdown, 1u);
  EXPECT_THROW(server.start(), std::runtime_error);
}

// The acceptance-criterion test: shutdown issued mid-load completes
// every in-flight request, fails every queued one, and loses or
// duplicates nothing — each future resolves exactly once and the
// server-side counters account for every admitted request.
TEST(Server, ShutdownMidLoadDrainsInFlightAndFailsPending) {
  constexpr std::size_t kRequests = 100;
  auto model = make_mlp_servable(32, 128, 8);
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = kRequests;
  config.batching.max_batch_size = 1;  // stretch the run across batches
  Server server(model, config);
  server.start();

  util::Rng rng(7);
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Tensor x = Tensor::zeros(32);
    for (float& v : x.data()) v = static_cast<float>(rng.normal());
    futures.push_back(server.submit(std::move(x)));
  }
  futures.front().wait();  // the workers are definitely mid-load now
  server.stop();

  std::size_t ok = 0, shutdown = 0, other = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    switch (f.get().status) {
      case Status::kOk: ++ok; break;
      case Status::kShutdown: ++shutdown; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(other, 0u);
  EXPECT_GE(ok, 1u);                        // in-flight work completed
  EXPECT_EQ(ok + shutdown, kRequests);      // nothing lost or duplicated
  EXPECT_EQ(server.queue_depth(), 0u);
  const auto s = server.stats().snapshot();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.failed_shutdown, shutdown);
  EXPECT_EQ(s.resolved(), kRequests);
  // stop() is idempotent.
  server.stop();
}

// Regression: a drain racing a mid-flush enqueue must never strand a
// future. Producers hammer submit() while close_and_drain() runs; the
// returned pending set is handed to a second server (the hot-swap
// path). Every future — served, drained-and-adopted, or turned away at
// the closing door — must resolve exactly once.
TEST(Server, DrainUnderConcurrentEnqueueResolvesEveryFutureOnce) {
  auto model = make_identity_servable(4);
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batching.max_batch_size = 4;
  config.batching.max_delay_ms = 0.1;
  Server old_server(model, config);
  old_server.start();

  constexpr int kProducers = 4;
  std::atomic<bool> stop_producing{false};
  std::mutex futures_mu;
  std::vector<std::future<Response>> futures;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(static_cast<std::uint64_t>(p) + 1);
      while (!stop_producing.load()) {
        Tensor x = Tensor::zeros(4);
        for (float& v : x.data()) v = static_cast<float>(rng.normal());
        auto f = old_server.submit(std::move(x));
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Drain while the producers are still enqueueing full-tilt.
  std::vector<Request> pending = old_server.close_and_drain();
  Server new_server(model, config);
  new_server.start();
  for (auto& r : pending) new_server.adopt(std::move(r));

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop_producing.store(true);
  for (auto& t : producers) t.join();
  // Second drain is idempotent and returns nothing new.
  EXPECT_TRUE(old_server.close_and_drain().empty());
  old_server.stop();
  new_server.stop();

  std::size_t ok = 0, turned_away = 0, other = 0;
  for (auto& f : futures) {
    // Resolved exactly once, with no stranded futures: ready NOW.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    switch (f.get().status) {
      case Status::kOk: ++ok; break;
      case Status::kShutdown:
      case Status::kRejected: ++turned_away; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(other, 0u);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(ok + turned_away, futures.size());
}

// ----------------------------------------------------------------- stats

TEST(ServerStats, ReportAndJsonCarryTheCounters) {
  ServerStats stats;
  stats.set_workers(3);
  stats.record_submitted(3);
  stats.record_submitted(7);
  stats.record_batch(2);
  Response ok;
  ok.status = Status::kOk;
  ok.queue_ms = 1.0;
  ok.total_ms = 2.0;
  stats.record_response(ok);
  Response missed;
  missed.status = Status::kDeadlineExceeded;
  stats.record_response(missed);
  stats.record_rejected(Status::kRejected);

  const auto s = stats.snapshot();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.deadline_missed, 1u);
  EXPECT_EQ(s.rejected_full, 1u);
  EXPECT_EQ(s.peak_queue_depth, 7u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 2.0);
  EXPECT_EQ(s.resolved(), 2u);

  const std::string report = stats.report();
  EXPECT_NE(report.find("submitted=2"), std::string::npos);
  EXPECT_NE(report.find("deadline_missed=1"), std::string::npos);
  const std::string json = stats.json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"submitted\":2"), std::string::npos);
  EXPECT_NE(json.find("\"latency_p99_ms\":"), std::string::npos);
  // Fleet aggregation joins on capacity and the reject-vs-deadline
  // breakdown, so the export must carry all three.
  EXPECT_NE(json.find("\"workers\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rejected_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"failed_total\":1"), std::string::npos);
  EXPECT_EQ(s.workers, 3u);
  EXPECT_EQ(s.rejected_total(), 1u);
  EXPECT_EQ(s.failed_total(), 1u);
}

TEST(ServerStats, ConcurrentRecordingIsSafe) {
  ServerStats stats;
  constexpr int kThreads = 4, kPer = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPer; ++i) {
        stats.record_submitted(static_cast<std::size_t>(i % 11));
        stats.record_batch(static_cast<std::size_t>(1 + (i + t) % 4));
        Response r;
        r.status = Status::kOk;
        r.total_ms = 0.5 * i;
        stats.record_response(r);
        if (i % 100 == 0) (void)stats.snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = stats.snapshot();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(s.batches, static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(s.peak_queue_depth, 10u);
  // No lost updates on the lock-free path: every ok response reached
  // the latency histogram, and every batch's rows the mean.
  EXPECT_EQ(stats.latency_histogram().snapshot().count, s.completed);
  std::uint64_t rows = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPer; ++i) rows += 1 + (i + t) % 4;
  }
  EXPECT_DOUBLE_EQ(s.mean_batch_size,
                   static_cast<double>(rows) / (kThreads * kPer));
}

}  // namespace
}  // namespace taglets::serve
