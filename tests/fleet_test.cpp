// Fleet subsystem tests: protocol framing, transport, health machine,
// shard serving, hot reload, and the multi-process failover drill.
//
// This binary has a custom main: invoked as
//   fleet_test --fleet-child-shard <endpoint> <model-path>
// it becomes a shard process instead of a test runner. The SIGKILL
// failover tests re-exec this same binary to get real processes to
// kill — a thread can't be SIGKILLed, only a process can.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/client.hpp"
#include "fleet/frontend.hpp"
#include "fleet/health.hpp"
#include "fleet/protocol.hpp"
#include "fleet/ring.hpp"
#include "fleet/shard.hpp"
#include "fleet/socket.hpp"
#include "fleet/trace_merge.hpp"
#include "nn/sequential.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace {
std::string g_self_exe;           // argv[0], for re-exec
volatile std::sig_atomic_t g_child_term = 0;
}  // namespace

namespace taglets::fleet {
namespace {

using tensor::Tensor;

// ------------------------------------------------------------ fixtures

/// dim == classes; logits are the input itself, so the expected label
/// is the argmax of the submitted features.
ensemble::ServableModel make_identity_servable(std::size_t dim) {
  nn::Sequential encoder;
  encoder.add(std::make_unique<nn::Linear>(Tensor::identity(dim),
                                           Tensor::zeros(dim)));
  std::vector<std::string> names;
  for (std::size_t c = 0; c < dim; ++c) {
    names.push_back("class" + std::to_string(c));
  }
  return ensemble::ServableModel(
      nn::Classifier(encoder, nn::Linear(Tensor::identity(dim),
                                         Tensor::zeros(dim))),
      std::move(names));
}

constexpr std::size_t kDim = 8;

std::string unique_dir() {
  static std::atomic<int> counter{0};
  const std::string dir = "/tmp/taglets_fleet_" + std::to_string(getpid()) +
                          "_" + std::to_string(counter.fetch_add(1));
  (void)mkdir(dir.c_str(), 0755);
  return dir;
}

std::vector<float> random_features(util::Rng& rng, std::size_t dim = kDim) {
  std::vector<float> f(dim);
  for (float& v : f) v = static_cast<float>(rng.normal());
  return f;
}

std::size_t argmax_of(const std::vector<float>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

ShardConfig shard_config(const std::string& endpoint) {
  ShardConfig config;
  config.endpoint = endpoint;
  config.server.workers = 2;
  config.server.queue_capacity = 1024;
  config.server.batching.max_batch_size = 8;
  config.server.batching.max_delay_ms = 0.2;
  return config;
}

/// Fast health policy so Suspect/Dead fire within test patience.
HealthPolicy fast_health() {
  HealthPolicy policy;
  policy.suspect_after_ms = 200.0;
  policy.dead_after_ms = 600.0;
  policy.failure_threshold = 3;
  return policy;
}

// ------------------------------------------------------------- protocol

TEST(FleetProtocol, PredictRoundTrip) {
  PredictRequest req;
  req.id = 42;
  req.routing_key = 0xdeadbeef;
  req.deadline_ms = 12.5;
  req.trace_id = 0xfeedface12345678ull;
  req.parent_span = 0x1122334455667788ull;
  req.features = {1.0f, -2.5f, 0.0f};
  const auto wire = encode(req);
  EXPECT_EQ(peek_type(wire), MsgType::kPredictRequest);
  const PredictRequest back = decode_predict_request(wire);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.routing_key, 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 12.5);
  EXPECT_EQ(back.trace_id, 0xfeedface12345678ull);
  EXPECT_EQ(back.parent_span, 0x1122334455667788ull);
  EXPECT_EQ(back.features, req.features);

  PredictResponse resp;
  resp.id = 42;
  resp.status = Status::kOk;
  resp.label = 3;
  resp.confidence = 0.75f;
  resp.class_name = "cat";
  resp.shard_ms = 1.25;
  resp.queue_wait_ms = 0.5;
  resp.compute_ms = 0.75;
  const PredictResponse rback = decode_predict_response(encode(resp));
  EXPECT_EQ(rback.id, 42u);
  EXPECT_EQ(rback.status, Status::kOk);
  EXPECT_EQ(rback.label, 3u);
  EXPECT_FLOAT_EQ(rback.confidence, 0.75f);
  EXPECT_EQ(rback.class_name, "cat");
  EXPECT_DOUBLE_EQ(rback.shard_ms, 1.25);
  EXPECT_DOUBLE_EQ(rback.queue_wait_ms, 0.5);
  EXPECT_DOUBLE_EQ(rback.compute_ms, 0.75);
}

TEST(FleetProtocol, ControlRoundTrips) {
  Pong pong;
  pong.seq = 7;
  pong.model_version = 3;
  pong.queue_depth = 10;
  pong.queue_capacity = 256;
  pong.requests_ok = 1000;
  pong.requests_rejected = 5;
  pong.requests_deadline_missed = 2;
  pong.draining = 1;
  const Pong pback = decode_pong(encode(pong));
  EXPECT_EQ(pback.seq, 7u);
  EXPECT_EQ(pback.model_version, 3u);
  EXPECT_EQ(pback.queue_depth, 10u);
  EXPECT_EQ(pback.queue_capacity, 256u);
  EXPECT_EQ(pback.requests_ok, 1000u);
  EXPECT_EQ(pback.draining, 1);

  ReloadRequest reload;
  reload.path = "/tmp/model.bin";
  EXPECT_EQ(decode_reload_request(encode(reload)).path, "/tmp/model.bin");
  ReloadResponse rr;
  rr.ok = 1;
  rr.model_version = 4;
  rr.message = "fine";
  const ReloadResponse rrb = decode_reload_response(encode(rr));
  EXPECT_EQ(rrb.ok, 1);
  EXPECT_EQ(rrb.model_version, 4u);
  EXPECT_EQ(rrb.message, "fine");
  EXPECT_EQ(decode_ping(encode(Ping{9})).seq, 9u);
}

TEST(FleetProtocol, ReservedStatsTypesAreRejected) {
  // Types 7 and 8 carried the retired Stats JSON frames. They stay
  // reserved: a peer that still sends them gets ProtocolError from
  // peek_type and from every decoder, never a misparse.
  for (const std::uint8_t type : {std::uint8_t{7}, std::uint8_t{8}}) {
    SCOPED_TRACE(static_cast<int>(type));
    // Bare type byte, and a type byte followed by a JSON string body.
    FrameWriter body;
    body.u8(type);
    body.str("{\"a\":1}");
    for (const std::vector<std::uint8_t>& frame :
         {std::vector<std::uint8_t>{type}, body.take()}) {
      EXPECT_THROW(peek_type(frame), ProtocolError);
      EXPECT_THROW(decode_predict_request(frame), ProtocolError);
      EXPECT_THROW(decode_predict_response(frame), ProtocolError);
      EXPECT_THROW(decode_ping(frame), ProtocolError);
      EXPECT_THROW(decode_pong(frame), ProtocolError);
      EXPECT_THROW(decode_reload_request(frame), ProtocolError);
      EXPECT_THROW(decode_reload_response(frame), ProtocolError);
      EXPECT_THROW(decode_trace_export_request(frame), ProtocolError);
      EXPECT_THROW(decode_trace_export_response(frame), ProtocolError);
      EXPECT_THROW(decode_metrics_request(frame), ProtocolError);
      EXPECT_THROW(decode_metrics_response(frame), ProtocolError);
    }
  }
}

TEST(FleetProtocol, TraceExportRoundTrip) {
  const auto req_wire = encode(TraceExportRequest{});
  EXPECT_EQ(peek_type(req_wire), MsgType::kTraceExportRequest);
  decode_trace_export_request(req_wire);  // empty body must round-trip

  TraceExportResponse resp;
  ProcessTrace proc;
  proc.pid = 4242;
  proc.name = "shard unix:/tmp/s0.sock";
  proc.now_us = 123456.75;
  proc.align_offset_us = -17.5;
  proc.dropped = 3;
  WireSpan span;
  span.name = "serve.request";
  span.tid = 7;
  span.ts_us = 1000.25;
  span.dur_us = 42.5;
  span.depth = 2;
  span.attrs = {{"id", "9"}, {"trace_id", "77"}};
  proc.spans.push_back(span);
  proc.spans.push_back(WireSpan{});  // attr-less span is legal
  resp.processes.push_back(proc);
  resp.processes.push_back(ProcessTrace{});  // span-less process is legal

  const auto wire = encode(resp);
  EXPECT_EQ(peek_type(wire), MsgType::kTraceExportResponse);
  const TraceExportResponse back = decode_trace_export_response(wire);
  ASSERT_EQ(back.processes.size(), 2u);
  const ProcessTrace& p = back.processes[0];
  EXPECT_EQ(p.pid, 4242u);
  EXPECT_EQ(p.name, proc.name);
  EXPECT_DOUBLE_EQ(p.now_us, 123456.75);
  EXPECT_DOUBLE_EQ(p.align_offset_us, -17.5);
  EXPECT_EQ(p.dropped, 3u);
  ASSERT_EQ(p.spans.size(), 2u);
  EXPECT_EQ(p.spans[0].name, "serve.request");
  EXPECT_EQ(p.spans[0].tid, 7u);
  EXPECT_DOUBLE_EQ(p.spans[0].ts_us, 1000.25);
  EXPECT_DOUBLE_EQ(p.spans[0].dur_us, 42.5);
  EXPECT_EQ(p.spans[0].depth, 2u);
  EXPECT_EQ(p.spans[0].attrs, span.attrs);
  EXPECT_TRUE(back.processes[1].spans.empty());
}

TEST(FleetProtocol, MetricsRoundTrip) {
  const auto req_wire = encode(MetricsRequest{});
  EXPECT_EQ(peek_type(req_wire), MsgType::kMetricsRequest);
  decode_metrics_request(req_wire);

  MetricsResponse resp;
  obs::MetricsSnapshot snap;
  snap.source = "shard unix:/tmp/s1.sock";
  snap.meta = {{"group", "g1"}, {"health", "alive"}};
  snap.counters = {{"serve.requests_ok_total", 12345},
                   {"obs.trace.dropped_total", 0}};
  snap.gauges = {{"serve.queue_depth", 7.0},
                 {"fleet.shard.model_version", 2.0}};
  obs::MetricsSnapshot::HistogramEntry hist;
  hist.name = "serve.latency_ms";
  hist.snap.bounds = {0.5, 1.0, 5.0};
  hist.snap.counts = {10, 20, 5, 1};  // bounds + overflow
  hist.snap.count = 36;
  hist.snap.sum = 40.25;
  snap.histograms.push_back(hist);
  resp.snapshots.push_back(snap);
  resp.snapshots.push_back(obs::MetricsSnapshot{});  // empty is legal

  const auto wire = encode(resp);
  EXPECT_EQ(peek_type(wire), MsgType::kMetricsResponse);
  const MetricsResponse back = decode_metrics_response(wire);
  ASSERT_EQ(back.snapshots.size(), 2u);
  const obs::MetricsSnapshot& s = back.snapshots[0];
  EXPECT_EQ(s.source, snap.source);
  EXPECT_EQ(s.meta, snap.meta);
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "serve.requests_ok_total");
  EXPECT_EQ(s.counters[0].value, 12345u);
  ASSERT_EQ(s.gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 7.0);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].name, "serve.latency_ms");
  EXPECT_EQ(s.histograms[0].snap.bounds, hist.snap.bounds);
  EXPECT_EQ(s.histograms[0].snap.counts, hist.snap.counts);
  EXPECT_EQ(s.histograms[0].snap.count, 36u);
  EXPECT_DOUBLE_EQ(s.histograms[0].snap.sum, 40.25);

  // A histogram whose counts don't line up with its bounds (+inf
  // bucket missing) must be rejected at decode, not trusted.
  MetricsResponse bad;
  obs::MetricsSnapshot bad_snap;
  obs::MetricsSnapshot::HistogramEntry bad_hist;
  bad_hist.name = "x";
  bad_hist.snap.bounds = {1.0, 2.0};
  bad_hist.snap.counts = {1, 2};  // should be 3
  bad_snap.histograms.push_back(bad_hist);
  bad.snapshots.push_back(bad_snap);
  EXPECT_THROW(decode_metrics_response(encode(bad)), ProtocolError);
}

TEST(FleetProtocol, TruncatedAndTrailingFramesThrow) {
  PredictRequest req;
  req.features = {1.0f, 2.0f};
  auto wire = encode(req);
  auto truncated = wire;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(decode_predict_request(truncated), ProtocolError);
  auto trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(decode_predict_request(trailing), ProtocolError);
  EXPECT_THROW(decode_ping(wire), ProtocolError);  // wrong type byte
  EXPECT_THROW(peek_type(std::vector<std::uint8_t>{}), ProtocolError);
  // A length prefix claiming more floats than the frame holds must not
  // read out of bounds.
  FrameWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPredictRequest));
  w.u64(1);
  w.u64(0);
  w.f64(0.0);
  w.u64(0);     // trace_id
  w.u64(0);     // parent_span
  w.u32(1000);  // features count, but no feature bytes follow
  EXPECT_THROW(decode_predict_request(w.take()), ProtocolError);
}

// ------------------------------------------------------------ transport

TEST(FleetSocket, EndpointParse) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:9100");
  EXPECT_EQ(t.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9100);
  EXPECT_THROW(Endpoint::parse("http://nope"), SocketError);
  EXPECT_THROW(Endpoint::parse("tcp:host"), SocketError);
  // Strict digits-only port: trailing garbage, signs/whitespace, and
  // out-of-range values are rejected, never silently truncated.
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:80garbage"), SocketError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:+80"), SocketError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1: 80"), SocketError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:0"), SocketError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:70000"), SocketError);
}

TEST(FleetSocket, FrameRoundTripAndEof) {
  const std::string dir = unique_dir();
  const Endpoint ep = Endpoint::parse("unix:" + dir + "/echo.sock");
  Listener listener(ep);
  std::thread server([&listener] {
    auto peer = listener.accept(std::chrono::seconds(5));
    ASSERT_TRUE(peer.has_value());
    for (;;) {
      auto frame = peer->recv_frame(std::chrono::seconds(5));
      if (!frame) break;  // clean EOF
      peer->send_frame(*frame, std::chrono::seconds(5));
    }
  });
  {
    Connection conn = Connection::connect(ep, std::chrono::seconds(2));
    // A large frame exercises partial read/write resumption.
    std::vector<std::uint8_t> big(512 * 1024);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 31);
    }
    conn.send_frame(big, std::chrono::seconds(5));
    auto back = conn.recv_frame(std::chrono::seconds(5));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, big);
  }  // close -> server sees clean EOF
  server.join();
}

TEST(FleetSocket, ShutdownUnblocksReader) {
  const std::string dir = unique_dir();
  const Endpoint ep = Endpoint::parse("unix:" + dir + "/wake.sock");
  Listener listener(ep);
  Connection client = Connection::connect(ep, std::chrono::seconds(2));
  auto peer = listener.accept(std::chrono::seconds(2));
  ASSERT_TRUE(peer.has_value());
  std::thread reader([&client] {
    // Blocked with a long budget; shutdown_rw must wake it with EOF.
    EXPECT_FALSE(client.recv_frame(std::chrono::seconds(60)).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.shutdown_rw();
  reader.join();
  listener.shutdown();
  EXPECT_FALSE(listener.accept(std::chrono::seconds(1)).has_value());
}

// --------------------------------------------------------------- health

TEST(FleetHealth, LifecycleAndTerminalDead) {
  using Clock = HealthTracker::Clock;
  const auto t0 = Clock::now();
  const auto at = [t0](double ms) {
    return t0 + std::chrono::microseconds(static_cast<long>(ms * 1000));
  };
  HealthTracker tracker(fast_health());
  EXPECT_EQ(tracker.state(), HealthState::kUnknown);
  EXPECT_FALSE(tracker.routable());
  // Unknown never times out — a node that never answered is not a
  // member yet, not a corpse.
  tracker.tick(at(10'000));
  EXPECT_EQ(tracker.state(), HealthState::kUnknown);

  tracker.record_success(at(10'000));
  EXPECT_EQ(tracker.state(), HealthState::kAlive);
  tracker.tick(at(10'100));
  EXPECT_EQ(tracker.state(), HealthState::kAlive);
  tracker.tick(at(10'300));  // 300ms silent > 200ms
  EXPECT_EQ(tracker.state(), HealthState::kSuspect);
  EXPECT_TRUE(tracker.routable());
  tracker.record_success(at(10'350));
  EXPECT_EQ(tracker.state(), HealthState::kAlive);
  tracker.tick(at(11'000));  // 650ms silent > 600ms: one late tick
  EXPECT_EQ(tracker.state(), HealthState::kDead);
  EXPECT_FALSE(tracker.routable());
  // Terminal: neither success nor failure revives a Dead tracker.
  tracker.record_success(at(11'100));
  tracker.record_failure(at(11'100));
  EXPECT_EQ(tracker.state(), HealthState::kDead);
  for (const auto& t : tracker.transitions()) {
    EXPECT_TRUE(transition_valid(t.from, t.to));
  }
}

TEST(FleetHealth, ResetReRegistersADeadTracker) {
  using Clock = HealthTracker::Clock;
  const auto t0 = Clock::now();
  const auto at = [t0](double ms) {
    return t0 + std::chrono::microseconds(static_cast<long>(ms * 1000));
  };
  HealthTracker tracker(fast_health());
  tracker.record_success(at(0));
  tracker.tick(at(1'000));  // silence past both bounds
  ASSERT_EQ(tracker.state(), HealthState::kDead);
  // reset() is re-registration, not a state-machine edge: the tracker
  // restarts as a brand-new Unknown member with its history cleared.
  tracker.reset();
  EXPECT_EQ(tracker.state(), HealthState::kUnknown);
  EXPECT_FALSE(tracker.routable());
  EXPECT_TRUE(tracker.transitions().empty());
  EXPECT_EQ(tracker.consecutive_failures(), 0u);
  // Unknown never times out; a heartbeat answer walks it back Alive.
  tracker.tick(at(10'000));
  EXPECT_EQ(tracker.state(), HealthState::kUnknown);
  tracker.record_success(at(10'000));
  EXPECT_EQ(tracker.state(), HealthState::kAlive);
  for (const auto& t : tracker.transitions()) {
    EXPECT_TRUE(transition_valid(t.from, t.to));
  }
}

TEST(FleetHealth, ConsecutiveFailuresSuspectAliveNode) {
  using Clock = HealthTracker::Clock;
  const auto now = Clock::now();
  HealthTracker tracker(fast_health());
  tracker.record_failure(now);  // failures before first success: Unknown
  EXPECT_EQ(tracker.state(), HealthState::kUnknown);
  tracker.record_success(now);
  tracker.record_failure(now);
  tracker.record_failure(now);
  EXPECT_EQ(tracker.state(), HealthState::kAlive);  // below threshold
  tracker.record_failure(now);
  EXPECT_EQ(tracker.state(), HealthState::kSuspect);
  tracker.record_success(now);
  EXPECT_EQ(tracker.state(), HealthState::kAlive);
  EXPECT_EQ(tracker.consecutive_failures(), 0u);
}

// ---------------------------------------------------------------- shard

TEST(FleetShard, ServesPredictsOverSocket) {
  const std::string dir = unique_dir();
  ShardServer shard(make_identity_servable(kDim),
                    shard_config("unix:" + dir + "/shard.sock"));
  shard.start();
  FleetClient client({"unix:" + dir + "/shard.sock"});

  util::Rng rng(5);
  std::vector<std::vector<float>> features;
  std::vector<std::future<PredictResponse>> pending;
  for (int i = 0; i < 64; ++i) {
    features.push_back(random_features(rng));
    pending.push_back(client.submit(features.back()));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PredictResponse resp = pending[i].get();
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    EXPECT_EQ(resp.label, argmax_of(features[i]));
    EXPECT_EQ(resp.class_name, "class" + std::to_string(resp.label));
    EXPECT_GE(resp.shard_ms, 0.0);
  }

  const Pong pong = client.ping();
  EXPECT_EQ(pong.model_version, 1u);
  EXPECT_EQ(pong.queue_capacity, 1024u);
  EXPECT_GE(pong.requests_ok, 64u);
  EXPECT_EQ(pong.draining, 0);

  EXPECT_EQ(shard.stats_snapshot().workers, 2u);
  shard.stop();
}

// The heartbeat copies counters instead of building a full stats
// snapshot; after a burst it must still report exactly what the shard's
// own stats do, deadline misses included.
TEST(FleetShard, PongCountersMatchStatsSnapshot) {
  const std::string dir = unique_dir();
  ShardServer shard(make_identity_servable(kDim),
                    shard_config("unix:" + dir + "/shard.sock"));
  shard.start();
  FleetClient client({"unix:" + dir + "/shard.sock"});

  util::Rng rng(8);
  std::vector<std::future<PredictResponse>> pending;
  for (int i = 0; i < 96; ++i) {
    // Every third request carries a deadline that has passed by dispatch.
    const double deadline_ms = i % 3 == 0 ? 1e-6 : 0.0;
    pending.push_back(client.submit(random_features(rng), 0, deadline_ms));
  }
  for (auto& f : pending) (void)f.get();

  const Pong pong = client.ping();
  const serve::ServerStats::Snapshot s = shard.stats_snapshot();
  EXPECT_EQ(pong.requests_ok, s.completed);
  EXPECT_EQ(pong.requests_rejected, s.rejected_total());
  EXPECT_EQ(pong.requests_deadline_missed, s.deadline_missed);
  EXPECT_EQ(pong.requests_ok + pong.requests_deadline_missed, pending.size());
  shard.stop();
}

TEST(FleetShard, WrongDimensionAnswersErrorNotDisconnect) {
  const std::string dir = unique_dir();
  ShardServer shard(make_identity_servable(kDim),
                    shard_config("unix:" + dir + "/shard.sock"));
  shard.start();
  FleetClient client({"unix:" + dir + "/shard.sock"});
  const PredictResponse bad = client.predict({1.0f, 2.0f});  // dim 2 != 8
  EXPECT_EQ(bad.status, Status::kError);
  EXPECT_NE(bad.error.find("dim"), std::string::npos);
  // The connection survives a bad request.
  util::Rng rng(6);
  const auto features = random_features(rng);
  const PredictResponse good = client.predict(features);
  EXPECT_EQ(good.status, Status::kOk);
  EXPECT_EQ(good.label, argmax_of(features));
  shard.stop();
}

TEST(FleetShard, ReloadSwapsVersionAndBadPathKeepsServing) {
  const std::string dir = unique_dir();
  const std::string model_path = dir + "/v2.bin";
  make_identity_servable(kDim).save(model_path);
  ShardServer shard(make_identity_servable(kDim),
                    shard_config("unix:" + dir + "/shard.sock"));
  shard.start();
  FleetClient client({"unix:" + dir + "/shard.sock"});

  const ReloadResponse ok = client.reload(model_path);
  EXPECT_EQ(ok.ok, 1) << ok.message;
  EXPECT_EQ(ok.model_version, 2u);
  EXPECT_EQ(shard.model_version(), 2u);

  const ReloadResponse bad = client.reload(dir + "/missing.bin");
  EXPECT_EQ(bad.ok, 0);
  EXPECT_EQ(bad.model_version, 2u);  // old model stayed active
  EXPECT_FALSE(bad.message.empty());

  // Dimension mismatch is rejected by validation, not by crashing.
  make_identity_servable(kDim + 1).save(dir + "/wrongdim.bin");
  const ReloadResponse wrong = client.reload(dir + "/wrongdim.bin");
  EXPECT_EQ(wrong.ok, 0);
  EXPECT_NE(wrong.message.find("dim"), std::string::npos);

  util::Rng rng(7);
  const auto features = random_features(rng);
  const PredictResponse resp = client.predict(features);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.label, argmax_of(features));
  shard.stop();
}

TEST(FleetShard, HotReloadUnderLoadLosesNothing) {
  const std::string dir = unique_dir();
  const std::string model_path = dir + "/next.bin";
  make_identity_servable(kDim).save(model_path);
  ShardServer shard(make_identity_servable(kDim),
                    shard_config("unix:" + dir + "/shard.sock"));
  shard.start();
  FleetClient client({"unix:" + dir + "/shard.sock"});

  // Open-loop-ish producer pipelining predicts while reloads flip the
  // model underneath. The acceptance bar: zero swap-attributable
  // failures — every response is kOk, every future resolves.
  std::atomic<bool> stop_producer{false};
  std::vector<PredictResponse> responses;
  std::thread producer([&] {
    util::Rng rng(8);
    std::vector<std::future<PredictResponse>> pending;
    while (!stop_producer.load()) {
      pending.push_back(client.submit(random_features(rng)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& f : pending) responses.push_back(f.get());
  });

  std::size_t swaps = 0;
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const ReloadOutcome out = shard.reload(model_path);
    ASSERT_TRUE(out.ok) << out.message;
    ++swaps;
  }
  stop_producer.store(true);
  producer.join();

  EXPECT_EQ(shard.model_version(), 1u + swaps);
  ASSERT_GT(responses.size(), 100u);
  for (const PredictResponse& resp : responses) {
    EXPECT_EQ(resp.status, Status::kOk)
        << status_name(resp.status) << ": " << resp.error;
  }
  shard.stop();
}

// ------------------------------------------------------------- frontend

FrontendConfig frontend_config(const std::string& dir,
                               const std::vector<std::string>& shard_eps) {
  FrontendConfig config;
  std::string ep = "unix:";  // += form: GCC 12 -Wrestrict FP (PR105329)
  ep += dir;
  ep += "/front.sock";
  config.endpoint = std::move(ep);
  for (std::size_t g = 0; g < shard_eps.size(); ++g) {
    std::string name = "g";  // += form: GCC 12 -Wrestrict FP (PR105329)
    name += std::to_string(g);
    config.groups.push_back({std::move(name), {shard_eps[g]}});
  }
  config.health = fast_health();
  config.heartbeat_interval_ms = 20.0;
  return config;
}

TEST(FleetFrontend, RoutesAcrossShardsAndAggregates) {
  const std::string dir = unique_dir();
  std::vector<std::unique_ptr<ShardServer>> shards;
  std::vector<std::string> eps;
  for (int s = 0; s < 3; ++s) {
    eps.push_back("unix:" + dir + "/s" + std::to_string(s) + ".sock");
    shards.push_back(std::make_unique<ShardServer>(
        make_identity_servable(kDim), shard_config(eps.back())));
    shards.back()->start();
  }
  Frontend frontend(frontend_config(dir, eps));
  frontend.start();
  ASSERT_TRUE(frontend.wait_until_ready(3, std::chrono::seconds(5)));
  for (const auto& ep : eps) {
    EXPECT_EQ(frontend.replica_state(ep), HealthState::kAlive);
  }

  FleetClient client({"unix:" + dir + "/front.sock"});
  util::Rng rng(9);
  std::vector<std::vector<float>> features;
  std::vector<std::future<PredictResponse>> pending;
  for (std::uint64_t key = 0; key < 300; ++key) {
    features.push_back(random_features(rng));
    pending.push_back(client.submit(features.back(), key));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PredictResponse resp = pending[i].get();
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    EXPECT_EQ(resp.label, argmax_of(features[i]));
  }
  // Consistent hashing spread the keys: every shard served some.
  for (const auto& shard : shards) {
    EXPECT_GT(shard->stats_snapshot().completed, 0u);
  }

  // The federation reports every replica alive, and the frontend's own
  // snapshot carries its request counter.
  const MetricsResponse metrics = client.fleet_metrics();
  std::size_t alive = 0;
  std::uint64_t frontend_requests = 0;
  for (const auto& snap : metrics.snapshots) {
    bool is_shard = false;
    for (const auto& [key, value] : snap.meta) {
      if (key == "replica_endpoint") is_shard = true;
      if (key == "health" && value == "alive") ++alive;
    }
    if (is_shard) continue;
    for (const auto& c : snap.counters) {
      if (c.name == "fleet.frontend.requests_total") {
        frontend_requests = c.value;
      }
    }
  }
  EXPECT_EQ(alive, 3u);
  EXPECT_GE(frontend_requests, 300u);
  const Pong pong = client.ping();
  EXPECT_EQ(pong.model_version, 1u);

  // Broadcast reload bumps every shard.
  const std::string model_path = dir + "/v2.bin";
  make_identity_servable(kDim).save(model_path);
  const ReloadResponse reload = client.reload(model_path);
  EXPECT_EQ(reload.ok, 1) << reload.message;
  EXPECT_EQ(reload.model_version, 2u);
  for (const auto& shard : shards) EXPECT_EQ(shard->model_version(), 2u);

  frontend.stop();
  for (auto& shard : shards) shard->stop();
}

// ------------------------------------------- multi-process failover E2E

pid_t spawn_shard_process(const std::string& endpoint,
                          const std::string& model_path) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl(g_self_exe.c_str(), g_self_exe.c_str(), "--fleet-child-shard",
          endpoint.c_str(), model_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

void wait_shard_reachable(const std::string& endpoint) {
  const Endpoint ep = Endpoint::parse(endpoint);
  for (int attempt = 0; attempt < 200; ++attempt) {
    try {
      const Connection probe =
          Connection::connect(ep, std::chrono::milliseconds(250));
      (void)probe;
      return;
    } catch (const SocketError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  FAIL() << "shard at " << endpoint << " never became reachable";
}

void reap(pid_t pid, int sig) {
  kill(pid, sig);
  int status = 0;
  waitpid(pid, &status, 0);
}

TEST(FleetFailover, SigkilledShardCostsNoRequests) {
  const std::string dir = unique_dir();
  const std::string model_path = dir + "/model.bin";
  make_identity_servable(kDim).save(model_path);

  std::vector<std::string> eps;
  std::vector<pid_t> pids;
  for (int s = 0; s < 3; ++s) {
    eps.push_back("unix:" + dir + "/s" + std::to_string(s) + ".sock");
    pids.push_back(spawn_shard_process(eps.back(), model_path));
    ASSERT_GT(pids.back(), 0);
  }
  for (const auto& ep : eps) wait_shard_reachable(ep);

  Frontend frontend(frontend_config(dir, eps));
  frontend.start();
  ASSERT_TRUE(frontend.wait_until_ready(3, std::chrono::seconds(5)));

  // Open-loop load from three client threads while shard 0 dies by
  // SIGKILL mid-traffic. Acceptance: every future resolves kOk — the
  // frontend absorbs the kill with failover, clients never see it.
  constexpr int kClients = 3;
  constexpr int kPerClient = 250;
  std::atomic<std::size_t> ok{0};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FleetClient client({"unix:" + dir + "/front.sock"});
      util::Rng rng(100 + c);
      std::vector<std::future<PredictResponse>> pending;
      for (int i = 0; i < kPerClient; ++i) {
        pending.push_back(client.submit(
            random_features(rng),
            static_cast<std::uint64_t>(c * kPerClient + i)));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (auto& f : pending) {
        const PredictResponse resp = f.get();
        if (resp.status == Status::kOk) {
          ok.fetch_add(1);
        } else {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(std::string(status_name(resp.status)) + ": " +
                             resp.error);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  kill(pids[0], SIGKILL);  // mid-traffic
  int status = 0;
  waitpid(pids[0], &status, 0);
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok.load(), static_cast<std::size_t>(kClients * kPerClient))
      << failures.size() << " failures, first: "
      << (failures.empty() ? "-" : failures.front());

  // The dead replica is detected and its single-replica group leaves
  // the ring.
  const auto deadline =
      HealthTracker::Clock::now() + std::chrono::seconds(5);
  while (frontend.replica_state(eps[0]) != HealthState::kDead &&
         HealthTracker::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(frontend.replica_state(eps[0]), HealthState::kDead);
  while (frontend.ring_groups().size() != 2 &&
         HealthTracker::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto groups = frontend.ring_groups();
  EXPECT_EQ(groups.size(), 2u);
  for (const auto& g : groups) EXPECT_NE(g, "g0");

  // Survivors serve 100% after the kill.
  {
    FleetClient client({"unix:" + dir + "/front.sock"});
    util::Rng rng(200);
    for (int i = 0; i < 100; ++i) {
      const PredictResponse resp =
          client.predict(random_features(rng), static_cast<std::uint64_t>(i));
      ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    }
  }

  frontend.stop();
  reap(pids[1], SIGTERM);
  reap(pids[2], SIGTERM);
}

// Regression for a mutual-join deadlock: when two replica channels
// broke near-simultaneously with requests in flight, each exiting
// reader used to redispatch its pending set into the other replica and
// join the other (still-exiting) reader under that replica's conn_mu —
// reader A waiting on reader B waiting on reader A, hanging the
// frontend and any later stop(). Broken readers are now parked and
// reaped by the heartbeat thread, so crossing failovers must complete.
TEST(FleetFailover, TwoSimultaneousKillsFailOverWithoutDeadlock) {
  const std::string dir = unique_dir();
  const std::string model_path = dir + "/model.bin";
  make_identity_servable(kDim).save(model_path);

  std::vector<std::string> eps;
  std::vector<pid_t> pids;
  for (int s = 0; s < 3; ++s) {
    eps.push_back("unix:" + dir + "/s" + std::to_string(s) + ".sock");
    pids.push_back(spawn_shard_process(eps.back(), model_path));
    ASSERT_GT(pids.back(), 0);
  }
  for (const auto& ep : eps) wait_shard_reachable(ep);

  Frontend frontend(frontend_config(dir, eps));
  frontend.start();
  ASSERT_TRUE(frontend.wait_until_ready(3, std::chrono::seconds(5)));

  // Unpaced bursts keep every replica's pending map deep, so when both
  // kills land there are predicts in flight on both channels whose
  // failovers cross into each other's replica.
  constexpr int kClients = 4;
  constexpr int kPerClient = 400;
  std::atomic<std::size_t> ok{0};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FleetClient client({"unix:" + dir + "/front.sock"});
      util::Rng rng(300 + c);
      std::vector<std::future<PredictResponse>> pending;
      for (int i = 0; i < kPerClient; ++i) {
        pending.push_back(client.submit(
            random_features(rng),
            static_cast<std::uint64_t>(c * kPerClient + i)));
      }
      for (auto& f : pending) {
        const PredictResponse resp = f.get();
        if (resp.status == Status::kOk) {
          ok.fetch_add(1);
        } else {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(std::string(status_name(resp.status)) + ": " +
                             resp.error);
        }
      }
    });
  }
  // Kill mid-burst, while the submission loops are still running.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  kill(pids[0], SIGKILL);
  kill(pids[1], SIGKILL);
  int status = 0;
  waitpid(pids[0], &status, 0);
  waitpid(pids[1], &status, 0);
  // The regression bar is liveness, not zero shed: every future must
  // resolve (a mutual join would hang these .get()s and trip the test
  // timeout). Under this burst one surviving shard may legally shed
  // load — but only as explicit backpressure, never as an error.
  for (auto& t : clients) t.join();
  EXPECT_GT(ok.load(), 0u);
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.rfind("overloaded", 0) == 0 ||
                failure.rfind("unavailable", 0) == 0)
        << failure;
  }

  // And the survivor serves 100% once the burst clears.
  {
    FleetClient client({"unix:" + dir + "/front.sock"});
    util::Rng rng(350);
    for (int i = 0; i < 50; ++i) {
      const PredictResponse resp = client.predict(
          random_features(rng), static_cast<std::uint64_t>(i));
      ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    }
  }

  frontend.stop();
  reap(pids[2], SIGTERM);
}

// A shard that restarts after an outage rejoins the fleet without a
// frontend restart: the heartbeat thread re-probes Dead endpoints, a
// successful connect re-registers the replica (fresh tracker), and its
// group returns to the ring.
TEST(FleetFailover, RestartedShardRejoinsFleet) {
  const std::string dir = unique_dir();
  const std::string model_path = dir + "/model.bin";
  make_identity_servable(kDim).save(model_path);

  std::vector<std::string> eps;
  std::vector<pid_t> pids;
  for (int s = 0; s < 2; ++s) {
    eps.push_back("unix:" + dir + "/s" + std::to_string(s) + ".sock");
    pids.push_back(spawn_shard_process(eps.back(), model_path));
    ASSERT_GT(pids.back(), 0);
  }
  for (const auto& ep : eps) wait_shard_reachable(ep);

  FrontendConfig config = frontend_config(dir, eps);
  config.dead_probe_interval_ms = 50.0;
  Frontend frontend(config);
  frontend.start();
  ASSERT_TRUE(frontend.wait_until_ready(2, std::chrono::seconds(5)));

  kill(pids[0], SIGKILL);
  int status = 0;
  waitpid(pids[0], &status, 0);
  const auto death_deadline =
      HealthTracker::Clock::now() + std::chrono::seconds(5);
  while ((frontend.replica_state(eps[0]) != HealthState::kDead ||
          frontend.ring_groups().size() != 1) &&
         HealthTracker::Clock::now() < death_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(frontend.replica_state(eps[0]), HealthState::kDead);
  ASSERT_EQ(frontend.ring_groups().size(), 1u);

  // Restart in place on the same endpoint; the probe path must bring
  // the replica back to Alive and re-add its group to the ring.
  pids[0] = spawn_shard_process(eps[0], model_path);
  ASSERT_GT(pids[0], 0);
  wait_shard_reachable(eps[0]);
  const auto rejoin_deadline =
      HealthTracker::Clock::now() + std::chrono::seconds(5);
  while ((frontend.replica_state(eps[0]) != HealthState::kAlive ||
          frontend.ring_groups().size() != 2) &&
         HealthTracker::Clock::now() < rejoin_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(frontend.replica_state(eps[0]), HealthState::kAlive);
  EXPECT_EQ(frontend.ring_groups().size(), 2u);

  // The whole fleet serves again, rejoined shard included.
  FleetClient client({"unix:" + dir + "/front.sock"});
  util::Rng rng(400);
  for (int i = 0; i < 50; ++i) {
    const PredictResponse resp =
        client.predict(random_features(rng), static_cast<std::uint64_t>(i));
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
  }

  frontend.stop();
  reap(pids[0], SIGTERM);
  reap(pids[1], SIGTERM);
}

// ----------------------------------- fleet-wide observability E2E

TEST(FleetObservability, ClockOffsetMidpointEstimate) {
  // The producer's clock read is assumed to fall halfway between the
  // collector's send (t0) and receive (t1); the offset maps producer
  // timestamps onto the collector's epoch.
  EXPECT_DOUBLE_EQ(estimate_clock_offset_us(1000.0, 1100.0, 1300.0), -250.0);
  EXPECT_DOUBLE_EQ(estimate_clock_offset_us(1000.0, 1100.0, 1050.0), 0.0);
  EXPECT_DOUBLE_EQ(estimate_clock_offset_us(500.0, 500.0, 100.0), 400.0);
}

/// Minimal JSON well-formedness scan: balanced braces/brackets outside
/// strings, escapes honored, nothing after the top-level value. Not a
/// parser — enough to catch truncated or mis-escaped render output
/// without a JSON library (CI runs the real python3 -m json.tool).
bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false, escaped = false, seen_value = false, closed = false;
  for (const char c : text) {
    if (closed) {  // only whitespace may follow the top-level value
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
      return false;
    }
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; seen_value = true; break;
      case '{': case '[': stack.push_back(c); seen_value = true; break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        closed = stack.empty();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        closed = stack.empty();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty() && seen_value && closed;
}

const std::string* attr_value(const WireSpan& span, const std::string& key) {
  for (const auto& kv : span.attrs) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

// The headline acceptance test: a frontend (this process) over two
// real shard processes, traced predicts, then a trace export through
// the full client -> frontend -> shard chain. The merged result must
// hold one lane per process (real, distinct pids) and every request's
// frontend-side "fleet.request" span must join a shard-side
// "serve.request" span in a DIFFERENT process via the propagated
// trace_id — with the shard's clock-aligned span nested inside the
// frontend's, which is what makes the merged timeline readable.
TEST(FleetObservability, MultiProcessTraceMergeJoinsAcrossPids) {
  // Children inherit TAGLETS_TRACE=1 through the re-exec; the parent
  // flips the in-process flag for its frontend spans.
  setenv("TAGLETS_TRACE", "1", 1);
  obs::set_trace_enabled(true);
  obs::set_process_name("frontend");

  const std::string dir = unique_dir();
  const std::string model_path = dir + "/model.bin";
  make_identity_servable(kDim).save(model_path);

  std::vector<std::string> eps;
  std::vector<pid_t> pids;
  for (int s = 0; s < 2; ++s) {
    eps.push_back("unix:" + dir + "/s" + std::to_string(s) + ".sock");
    pids.push_back(spawn_shard_process(eps.back(), model_path));
    ASSERT_GT(pids.back(), 0);
  }
  for (const auto& ep : eps) wait_shard_reachable(ep);

  FrontendConfig config = frontend_config(dir, eps);
  config.event_log_path = dir + "/events.jsonl";
  Frontend frontend(config);
  frontend.start();
  ASSERT_TRUE(frontend.wait_until_ready(2, std::chrono::seconds(5)));

  constexpr int kRequests = 40;
  FleetClient client({"unix:" + dir + "/front.sock"});
  util::Rng rng(500);
  for (int i = 0; i < kRequests; ++i) {
    const PredictResponse resp =
        client.predict(random_features(rng), static_cast<std::uint64_t>(i));
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    // The latency decomposition rides on every response.
    EXPECT_GE(resp.queue_wait_ms, 0.0);
    EXPECT_GE(resp.compute_ms, 0.0);
    EXPECT_GT(resp.shard_ms, 0.0);
  }

  const TraceExportResponse traces = client.trace_export();
  ASSERT_EQ(traces.processes.size(), 3u);  // frontend + 2 shards
  std::set<std::uint32_t> pids_seen;
  for (const auto& proc : traces.processes) {
    pids_seen.insert(proc.pid);
    EXPECT_FALSE(proc.name.empty());
  }
  EXPECT_EQ(pids_seen.size(), 3u) << "pids must be real and distinct";
  const auto my_pid = static_cast<std::uint32_t>(getpid());
  EXPECT_TRUE(pids_seen.count(my_pid));

  // Index shard-side serve.request spans by propagated trace_id, with
  // clock-aligned start/end on the frontend's epoch.
  struct Aligned { std::uint32_t pid; double start_us; double end_us; };
  std::map<std::string, std::vector<Aligned>> serve_by_trace;
  for (const auto& proc : traces.processes) {
    for (const auto& span : proc.spans) {
      if (span.name != "serve.request") continue;
      const std::string* tid = attr_value(span, "trace_id");
      if (tid == nullptr) continue;
      serve_by_trace[*tid].push_back(
          {proc.pid, span.ts_us + proc.align_offset_us,
           span.ts_us + span.dur_us + proc.align_offset_us});
    }
  }

  // Every fleet.request span joins a cross-process serve.request, and
  // the ping-RTT-midpoint alignment lands the shard's span inside the
  // frontend's (generous slack: the bound is half the export RTT).
  constexpr double kSlackUs = 25000.0;
  std::size_t joins = 0;
  for (const auto& proc : traces.processes) {
    if (proc.pid != my_pid) continue;
    EXPECT_DOUBLE_EQ(proc.align_offset_us, 0.0)
        << "the collector is its own epoch";
    for (const auto& span : proc.spans) {
      if (span.name != "fleet.request") continue;
      const std::string* tid = attr_value(span, "trace_id");
      ASSERT_NE(tid, nullptr)
          << "frontend must originate a trace_id when tracing is on";
      const auto it = serve_by_trace.find(*tid);
      if (it == serve_by_trace.end()) continue;
      for (const Aligned& shard_span : it->second) {
        if (shard_span.pid == my_pid) continue;
        ++joins;
        EXPECT_GE(shard_span.start_us, span.ts_us - kSlackUs);
        EXPECT_LE(shard_span.end_us, span.ts_us + span.dur_us + kSlackUs);
        break;
      }
    }
  }
  EXPECT_EQ(joins, static_cast<std::size_t>(kRequests));

  // The rendered merge is one well-formed Chrome trace document with a
  // process_name metadata lane per process.
  const std::string rendered = render_chrome_trace(traces.processes);
  EXPECT_TRUE(json_well_formed(rendered)) << rendered.substr(0, 400);
  EXPECT_NE(rendered.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(rendered.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(rendered.find("\"process_name\""), std::string::npos);
  EXPECT_NE(rendered.find("frontend"), std::string::npos);
  EXPECT_NE(rendered.find("shard "), std::string::npos);

  // Metrics federation over the same chain: one snapshot per process,
  // shard snapshots labeled by the aggregator, the frontend's holding
  // the per-shard latency decomposition histograms.
  const MetricsResponse metrics = client.fleet_metrics();
  ASSERT_EQ(metrics.snapshots.size(), 3u);
  std::size_t shard_snaps = 0;
  std::uint64_t federated_ok = 0;
  for (const auto& snap : metrics.snapshots) {
    const auto meta = [&snap](const char* key) -> const std::string* {
      for (const auto& kv : snap.meta) {
        if (kv.first == key) return &kv.second;
      }
      return nullptr;
    };
    if (meta("replica_endpoint") != nullptr) {
      ++shard_snaps;
      ASSERT_NE(meta("group"), nullptr);
      ASSERT_NE(meta("health"), nullptr);
      EXPECT_EQ(*meta("health"), "alive");
      for (const auto& c : snap.counters) {
        if (c.name == "serve.requests_ok_total") federated_ok += c.value;
      }
      // The tracer's own health metrics cross the wire too: the export
      // above forced a buffer snapshot on every shard.
      bool saw_buffer_gauge = false;
      for (const auto& g : snap.gauges) {
        if (g.name == "obs.trace.buffer_spans") {
          saw_buffer_gauge = g.value > 0.0;
        }
      }
      EXPECT_TRUE(saw_buffer_gauge);
    } else {
      bool saw_decomposition = false;
      for (const auto& h : snap.histograms) {
        if (h.name.rfind("fleet.frontend.compute_ms{shard=", 0) == 0) {
          saw_decomposition = true;
          EXPECT_EQ(h.snap.counts.size(), h.snap.bounds.size() + 1);
        }
      }
      EXPECT_TRUE(saw_decomposition);
    }
  }
  EXPECT_EQ(shard_snaps, 2u);
  EXPECT_EQ(federated_ok, static_cast<std::uint64_t>(kRequests));

  // Health transitions reach the event log at heartbeat granularity,
  // and this test's whole body can finish inside one interval — give
  // the heartbeat thread time to observe and log unknown -> alive for
  // both replicas before stopping.
  const auto log_deadline = HealthTracker::Clock::now() + std::chrono::seconds(5);
  std::size_t health_lines = 0;
  do {
    health_lines = 0;
    std::ifstream poll(dir + "/events.jsonl");
    std::string poll_line;
    while (std::getline(poll, poll_line)) {
      if (poll_line.find("\"event\":\"health\"") != std::string::npos) {
        ++health_lines;
      }
    }
    if (health_lines >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (HealthTracker::Clock::now() < log_deadline);

  frontend.stop();
  reap(pids[0], SIGTERM);
  reap(pids[1], SIGTERM);

  // The operational event log is JSON-lines: every line well-formed,
  // and the start-up health transitions (unknown -> alive) recorded.
  std::ifstream events(dir + "/events.jsonl");
  ASSERT_TRUE(events.is_open());
  std::string line;
  std::size_t lines = 0;
  health_lines = 0;
  while (std::getline(events, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(json_well_formed(line)) << line;
    EXPECT_EQ(line.find("{\"ts_ms\":"), 0u) << line;
    if (line.find("\"event\":\"health\"") != std::string::npos) ++health_lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_GE(health_lines, 2u) << "both replicas transitioned to alive";

  obs::set_trace_enabled(false);
  unsetenv("TAGLETS_TRACE");
}

}  // namespace
}  // namespace taglets::fleet

// ------------------------------------------------------------ child mode

namespace {

int run_child_shard(const char* endpoint, const char* model_path) {
  using namespace taglets;
  try {
    obs::set_process_name(std::string("shard ") + endpoint);
    ensemble::ServableModel model = ensemble::ServableModel::load(model_path);
    fleet::ShardConfig config;
    config.endpoint = endpoint;
    config.server.workers = 2;
    config.server.queue_capacity = 1024;
    config.server.batching.max_batch_size = 8;
    config.server.batching.max_delay_ms = 0.2;
    fleet::ShardServer shard(std::move(model), config);
    shard.start();
    std::signal(SIGTERM, [](int) { g_child_term = 1; });
    while (g_child_term == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    shard.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "child shard failed: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_self_exe = argv[0];
  if (argc == 4 && std::string(argv[1]) == "--fleet-child-shard") {
    return run_child_shard(argv[2], argv[3]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
