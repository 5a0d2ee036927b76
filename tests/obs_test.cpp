// Tests for the observability layer (src/obs/): metrics registry
// correctness under concurrency, span nesting, trace JSON
// well-formedness, and the Controller::run stage spans. Run in the TSan
// CI job at TAGLETS_THREADS=4 like the other concurrency suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "taglets/controller.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace taglets::obs {
namespace {

// ------------------------------------------------- tiny JSON validator
// Enough of a recursive-descent JSON parser to assert exported trace
// and metrics documents are syntactically well-formed (the CI step
// additionally runs them through python -m json.tool).

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // {
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // [
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string s_;  // owned: callers may pass temporaries
  std::size_t pos_ = 0;
};

/// Restore the trace-enabled flag and drop this test's events on exit.
class TraceSandbox {
 public:
  TraceSandbox() : was_enabled_(trace_enabled()) { Tracer::global().clear(); }
  ~TraceSandbox() {
    set_trace_enabled(was_enabled_);
    Tracer::global().clear();
  }

 private:
  bool was_enabled_;
};

// ---------------------------------------------------------------- json

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(ObsJson, NumbersAreFiniteJson) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(std::nan("")), "0");
  JsonValidator v("[" + json_number(1.5) + "," + json_number(-2e9) + "]");
  EXPECT_TRUE(v.valid());
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CounterConcurrentAddsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.adds_total");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::size_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, HistogramConcurrentObservesAreExact) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("test.values", {1.0, 10.0, 100.0});
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        hist.observe(static_cast<double>((t + i) % 200));
      }
    });
  }
  for (auto& t : threads) t.join();
  const Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_GT(snap.counts.back(), 0u);  // values above 100 exist
  EXPECT_NEAR(snap.mean(), snap.sum / static_cast<double>(snap.count), 1e-9);
}

TEST(Metrics, HistogramBucketBoundariesAreUpperInclusiveLowerExclusive) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("test.bounds", {1.0, 2.0});
  hist.observe(1.0);   // first bucket (<= 1.0)
  hist.observe(1.5);   // second bucket
  hist.observe(2.5);   // overflow
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("test.depth");
  gauge.set(4.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.add(-1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
}

TEST(Metrics, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.shared");
  Counter& b = registry.counter("test.shared");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, KindCollisionThrows) {
  MetricsRegistry registry;
  registry.counter("test.name");
  EXPECT_THROW(registry.gauge("test.name"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("test.name", {1.0}), std::invalid_argument);
  registry.histogram("test.hist", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("test.hist", {5.0}), std::invalid_argument);
}

TEST(Metrics, JsonSnapshotIsWellFormedAndComplete) {
  MetricsRegistry registry;
  registry.counter("alpha_total").add(3);
  registry.gauge("beta").set(1.25);
  registry.histogram("gamma_ms", {1.0, 5.0}).observe(2.0);
  const std::string json = registry.to_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  EXPECT_NE(json.find("\"alpha_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"beta\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"gamma_ms\""), std::string::npos);
  const std::string text = registry.to_text();
  EXPECT_NE(text.find("alpha_total 3"), std::string::npos);
}

TEST(Metrics, ResetZeroesEverythingButKeepsHandles) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.reset_total");
  Histogram& hist = registry.histogram("test.reset_ms", {1.0});
  counter.add(7);
  hist.observe(0.5);
  registry.reset_for_testing();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.snapshot().count, 0u);
  counter.add();  // handle still live
  EXPECT_EQ(counter.value(), 1u);
}

TEST(Metrics, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(Metrics, HistogramQuantileInterpolatesWithinBuckets) {
  Histogram::Snapshot snap;
  snap.bounds = {10.0, 20.0};
  snap.counts = {4, 4, 0};  // 2 bounds + overflow
  snap.count = 8;
  snap.sum = 100.0;
  // Rank 4 lands exactly at the top of the first bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.50), 10.0);
  // Rank 6 is halfway through the second bucket: 10 + 0.5 * (20 - 10).
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 1.0), 20.0);
}

TEST(Metrics, HistogramQuantileClampsOverflowAndEmpty) {
  Histogram::Snapshot empty;
  EXPECT_DOUBLE_EQ(histogram_quantile(empty, 0.99), 0.0);

  // All mass in the +inf overflow bucket: the best finite statement is
  // "at least the largest finite bound".
  Histogram::Snapshot overflow;
  overflow.bounds = {10.0, 20.0};
  overflow.counts = {0, 0, 5};
  overflow.count = 5;
  overflow.sum = 500.0;
  EXPECT_DOUBLE_EQ(histogram_quantile(overflow, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(overflow, 0.99), 20.0);
}

TEST(Metrics, StructuredSnapshotToJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.counter("snap.requests_total").add(12);
  registry.gauge("snap.depth").set(3.5);
  registry.histogram("snap.latency_ms", {1.0, 5.0}).observe(2.0);
  MetricsSnapshot snap = registry.snapshot("shard:g0");
  snap.meta.push_back({"endpoint", "unix:/tmp/x.sock"});
  snap.meta.push_back({"health", "alive"});

  EXPECT_EQ(snap.source, "shard:g0");
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "snap.requests_total");
  EXPECT_EQ(snap.counters[0].value, 12u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].snap.counts.size(),
            snap.histograms[0].snap.bounds.size() + 1);

  const std::string json = snap.to_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  EXPECT_NE(json.find("\"source\":\"shard:g0\""), std::string::npos);
  EXPECT_NE(json.find("\"health\":\"alive\""), std::string::npos);
  EXPECT_NE(json.find("\"snap.requests_total\":12"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ------------------------------------------------------------- tracing

TEST(Trace, DisabledRecordsNothing) {
  TraceSandbox sandbox;
  set_trace_enabled(false);
  {
    TAGLETS_TRACE_SCOPE("invisible", {{"k", "v"}});
  }
  EXPECT_TRUE(Tracer::global().snapshot().empty());
}

TEST(Trace, SpansNestWithCorrectDepthAndContainment) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  {
    TAGLETS_TRACE_SCOPE("outer");
    {
      TAGLETS_TRACE_SCOPE("middle", {{"k", "v"}});
      { TAGLETS_TRACE_SCOPE("inner"); }
    }
  }
  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  auto find = [&](const std::string& name) -> const TraceEvent& {
    auto it = std::find_if(events.begin(), events.end(),
                           [&](const TraceEvent& e) { return e.name == name; });
    EXPECT_NE(it, events.end()) << name;
    return *it;
  };
  const TraceEvent& outer = find("outer");
  const TraceEvent& middle = find("middle");
  const TraceEvent& inner = find("inner");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(middle.depth, 1u);
  EXPECT_EQ(inner.depth, 2u);
  // All on the recording thread, nested by time.
  EXPECT_EQ(outer.tid, middle.tid);
  EXPECT_EQ(middle.tid, inner.tid);
  EXPECT_LE(outer.ts_us, middle.ts_us);
  EXPECT_LE(middle.ts_us, inner.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, middle.ts_us + middle.dur_us + 1e-3);
  EXPECT_LE(middle.ts_us + middle.dur_us, outer.ts_us + outer.dur_us + 1e-3);
  ASSERT_EQ(middle.attrs.size(), 1u);
  EXPECT_EQ(middle.attrs[0].first, "k");
  EXPECT_EQ(middle.attrs[0].second, "v");
}

TEST(Trace, ConcurrentSpansLandInPerThreadBuffers) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        TAGLETS_TRACE_SCOPE("worker.span");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  EXPECT_EQ(events.size(), kThreads * kSpansPerThread);
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

TEST(Trace, RecordCompleteCapturesCrossThreadLifetime) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  const TraceClock::time_point start = TraceClock::now();
  const TraceClock::time_point end = start + std::chrono::milliseconds(3);
  Tracer::global().record_complete("serve.request", start, end,
                                   {{"id", "42"}});
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "serve.request");
  EXPECT_NEAR(events[0].dur_us, 3000.0, 1.0);
  ASSERT_EQ(events[0].attrs.size(), 1u);
  EXPECT_EQ(events[0].attrs[0].second, "42");
}

TEST(Trace, ExportJsonIsWellFormedChromeTrace) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  {
    TAGLETS_TRACE_SCOPE("stage.a", {{"quote", "he said \"hi\"\n"}});
    TAGLETS_TRACE_SCOPE("stage.b");
  }
  const std::string json = trace_export_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("stage.a"), std::string::npos);
  EXPECT_NE(json.find("stage.b"), std::string::npos);
}

TEST(Trace, ParallelForRangesEmitsTaskBatchSpan) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  std::atomic<int> sum{0};
  util::parallel_for(64, [&sum](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 64);
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  const bool found =
      std::any_of(events.begin(), events.end(), [](const TraceEvent& e) {
        return e.name == "parallel.for_ranges";
      });
  // Serial pools (TAGLETS_THREADS=1) run inline without a span; the
  // span is required whenever the pool actually fans out.
  if (util::Parallel::global().threads() > 1) {
    EXPECT_TRUE(found);
  }
}

TEST(Trace, ExportCarriesRealPidAndProcessNameLane) {
  TraceSandbox sandbox;
  const std::string old_name = process_name();
  set_process_name("obs test proc");
  set_trace_enabled(true);
  {
    TAGLETS_TRACE_SCOPE("lane.span");
  }
  const std::string json = trace_export_json();
  set_process_name(old_name);

  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  // Chrome/Perfetto assign lanes by pid: the export must carry this
  // process's real pid (not a constant) plus a process_name metadata
  // event so merged multi-process traces stay readable.
  const std::string pid_field =
      "\"pid\":" + std::to_string(static_cast<long>(::getpid()));
  EXPECT_NE(json.find(pid_field), std::string::npos) << json;
  EXPECT_EQ(json.find("\"pid\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("obs test proc"), std::string::npos);
}

TEST(Trace, SnapshotPublishesBufferSpansGauge) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  constexpr std::size_t kSpans = 17;
  for (std::size_t i = 0; i < kSpans; ++i) {
    TAGLETS_TRACE_SCOPE("gauge.span");
  }
  const std::uint64_t dropped_before =
      MetricsRegistry::global().counter("obs.trace.dropped_total").value();
  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  EXPECT_GE(events.size(), kSpans);
  // snapshot() publishes the live buffer size so fleet metric scrapes
  // can watch trace memory pressure per process.
  EXPECT_GE(MetricsRegistry::global().gauge("obs.trace.buffer_spans").value(),
            static_cast<double>(kSpans));
  // Nothing near the per-thread cap here, so the drop counter must not
  // have moved.
  EXPECT_EQ(
      MetricsRegistry::global().counter("obs.trace.dropped_total").value(),
      dropped_before);
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

// --------------------------------------------- pipeline instrumentation

TEST(Trace, ControllerRunEmitsStageAndModuleSpans) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  auto task = taglets::testing::small_task(/*shots=*/1);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  SystemConfig config;
  config.train_seed = 5;
  config.epoch_scale = 0.25;
  config.module_names = {"transfer", "prototype"};  // no zsl engine needed
  const SystemResult result = controller.run(task, config);
  EXPECT_EQ(result.taglets.size(), 2u);

  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  auto count = [&](const std::string& name) {
    return std::count_if(events.begin(), events.end(),
                         [&](const TraceEvent& e) { return e.name == name; });
  };
  EXPECT_EQ(count("pipeline.run"), 1);
  EXPECT_EQ(count("pipeline.scads_selection"), 1);
  EXPECT_EQ(count("pipeline.ensemble_vote"), 1);
  EXPECT_EQ(count("pipeline.distillation"), 1);
  EXPECT_EQ(count("module.train"), 2);
  EXPECT_EQ(count("scads.select"), 1);
  EXPECT_GE(count("nn.fit"), 1);

  // Every trained module appears with its name attribute.
  std::vector<std::string> trained;
  for (const TraceEvent& e : events) {
    if (e.name != "module.train") continue;
    for (const auto& [key, value] : e.attrs) {
      if (key == "module") trained.push_back(value);
    }
  }
  std::sort(trained.begin(), trained.end());
  EXPECT_EQ(trained, (std::vector<std::string>{"prototype", "transfer"}));

  // Pipeline counters moved on the shared registry.
  auto& registry = MetricsRegistry::global();
  EXPECT_GE(registry.counter("pipeline.runs_total").value(), 1u);
  EXPECT_GE(registry.counter("pipeline.modules_trained_total").value(), 2u);
  EXPECT_GE(registry.counter("scads.examples_selected_total").value(), 1u);
  EXPECT_GE(registry.counter("nn.epochs_total").value(), 1u);

  // The exported trace of a real pipeline run parses.
  JsonValidator validator(trace_export_json());
  EXPECT_TRUE(validator.valid());
}

TEST(Trace, ControllerGraphRunEmitsPerNodeSpans) {
  TraceSandbox sandbox;
  set_trace_enabled(true);
  auto task = taglets::testing::small_task(/*shots=*/1);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  SystemConfig config;
  config.train_seed = 5;
  config.epoch_scale = 0.25;
  config.module_names = {"transfer", "prototype"};
  auto& registry = MetricsRegistry::global();
  const std::uint64_t completed_before =
      registry.counter("pipeline.node.completed_total").value();
  const SystemResult result = controller.run(task, config);
  EXPECT_EQ(result.taglets.size(), 2u);

  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  auto count = [&](const std::string& name) {
    return std::count_if(events.begin(), events.end(),
                         [&](const TraceEvent& e) { return e.name == name; });
  };
  EXPECT_EQ(count("pipeline.run"), 1);
  // One "pipeline.node" span per DAG node: backbone, selection, two
  // modules, ensemble, distill.
  EXPECT_EQ(count("pipeline.node"), 6);
  EXPECT_EQ(count("pipeline.scads_selection"), 1);
  EXPECT_EQ(count("pipeline.ensemble_vote"), 1);
  EXPECT_EQ(count("pipeline.distillation"), 1);
  EXPECT_EQ(count("module.train"), 2);

  // Each node span carries its name attribute.
  std::vector<std::string> nodes;
  for (const TraceEvent& e : events) {
    if (e.name != "pipeline.node") continue;
    for (const auto& [key, value] : e.attrs) {
      if (key == "node") nodes.push_back(value);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<std::string>{
                       "backbone", "distill", "ensemble", "module:prototype",
                       "module:transfer", "selection"}));

  EXPECT_EQ(registry.counter("pipeline.node.completed_total").value(),
            completed_before + 6);
}

}  // namespace
}  // namespace taglets::obs
