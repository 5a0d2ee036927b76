#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "ensemble/ensemble.hpp"
#include "obs/trace.hpp"
#include "nn/classifier.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace taglets::util {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(7);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexThrowsOnZero) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<long> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto sample = rng.sample_without_replacement(100, 30);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(19);
  auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(23);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, CombineSeedsOrderSensitive) {
  EXPECT_NE(combine_seeds({1, 2}), combine_seeds({2, 1}));
  EXPECT_EQ(combine_seeds({1, 2}), combine_seeds({1, 2}));
  EXPECT_NE(combine_seeds({1}), combine_seeds({1, 0}));
}

// -------------------------------------------------------------- stats

TEST(Stats, MeanAndVariance) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptyAndSingleton) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(empty), 0.0);
  std::vector<double> one{4.0};
  EXPECT_DOUBLE_EQ(mean(one), 4.0);
  EXPECT_DOUBLE_EQ(ci95(one), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MinMax) {
  std::vector<double> xs{3, -1, 7};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
  std::vector<double> empty;
  EXPECT_THROW(min_of(empty), std::invalid_argument);
}

TEST(Stats, Ci95MatchesFormula) {
  std::vector<double> xs{10, 12, 14};
  const double expected = 1.96 * stddev(xs) / std::sqrt(3.0);
  EXPECT_NEAR(ci95(xs), expected, 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  std::vector<double> xs{1, 1, 1};
  std::vector<double> ys{2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
  EXPECT_DOUBLE_EQ(pearson(xs, std::vector<double>{1.0}), 0.0);
}

TEST(Stats, PairedTStatistic) {
  std::vector<double> a{10, 12, 14, 11};
  std::vector<double> b{9, 10, 12, 10};
  // All diffs positive -> strongly positive t.
  EXPECT_GT(paired_t_statistic(a, b), 2.0);
  EXPECT_LT(paired_t_statistic(b, a), -2.0);
  // Constant zero differences -> 0.
  EXPECT_DOUBLE_EQ(paired_t_statistic(a, a), 0.0);
  std::vector<double> one{1.0};
  EXPECT_THROW(paired_t_statistic(one, one), std::invalid_argument);
}

TEST(Stats, MeanCiFormatting) {
  MeanCi summary{71.2345, 1.675};
  EXPECT_EQ(summary.to_string(), "71.23 ± 1.68");
  EXPECT_EQ(summary.to_string(1), "71.2 ± 1.7");
}

TEST(Stats, RunningStatMatchesBatch) {
  std::vector<double> xs{2.5, -1.0, 7.25, 0.0, 3.5};
  RunningStat rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
}

// -------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  TextTable table({"Method", "Acc"});
  table.add_row({"fine-tuning", "46.77"});
  table.add_rule();
  table.add_row({"taglets", "70.92"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Method"), std::string::npos);
  EXPECT_NE(out.find("taglets"), std::string::npos);
  // Rule between the two rows plus the header rule.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Table, RejectsBadWidths) {
  TextTable table({"A", "B"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

// ---------------------------------------------------------------- csv

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriterEmitsHeaderAndRows) {
  std::ostringstream out;
  CsvWriter writer(out, {"dataset", "accuracy"});
  writer.write_row({"fmd", "68.07"});
  writer.write_row({"office,home", "70.92"});
  EXPECT_EQ(writer.rows_written(), 2u);
  const std::string text = out.str();
  EXPECT_NE(text.find("dataset,accuracy"), std::string::npos);
  EXPECT_NE(text.find("\"office,home\""), std::string::npos);
  EXPECT_THROW(writer.write_row({"too", "many", "cells"}),
               std::invalid_argument);
}

// ------------------------------------------------------------- string

TEST(StringUtil, SplitAndJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(StringUtil, ToLowerAndTrim) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("concept_0001", "concept_"));
  EXPECT_FALSE(starts_with("con", "concept_"));
}

struct PrefixCase {
  const char* a;
  const char* b;
  std::size_t expected;
};

class CommonPrefixTest : public ::testing::TestWithParam<PrefixCase> {};

TEST_P(CommonPrefixTest, MatchesExpected) {
  const auto& param = GetParam();
  EXPECT_EQ(common_prefix_length(param.a, param.b), param.expected);
  EXPECT_EQ(common_prefix_length(param.b, param.a), param.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CommonPrefixTest,
    ::testing::Values(PrefixCase{"oatghurt", "oat_milk", 3},
                      PrefixCase{"soyghurt", "soy_milk", 3},
                      PrefixCase{"yoghurt", "yoghurt", 7},
                      PrefixCase{"abc", "xyz", 0},
                      PrefixCase{"", "anything", 0}));

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

// ----------------------------------------------------------------- env

TEST(Env, FallbacksAndParsing) {
  EXPECT_EQ(env_string("TAGLETS_SURELY_UNSET_XYZ", "dflt"), "dflt");
  EXPECT_EQ(env_long("TAGLETS_SURELY_UNSET_XYZ", 5), 5);
  EXPECT_FALSE(env_flag("TAGLETS_SURELY_UNSET_XYZ"));
  ::setenv("TAGLETS_TEST_ENV_NUM", "42", 1);
  EXPECT_EQ(env_long("TAGLETS_TEST_ENV_NUM", 0), 42);
  ::setenv("TAGLETS_TEST_ENV_NUM", "not-a-number", 1);
  EXPECT_EQ(env_long("TAGLETS_TEST_ENV_NUM", 9), 9);
  ::setenv("TAGLETS_TEST_ENV_FLAG", "true", 1);
  EXPECT_TRUE(env_flag("TAGLETS_TEST_ENV_FLAG"));
  ::unsetenv("TAGLETS_TEST_ENV_NUM");
  ::unsetenv("TAGLETS_TEST_ENV_FLAG");
}

// --------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
  EXPECT_GE(timer.elapsed_ms(), 0.0);
}

// ---------------------------------------------------------- parallel

/// Temporarily redirect Parallel::global() at a specific pool.
class GlobalParallelOverride {
 public:
  explicit GlobalParallelOverride(Parallel* pool)
      : prev_(Parallel::exchange_global(pool)) {}
  ~GlobalParallelOverride() { Parallel::exchange_global(prev_); }

 private:
  Parallel* prev_;
};

tensor::Tensor random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return same_shape(a, b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// A taglet whose logits are a fixed random linear map (identity
/// encoder), mirroring the ensemble_test fixture.
modules::Taglet random_taglet(const std::string& name, std::size_t dim,
                              std::size_t classes, std::uint64_t seed) {
  nn::Sequential encoder;
  encoder.add(std::make_unique<nn::Linear>(
      nn::Linear(tensor::Tensor::identity(dim), tensor::Tensor::zeros(dim))));
  nn::Linear head(random_matrix(dim, classes, seed),
                  random_matrix(1, classes, seed + 17).row_copy(0));
  return modules::Taglet(name, nn::Classifier(encoder, std::move(head)));
}

TEST(Parallel, ForEachRunsEveryIndexOnce) {
  Parallel pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.for_each(257, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, ForRangesCoversExactlyOnce) {
  Parallel pool(3);
  std::vector<std::atomic<int>> counts(100);
  pool.for_ranges(100, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) counts[i]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, SerialModeRunsInlineOnCallerThread) {
  Parallel pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.for_each(16, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) off_thread++;
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(Parallel, ReadsThreadCountFromEnvironment) {
  ::setenv("TAGLETS_THREADS", "3", 1);
  Parallel pool;
  EXPECT_EQ(pool.threads(), 3u);
  ::setenv("TAGLETS_THREADS", "1", 1);
  Parallel serial;
  EXPECT_EQ(serial.threads(), 1u);
  ::unsetenv("TAGLETS_THREADS");
}

TEST(Parallel, NestedParallelForCompletes) {
  Parallel pool(4);
  GlobalParallelOverride guard(&pool);
  std::atomic<int> total{0};
  // Outer and inner loops share the same pool; the owner of each loop
  // executes chunks itself and drains the queue while waiting, so this
  // must terminate at any thread count.
  pool.for_each(8, [&](std::size_t) {
    parallel_for(32, [&](std::size_t) {
      parallel_for(4, [&](std::size_t) { total++; });
    });
  });
  EXPECT_EQ(total.load(), 8 * 32 * 4);
}

TEST(Parallel, ThrowingIterationJoinsAllInFlightWork) {
  Parallel pool(4);
  std::atomic<int> entered{0};
  std::atomic<int> exited{0};
  EXPECT_THROW(pool.for_each(64,
                             [&](std::size_t i) {
                               entered++;
                               if (i == 5) {
                                 exited++;
                                 throw std::invalid_argument("poison");
                               }
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(200));
                               exited++;
                             }),
               std::invalid_argument);
  // Every claimed iteration finished before the rethrow; nothing can
  // still be touching the counters (or the caller's stack) afterwards.
  EXPECT_EQ(entered.load(), exited.load());
  const int snapshot = entered.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(entered.load(), snapshot);
}

TEST(Parallel, NestedThrowPropagatesWithoutDeadlock) {
  Parallel pool(4);
  GlobalParallelOverride guard(&pool);
  EXPECT_THROW(pool.for_each(4,
                             [&](std::size_t) {
                               parallel_for(16, [&](std::size_t j) {
                                 if (j == 3) {
                                   throw std::runtime_error("inner");
                                 }
                               });
                             }),
               std::runtime_error);
}

/// The threads that ran a 64-index loop on the global pool. A range
/// smaller than the whole loop waits (up to 10 s) for a second range to
/// start, so a loop that can fan out always does.
std::set<std::thread::id> loop_threads() {
  constexpr std::size_t kN = 64;
  std::vector<std::thread::id> ids(kN);
  std::atomic<int> ranges{0};
  parallel_for_ranges(kN, [&](std::size_t begin, std::size_t end) {
    ranges++;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (end - begin < kN && ranges.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    for (std::size_t i = begin; i < end; ++i) {
      ids[i] = std::this_thread::get_id();
    }
  });
  return {ids.begin(), ids.end()};
}

TEST(Parallel, InlineScopeRunsLoopsOnCallerThreadAndNests) {
  Parallel pool(4);
  GlobalParallelOverride guard(&pool);
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  EXPECT_GE(loop_threads().size(), 2u);
  {
    InlineScope outer;
    EXPECT_EQ(loop_threads(), caller);
    {
      InlineScope inner;
      EXPECT_EQ(loop_threads(), caller);
    }
    // The inner scope's end restores the outer one: still inline.
    EXPECT_EQ(loop_threads(), caller);
  }
  EXPECT_GE(loop_threads().size(), 2u);
}

TEST(Parallel, MatmulBitwiseIdenticalSerialVsParallel) {
  const tensor::Tensor a = random_matrix(93, 57, 3);
  const tensor::Tensor b = random_matrix(57, 41, 4);
  Parallel serial(1);
  Parallel four(4);
  tensor::Tensor c_serial, c_par, tn_serial, tn_par, nt_serial, nt_par;
  {
    GlobalParallelOverride guard(&serial);
    c_serial = tensor::matmul(a, b);
    tn_serial = tensor::matmul_tn(a, random_matrix(93, 41, 5));
    nt_serial = tensor::matmul_nt(a, random_matrix(29, 57, 6));
  }
  {
    GlobalParallelOverride guard(&four);
    c_par = tensor::matmul(a, b);
    tn_par = tensor::matmul_tn(a, random_matrix(93, 41, 5));
    nt_par = tensor::matmul_nt(a, random_matrix(29, 57, 6));
  }
  EXPECT_TRUE(bitwise_equal(c_serial, c_par));
  EXPECT_TRUE(bitwise_equal(tn_serial, tn_par));
  EXPECT_TRUE(bitwise_equal(nt_serial, nt_par));
}

TEST(Parallel, EnsembleProbaBitwiseIdenticalSerialVsParallel) {
  std::vector<modules::Taglet> taglets;
  for (std::uint64_t t = 0; t < 4; ++t) {
    // Two-step append dodges a GCC 12 -Wrestrict false positive on
    // operator+(const char*, std::string&&) (PR105329).
    std::string name = "t";
    name += std::to_string(t);
    taglets.push_back(random_taglet(name, 12, 7, 100 + t));
  }
  const tensor::Tensor inputs = random_matrix(128, 12, 9);
  Parallel serial(1);
  Parallel four(4);
  tensor::Tensor p_serial, p_par;
  {
    GlobalParallelOverride guard(&serial);
    p_serial = ensemble::ensemble_proba(taglets, inputs);
  }
  {
    GlobalParallelOverride guard(&four);
    p_par = ensemble::ensemble_proba(taglets, inputs);
  }
  EXPECT_TRUE(bitwise_equal(p_serial, p_par));
}

// -------------------------------------------------------------- logging

TEST(Logging, ThresholdFilters) {
  const LogLevel saved = log_threshold();
  set_log_threshold(LogLevel::kError);
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  TAGLETS_LOG(kDebug) << "should be dropped";  // must not crash
  set_log_threshold(saved);
}

TEST(Logging, SinkReceivesStructuredRecords) {
  const LogLevel saved = log_threshold();
  set_log_threshold(LogLevel::kInfo);
  std::vector<LogRecord> captured;
  std::mutex mu;
  set_log_sink([&](const LogRecord& record) {
    std::lock_guard<std::mutex> lock(mu);
    captured.push_back(record);
  });
  TAGLETS_LOG(kWarn) << "sinked " << 42;
  TAGLETS_LOG(kDebug) << "below threshold";  // filtered before the sink
  set_log_sink(nullptr);
  set_log_threshold(saved);
  TAGLETS_LOG(kError) << "";  // default writer restored; must not crash

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].level, LogLevel::kWarn);
  EXPECT_EQ(captured[0].message, "sinked 42");
  EXPECT_GT(captured[0].ts_ms, 0);
  EXPECT_EQ(captured[0].tid, obs::current_thread_id());
}

TEST(Logging, JsonFormatCarriesAllFields) {
  LogRecord record;
  record.level = LogLevel::kInfo;
  record.ts_ms = 1712345678901;
  record.tid = 3;
  record.message = "epoch done\n\"quoted\"";
  const std::string line = format_json_log(record);
  EXPECT_EQ(line,
            "{\"ts_ms\":1712345678901,\"level\":\"info\",\"tid\":3,"
            "\"msg\":\"epoch done\\n\\\"quoted\\\"\"}");
}

TEST(Logging, JsonModeTogglesAtRuntime) {
  const bool saved = log_json_enabled();
  set_log_json(true);
  EXPECT_TRUE(log_json_enabled());
  set_log_json(false);
  EXPECT_FALSE(log_json_enabled());
  set_log_json(saved);
}

}  // namespace
}  // namespace taglets::util
