// Parameterized property tests: invariants that must hold across broad
// sweeps of shapes, seeds, and configurations. These complement the
// example-based unit tests with coverage of the input space.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "ensemble/distill.hpp"
#include "eval/reporting.hpp"
#include "fleet/health.hpp"
#include "fleet/protocol.hpp"
#include "fleet/ring.hpp"
#include "graph/generators.hpp"
#include "graph/retrofit.hpp"
#include "nn/grad_check.hpp"
#include "obs/metrics.hpp"
#include "nn/loss.hpp"
#include "nn/scheduler.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "taglets/task_graph.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace taglets {
namespace {

using tensor::Tensor;

Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

// ------------------------------------------------------- rng uniformity

class RngUniformityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformityTest, BucketsRoughlyEven) {
  util::Rng rng(GetParam());
  constexpr std::size_t kBuckets = 16;
  constexpr std::size_t kDraws = 16000;
  std::vector<std::size_t> counts(kBuckets, 0);
  for (std::size_t i = 0; i < kDraws; ++i) {
    counts[rng.uniform_index(kBuckets)]++;
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.25);
  }
}

TEST_P(RngUniformityTest, SampleWithoutReplacementUnbiasedFirstElement) {
  util::Rng rng(GetParam() + 1);
  std::vector<std::size_t> hits(5, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    hits[rng.sample_without_replacement(5, 1)[0]]++;
  }
  for (std::size_t h : hits) {
    EXPECT_NEAR(static_cast<double>(h), 800.0, 200.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformityTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ----------------------------------------------------- softmax sweeps

struct ShapeParam {
  std::size_t rows;
  std::size_t cols;
};

class SoftmaxSweepTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(SoftmaxSweepTest, RowsAreDistributions) {
  const auto& s = GetParam();
  util::Rng rng(s.rows * 31 + s.cols);
  Tensor logits = random_tensor(s.rows, s.cols, rng);
  // Scale up to stress numerical stability.
  for (float& x : logits.data()) x *= 50.0f;
  Tensor p = tensor::softmax(logits);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (float v : p.row(i)) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0f);
      sum += v;
    }
    ASSERT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST_P(SoftmaxSweepTest, ShiftInvariance) {
  const auto& s = GetParam();
  util::Rng rng(s.rows + s.cols * 17);
  Tensor logits = random_tensor(s.rows, s.cols, rng);
  Tensor shifted = logits;
  for (float& x : shifted.data()) x += 123.0f;  // same shift for all
  Tensor a = tensor::softmax(logits);
  Tensor b = tensor::softmax(shifted);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxSweepTest,
                         ::testing::Values(ShapeParam{1, 2}, ShapeParam{3, 10},
                                           ShapeParam{16, 65},
                                           ShapeParam{64, 42},
                                           ShapeParam{7, 1200}));

// ----------------------------------------------------- matmul algebra

class MatmulAlgebraTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatmulAlgebraTest, Associativity) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  Tensor a = random_tensor(n, n, rng);
  Tensor b = random_tensor(n, n, rng);
  Tensor c = random_tensor(n, n, rng);
  Tensor left = tensor::matmul(tensor::matmul(a, b), c);
  Tensor right = tensor::matmul(a, tensor::matmul(b, c));
  for (std::size_t i = 0; i < left.size(); ++i) {
    ASSERT_NEAR(left.data()[i], right.data()[i],
                2e-3 * std::sqrt(static_cast<double>(n)));
  }
}

TEST_P(MatmulAlgebraTest, IdentityIsNeutral) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 100);
  Tensor a = random_tensor(n, n, rng);
  Tensor id = Tensor::identity(n);
  Tensor left = tensor::matmul(a, id);
  Tensor right = tensor::matmul(id, a);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(left.data()[i], a.data()[i], 1e-5);
    ASSERT_NEAR(right.data()[i], a.data()[i], 1e-5);
  }
}

TEST_P(MatmulAlgebraTest, TransposeReversesProduct) {
  const std::size_t n = GetParam();
  util::Rng rng(n + 200);
  Tensor a = random_tensor(n, n + 1, rng);
  Tensor b = random_tensor(n + 1, n + 2, rng);
  Tensor lhs = tensor::transpose(tensor::matmul(a, b));
  Tensor rhs = tensor::matmul(tensor::transpose(b), tensor::transpose(a));
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_NEAR(lhs.data()[i], rhs.data()[i], 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulAlgebraTest,
                         ::testing::Values(1, 2, 5, 16, 31, 64));

// ---------------------------------------------------- grad-check sweep

struct MlpParam {
  std::size_t in, hidden, out, batch;
};

class MlpGradSweepTest : public ::testing::TestWithParam<MlpParam> {};

TEST_P(MlpGradSweepTest, BackpropMatchesNumericGradient) {
  const auto& p = GetParam();
  util::Rng rng(p.in * 1000 + p.hidden * 100 + p.out * 10 + p.batch);
  nn::Sequential mlp = nn::make_mlp({p.in, p.hidden, p.out}, rng);
  Tensor x = random_tensor(p.batch, p.in, rng);
  std::vector<std::size_t> labels(p.batch);
  for (std::size_t i = 0; i < p.batch; ++i) labels[i] = i % p.out;

  auto loss_fn = [&] {
    Tensor logits = mlp.forward(x, true);
    return nn::cross_entropy(logits, labels).loss;
  };
  mlp.zero_grad();
  Tensor logits = mlp.forward(x, true);
  auto loss = nn::cross_entropy(logits, labels);
  mlp.backward(loss.grad_logits);
  EXPECT_LT(nn::max_param_grad_error(mlp.parameters(), loss_fn, 5e-3), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MlpGradSweepTest,
                         ::testing::Values(MlpParam{2, 3, 2, 2},
                                           MlpParam{4, 8, 3, 5},
                                           MlpParam{6, 4, 6, 3},
                                           MlpParam{3, 10, 2, 7}));

// ----------------------------------------------------- scheduler sweep

class SchedulerMonotoneTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerMonotoneTest, DecaySchedulesNeverIncrease) {
  const std::size_t total = GetParam();
  nn::StepDecayLr step(1.0, {0.3, 0.6, 0.9});
  nn::FixMatchCosineLr fixmatch(1.0);
  nn::HalfCosineLr half(1.0);
  double prev_step = 1e9, prev_fix = 1e9, prev_half = 1e9;
  for (std::size_t k = 0; k < total; ++k) {
    const double s = step.rate(k, total);
    const double f = fixmatch.rate(k, total);
    const double h = half.rate(k, total);
    ASSERT_LE(s, prev_step + 1e-12);
    ASSERT_LE(f, prev_fix + 1e-12);
    ASSERT_LE(h, prev_half + 1e-12);
    ASSERT_GT(s, 0.0);
    ASSERT_GT(f, 0.0);
    ASSERT_GE(h, 0.0);
    prev_step = s;
    prev_fix = f;
    prev_half = h;
  }
}

INSTANTIATE_TEST_SUITE_P(Totals, SchedulerMonotoneTest,
                         ::testing::Values(10, 100, 317, 2000));

// ----------------------------------------------------- taxonomy sweeps

class PrunedSetSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrunedSetSweepTest, LevelsAreNested) {
  util::Rng rng(GetParam());
  graph::TreeSpec spec;
  spec.node_count = 150;
  graph::Taxonomy taxonomy(graph::random_tree_parents(spec, rng));
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t node = rng.uniform_index(150);
    const auto l0 = taxonomy.pruned_set(node, 0);
    const auto l1 = taxonomy.pruned_set(node, 1);
    std::set<std::size_t> s1(l1.begin(), l1.end());
    // Level-0 set nested inside level-1, and the node always pruned.
    for (std::size_t n : l0) ASSERT_TRUE(s1.count(n));
    ASSERT_TRUE(std::count(l0.begin(), l0.end(), node));
    // Every pruned node is a descendant of the pruning root.
    ASSERT_GE(l1.size(), l0.size());
  }
}

TEST_P(PrunedSetSweepTest, TreeDistanceIsAMetric) {
  util::Rng rng(GetParam() + 7);
  graph::TreeSpec spec;
  spec.node_count = 80;
  graph::Taxonomy taxonomy(graph::random_tree_parents(spec, rng));
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t a = rng.uniform_index(80);
    const std::size_t b = rng.uniform_index(80);
    const std::size_t c = rng.uniform_index(80);
    const std::size_t ab = taxonomy.tree_distance(a, b);
    const std::size_t ba = taxonomy.tree_distance(b, a);
    ASSERT_EQ(ab, ba);                                   // symmetry
    ASSERT_EQ(taxonomy.tree_distance(a, a), 0u);         // identity
    ASSERT_LE(ab, taxonomy.tree_distance(a, c) +
                      taxonomy.tree_distance(c, b));     // triangle
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedSetSweepTest,
                         ::testing::Values(3, 11, 29, 71));

// ----------------------------------------------------- retrofit sweeps

class RetrofitSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RetrofitSweepTest, RetrofittingSmoothsAcrossEdges) {
  // Property: after retrofitting, neighbors are more cosine-similar than
  // their raw word vectors were (the embeddings absorb graph structure).
  util::Rng rng(GetParam());
  graph::TreeSpec spec;
  spec.node_count = 60;
  graph::Taxonomy taxonomy(graph::random_tree_parents(spec, rng));
  graph::KnowledgeGraph g = graph::graph_from_taxonomy(
      taxonomy, graph::make_concept_names(60, "c"));
  std::vector<std::optional<Tensor>> words(60);
  for (auto& w : words) {
    Tensor v = Tensor::zeros(8);
    for (float& x : v.data()) x = static_cast<float>(rng.normal());
    w = std::move(v);
  }
  auto edge_similarity = [&](const Tensor& emb) {
    double total = 0.0;
    for (const auto& e : g.edges()) {
      total += tensor::cosine_similarity(emb.row(e.from), emb.row(e.to));
    }
    return total / static_cast<double>(g.edge_count());
  };
  graph::RetrofitConfig config;
  config.iterations = 10;
  config.center = false;
  Tensor retrofitted = graph::retrofit_embeddings(g, words, config);
  Tensor raw = Tensor::zeros(60, 8);
  for (std::size_t i = 0; i < 60; ++i) {
    auto dst = raw.row(i);
    auto src = words[i]->data();
    std::copy(src.begin(), src.end(), dst.begin());
  }
  EXPECT_GT(edge_similarity(retrofitted), edge_similarity(raw));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetrofitSweepTest,
                         ::testing::Values(5, 13, 37));

// --------------------------------------------------- loss-grad algebra

class SoftTargetSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoftTargetSweepTest, GradientSumsToZeroPerRow) {
  // d(soft CE)/d(logits) rows sum to 0 (softmax minus target, both
  // distributions) — a structural invariant of the distillation loss.
  const std::size_t cols = GetParam();
  util::Rng rng(cols);
  Tensor logits = random_tensor(6, cols, rng);
  Tensor targets = tensor::softmax(random_tensor(6, cols, rng));
  auto result = nn::soft_cross_entropy(logits, targets);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (float g : result.grad_logits.row(i)) sum += g;
    ASSERT_NEAR(sum, 0.0, 1e-5);
  }
}

TEST_P(SoftTargetSweepTest, LossMinimizedAtTarget) {
  // Soft CE against target t is minimized (over logits) when softmax of
  // the logits equals t; check the gradient vanishes there.
  const std::size_t cols = GetParam();
  util::Rng rng(cols + 50);
  Tensor target_logits = random_tensor(2, cols, rng);
  Tensor targets = tensor::softmax(target_logits);
  auto result = nn::soft_cross_entropy(target_logits, targets);
  for (float g : result.grad_logits.data()) ASSERT_NEAR(g, 0.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Cols, SoftTargetSweepTest,
                         ::testing::Values(2, 5, 10, 42, 65));

// ----------------------------------------------------- one-hot algebra

TEST(DistillAlgebra, HardenOfOneHotIsIdentity) {
  std::vector<std::size_t> labels{0, 2, 1, 2};
  Tensor oh = ensemble::one_hot(labels, 3);
  Tensor hardened = ensemble::harden(oh);
  for (std::size_t i = 0; i < oh.size(); ++i) {
    EXPECT_EQ(oh.data()[i], hardened.data()[i]);
  }
}

// ----------------------------------------------- reporting composition

TEST(Reporting, StandardTableRowsMatchPaperLayout) {
  const auto rows = eval::standard_table_rows();
  ASSERT_EQ(rows.size(), 12u);  // 5 BiT + 5 RN50 + 2 pruned TAGLETS
  std::size_t bit = 0, rn50 = 0, pruned = 0, taglets_rows = 0;
  for (const auto& cell : rows) {
    if (cell.backbone == backbone::Kind::kBitS) ++bit;
    else ++rn50;
    if (cell.prune_level >= 0) ++pruned;
    if (cell.method == eval::kTaglets) ++taglets_rows;
  }
  EXPECT_EQ(bit, 5u);
  EXPECT_EQ(rn50, 7u);
  EXPECT_EQ(pruned, 2u);
  EXPECT_EQ(taglets_rows, 4u);
  // Pruned rows use the ResNet backbone, as in the paper's tables.
  for (const auto& cell : rows) {
    if (cell.prune_level >= 0) {
      EXPECT_EQ(cell.backbone, backbone::Kind::kRn50S);
      EXPECT_EQ(cell.method, eval::kTaglets);
    }
  }
}

// -------------------------------------------------------- stats sweeps

class CiSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CiSweepTest, CiShrinksWithSampleSize) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  std::vector<double> small, large;
  for (std::size_t i = 0; i < n; ++i) small.push_back(rng.normal());
  for (std::size_t i = 0; i < n * 4; ++i) large.push_back(rng.normal());
  EXPECT_GT(util::ci95(small), util::ci95(large) * 0.8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CiSweepTest, ::testing::Values(8, 32, 128));

// --------------------------------------------------- fleet hash ring

namespace {

std::vector<std::string> ring_node_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "shard-";  // += form: GCC 12 -Wrestrict FP
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

}  // namespace

class HashRingSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashRingSweepTest, LookupIsInsertionOrderIndependent) {
  const std::size_t n = GetParam();
  const auto names = ring_node_names(n);
  fleet::HashRing forward, backward;
  for (std::size_t i = 0; i < n; ++i) forward.add_node(names[i]);
  for (std::size_t i = n; i > 0; --i) backward.add_node(names[i - 1]);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::uint64_t h = fleet::mix64(key);
    EXPECT_EQ(forward.lookup(h), backward.lookup(h));
    EXPECT_EQ(forward.successors(h), backward.successors(h));
  }
}

TEST_P(HashRingSweepTest, AddingOneNodeRemapsAboutKOverN) {
  const std::size_t n = GetParam();
  constexpr std::uint64_t kKeys = 4000;
  fleet::HashRing ring;
  for (const auto& name : ring_node_names(n)) ring.add_node(name);
  std::vector<std::string> before;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    before.push_back(ring.lookup(fleet::mix64(key)));
  }
  ring.add_node("shard-new");
  std::size_t remapped = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::string& after = ring.lookup(fleet::mix64(key));
    if (after != before[key]) {
      ++remapped;
      // Consistent hashing's exact invariant: a key may only move TO
      // the new node, never between old ones.
      EXPECT_EQ(after, "shard-new");
    }
  }
  // Expectation is K/(N+1); allow generous variance from vnode
  // placement but reject anything resembling full reshuffling.
  const double expected = static_cast<double>(kKeys) / (n + 1);
  EXPECT_GT(remapped, 0u);
  EXPECT_LT(static_cast<double>(remapped), expected * 3.0);
}

TEST_P(HashRingSweepTest, RemovingOneNodeOnlyRemapsItsOwnKeys) {
  const std::size_t n = GetParam();
  constexpr std::uint64_t kKeys = 4000;
  const auto names = ring_node_names(n);
  fleet::HashRing ring;
  for (const auto& name : names) ring.add_node(name);
  std::vector<std::string> before;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    before.push_back(ring.lookup(fleet::mix64(key)));
  }
  const std::string& victim = names[n / 2];
  ring.remove_node(victim);
  EXPECT_FALSE(ring.contains(victim));
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::string& after = ring.lookup(fleet::mix64(key));
    // The evicted node is never routed to again...
    EXPECT_NE(after, victim);
    // ...and survivors keep every key they already owned.
    if (before[key] != victim) {
      EXPECT_EQ(after, before[key]);
    }
  }
}

TEST_P(HashRingSweepTest, SuccessorsVisitEveryNodeExactlyOnce) {
  const std::size_t n = GetParam();
  fleet::HashRing ring;
  for (const auto& name : ring_node_names(n)) ring.add_node(name);
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::uint64_t h = fleet::mix64(key * 7919);
    const auto order = ring.successors(h);
    ASSERT_EQ(order.size(), n);
    EXPECT_EQ(order.front(), ring.lookup(h));
    const std::set<std::string> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, HashRingSweepTest,
                         ::testing::Values(2, 3, 5, 8, 16));

// ------------------------------------------------ fleet health machine

class HealthMachineSweepTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HealthMachineSweepTest, RandomEventSequencesOnlyTakeValidEdges) {
  util::Rng rng(GetParam());
  fleet::HealthPolicy policy;
  policy.suspect_after_ms = 50.0;
  policy.dead_after_ms = 200.0;
  policy.failure_threshold = 2;
  fleet::HealthTracker tracker(policy);
  auto now = fleet::HealthTracker::Clock::now();
  bool was_dead = false;
  for (int step = 0; step < 400; ++step) {
    now += std::chrono::milliseconds(rng.uniform_index(40));
    switch (rng.uniform_index(3)) {
      case 0: tracker.record_success(now); break;
      case 1: tracker.record_failure(now); break;
      default: tracker.tick(now); break;
    }
    if (was_dead) {
      // Dead is terminal under every event.
      EXPECT_EQ(tracker.state(), fleet::HealthState::kDead);
    }
    was_dead = tracker.state() == fleet::HealthState::kDead;
    EXPECT_EQ(tracker.routable(),
              tracker.state() == fleet::HealthState::kAlive ||
                  tracker.state() == fleet::HealthState::kSuspect);
  }
  for (const auto& t : tracker.transitions()) {
    EXPECT_TRUE(fleet::transition_valid(t.from, t.to))
        << fleet::health_state_name(t.from) << " -> "
        << fleet::health_state_name(t.to);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HealthMachineSweepTest,
                         ::testing::Values(3, 17, 171, 2026));

// --------------------------------- metrics federation wire round-trip

/// Random printable metric/label names, including characters JSON and
/// the wire format must not mangle.
std::string random_name(util::Rng& rng) {
  static const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789._{}=\"\\-/ ";
  const std::size_t len = 1 + rng.uniform_index(24);
  std::string name;
  for (std::size_t i = 0; i < len; ++i) {
    name += alphabet[rng.uniform_index(alphabet.size())];
  }
  return name;
}

class MetricsWireSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsWireSweepTest, RandomSnapshotLayoutsRoundTripExactly) {
  util::Rng rng(GetParam());
  fleet::MetricsResponse resp;
  const std::size_t n_snaps = rng.uniform_index(4);
  for (std::size_t s = 0; s < n_snaps; ++s) {
    obs::MetricsSnapshot snap;
    snap.source = random_name(rng);
    for (std::size_t i = rng.uniform_index(4); i > 0; --i) {
      snap.meta.emplace_back(random_name(rng), random_name(rng));
    }
    for (std::size_t i = rng.uniform_index(6); i > 0; --i) {
      snap.counters.push_back({random_name(rng), rng.next()});
    }
    for (std::size_t i = rng.uniform_index(6); i > 0; --i) {
      snap.gauges.push_back({random_name(rng), rng.normal() * 1e6});
    }
    for (std::size_t i = rng.uniform_index(4); i > 0; --i) {
      obs::MetricsSnapshot::HistogramEntry hist;
      hist.name = random_name(rng);
      const std::size_t n_bounds = rng.uniform_index(20);
      double bound = 0.0;
      for (std::size_t b = 0; b < n_bounds; ++b) {
        bound += 0.25 + static_cast<double>(rng.uniform_index(1000));
        hist.snap.bounds.push_back(bound);
      }
      for (std::size_t b = 0; b <= n_bounds; ++b) {
        const std::uint64_t c = rng.uniform_index(100000);
        hist.snap.counts.push_back(c);
        hist.snap.count += c;
        hist.snap.sum += static_cast<double>(c) * 0.5;
      }
      snap.histograms.push_back(std::move(hist));
    }
    resp.snapshots.push_back(std::move(snap));
  }

  const fleet::MetricsResponse back =
      fleet::decode_metrics_response(fleet::encode(resp));
  ASSERT_EQ(back.snapshots.size(), resp.snapshots.size());
  for (std::size_t s = 0; s < back.snapshots.size(); ++s) {
    const obs::MetricsSnapshot& a = resp.snapshots[s];
    const obs::MetricsSnapshot& b = back.snapshots[s];
    EXPECT_EQ(b.source, a.source);
    EXPECT_EQ(b.meta, a.meta);
    ASSERT_EQ(b.counters.size(), a.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
      EXPECT_EQ(b.counters[i].name, a.counters[i].name);
      EXPECT_EQ(b.counters[i].value, a.counters[i].value);
    }
    ASSERT_EQ(b.gauges.size(), a.gauges.size());
    for (std::size_t i = 0; i < a.gauges.size(); ++i) {
      EXPECT_EQ(b.gauges[i].name, a.gauges[i].name);
      // Bit-exact: doubles cross the wire as IEEE-754 bit copies.
      EXPECT_DOUBLE_EQ(b.gauges[i].value, a.gauges[i].value);
    }
    ASSERT_EQ(b.histograms.size(), a.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
      EXPECT_EQ(b.histograms[i].name, a.histograms[i].name);
      EXPECT_EQ(b.histograms[i].snap.bounds, a.histograms[i].snap.bounds);
      EXPECT_EQ(b.histograms[i].snap.counts, a.histograms[i].snap.counts);
      EXPECT_EQ(b.histograms[i].snap.count, a.histograms[i].snap.count);
      EXPECT_DOUBLE_EQ(b.histograms[i].snap.sum, a.histograms[i].snap.sum);
    }
    // And the JSON rendering of what crossed the wire stays parseable
    // even with hostile metric names (quotes, braces, backslashes).
    const std::string json = b.to_json();
    EXPECT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsWireSweepTest,
                         ::testing::Values(1, 7, 42, 99, 1234, 20260807));

// ------------------------------------------ latency quantile resolution

// ServerStats reports percentiles interpolated inside the shared latency
// bucket layout. The layout must stay fine (adjacent bounds <= 1.26x
// apart over 10 us - 10 s), and for log-uniform samples the interpolated
// quantile must land inside the bucket that holds the exact nearest-rank
// sample, so the error is bounded by that bucket's width.
class LatencyQuantileSweepTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyQuantileSweepTest, QuantileLandsInNearestRankSampleBucket) {
  const std::vector<double> bounds = obs::default_latency_buckets_ms();
  ASSERT_LE(bounds.front(), 0.01);
  ASSERT_GE(bounds.back(), 10000.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_LE(bounds[i] / bounds[i - 1], 1.26) << "bound " << i;
  }

  util::Rng rng(GetParam());
  // A random sub-range of the six decades, so some seeds pile the
  // samples into a few buckets and others spread them over all.
  const double lo_exp = -2.0 + 6.0 * rng.uniform();
  const double hi_exp = lo_exp + (4.0 - lo_exp) * rng.uniform();
  const std::size_t n = 1 + rng.uniform_index(5000);
  obs::Histogram hist(bounds);
  std::vector<double> samples(n);
  for (double& v : samples) {
    v = std::pow(10.0, lo_exp + (hi_exp - lo_exp) * rng.uniform());
    hist.observe(v);
  }
  std::sort(samples.begin(), samples.end());
  const obs::Histogram::Snapshot snap = hist.snapshot();
  for (const double q : {0.5, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));  // 1-based nearest rank
    const double exact = samples[rank - 1];
    const std::size_t b = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), exact) -
        bounds.begin());
    const double bucket_lo = b == 0 ? 0.0 : bounds[b - 1];
    const double bucket_hi = bounds[b];
    const double estimate = obs::histogram_quantile(snap, q);
    EXPECT_GE(estimate, bucket_lo * (1.0 - 1e-12))
        << "q=" << q << " n=" << n << " exact=" << exact;
    EXPECT_LE(estimate, bucket_hi * (1.0 + 1e-12))
        << "q=" << q << " n=" << n << " exact=" << exact;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyQuantileSweepTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// ------------------------------------------------- task-graph executor

// Builds a random layered DAG whose node bodies compute a value that is
// a pure function of the parents' values, so the final vector is a
// fingerprint of "every node ran after all of its parents". Any
// scheduling bug (missed edge, premature dispatch, double execution)
// perturbs it.
struct DagSpec {
  std::size_t nodes = 0;
  std::vector<std::vector<std::size_t>> parents;  // per node, indices < node
};

DagSpec random_dag(util::Rng& rng, std::size_t max_nodes) {
  DagSpec spec;
  spec.nodes = 2 + rng.uniform_index(max_nodes - 1);
  spec.parents.resize(spec.nodes);
  for (std::size_t i = 1; i < spec.nodes; ++i) {
    const std::size_t edges = rng.uniform_index(std::min<std::size_t>(i, 3) + 1);
    std::set<std::size_t> chosen;
    for (std::size_t e = 0; e < edges; ++e) chosen.insert(rng.uniform_index(i));
    spec.parents[i].assign(chosen.begin(), chosen.end());
  }
  return spec;
}

std::vector<std::uint64_t> run_dag(const DagSpec& spec, util::Parallel& pool) {
  std::vector<std::uint64_t> values(spec.nodes, 0);
  TaskGraph graph;
  std::vector<TaskGraph::NodeId> ids;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    std::vector<TaskGraph::NodeId> deps;
    for (const std::size_t p : spec.parents[i]) deps.push_back(ids[p]);
    ids.push_back(graph.add_node(
        "n" + std::to_string(i),
        [&values, &spec, i] {
          std::uint64_t acc = i + 1;
          for (const std::size_t p : spec.parents[i]) {
            acc = util::combine_seeds({acc, values[p]});
          }
          values[i] = acc;
        },
        deps));
  }
  const TaskGraph::RunStats stats = graph.run(pool);
  EXPECT_EQ(stats.completed, spec.nodes);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  return values;
}

class TaskGraphSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaskGraphSweepTest, ResultsIdenticalAcrossThreadCounts) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const DagSpec spec = random_dag(rng, 24);
    util::Parallel serial(1);
    const std::vector<std::uint64_t> reference = run_dag(spec, serial);
    for (const std::size_t threads : {2u, 4u, 7u}) {
      util::Parallel pool(threads);
      EXPECT_EQ(run_dag(spec, pool), reference)
          << "threads=" << threads << " nodes=" << spec.nodes;
    }
  }
}

TEST_P(TaskGraphSweepTest, CancellationReachesExactlyTheDescendants) {
  util::Rng rng(GetParam() ^ 0xD06F00DULL);
  for (int round = 0; round < 8; ++round) {
    const DagSpec spec = random_dag(rng, 20);
    const std::size_t victim = rng.uniform_index(spec.nodes);

    // Reference reachability from the victim along the edges.
    std::vector<bool> descendant(spec.nodes, false);
    for (std::size_t i = victim + 1; i < spec.nodes; ++i) {
      for (const std::size_t p : spec.parents[i]) {
        if (p == victim || descendant[p]) descendant[i] = true;
      }
    }

    TaskGraph graph;
    std::vector<TaskGraph::NodeId> ids;
    std::vector<std::atomic<bool>> ran(spec.nodes);
    for (auto& r : ran) r.store(false);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      std::vector<TaskGraph::NodeId> deps;
      for (const std::size_t p : spec.parents[i]) deps.push_back(ids[p]);
      // Two-step append dodges a GCC 12 -Wrestrict false positive on
      // operator+(const char*, std::string&&) (PR105329).
      std::string name = "n";
      name += std::to_string(i);
      ids.push_back(graph.add_node(
          name,
          [&ran, i, victim] {
            ran[i].store(true);
            if (i == victim) throw std::runtime_error("victim node failed");
          },
          deps));
    }
    util::Parallel pool(4);
    EXPECT_THROW(graph.run(pool), std::runtime_error);

    EXPECT_EQ(graph.state(ids[victim]), TaskGraph::NodeState::kFailed);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      if (i == victim) continue;
      if (descendant[i]) {
        EXPECT_EQ(graph.state(ids[i]), TaskGraph::NodeState::kCancelled)
            << "node " << i << " should be cancelled (victim " << victim
            << ")";
        EXPECT_FALSE(ran[i].load()) << "cancelled node " << i << " ran";
      } else {
        EXPECT_EQ(graph.state(ids[i]), TaskGraph::NodeState::kDone)
            << "independent node " << i << " should still complete";
        EXPECT_TRUE(ran[i].load());
      }
    }
  }
}

TEST_P(TaskGraphSweepTest, CycleIsRejectedBeforeAnyNodeRuns) {
  util::Rng rng(GetParam() + 17);
  const DagSpec spec = random_dag(rng, 16);
  std::atomic<int> executions{0};
  TaskGraph graph;
  std::vector<TaskGraph::NodeId> ids;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    std::vector<TaskGraph::NodeId> deps;
    for (const std::size_t p : spec.parents[i]) deps.push_back(ids[p]);
    ids.push_back(graph.add_node("n" + std::to_string(i),
                                 [&executions] { ++executions; }, deps));
  }
  // A back edge from the last node to a random earlier one closes a
  // cycle (the earlier node reaches the last one through the chain of
  // `parents` edges only if connected; make it airtight by also adding
  // the forward edge first).
  const std::size_t target = rng.uniform_index(spec.nodes - 1);
  graph.add_edge(ids[target], ids[spec.nodes - 1]);
  graph.add_edge(ids[spec.nodes - 1], ids[target]);
  EXPECT_THROW(graph.validate(), std::invalid_argument);
  util::Parallel pool(2);
  EXPECT_THROW(graph.run(pool), std::invalid_argument);
  EXPECT_EQ(executions.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskGraphSweepTest,
                         ::testing::Values(3, 11, 29, 404, 8080));

TEST(TaskGraph, SelfEdgeAndUnknownNodeAreRejected) {
  TaskGraph graph;
  const TaskGraph::NodeId a = graph.add_node("a", [] {});
  EXPECT_THROW(graph.add_edge(a, a), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(a, a + 1), std::invalid_argument);
}

TEST(TaskGraph, DuplicateEdgesCollapse) {
  TaskGraph graph;
  int runs = 0;
  const TaskGraph::NodeId a = graph.add_node("a", [] {});
  const TaskGraph::NodeId b = graph.add_node("b", [&runs] { ++runs; }, {a});
  graph.add_edge(a, b);
  graph.add_edge(a, b);
  util::Parallel pool(2);
  graph.run(pool);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(graph.state(b), TaskGraph::NodeState::kDone);
}

TEST(TaskGraph, RunIsSingleShot) {
  TaskGraph graph;
  graph.add_node("only", [] {});
  util::Parallel pool(1);
  graph.run(pool);
  EXPECT_THROW(graph.run(pool), std::logic_error);
}

TEST(TaskGraph, NodeBodiesMayNestParallelFor) {
  // A node body that itself fans out over the same pool must not
  // deadlock even when every worker is occupied by an executor lane.
  constexpr std::size_t kNodes = 12;
  std::vector<std::uint64_t> sums(kNodes, 0);
  TaskGraph graph;
  std::vector<TaskGraph::NodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<TaskGraph::NodeId> deps;
    if (i > 0) deps.push_back(ids[i - 1] /* chain */);
    ids.push_back(graph.add_node(
        "nest" + std::to_string(i),
        [&sums, i] {
          std::vector<std::uint64_t> parts(64);
          util::parallel_for(parts.size(),
                             [&parts, i](std::size_t j) { parts[j] = i + j; });
          sums[i] = std::accumulate(parts.begin(), parts.end(),
                                    std::uint64_t{0});
        },
        deps));
  }
  graph.run(util::Parallel::global());
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(sums[i], 64 * i + 64 * 63 / 2);
  }
}

}  // namespace
}  // namespace taglets
