#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "backbone/backbone.hpp"
#include "backbone/zoo.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "test_support.hpp"

namespace taglets::backbone {
namespace {

TEST(Backbone, KindNamesDistinct) {
  EXPECT_STRNE(kind_name(Kind::kBitS), kind_name(Kind::kRn50S));
}

TEST(Backbone, PretrainingLearnsAuxiliaryTask) {
  auto& zoo = taglets::testing::small_zoo();
  const Pretrained& rn50 = zoo.get(Kind::kRn50S);
  // Far above 1/n_classes chance (~0.013 for the small world subset).
  EXPECT_GT(rn50.final_train_accuracy, 0.10);
  EXPECT_EQ(rn50.feature_dim, taglets::testing::small_pretrain_config().feature_dim);
}

TEST(Backbone, Rn50SeesSubsetBitSeesAll) {
  auto& zoo = taglets::testing::small_zoo();
  const Pretrained& rn50 = zoo.get(Kind::kRn50S);
  const Pretrained& bit = zoo.get(Kind::kBitS);
  EXPECT_LT(rn50.pretrain_concepts.size(), bit.pretrain_concepts.size());
  EXPECT_EQ(bit.pretrain_concepts.size(),
            taglets::testing::small_world().config().concept_count - 1);
}

TEST(Backbone, EncodersProduceFiniteFeatures) {
  auto& zoo = taglets::testing::small_zoo();
  auto& world = taglets::testing::small_world();
  util::Rng rng(5);
  tensor::Tensor img = world.sample_image(10, synth::Domain::kNatural, rng);
  for (Kind kind : {Kind::kRn50S, Kind::kBitS}) {
    nn::Sequential encoder = zoo.get(kind).encoder;  // copy
    tensor::Tensor features =
        encoder.forward(img.reshape(1, img.size()), false);
    EXPECT_EQ(features.cols(), zoo.get(kind).feature_dim);
    for (float v : features.data()) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0f);  // ReLU output
    }
  }
}

TEST(Backbone, PretrainedBeatsRandomEncoderFewShot) {
  auto& zoo = taglets::testing::small_zoo();
  auto& world = taglets::testing::small_world();
  auto task = taglets::testing::small_task(/*shots=*/5);
  const auto pc = taglets::testing::small_pretrain_config();

  auto evaluate = [&](const nn::Sequential& encoder) {
    util::Rng rng(9);
    nn::Classifier model(encoder, pc.feature_dim, task.num_classes(), rng);
    nn::FitConfig fit;
    fit.epochs = 10;
    fit.batch_size = 32;
    fit.min_steps = 200;
    fit.sgd.lr = 0.003;
    nn::fit_hard(model, task.labeled_inputs, task.labeled_labels, fit, rng);
    return nn::evaluate_accuracy(model, task.test_inputs, task.test_labels);
  };

  util::Rng rng(13);
  nn::Sequential random_encoder =
      nn::make_mlp({world.pixel_dim(), pc.hidden_dim, pc.feature_dim}, rng);
  random_encoder.add(std::make_unique<nn::ReLU>());

  const double pretrained = evaluate(zoo.get(Kind::kBitS).encoder);
  const double random = evaluate(random_encoder);
  EXPECT_GT(pretrained, random);
}

TEST(Backbone, ReferenceHeadShapes) {
  auto& zoo = taglets::testing::small_zoo();
  const ReferenceHead& head = zoo.zsl_reference();
  const Pretrained& rn50 = zoo.get(Kind::kRn50S);
  EXPECT_EQ(head.concepts.size(), rn50.pretrain_concepts.size());
  EXPECT_EQ(head.weights.rows(), head.concepts.size());
  EXPECT_EQ(head.weights.cols(), rn50.feature_dim);
  EXPECT_EQ(head.biases.size(), head.concepts.size());
}

// train_reference_head runs the frozen encoder once over the corpus;
// the head must come out exactly as when the encoder ran inside every
// batch, with the same RNG draws.
TEST(Backbone, ReferenceHeadEqualsPerBatchEncoderTrainingBitwise) {
  auto& world = taglets::testing::small_world();
  Pretrained rn50 = taglets::testing::small_zoo().get(Kind::kRn50S);
  PretrainConfig config = taglets::testing::small_pretrain_config();
  config.epochs = 3;
  const ReferenceHead head =
      train_reference_head(world, rn50, rn50.pretrain_concepts, config);

  util::Rng rng(util::combine_seeds({world.config().seed, 0x2EFULL}));
  synth::Dataset corpus = world.make_auxiliary_corpus(
      rn50.pretrain_concepts, config.images_per_class, rng);
  nn::Classifier model(rn50.encoder, rn50.feature_dim, corpus.num_classes(),
                       rng);
  nn::FitConfig fit;
  fit.epochs = config.epochs + 2;
  fit.batch_size = config.batch_size;
  fit.freeze_encoder = true;
  fit.optimizer = nn::FitConfig::Opt::kSgd;
  fit.sgd.lr = 0.05;
  fit.sgd.momentum = config.momentum;
  nn::fit_hard(model, corpus.inputs, corpus.labels, fit, rng);

  const tensor::Tensor weights =
      tensor::transpose(model.head().weight().value);
  const tensor::Tensor& biases = model.head().bias().value;
  ASSERT_TRUE(tensor::same_shape(head.weights, weights));
  ASSERT_TRUE(tensor::same_shape(head.biases, biases));
  EXPECT_EQ(std::memcmp(head.weights.data().data(), weights.data().data(),
                        weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(head.biases.data().data(), biases.data().data(),
                        biases.size() * sizeof(float)),
            0);
}

TEST(Zoo, DiskCacheRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "taglets_test_cache").string();
  std::filesystem::remove_all(dir);
  auto& world = taglets::testing::small_world();
  PretrainConfig pc = taglets::testing::small_pretrain_config();
  pc.epochs = 2;  // keep this test fast

  Zoo first(&world, pc, dir);
  const Pretrained& trained = first.get(Kind::kRn50S);

  Zoo second(&world, pc, dir);
  const Pretrained& cached = second.get(Kind::kRn50S);

  EXPECT_EQ(cached.pretrain_concepts, trained.pretrain_concepts);
  EXPECT_DOUBLE_EQ(cached.final_train_accuracy, trained.final_train_accuracy);
  // Identical encoder outputs.
  util::Rng rng(3);
  tensor::Tensor img = world.sample_image(4, synth::Domain::kNatural, rng);
  tensor::Tensor batch = img.reshape(1, img.size());
  nn::Sequential ea = trained.encoder;
  nn::Sequential eb = cached.encoder;
  tensor::Tensor fa = ea.forward(batch, false);
  tensor::Tensor fb = eb.forward(batch, false);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_FLOAT_EQ(fa.data()[i], fb.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Zoo, RejectsNullWorld) {
  EXPECT_THROW(Zoo(nullptr, PretrainConfig{}, std::string{}),
               std::invalid_argument);
}

TEST(Zoo, ConcurrentColdGetPretrainsOnceAndReturnsStableReferences) {
  // TSan regression for the unsynchronized map in Zoo::get: N threads
  // hammer a cold zoo; pretraining for each Kind must run exactly once
  // and every caller must receive the same (stable) object.
  auto& world = taglets::testing::small_world();
  PretrainConfig pc = taglets::testing::small_pretrain_config();
  pc.epochs = 2;  // keep the hammer fast
  Zoo zoo(&world, pc, std::string{});  // no disk cache

  const auto pretrained_before = obs::MetricsRegistry::global()
                                     .counter("backbone.pretrained_total")
                                     .value();
  constexpr int kThreads = 8;
  std::vector<const Pretrained*> rn50(kThreads, nullptr);
  std::vector<const Pretrained*> bit(kThreads, nullptr);
  std::vector<const ReferenceHead*> heads(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Alternate the first touch so both Kinds race from cold.
        if (t % 2 == 0) {
          rn50[t] = &zoo.get(Kind::kRn50S);
          bit[t] = &zoo.get(Kind::kBitS);
        } else {
          bit[t] = &zoo.get(Kind::kBitS);
          rn50[t] = &zoo.get(Kind::kRn50S);
        }
        heads[t] = &zoo.zsl_reference();
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(rn50[t], rn50[0]) << "thread " << t;
    EXPECT_EQ(bit[t], bit[0]) << "thread " << t;
    EXPECT_EQ(heads[t], heads[0]) << "thread " << t;
  }
  // Exactly one pretraining per Kind despite 8 concurrent callers.
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("backbone.pretrained_total")
                .value(),
            pretrained_before + 2);
}

TEST(Zoo, QuantizeKnobHandlesNegativeHugeAndNan) {
  // Regression for the fingerprint UB: static_cast<uint64_t> of a
  // negative double is undefined; quantize_knob rounds through a
  // checked signed intermediate instead.
  EXPECT_EQ(quantize_knob(0.0, 1e6), 0u);
  EXPECT_EQ(quantize_knob(1.5, 1e6), 1500000u);
  EXPECT_EQ(quantize_knob(-1.5, 1e6),
            static_cast<std::uint64_t>(std::int64_t{-1500000}));
  // Rounding, not truncation, so nearby knobs stay distinct.
  EXPECT_NE(quantize_knob(1.0000004, 1e6), quantize_knob(1.0000016, 1e6));
  // Saturation at the int64 range ends instead of llround UB.
  EXPECT_EQ(quantize_knob(1e300, 1e6),
            static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(quantize_knob(-1e300, 1e6),
            static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::min()));
  // NaN maps to a fixed sentinel — deterministic, and distinct from 0.
  const double nan = std::nan("");
  EXPECT_EQ(quantize_knob(nan, 1e6), 0x7FF8000000000000ULL);
  EXPECT_EQ(quantize_knob(1.0, nan), 0x7FF8000000000000ULL);

  // Negative knobs produce distinct fingerprint components (the old
  // cast collapsed them unpredictably).
  EXPECT_NE(quantize_knob(-0.25, 1e6), quantize_knob(-0.5, 1e6));
  EXPECT_NE(quantize_knob(-0.25, 1e6), quantize_knob(0.25, 1e6));
}

}  // namespace
}  // namespace taglets::backbone
