#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "nn/classifier.hpp"
#include "nn/grad_check.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::nn {
namespace {

using tensor::Tensor;

Tensor random_batch(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(tensor::same_shape(a, b));
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(float)),
            0);
}

void expect_same_grads(const std::vector<Parameter*>& got,
                       const std::vector<Parameter*>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_bits(got[i]->grad, want[i]->grad);
  }
}

// ----------------------------------------------------------------- init

TEST(Init, KaimingVarianceRoughlyCorrect) {
  util::Rng rng(3);
  Tensor w = kaiming_normal(200, 100, rng);
  double sq = 0.0;
  for (float x : w.data()) sq += static_cast<double>(x) * x;
  const double var = sq / static_cast<double>(w.size());
  EXPECT_NEAR(var, 2.0 / 200.0, 2e-3);
}

TEST(Init, XavierWithinBounds) {
  util::Rng rng(3);
  Tensor w = xavier_uniform(50, 30, rng);
  const double bound = std::sqrt(6.0 / 80.0);
  for (float x : w.data()) {
    EXPECT_LE(std::abs(x), bound + 1e-6);
  }
}

// --------------------------------------------------------------- layers

TEST(Linear, ForwardMatchesManualComputation) {
  Tensor w = Tensor::from_matrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({0.5f, -0.5f, 0.0f});
  Linear layer(w, b);
  Tensor x = Tensor::from_matrix(1, 2, {1.0f, 2.0f});
  Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 * 1 + 2 * 4 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 1 * 2 + 2 * 5 - 0.5f);
}

TEST(Linear, RejectsMismatchedBias) {
  EXPECT_THROW(Linear(Tensor::zeros(2, 3), Tensor::zeros(2)),
               std::invalid_argument);
}

TEST(Linear, GradCheck) {
  util::Rng rng(7);
  Linear layer(4, 3, rng);
  Tensor x = random_batch(5, 4, rng);
  std::vector<std::size_t> labels{0, 1, 2, 0, 1};

  auto loss_fn = [&] {
    Tensor logits = layer.forward(x, true);
    return cross_entropy(logits, labels).loss;
  };
  // Populate analytic grads.
  for (Parameter* p : layer.parameters()) p->zero_grad();
  Tensor logits = layer.forward(x, true);
  auto loss = cross_entropy(logits, labels);
  layer.backward(loss.grad_logits);
  EXPECT_LT(max_param_grad_error(layer.parameters(), loss_fn), 2e-2);
}

TEST(ReLU, ForwardAndBackwardMask) {
  ReLU relu;
  Tensor x = Tensor::from_matrix(1, 4, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
  Tensor g = Tensor::full(1, 4, 1.0f);
  Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 1.0f);
}

TEST(Tanh, GradMatchesDerivative) {
  Tanh tanh_layer;
  Tensor x = Tensor::from_matrix(1, 2, {0.5f, -1.0f});
  Tensor y = tanh_layer.forward(x, true);
  Tensor g = Tensor::full(1, 2, 1.0f);
  Tensor dx = tanh_layer.backward(g);
  EXPECT_NEAR(dx.at(0, 0), 1.0f - y.at(0, 0) * y.at(0, 0), 1e-6);
}

TEST(Dropout, IdentityAtEval) {
  util::Rng rng(5);
  Dropout dropout(0.5f, rng);
  Tensor x = Tensor::full(4, 4, 1.0f);
  Tensor eval = dropout.forward(x, false);
  for (float v : eval.data()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Dropout, TrainingMasksAndRescales) {
  util::Rng rng(5);
  Dropout dropout(0.5f, rng);
  Tensor x = Tensor::full(20, 20, 1.0f);
  Tensor out = dropout.forward(x, true);
  std::size_t zeros = 0;
  for (float v : out.data()) {
    if (v == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scaling
  }
  EXPECT_GT(zeros, 100u);
  EXPECT_LT(zeros, 300u);
}

TEST(Dropout, RejectsInvalidRate) {
  util::Rng rng(5);
  EXPECT_THROW(Dropout(1.0f, rng), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f, rng), std::invalid_argument);
}

// ------------------------------------------------------------ sequential

TEST(Sequential, MlpGradCheck) {
  util::Rng rng(11);
  Sequential mlp = make_mlp({3, 6, 4}, rng);
  Tensor x = random_batch(4, 3, rng);
  std::vector<std::size_t> labels{0, 1, 2, 3};

  auto loss_fn = [&] {
    Tensor logits = mlp.forward(x, true);
    return cross_entropy(logits, labels).loss;
  };
  mlp.zero_grad();
  Tensor logits = mlp.forward(x, true);
  auto loss = cross_entropy(logits, labels);
  mlp.backward(loss.grad_logits);
  EXPECT_LT(max_param_grad_error(mlp.parameters(), loss_fn), 5e-2);
}

TEST(Sequential, InputGradCheck) {
  util::Rng rng(13);
  Sequential mlp = make_mlp({3, 5, 2}, rng);
  Tensor x = random_batch(3, 3, rng);
  std::vector<std::size_t> labels{0, 1, 0};

  mlp.zero_grad();
  Tensor logits = mlp.forward(x, true);
  auto loss = cross_entropy(logits, labels);
  Tensor dx = mlp.backward(loss.grad_logits);

  auto loss_fn = [&] {
    Tensor l = mlp.forward(x, true);
    return cross_entropy(l, labels).loss;
  };
  EXPECT_LT(max_input_grad_error(x, dx, loss_fn), 5e-2);
}

// backward_params must accumulate exactly the parameter gradients that
// backward does (dW += x^T g, db += column sums of g); it only skips
// the input gradient.
TEST(Linear, BackwardParamsMatchesBackwardBitwise) {
  util::Rng rng(15);
  Linear full(7, 5, rng);
  Linear params_only(full.weight().value, full.bias().value);
  Tensor x = random_batch(6, 7, rng);
  Tensor g = random_batch(6, 5, rng);
  x.at(2, 3) = 0.0f;  // a zero-skip in dW
  Tensor want_dw = Tensor::zeros(7, 5);
  Tensor want_db = Tensor::zeros(5);
  for (int step = 0; step < 2; ++step) {  // accumulates, never resets
    full.forward(x, true);
    full.backward(g);
    params_only.forward(x, true);
    params_only.backward_params(g);
    tensor::add_scaled_inplace(want_dw, tensor::matmul_tn(x, g), 1.0f);
    tensor::add_scaled_inplace(want_db, tensor::column_sums(g), 1.0f);
  }
  expect_same_grads(params_only.parameters(), full.parameters());
  expect_same_bits(params_only.weight().grad, want_dw);
  expect_same_bits(params_only.bias().grad, want_db);
}

TEST(Sequential, BackwardParamsMatchesBackwardBitwise) {
  util::Rng rng(17);
  Sequential full = make_mlp({9, 12, 7, 4}, rng, /*dropout=*/0.2f);
  full.add(std::make_unique<Tanh>());
  Sequential params_only = full;  // same weights and dropout RNG state
  Tensor x = random_batch(5, 9, rng);
  Tensor g = random_batch(5, 4, rng);
  full.zero_grad();
  full.forward(x, true);
  full.backward(g);
  params_only.zero_grad();
  params_only.forward(x, true);
  params_only.backward_params(g);
  expect_same_grads(params_only.parameters(), full.parameters());

  Sequential empty;
  empty.backward_params(g);  // no layers: nothing to do
}

TEST(Sequential, CopyIsDeep) {
  util::Rng rng(17);
  Sequential a = make_mlp({2, 3, 2}, rng);
  Sequential b = a;  // copy
  // Mutate a's first parameter; b must be unaffected.
  a.parameters()[0]->value.fill(0.0f);
  bool b_nonzero = false;
  for (float v : b.parameters()[0]->value.data()) {
    if (v != 0.0f) b_nonzero = true;
  }
  EXPECT_TRUE(b_nonzero);
}

TEST(Sequential, SaveLoadRoundTrip) {
  util::Rng rng(19);
  Sequential mlp = make_mlp({4, 8, 3}, rng, /*dropout=*/0.2f);
  std::stringstream buffer;
  mlp.save(buffer);
  util::Rng load_rng(0);
  Sequential loaded = Sequential::load(buffer, load_rng);
  ASSERT_EQ(loaded.layer_count(), mlp.layer_count());
  Tensor x = random_batch(2, 4, rng);
  Tensor ya = mlp.forward(x, false);
  Tensor yb = loaded.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Sequential, MakeMlpValidatesDims) {
  util::Rng rng(2);
  EXPECT_THROW(make_mlp({4}, rng), std::invalid_argument);
}

// ----------------------------------------------------------------- loss

TEST(Loss, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros(2, 4);
  std::vector<std::size_t> labels{0, 3};
  auto result = cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
}

TEST(Loss, CrossEntropyGradCheck) {
  util::Rng rng(23);
  Tensor logits = random_batch(3, 5, rng);
  std::vector<std::size_t> labels{4, 2, 0};
  auto result = cross_entropy(logits, labels);
  auto loss_fn = [&] { return cross_entropy(logits, labels).loss; };
  EXPECT_LT(max_input_grad_error(logits, result.grad_logits, loss_fn), 1e-2);
}

TEST(Loss, SoftCrossEntropyMatchesHardOnOneHot) {
  util::Rng rng(29);
  Tensor logits = random_batch(4, 3, rng);
  std::vector<std::size_t> labels{0, 1, 2, 1};
  Tensor targets = Tensor::zeros(4, 3);
  for (std::size_t i = 0; i < 4; ++i) targets.at(i, labels[i]) = 1.0f;
  auto hard = cross_entropy(logits, labels);
  auto soft = soft_cross_entropy(logits, targets);
  EXPECT_NEAR(hard.loss, soft.loss, 1e-6);
  for (std::size_t i = 0; i < hard.grad_logits.size(); ++i) {
    EXPECT_NEAR(hard.grad_logits.data()[i], soft.grad_logits.data()[i], 1e-6);
  }
}

TEST(Loss, SoftCrossEntropyGradCheck) {
  util::Rng rng(31);
  Tensor logits = random_batch(3, 4, rng);
  Tensor targets = tensor::softmax(random_batch(3, 4, rng));
  auto result = soft_cross_entropy(logits, targets);
  auto loss_fn = [&] { return soft_cross_entropy(logits, targets).loss; };
  EXPECT_LT(max_input_grad_error(logits, result.grad_logits, loss_fn), 1e-2);
}

TEST(Loss, MseGradCheck) {
  util::Rng rng(37);
  Tensor pred = random_batch(2, 3, rng);
  Tensor target = random_batch(2, 3, rng);
  auto result = mse(pred, target);
  auto loss_fn = [&] { return mse(pred, target).loss; };
  EXPECT_LT(max_input_grad_error(pred, result.grad_logits, loss_fn), 1e-2);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits = Tensor::from_matrix(3, 2, {1, 0, 0, 1, 1, 0});
  std::vector<std::size_t> labels{0, 1, 1};
  EXPECT_NEAR(accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Loss, LabelOutOfRangeThrows) {
  Tensor logits = Tensor::zeros(1, 2);
  std::vector<std::size_t> labels{5};
  EXPECT_THROW(cross_entropy(logits, labels), taglets::util::ContractViolation);
}

// ------------------------------------------------------------ optimizer

TEST(Sgd, PlainStepMatchesClosedForm) {
  Parameter p(Tensor::from_vector({1.0f}));
  Sgd::Config config;
  config.lr = 0.1;
  config.momentum = 0.0;
  Sgd opt({&p}, config);
  p.grad[0] = 2.0f;
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 2.0f, 1e-6);
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);  // cleared
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p(Tensor::from_vector({0.0f}));
  Sgd::Config config;
  config.lr = 1.0;
  config.momentum = 0.5;
  Sgd opt({&p}, config);
  p.grad[0] = 1.0f;
  opt.step();  // v=1, x=-1
  p.grad[0] = 1.0f;
  opt.step();  // v=1.5, x=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-6);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  Parameter p(Tensor::from_vector({10.0f}));
  Sgd::Config config;
  config.lr = 0.1;
  config.momentum = 0.0;
  config.weight_decay = 0.5;
  Sgd opt({&p}, config);
  p.grad[0] = 0.0f;
  opt.step();
  EXPECT_LT(p.value[0], 10.0f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter p(Tensor::from_vector({5.0f}));
  Adam::Config config;
  config.lr = 0.3;
  Adam opt({&p}, config);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * p.value[0];  // d/dx x^2
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 0.0f, 1e-2);
}

// ------------------------------------------------------------ scheduler

TEST(Scheduler, StepDecayMilestones) {
  StepDecayLr schedule(1.0, {0.5, 0.75}, 0.1);
  EXPECT_DOUBLE_EQ(schedule.rate(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(schedule.rate(49, 100), 1.0);
  EXPECT_DOUBLE_EQ(schedule.rate(50, 100), 0.1);
  EXPECT_NEAR(schedule.rate(75, 100), 0.01, 1e-12);
  EXPECT_THROW(StepDecayLr(1.0, {0.8, 0.5}), std::invalid_argument);
}

TEST(Scheduler, FixMatchCosineMatchesFormula) {
  FixMatchCosineLr schedule(2.0);
  EXPECT_NEAR(schedule.rate(0, 100), 2.0, 1e-12);
  EXPECT_NEAR(schedule.rate(50, 100), 2.0 * std::cos(7.0 * M_PI / 32.0), 1e-9);
  // At k = K the rate is still positive (7/16 < 1/2).
  EXPECT_GT(schedule.rate(100, 100), 0.0);
}

TEST(Scheduler, HalfCosineMatchesFormula) {
  HalfCosineLr schedule(2.0);
  EXPECT_NEAR(schedule.rate(0, 100), 2.0, 1e-12);
  EXPECT_NEAR(schedule.rate(50, 100), 1.0, 1e-9);
  EXPECT_NEAR(schedule.rate(100, 100), 0.0, 1e-9);
}

TEST(Scheduler, WarmupRampsLinearlyThenDelegates) {
  auto after = std::make_unique<ConstantLr>(1.0);
  WarmupLr schedule(10, std::move(after));
  EXPECT_NEAR(schedule.rate(0, 110), 0.1, 1e-12);
  EXPECT_NEAR(schedule.rate(4, 110), 0.5, 1e-12);
  EXPECT_NEAR(schedule.rate(9, 110), 1.0, 1e-12);
  EXPECT_NEAR(schedule.rate(50, 110), 1.0, 1e-12);
  EXPECT_THROW(WarmupLr(5, nullptr), std::invalid_argument);
}

// ------------------------------------------------------------ classifier

TEST(Classifier, PredictProbaRowsSumToOne) {
  util::Rng rng(41);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  Tensor x = random_batch(4, 4, rng);
  Tensor p = model.predict_proba(x);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (float v : p.row(i)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Classifier, FrozenEncoderExcludesEncoderParams) {
  util::Rng rng(43);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  const std::size_t all = model.parameters().size();
  model.set_encoder_frozen(true);
  EXPECT_LT(model.parameters().size(), all);
  EXPECT_EQ(model.parameters().size(), 2u);  // head weight + bias
}

TEST(Classifier, BackwardMatchesLayerByLayerBackpropBitwise) {
  util::Rng rng(45);
  Sequential encoder = make_mlp({6, 8, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  Classifier reference = model;
  Tensor x = random_batch(4, 6, rng);
  Tensor g = random_batch(4, 3, rng);
  model.zero_grad();
  model.logits(x, true);
  model.backward(g);
  reference.zero_grad();
  reference.logits(x, true);
  reference.encoder().backward(reference.head().backward(g));
  expect_same_grads(model.parameters(), reference.parameters());
}

TEST(Classifier, FrozenBackwardMatchesHeadGradsAndLeavesEncoderAlone) {
  util::Rng rng(46);
  Sequential encoder = make_mlp({6, 8, 5}, rng);
  Classifier frozen(encoder, 5, 3, rng);
  Classifier full = frozen;
  Tensor x = random_batch(4, 6, rng);
  Tensor g = random_batch(4, 3, rng);
  full.zero_grad();
  full.logits(x, true);
  full.backward(g);

  frozen.set_encoder_frozen(true);
  frozen.zero_grad();
  for (Parameter* p : frozen.encoder().parameters()) p->grad.fill(0.25f);
  frozen.logits(x, true);
  frozen.backward(g);
  expect_same_grads(frozen.head().parameters(), full.head().parameters());
  for (Parameter* p : frozen.encoder().parameters()) {
    for (float v : p->grad.data()) ASSERT_EQ(v, 0.25f);
  }
}

TEST(Classifier, SaveLoadPreservesPredictions) {
  util::Rng rng(53);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  std::stringstream buffer;
  model.save(buffer);
  util::Rng load_rng(0);
  Classifier loaded = Classifier::load(buffer, load_rng);
  Tensor x = random_batch(3, 4, rng);
  auto a = model.predict(x);
  auto b = loaded.predict(x);
  EXPECT_EQ(a, b);
}

TEST(Classifier, ParameterCountMatchesArchitecture) {
  util::Rng rng(59);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  // (4*6 + 6) + (6*5 + 5) + (5*3 + 3)
  EXPECT_EQ(model.parameter_count(), 24u + 6u + 30u + 5u + 15u + 3u);
}

// -------------------------------------------------------------- trainer

TEST(Trainer, MakeBatchesCoversAllIndicesOnce) {
  util::Rng rng(61);
  auto batches = make_batches(10, 3, rng);
  ASSERT_EQ(batches.size(), 4u);  // 3+3+3+1
  std::set<std::size_t> seen;
  for (const auto& b : batches) {
    for (std::size_t i : b) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_THROW(make_batches(5, 0, rng), std::invalid_argument);
}

TEST(Trainer, MinStepsRaisesEpochs) {
  util::Rng rng(67);
  Sequential encoder = make_mlp({2, 4, 3}, rng);
  Classifier model(encoder, 3, 2, rng);
  Tensor x = random_batch(4, 2, rng);
  std::vector<std::size_t> y{0, 1, 0, 1};
  FitConfig config;
  config.epochs = 1;
  config.batch_size = 4;
  config.min_steps = 25;
  auto report = fit_hard(model, x, y, config, rng);
  EXPECT_GE(report.steps, 25u);
}

TEST(Trainer, FitHardLearnsSeparableData) {
  util::Rng rng(71);
  // Two well-separated Gaussian blobs.
  Tensor x = Tensor::zeros(60, 2);
  std::vector<std::size_t> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    const bool positive = i % 2 == 0;
    y[i] = positive ? 1 : 0;
    x.at(i, 0) = static_cast<float>(rng.normal(positive ? 2.0 : -2.0, 0.3));
    x.at(i, 1) = static_cast<float>(rng.normal(positive ? -1.0 : 1.0, 0.3));
  }
  Sequential encoder = make_mlp({2, 8, 4}, rng);
  Classifier model(encoder, 4, 2, rng);
  FitConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  config.sgd.lr = 0.05;
  auto report = fit_hard(model, x, y, config, rng);
  EXPECT_GT(evaluate_accuracy(model, x, y), 0.95);
  EXPECT_LT(report.final_loss(), report.epoch_loss.front());
}

TEST(Trainer, FitSoftLearnsOneHotTargets) {
  util::Rng rng(73);
  Tensor x = Tensor::zeros(40, 2);
  Tensor targets = Tensor::zeros(40, 2);
  std::vector<std::size_t> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool positive = i % 2 == 0;
    y[i] = positive ? 1 : 0;
    targets.at(i, y[i]) = 1.0f;
    x.at(i, 0) = static_cast<float>(rng.normal(positive ? 2.0 : -2.0, 0.3));
    x.at(i, 1) = static_cast<float>(rng.normal(0.0, 0.3));
  }
  Sequential encoder = make_mlp({2, 8, 4}, rng);
  Classifier model(encoder, 4, 2, rng);
  FitConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  config.sgd.lr = 0.05;
  fit_soft(model, x, targets, config, rng);
  EXPECT_GT(evaluate_accuracy(model, x, y), 0.9);
}

TEST(Trainer, ClipGradNormBoundsGlobalNorm) {
  Parameter a(Tensor::from_vector({3.0f}));
  Parameter b(Tensor::from_vector({4.0f}));
  a.grad[0] = 3.0f;
  b.grad[0] = 4.0f;  // global norm 5
  std::vector<Parameter*> params{&a, &b};
  clip_grad_norm(params, 1.0);
  const double norm = std::sqrt(a.grad[0] * a.grad[0] + b.grad[0] * b.grad[0]);
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(Trainer, ShapeValidation) {
  util::Rng rng(79);
  Sequential encoder = make_mlp({2, 3, 2}, rng);
  Classifier model(encoder, 2, 2, rng);
  Tensor x = random_batch(3, 2, rng);
  std::vector<std::size_t> y{0, 1};  // mismatched
  FitConfig config;
  EXPECT_THROW(fit_hard(model, x, y, config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace taglets::nn
