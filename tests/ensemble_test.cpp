#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ensemble/distill.hpp"
#include "ensemble/ensemble.hpp"
#include "ensemble/servable.hpp"
#include "nn/trainer.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace taglets::ensemble {
namespace {

using modules::Taglet;
using tensor::Tensor;

/// A taglet whose logits are a fixed linear map — fully controllable.
Taglet make_linear_taglet(const std::string& name, const Tensor& weight,
                          const Tensor& bias) {
  nn::Sequential identity_encoder;
  util::Rng rng(1);
  // Encoder = identity via a Linear with identity weights.
  nn::Linear identity(Tensor::identity(weight.rows()),
                      Tensor::zeros(weight.rows()));
  identity_encoder.add(std::make_unique<nn::Linear>(identity));
  return Taglet(name,
                nn::Classifier(identity_encoder, nn::Linear(weight, bias)));
}

/// A taglet that deterministically prefers class `c` for every input.
Taglet make_constant_taglet(const std::string& name, std::size_t input_dim,
                            std::size_t num_classes, std::size_t c,
                            float confidence = 5.0f) {
  Tensor weight = Tensor::zeros(input_dim, num_classes);
  Tensor bias = Tensor::zeros(num_classes);
  bias[c] = confidence;
  return make_linear_taglet(name, weight, bias);
}

// ------------------------------------------------------------- ensemble

TEST(Ensemble, VoteMatrixShape) {
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("a", 3, 4, 0));
  taglets.push_back(make_constant_taglet("b", 3, 4, 1));
  Tensor example = Tensor::from_vector({0.1f, 0.2f, 0.3f});
  Tensor votes = vote_matrix(taglets, example);
  EXPECT_EQ(votes.rows(), 2u);
  EXPECT_EQ(votes.cols(), 4u);
  for (std::size_t t = 0; t < 2; ++t) {
    double sum = 0.0;
    for (float v : votes.row(t)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ensemble, ProbaIsMeanOfTagletProbas) {
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("a", 2, 3, 0, 100.0f));
  taglets.push_back(make_constant_taglet("b", 2, 3, 1, 100.0f));
  Tensor inputs = Tensor::zeros(4, 2);
  Tensor proba = ensemble_proba(taglets, inputs);
  // Each taglet is fully confident on a different class -> mean 0.5/0.5.
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    EXPECT_NEAR(proba.at(i, 0), 0.5f, 1e-4);
    EXPECT_NEAR(proba.at(i, 1), 0.5f, 1e-4);
    EXPECT_NEAR(proba.at(i, 2), 0.0f, 1e-4);
  }
}

TEST(Ensemble, MajorityWins) {
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("a", 2, 3, 2));
  taglets.push_back(make_constant_taglet("b", 2, 3, 2));
  taglets.push_back(make_constant_taglet("c", 2, 3, 0));
  Tensor inputs = Tensor::zeros(5, 2);
  auto predictions = ensemble_predict(taglets, inputs);
  for (std::size_t p : predictions) EXPECT_EQ(p, 2u);
}

TEST(Ensemble, ConfidentMinorityCanOutvoteUncertainMajority) {
  std::vector<Taglet> taglets;
  // Two barely-confident voters for class 0, one very confident for 1.
  taglets.push_back(make_constant_taglet("a", 2, 2, 0, 0.1f));
  taglets.push_back(make_constant_taglet("b", 2, 2, 0, 0.1f));
  taglets.push_back(make_constant_taglet("c", 2, 2, 1, 10.0f));
  Tensor inputs = Tensor::zeros(1, 2);
  auto predictions = ensemble_predict(taglets, inputs);
  EXPECT_EQ(predictions[0], 1u);  // soft voting, not majority voting
}

TEST(Ensemble, AccuracyAgainstLabels) {
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("a", 2, 2, 1));
  Tensor inputs = Tensor::zeros(4, 2);
  std::vector<std::size_t> labels{1, 1, 0, 1};
  EXPECT_NEAR(ensemble_accuracy(taglets, inputs, labels), 0.75, 1e-9);
}

TEST(Ensemble, EmptyTagletsThrow) {
  std::vector<Taglet> none;
  Tensor inputs = Tensor::zeros(1, 2);
  EXPECT_THROW(ensemble_proba(none, inputs), std::invalid_argument);
}

TEST(Ensemble, VoteMatrixRejectsMismatchedClassCounts) {
  // The vote matrix is sized from taglet 0; a taglet emitting a
  // different class count used to write out of bounds.
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("four-classes", 3, 4, 0));
  taglets.push_back(make_constant_taglet("three-classes", 3, 3, 1));
  Tensor example = Tensor::from_vector({0.1f, 0.2f, 0.3f});
  EXPECT_THROW(vote_matrix(taglets, example), std::invalid_argument);
  EXPECT_THROW(ensemble_proba(taglets, Tensor::zeros(2, 3)),
               std::invalid_argument);
}

// -------------------------------------------------------------- distill

TEST(Distill, OneHotAndHarden) {
  std::vector<std::size_t> labels{2, 0};
  Tensor oh = one_hot(labels, 3);
  EXPECT_FLOAT_EQ(oh.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(oh.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(oh.at(0, 0), 0.0f);
  std::vector<std::size_t> bad{7};
  EXPECT_THROW(one_hot(bad, 3), taglets::util::ContractViolation);

  Tensor soft = Tensor::from_matrix(2, 2, {0.4f, 0.6f, 0.9f, 0.1f});
  Tensor hard = harden(soft);
  EXPECT_FLOAT_EQ(hard.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(hard.at(1, 0), 1.0f);
}

TEST(Distill, EndModelLearnsFromPseudoLabels) {
  auto task = taglets::testing::small_task(/*shots=*/2);
  auto& zoo = taglets::testing::small_zoo();
  const auto& bb = zoo.get(backbone::Kind::kRn50S);

  // Oracle pseudo labels: ground truth one-hot on the unlabeled pool.
  Tensor pseudo = one_hot(task.unlabeled_true_labels, task.num_classes());
  EndModelConfig config;
  config.min_steps = 400;
  util::Rng rng(5);
  nn::Classifier model = train_end_model(task, pseudo, bb.encoder,
                                         bb.feature_dim, config, rng, 0.5);
  // With oracle labels the end model must do very well.
  EXPECT_GT(nn::evaluate_accuracy(model, task.test_inputs, task.test_labels),
            0.6);
}

TEST(Distill, ValidatesPseudoLabelRows) {
  auto task = taglets::testing::small_task(1);
  auto& zoo = taglets::testing::small_zoo();
  const auto& bb = zoo.get(backbone::Kind::kRn50S);
  Tensor wrong = Tensor::zeros(3, task.num_classes());
  EndModelConfig config;
  util::Rng rng(5);
  EXPECT_THROW(train_end_model(task, wrong, bb.encoder, bb.feature_dim,
                               config, rng),
               std::invalid_argument);
}

// ------------------------------------------------------------- servable

TEST(Servable, PredictReturnsIndexAndName) {
  Taglet taglet = make_constant_taglet("m", 3, 2, 1);
  ServableModel model(taglet.model(), {"cat", "dog"});
  Tensor example = Tensor::from_vector({0.0f, 0.0f, 0.0f});
  EXPECT_EQ(model.predict(example), 1u);
  EXPECT_EQ(model.predict_name(example), "dog");
  EXPECT_EQ(model.num_classes(), 2u);
  EXPECT_GT(model.parameter_count(), 0u);
}

TEST(Servable, RejectsNameCountMismatch) {
  Taglet taglet = make_constant_taglet("m", 3, 2, 0);
  EXPECT_THROW(ServableModel(taglet.model(), {"only-one"}),
               std::invalid_argument);
}

TEST(Servable, SaveLoadRoundTrip) {
  Taglet taglet = make_constant_taglet("m", 3, 2, 1);
  ServableModel model(taglet.model(), {"cat", "dog"});
  const std::string path =
      (std::filesystem::temp_directory_path() / "taglets_servable.bin")
          .string();
  model.save(path);
  ServableModel loaded = ServableModel::load(path);
  EXPECT_EQ(loaded.class_names(), model.class_names());
  Tensor example = Tensor::from_vector({0.5f, -0.5f, 0.25f});
  EXPECT_EQ(loaded.predict(example), model.predict(example));
  std::filesystem::remove(path);
  EXPECT_THROW(ServableModel::load("/nonexistent/path.bin"),
               std::runtime_error);
}

TEST(Servable, RoundTripPredictionsAreBitwiseIdentical) {
  // Weights round-trip exactly, so probabilities must too — serving
  // the reloaded artifact is indistinguishable from the trained model.
  util::Rng rng(33);
  Tensor weight = Tensor::zeros(5, 4);
  for (float& x : weight.data()) x = static_cast<float>(rng.normal());
  Taglet taglet = make_linear_taglet("m", weight, Tensor::zeros(4));
  ServableModel model(taglet.model(), {"a", "b", "c", "d"});
  const std::string path =
      (std::filesystem::temp_directory_path() / "taglets_servable_rt.bin")
          .string();
  model.save(path);
  ServableModel loaded = ServableModel::load(path);
  std::filesystem::remove(path);

  Tensor batch = Tensor::zeros(7, 5);
  for (float& x : batch.data()) x = static_cast<float>(rng.normal());
  const Tensor before = model.predict_proba(batch);
  const Tensor after = loaded.predict_proba(batch);
  ASSERT_TRUE(tensor::same_shape(before, after));
  const auto b = before.data();
  const auto a = after.data();
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i], a[i]) << "element " << i;  // bitwise, not NEAR
  }
  EXPECT_EQ(loaded.predict_batch(batch), model.predict_batch(batch));
}

TEST(Servable, LoadRejectsCorruptedFiles) {
  Taglet taglet = make_constant_taglet("m", 3, 2, 1);
  ServableModel model(taglet.model(), {"cat", "dog"});
  const auto dir = std::filesystem::temp_directory_path();
  const std::string good = (dir / "taglets_servable_good.bin").string();
  model.save(good);

  // Not a servable file at all: bad magic, error names the path.
  const std::string garbage = (dir / "taglets_servable_garbage.bin").string();
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a model";
  }
  try {
    ServableModel::load(garbage);
    FAIL() << "expected load to reject bad magic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(garbage), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }

  // Truncation anywhere in the payload is detected.
  const auto full_size = std::filesystem::file_size(good);
  const std::string truncated = (dir / "taglets_servable_trunc.bin").string();
  for (std::uintmax_t keep : {full_size / 4, full_size / 2, full_size - 1}) {
    std::filesystem::copy_file(
        good, truncated, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(truncated, keep);
    EXPECT_THROW(ServableModel::load(truncated), std::runtime_error)
        << "kept " << keep << " of " << full_size << " bytes";
  }

  // A corrupt header (absurd class count) is rejected before any
  // allocation of that size is attempted.
  const std::string bad_count = (dir / "taglets_servable_count.bin").string();
  {
    std::filesystem::copy_file(
        good, bad_count, std::filesystem::copy_options::overwrite_existing);
    std::fstream f(bad_count,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);  // right after the magic
    const std::uint32_t huge = 0xFFFFFFFFu;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW(ServableModel::load(bad_count), std::runtime_error);

  std::filesystem::remove(good);
  std::filesystem::remove(garbage);
  std::filesystem::remove(truncated);
  std::filesystem::remove(bad_count);
}

TEST(Servable, LoadRejectsClassCountMismatchedWithClassifier) {
  // Hand-craft a file whose class-name table disagrees with the
  // classifier's output dimension (2 classes): same layout save() uses.
  Taglet taglet = make_constant_taglet("m", 3, 2, 1);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "taglets_servable_mismatch.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write("TGS1", 4);
    const std::uint32_t n = 3;
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const std::string name : {"a", "b", "c"}) {
      const std::uint32_t len = static_cast<std::uint32_t>(name.size());
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(name.data(), len);
    }
    taglet.model().save(out);
  }
  try {
    ServableModel::load(path);
    FAIL() << "expected load to reject the class-count mismatch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("does not match"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Servable, BatchProbaShape) {
  Taglet taglet = make_constant_taglet("m", 3, 4, 2);
  ServableModel model(taglet.model(), {"a", "b", "c", "d"});
  Tensor batch = Tensor::zeros(5, 3);
  Tensor proba = model.predict_proba(batch);
  EXPECT_EQ(proba.rows(), 5u);
  EXPECT_EQ(proba.cols(), 4u);
}

TEST(Servable, PredictBatchMatchesPerRowPredict) {
  // A weight matrix that makes the argmax depend on the input row.
  util::Rng rng(21);
  Tensor weight = Tensor::zeros(3, 4);
  for (float& x : weight.data()) x = static_cast<float>(rng.normal());
  Taglet taglet = make_linear_taglet("m", weight, Tensor::zeros(4));
  ServableModel model(taglet.model(), {"a", "b", "c", "d"});
  Tensor batch = Tensor::zeros(9, 3);
  for (float& x : batch.data()) x = static_cast<float>(rng.normal());
  const auto labels = model.predict_batch(batch);
  ASSERT_EQ(labels.size(), 9u);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], model.predict(batch.row_copy(i))) << "row " << i;
  }
  EXPECT_TRUE(model.predict_batch(Tensor::zeros(0, 3)).empty());
}


// ----------------------------------------------------------- diagnostics

TEST(PseudoLabelStats, UnanimousConfidentEnsemble) {
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("a", 2, 3, 1, 50.0f));
  taglets.push_back(make_constant_taglet("b", 2, 3, 1, 50.0f));
  Tensor inputs = Tensor::zeros(6, 2);
  auto stats = pseudo_label_stats(taglets, inputs);
  EXPECT_NEAR(stats.mean_confidence, 1.0, 1e-3);
  EXPECT_NEAR(stats.mean_entropy, 0.0, 1e-2);
  EXPECT_NEAR(stats.inter_taglet_agreement, 1.0, 1e-12);
}

TEST(PseudoLabelStats, DisagreeingEnsembleHasHighEntropy) {
  std::vector<Taglet> taglets;
  taglets.push_back(make_constant_taglet("a", 2, 2, 0, 50.0f));
  taglets.push_back(make_constant_taglet("b", 2, 2, 1, 50.0f));
  Tensor inputs = Tensor::zeros(4, 2);
  auto stats = pseudo_label_stats(taglets, inputs);
  EXPECT_NEAR(stats.inter_taglet_agreement, 0.0, 1e-12);
  EXPECT_NEAR(stats.mean_confidence, 0.5, 1e-3);
  EXPECT_NEAR(stats.mean_entropy, std::log(2.0), 1e-2);
}

TEST(PseudoLabelStats, RejectsEmptyInputs) {
  std::vector<Taglet> none;
  Tensor inputs = Tensor::zeros(1, 2);
  EXPECT_THROW(pseudo_label_stats(none, inputs), std::invalid_argument);
}

}  // namespace
}  // namespace taglets::ensemble
