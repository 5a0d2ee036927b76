// End-to-end tests of the full TAGLETS pipeline on the small world:
// controller orchestration, the harness used by the benches, and the
// system-level properties the paper's evaluation rests on.
#include <gtest/gtest.h>


#include "ensemble/ensemble.hpp"
#include "eval/harness.hpp"
#include "eval/lab.hpp"
#include "modules/zsl_kg.hpp"
#include "nn/trainer.hpp"
#include "taglets/controller.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace taglets {
namespace {

using tensor::Tensor;

modules::ZslKgEngine& engine() {
  static modules::ZslKgEngine instance = [] {
    modules::ZslKgEngine::Config config;
    config.epochs = 20;
    config.val_classes = 10;
    return modules::ZslKgEngine(taglets::testing::small_zoo(), config);
  }();
  return instance;
}

SystemConfig fast_config(std::uint64_t seed = 5) {
  SystemConfig config;
  config.train_seed = seed;
  config.epoch_scale = 0.25;
  return config;
}

TEST(Controller, RunsEndToEnd) {
  auto task = taglets::testing::small_task(/*shots=*/2);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo(), &engine());
  SystemResult result = controller.run(task, fast_config());

  EXPECT_EQ(result.taglets.size(), 4u);
  EXPECT_EQ(result.pseudo_labels.rows(), task.unlabeled_inputs.rows());
  EXPECT_EQ(result.pseudo_labels.cols(), task.num_classes());
  EXPECT_GT(result.selection.data.size(), 0u);
  EXPECT_GT(result.train_seconds, 0.0);

  // Pseudo labels are probability rows.
  for (std::size_t i = 0; i < std::min<std::size_t>(result.pseudo_labels.rows(), 20); ++i) {
    double sum = 0.0;
    for (float v : result.pseudo_labels.row(i)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }

  // The servable model predicts over the right label set and does much
  // better than the 10% chance level.
  Tensor logits = result.end_model.model().logits(task.test_inputs, false);
  EXPECT_GT(nn::accuracy(logits, task.test_labels), 0.3);
}

TEST(Controller, CustomModuleLineup) {
  auto task = taglets::testing::small_task(1);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  SystemConfig config = fast_config();
  config.module_names = {"transfer", "multitask"};  // no zsl engine needed
  SystemResult result = controller.run(task, config);
  EXPECT_EQ(result.taglets.size(), 2u);
  EXPECT_EQ(result.taglets[0].name(), "transfer");
  EXPECT_EQ(result.taglets[1].name(), "multitask");
}

void expect_same_bits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

TEST(Controller, RunMatchesStepByStepReference) {
  // The headline guarantee of the task-graph scheduler: Controller::run
  // produces the same bits — same taglets, same pseudo labels, same end
  // model — as composing the steps by hand, one module at a time,
  // because every node re-derives its RNG from the config seed rather
  // than from scheduling order.
  auto task = taglets::testing::small_task(/*shots=*/1);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo(), &engine());
  SystemConfig config = fast_config(17);
  config.epoch_scale = 0.15;

  SystemResult run = controller.run(task, config);

  const scads::Selection selection = controller.select(task, config);
  std::vector<modules::Taglet> taglets;
  for (const std::string& name : config.module_names) {
    SystemConfig alone = config;
    alone.module_names = {name};
    taglets.push_back(
        std::move(controller.train_taglets(task, selection, alone)[0]));
  }
  const Tensor pseudo =
      ensemble::ensemble_proba(taglets, task.unlabeled_inputs);
  const backbone::Pretrained& phi =
      taglets::testing::small_zoo().get(config.backbone);
  util::Rng rng(util::combine_seeds({config.train_seed, 0xE4DULL}));
  nn::Classifier end_model =
      ensemble::train_end_model(task, pseudo, phi.encoder, phi.feature_dim,
                                config.end_model, rng, config.epoch_scale);

  ASSERT_EQ(run.taglets.size(), taglets.size());
  for (std::size_t t = 0; t < taglets.size(); ++t) {
    EXPECT_EQ(run.taglets[t].name(), taglets[t].name());
    expect_same_bits(run.taglets[t].model().logits(task.test_inputs, false),
                     taglets[t].model().logits(task.test_inputs, false),
                     "taglet logits");
  }
  expect_same_bits(run.pseudo_labels, pseudo, "pseudo labels");
  expect_same_bits(run.end_model.model().logits(task.test_inputs, false),
                   end_model.logits(task.test_inputs, false),
                   "end-model logits");
}

TEST(Controller, RequiresScadsAndZoo) {
  EXPECT_THROW(Controller(nullptr, &taglets::testing::small_zoo()),
               std::invalid_argument);
  EXPECT_THROW(Controller(&taglets::testing::small_scads(), nullptr),
               std::invalid_argument);
}

TEST(Controller, EnsembleBeatsMeanModule) {
  // Section 4.4.3: the ensemble improves over the average module.
  auto task = taglets::testing::small_task(/*shots=*/2);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo(), &engine());
  SystemConfig config = fast_config(11);
  config.epoch_scale = 0.4;
  scads::Selection sel = controller.select(task, config);
  auto taglets_vec = controller.train_taglets(task, sel, config);

  double mean = 0.0;
  for (auto& t : taglets_vec) {
    mean += nn::evaluate_accuracy(t.model(), task.test_inputs,
                                  task.test_labels);
  }
  mean /= static_cast<double>(taglets_vec.size());
  const double ens = ensemble::ensemble_accuracy(taglets_vec, task.test_inputs,
                                                 task.test_labels);
  EXPECT_GT(ens, mean);
}

TEST(Controller, DistillationPreservesEnsembleQuality) {
  auto task = taglets::testing::small_task(/*shots=*/2);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo(), &engine());
  SystemConfig config = fast_config(13);
  config.epoch_scale = 0.4;
  SystemResult result = controller.run(task, config);
  const double ens = ensemble::ensemble_accuracy(
      result.taglets, task.test_inputs, task.test_labels);
  Tensor logits = result.end_model.model().logits(task.test_inputs, false);
  const double end = nn::accuracy(logits, task.test_labels);
  // The paper reports end-model deltas between -5 and +4 points around
  // the ensemble; allow a slightly wider band at this tiny scale.
  EXPECT_GT(end, ens - 0.12);
}

// ------------------------------------------------------------- harness

class HarnessTest : public ::testing::Test {
 protected:
  static eval::Lab& lab() {
    static eval::Lab instance = [] {
      eval::LabConfig config;
      config.world_seed = 7;
      config.aux_images_per_concept = 8;
      config.pretrain = taglets::testing::small_pretrain_config();
      config.zsl.epochs = 15;
      config.zsl.val_classes = 10;
      config.cache_dir = std::string{};  // no disk cache in tests
      // Shrink the world through the pretrain config only; the lab world
      // itself stays the default (its cost is dominated by pretraining).
      return eval::Lab(config);
    }();
    return instance;
  }
};

TEST_F(HarnessTest, RunOnceBaselineAndTaglets) {
  eval::Harness harness(lab(), /*seeds=*/1, /*epoch_scale=*/0.15);
  const auto& spec = synth::fmd_spec();
  const double ft = harness.run_once(spec, 1, 0,
                                     {eval::kFineTuning,
                                      backbone::Kind::kRn50S, -1},
                                     0);
  EXPECT_GE(ft, 0.0);
  EXPECT_LE(ft, 100.0);
  const double tg = harness.run_once(spec, 1, 0,
                                     {eval::kTaglets,
                                      backbone::Kind::kRn50S, -1},
                                     0);
  EXPECT_GT(tg, 10.0);  // well above 10-class chance
}

TEST_F(HarnessTest, RunCellAggregatesSeeds) {
  eval::Harness harness(lab(), /*seeds=*/2, /*epoch_scale=*/0.1);
  auto summary = harness.run_cell(synth::fmd_spec(), 1, 0,
                                  {eval::kFineTuning,
                                   backbone::Kind::kRn50S, -1});
  EXPECT_GE(summary.mean, 0.0);
  EXPECT_GE(summary.ci, 0.0);
}

TEST_F(HarnessTest, ModuleDiagnosticsComplete) {
  eval::Harness harness(lab(), 1, 0.15);
  auto diag = harness.run_modules(synth::fmd_spec(), 1, 0,
                                  backbone::Kind::kRn50S, -1, 0);
  EXPECT_EQ(diag.module_accuracy.size(), 4u);
  EXPECT_TRUE(diag.module_accuracy.count("transfer"));
  EXPECT_TRUE(diag.module_accuracy.count("zsl-kg"));
  EXPECT_GT(diag.ensemble, 0.0);
  EXPECT_GT(diag.end_model, 0.0);
}

TEST_F(HarnessTest, LeaveOneOutCoversEveryModule) {
  eval::Harness harness(lab(), 1, 0.15);
  auto deltas = harness.run_leave_one_out(synth::fmd_spec(), 1, 0,
                                          backbone::Kind::kRn50S, 0);
  EXPECT_EQ(deltas.size(), 4u);
  for (const auto& [name, delta] : deltas) {
    EXPECT_LT(std::abs(delta), 100.0) << name;
  }
}

TEST_F(HarnessTest, LeaveOneOutKeepsDuplicateModulesDistinct) {
  // Regression: duplicate module names in the line-up collapsed onto one
  // map key, so run_leave_one_out silently dropped all but the last
  // slot's delta (and run_modules its accuracy).
  eval::Harness harness(lab(), 1, 0.1);
  auto deltas = harness.run_leave_one_out(synth::fmd_spec(), 1, 0,
                                          backbone::Kind::kRn50S, 0,
                                          {"transfer", "transfer"});
  EXPECT_EQ(deltas.size(), 2u);
  EXPECT_TRUE(deltas.count("transfer"));
  EXPECT_TRUE(deltas.count("transfer#1"));

  auto diag = harness.run_modules(synth::fmd_spec(), 1, 0,
                                  backbone::Kind::kRn50S, -1, 0,
                                  {"transfer", "transfer"});
  EXPECT_EQ(diag.module_accuracy.size(), 2u);
  EXPECT_TRUE(diag.module_accuracy.count("transfer"));
  EXPECT_TRUE(diag.module_accuracy.count("transfer#1"));
}

TEST_F(HarnessTest, UnknownMethodThrows) {
  eval::Harness harness(lab(), 1, 0.1);
  EXPECT_THROW(harness.run_once(synth::fmd_spec(), 1, 0,
                                {"no-such-method", backbone::Kind::kRn50S, -1},
                                0),
               std::invalid_argument);
}

TEST_F(HarnessTest, GroceryTaskRunsWithNovelConcepts) {
  // End-to-end over the dataset whose classes include graph-missing
  // concepts (oatghurt / soyghurt) — exercises Example A.1 machinery.
  eval::Harness harness(lab(), 1, 0.1);
  const double acc = harness.run_once(synth::grocery_spec(), 1, 0,
                                      {eval::kTaglets,
                                       backbone::Kind::kRn50S, -1},
                                      0);
  EXPECT_GT(acc, 100.0 / 42.0);  // above chance
}

}  // namespace
}  // namespace taglets
