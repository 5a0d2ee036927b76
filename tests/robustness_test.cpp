// Crash-safety layer tests (docs/ROBUSTNESS.md): deterministic fault
// injection, the atomic write protocol, checkpoint serialization, and
// the kill-and-resume guarantee — a pipeline interrupted by an injected
// crash resumes to a bitwise-identical end model. Also the regression
// tests for the silent-corruption fixes this PR ships (mixed-width
// selection copies, NaN gradient scaling).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "scads/selection.hpp"
#include "taglets/checkpoint.hpp"
#include "taglets/controller.hpp"
#include "tensor/ops.hpp"
#include "test_support.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace taglets {
namespace {

namespace fs = std::filesystem;
using tensor::Tensor;
using util::fault::FaultInjected;

/// Fresh scratch directory under the system temp root; removed and
/// recreated per call so reruns never see stale artifacts.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("taglets_robust_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// RAII spec install: disarms fault injection when the test scope ends
/// even on assertion failure.
struct FaultSpec {
  explicit FaultSpec(const std::string& spec) {
    util::fault::set_spec_for_testing(spec);
  }
  ~FaultSpec() { util::fault::set_spec_for_testing(""); }
};

// ------------------------------------------------------ fault injection

TEST(FaultInjection, NthCallAtSiteFails) {
  FaultSpec spec("unit.site:3");
  EXPECT_NO_THROW(util::fault::maybe_fail("unit.site"));
  EXPECT_NO_THROW(util::fault::maybe_fail("other.site"));  // not armed
  EXPECT_NO_THROW(util::fault::maybe_fail("unit.site"));
  EXPECT_THROW(util::fault::maybe_fail("unit.site"), FaultInjected);
  // Only the Nth call fails; later calls proceed (crash-once model).
  EXPECT_NO_THROW(util::fault::maybe_fail("unit.site"));

  util::fault::reset_counters_for_testing();
  EXPECT_NO_THROW(util::fault::maybe_fail("unit.site"));
}

TEST(FaultInjection, MultiSiteSpecAndDefaults) {
  FaultSpec spec("a.site,b.site:2");
  EXPECT_THROW(util::fault::maybe_fail("a.site"), FaultInjected);  // nth=1
  EXPECT_NO_THROW(util::fault::maybe_fail("b.site"));
  EXPECT_THROW(util::fault::maybe_fail("b.site"), FaultInjected);
}

TEST(FaultInjection, MalformedSpecThrows) {
  EXPECT_THROW(util::fault::set_spec_for_testing(":3"),
               std::invalid_argument);
  EXPECT_THROW(util::fault::set_spec_for_testing("site:zero"),
               std::invalid_argument);
  EXPECT_THROW(util::fault::set_spec_for_testing("site:0"),
               std::invalid_argument);
  util::fault::set_spec_for_testing("");
  EXPECT_FALSE(util::fault::any_armed());
}

TEST(FaultInjection, RetryAbsorbsTransientFailures) {
  FaultSpec spec("retry.site:1");
  util::fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0.0;
  int calls = 0;
  const int result = util::fault::retry_with_backoff("unit", policy, [&] {
    ++calls;
    util::fault::maybe_fail("retry.site");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 2);  // first attempt absorbed the injected fault
}

TEST(FaultInjection, RetryGivesUpAfterMaxAttempts) {
  FaultSpec spec("retry.site:1,retry.site2:1");
  util::fault::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.initial_backoff_ms = 0.0;
  EXPECT_THROW(util::fault::retry_with_backoff(
                   "unit", policy,
                   [&] { util::fault::maybe_fail("retry.site"); }),
               FaultInjected);
}

TEST(FaultInjection, RetryNeverRetriesLogicErrors) {
  util::fault::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0.0;
  int calls = 0;
  EXPECT_THROW(util::fault::retry_with_backoff(
                   "unit", policy,
                   [&]() -> int {
                     ++calls;
                     TAGLETS_CHECK(false, "a bug, not weather");
                     return 0;
                   }),
               util::ContractViolation);
  EXPECT_EQ(calls, 1);
}

// ------------------------------------------------------- atomic writes

TEST(AtomicIo, WritesAndReplaces) {
  const fs::path dir = scratch_dir("atomic");
  const fs::path target = dir / "artifact.txt";
  util::atomic_write_file(target.string(), "first");
  EXPECT_EQ(read_bytes(target), "first");
  util::atomic_write_file(target.string(), "second");
  EXPECT_EQ(read_bytes(target), "second");
  EXPECT_FALSE(fs::exists(util::atomic_temp_path(target.string())));
}

TEST(AtomicIo, InjectedOpenFailureLeavesNothing) {
  const fs::path dir = scratch_dir("atomic_open");
  const fs::path target = dir / "artifact.bin";
  FaultSpec spec("unit.write:1");  // call 1 = open/write half
  EXPECT_THROW(util::atomic_write_file(target.string(), "x", "unit.write"),
               FaultInjected);
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(util::atomic_temp_path(target.string())));
}

TEST(AtomicIo, InjectedRenameFailurePreservesOldFile) {
  const fs::path dir = scratch_dir("atomic_rename");
  const fs::path target = dir / "artifact.bin";
  util::atomic_write_file(target.string(), "old", "unit.write");
  FaultSpec spec("unit.write:2");  // call 2 = temp complete, rename lost
  EXPECT_THROW(util::atomic_write_file(target.string(), "new", "unit.write"),
               FaultInjected);
  EXPECT_EQ(read_bytes(target), "old");  // never a torn file
  EXPECT_FALSE(fs::exists(util::atomic_temp_path(target.string())));
}

TEST(AtomicIo, WriterExceptionCleansUpTemp) {
  const fs::path dir = scratch_dir("atomic_writer");
  const fs::path target = dir / "artifact.bin";
  EXPECT_THROW(util::atomic_write_stream(
                   target.string(), "unit.write",
                   [](std::ostream& out) {
                     out << "partial";
                     throw std::runtime_error("writer failed mid-stream");
                   }),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(util::atomic_temp_path(target.string())));
}

// ------------------------------------------- checkpoint serialization

scads::Selection make_selection() {
  const auto task = taglets::testing::small_task(/*shots=*/1);
  scads::SelectionConfig config;
  config.seed = 77;
  return scads::select_auxiliary(taglets::testing::small_scads(), task,
                                 config);
}

TEST(CheckpointSerialization, SelectionRoundTripsBitwise) {
  const scads::Selection original = make_selection();
  ASSERT_GT(original.data.size(), 0u);

  std::ostringstream first;
  scads::write_selection(first, original);
  std::istringstream in(first.str());
  const scads::Selection loaded = scads::read_selection(in);

  EXPECT_EQ(loaded.data.name, original.data.name);
  EXPECT_EQ(loaded.data.labels, original.data.labels);
  EXPECT_EQ(loaded.data.class_names, original.data.class_names);
  EXPECT_EQ(loaded.data.class_concepts, original.data.class_concepts);
  EXPECT_EQ(loaded.selected_concepts, original.selected_concepts);
  EXPECT_EQ(loaded.source_target_class, original.source_target_class);
  EXPECT_EQ(loaded.similarities, original.similarities);

  // Re-serializing the loaded copy reproduces the exact bytes: the
  // round trip is lossless down to the float payload.
  std::ostringstream second;
  scads::write_selection(second, loaded);
  EXPECT_EQ(first.str(), second.str());
}

TEST(CheckpointSerialization, SelectionRejectsCorruptStream) {
  std::istringstream bad_magic("NOPE....");
  EXPECT_THROW(scads::read_selection(bad_magic), std::runtime_error);

  std::ostringstream full;
  scads::write_selection(full, make_selection());
  const std::string truncated = full.str().substr(0, full.str().size() / 2);
  std::istringstream in(truncated);
  EXPECT_THROW(scads::read_selection(in), std::runtime_error);
}

TEST(CheckpointSerialization, TagletRoundTripsBitwise) {
  auto& zoo = taglets::testing::small_zoo();
  const backbone::Pretrained& phi = zoo.get(backbone::Kind::kRn50S);
  util::Rng rng(31);
  modules::Taglet taglet("round-trip",
                         nn::Classifier(phi.encoder, phi.feature_dim, 10, rng));

  std::ostringstream first;
  taglet.save(first);
  std::istringstream in(first.str());
  modules::Taglet loaded = modules::Taglet::load(in);
  EXPECT_EQ(loaded.name(), "round-trip");

  std::ostringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());

  // A reloaded taglet votes identically.
  Tensor x = Tensor::zeros(3, taglet.model().input_dim());
  util::Rng data_rng(5);
  for (float& v : x.data()) v = static_cast<float>(data_rng.normal());
  EXPECT_EQ(taglet.predict(x), loaded.predict(x));
}

TEST(CheckpointSerialization, TagletRejectsCorruptStream) {
  std::istringstream bad("XXXX");
  EXPECT_THROW(modules::Taglet::load(bad), std::runtime_error);
}

TEST(Checkpoint, ManifestGuardsConfigMismatch) {
  const fs::path dir = scratch_dir("manifest");
  { Checkpoint first(dir.string(), /*resume=*/false, "fingerprint-a"); }
  // Resuming with the same fingerprint is fine; a different one throws.
  EXPECT_NO_THROW(Checkpoint(dir.string(), /*resume=*/true, "fingerprint-a"));
  EXPECT_THROW(Checkpoint(dir.string(), /*resume=*/true, "fingerprint-b"),
               std::runtime_error);
  // A fresh (non-resume) run may repurpose the directory.
  EXPECT_NO_THROW(
      Checkpoint(dir.string(), /*resume=*/false, "fingerprint-b"));
}

TEST(Checkpoint, DisabledCheckpointIsInert) {
  const Checkpoint checkpoint;
  EXPECT_FALSE(checkpoint.enabled());
  EXPECT_FALSE(checkpoint.has_selection());
  EXPECT_NO_THROW(checkpoint.save_selection(scads::Selection{}));
}

// ---------------------------------------------------- kill and resume

SystemConfig resume_config(const std::string& dir) {
  SystemConfig config;
  config.module_names = {"transfer", "prototype"};
  config.train_seed = 23;
  config.epoch_scale = 0.15;
  config.checkpoint_dir = dir;
  return config;
}

TEST(Resume, InjectedCrashThenResumeIsBitwiseIdentical) {
  const auto task = taglets::testing::small_task(/*shots=*/2);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  const fs::path dir = scratch_dir("resume");

  // Reference: the uninterrupted run (no checkpointing at all).
  SystemConfig plain = resume_config("");
  const fs::path reference = dir / "reference.bin";
  controller.run(task, plain).end_model.save(reference.string());

  for (const std::string& site :
       {std::string("pipeline.after_selection"),
        std::string("pipeline.after_training")}) {
    const fs::path ckpt_dir = dir / ("ckpt_" + site);
    SystemConfig config = resume_config(ckpt_dir.string());

    {
      FaultSpec spec(site + ":1");
      EXPECT_THROW(controller.run(task, config), FaultInjected) << site;
    }
    // The crash happened after at least one stage completed, so the
    // checkpoint directory holds whole (never partial) artifacts.
    EXPECT_TRUE(fs::exists(ckpt_dir / "selection.bin")) << site;
    for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
      EXPECT_FALSE(entry.path().string().ends_with(".tmp")) << entry.path();
    }

    config.resume = true;
    SystemResult resumed = controller.run(task, config);
    const fs::path resumed_model = dir / ("resumed_" + site + ".bin");
    resumed.end_model.save(resumed_model.string());
    EXPECT_EQ(read_bytes(resumed_model), read_bytes(reference))
        << "resume after " << site << " diverged from the clean run";
  }

  // Resuming after the crash-free run short-circuits training entirely.
  const auto resumed_before = obs::MetricsRegistry::global()
                                  .counter("pipeline.modules_resumed_total")
                                  .value();
  SystemConfig config = resume_config((dir / "ckpt_pipeline.after_training").string());
  config.resume = true;
  controller.run(task, config);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("pipeline.modules_resumed_total")
                .value(),
            resumed_before + 2);
}

TEST(Resume, KillAtMidDagNodeBoundaryResumesBitwise) {
  // Crash inside the DAG's module fan-out (the 2nd taglet write, so
  // one module has already been checkpointed) and resume. The resumed
  // model must match a clean checkpoint-free run bit for bit.
  const auto task = taglets::testing::small_task(/*shots=*/2);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  const fs::path dir = scratch_dir("resume_middag");

  const SystemConfig plain = resume_config("");
  const fs::path reference = dir / "reference.bin";
  controller.run(task, plain).end_model.save(reference.string());

  SystemConfig config = resume_config((dir / "ckpt").string());
  {
    FaultSpec spec("checkpoint.taglet:2");
    EXPECT_THROW(controller.run(task, config), FaultInjected);
  }
  // One whole taglet artifact exists (whichever module won the race to
  // the first write), the other is absent — never partial, no temp.
  std::size_t taglet_files = 0;
  for (const auto& entry : fs::directory_iterator(dir / "ckpt")) {
    EXPECT_FALSE(entry.path().string().ends_with(".tmp")) << entry.path();
    if (entry.path().filename().string().starts_with("taglet_")) {
      ++taglet_files;
    }
  }
  EXPECT_EQ(taglet_files, 1u);
  EXPECT_TRUE(fs::exists(dir / "ckpt" / "selection.bin"));

  config.resume = true;
  SystemResult resumed = controller.run(task, config);
  const fs::path resumed_model = dir / "resumed.bin";
  resumed.end_model.save(resumed_model.string());
  EXPECT_EQ(read_bytes(resumed_model), read_bytes(reference))
      << "resume diverged from the clean run";
}

TEST(Resume, EffectiveSelectionSeedFingerprintsIdentically) {
  // Regression: config_fingerprint recorded the raw selection seed, but
  // Controller::select substitutes train_seed when it is 0 — so a run
  // checkpointed with selection.seed=0 refused to resume under the
  // explicit spelling of the same behavior (and vice versa).
  const auto task = taglets::testing::small_task(/*shots=*/1);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  const fs::path dir = scratch_dir("resume_seed0");

  SystemConfig implicit = resume_config((dir / "ckpt").string());
  implicit.module_names = {"transfer"};
  implicit.selection.seed = 0;  // "use train_seed"

  SystemConfig explicit_seed = implicit;
  explicit_seed.selection.seed = implicit.train_seed;

  EXPECT_EQ(config_fingerprint(implicit), config_fingerprint(explicit_seed));

  controller.run(task, implicit);
  // Resuming the same directory under the explicit spelling must be
  // accepted by the MANIFEST guard and short-circuit training.
  explicit_seed.resume = true;
  const auto resumed_before = obs::MetricsRegistry::global()
                                  .counter("pipeline.modules_resumed_total")
                                  .value();
  EXPECT_NO_THROW(controller.run(task, explicit_seed));
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("pipeline.modules_resumed_total")
                .value(),
            resumed_before + 1);

  // A genuinely different selection seed still refuses.
  SystemConfig different = explicit_seed;
  different.selection.seed = implicit.train_seed + 1;
  EXPECT_THROW(controller.run(task, different), std::runtime_error);
}

TEST(ZooCache, InjectedCacheWriteFailureLeavesOldFileOrNone) {
  // The backbone cache write goes through the atomic protocol under
  // the "zoo.cache" site: a killed write leaves the previous file or
  // none (never a torn one), and never kills training — the cache is
  // an optimization.
  const fs::path dir = scratch_dir("zoo_cache");
  auto& world = taglets::testing::small_world();
  const auto pretrain = taglets::testing::small_pretrain_config();

  // Fault at call 1: open/write failure — no cache file at all.
  {
    FaultSpec spec("zoo.cache:1");
    backbone::Zoo zoo(&world, pretrain, dir.string());
    EXPECT_NO_THROW(zoo.get(backbone::Kind::kRn50S));
    EXPECT_TRUE(fs::is_empty(dir));
  }
  // Clean write from a fresh zoo (same fingerprint, so same path).
  backbone::Zoo warm(&world, pretrain, dir.string());
  warm.get(backbone::Kind::kRn50S);
  std::string cache_file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ASSERT_TRUE(entry.path().filename().string().starts_with("backbone_"))
        << entry.path();
    cache_file = entry.path().string();
  }
  ASSERT_FALSE(cache_file.empty());
  const std::string good_bytes = read_bytes(cache_file);

  // Fault at call 2: temp fully written, killed before the rename —
  // the old file survives byte for byte and the temp is cleaned up.
  {
    FaultSpec spec("zoo.cache:2");
    backbone::Zoo zoo(&world, pretrain, dir.string());
    EXPECT_NO_THROW(zoo.get(backbone::Kind::kRn50S));
  }
  EXPECT_EQ(read_bytes(cache_file), good_bytes);
  EXPECT_FALSE(fs::exists(util::atomic_temp_path(cache_file)));

  // A fresh zoo loads the surviving cache without pretraining.
  const auto pretrained_before = obs::MetricsRegistry::global()
                                     .counter("backbone.pretrained_total")
                                     .value();
  backbone::Zoo cold(&world, pretrain, dir.string());
  EXPECT_NO_THROW(cold.get(backbone::Kind::kRn50S));
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("backbone.pretrained_total")
                .value(),
            pretrained_before);
}

TEST(Resume, CheckpointSaveRetriesAbsorbTransientFaults) {
  const auto task = taglets::testing::small_task(/*shots=*/1);
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo());
  const fs::path dir = scratch_dir("resume_retry");
  SystemConfig config = resume_config((dir / "ckpt").string());
  config.module_names = {"transfer"};

  ASSERT_EQ(setenv("TAGLETS_IO_RETRIES", "3", 1), 0);
  FaultSpec spec("checkpoint.selection:1");
  EXPECT_NO_THROW(controller.run(task, config));
  ASSERT_EQ(unsetenv("TAGLETS_IO_RETRIES"), 0);
  EXPECT_TRUE(fs::exists(dir / "ckpt" / "selection.bin"));
}

// --------------------------------------- silent-corruption regressions

TEST(SelectionGuards, MixedWidthInstalledDatasetsAreRejected) {
  // Regression: select_auxiliary sized every row by the FIRST picked
  // example and std::copy'd each example unchecked — a wider example
  // from a second installed dataset wrote out of bounds.
  auto& world = taglets::testing::small_world();
  scads::Scads scads(world.graph(), world.taxonomy(),
                     world.scads_embeddings());
  util::Rng rng(9);
  scads.install_dataset(
      world.make_auxiliary_corpus(world.auxiliary_concepts(), 4, rng));

  synth::Dataset ragged =
      world.make_auxiliary_corpus(world.auxiliary_concepts(), 2, rng);
  ragged.name = "ragged";
  ragged.inputs =
      Tensor::zeros(ragged.inputs.rows(), ragged.inputs.cols() + 3);
  scads.install_dataset(ragged);

  const auto task = taglets::testing::small_task(/*shots=*/1);
  scads::SelectionConfig config;
  config.seed = 3;
  EXPECT_THROW(scads::select_auxiliary(scads, task, config),
               util::ContractViolation);
}

TEST(TrainerGuards, NonFiniteGradNormSkipsScaling) {
  // Regression: a NaN gradient norm produced a NaN scale that was
  // multiplied into every gradient (and then every parameter).
  nn::Parameter a(Tensor::from_vector({1.0f}));
  nn::Parameter b(Tensor::from_vector({2.0f}));
  a.grad[0] = std::numeric_limits<float>::quiet_NaN();
  b.grad[0] = 4.0f;
  std::vector<nn::Parameter*> params{&a, &b};
  EXPECT_FALSE(nn::clip_grad_norm(params, 1.0));
  EXPECT_EQ(b.grad[0], 4.0f);  // untouched, not scaled by NaN

  b.grad[0] = std::numeric_limits<float>::infinity();
  a.grad[0] = 1.0f;
  EXPECT_FALSE(nn::clip_grad_norm(params, 1.0));
  EXPECT_EQ(a.grad[0], 1.0f);

  // Finite norms still clip exactly as before.
  a.grad[0] = 3.0f;
  b.grad[0] = 4.0f;
  EXPECT_TRUE(nn::clip_grad_norm(params, 1.0));
  const double norm =
      std::sqrt(a.grad[0] * a.grad[0] + b.grad[0] * b.grad[0]);
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(TrainerGuards, FitSkipsNonFiniteUpdatesAndCountsThem) {
  // NaN targets flow through matmuls on purpose here; the debug-build
  // finite-operand guard in tensor ops would (correctly) reject them
  // before the trainer's own skip logic — the thing under test — ever
  // runs. Pin the guard off and restore it on exit.
  const bool finite_checks_were_on = tensor::finite_checks_enabled();
  tensor::set_finite_checks(false);
  struct RestoreFiniteChecks {
    bool prev;
    ~RestoreFiniteChecks() { tensor::set_finite_checks(prev); }
  } restore{finite_checks_were_on};

  util::Rng rng(41);
  nn::Sequential encoder = nn::make_mlp({4, 6, 4}, rng);
  nn::Classifier model(encoder, 4, 3, rng);

  Tensor x = Tensor::zeros(8, 4);
  for (float& v : x.data()) v = static_cast<float>(rng.normal());
  Tensor targets = Tensor::zeros(8, 3);
  for (float& v : targets.data()) {
    v = std::numeric_limits<float>::quiet_NaN();
  }

  std::vector<float> before;
  for (nn::Parameter* p : model.parameters()) {
    before.insert(before.end(), p->value.data().begin(),
                  p->value.data().end());
  }
  const auto skipped_before = obs::MetricsRegistry::global()
                                  .counter("nn.skipped_nonfinite_steps")
                                  .value();

  nn::FitConfig config;
  config.epochs = 2;
  config.batch_size = 4;
  config.max_grad_norm = 5.0;
  nn::fit_soft(model, x, targets, config, rng);

  // Every update carried NaN gradients, so every step was skipped and
  // the parameters are bitwise untouched (previously they all went NaN).
  std::vector<float> after;
  for (nn::Parameter* p : model.parameters()) {
    after.insert(after.end(), p->value.data().begin(), p->value.data().end());
  }
  EXPECT_EQ(before, after);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("nn.skipped_nonfinite_steps")
                .value(),
            skipped_before + 4);  // 2 epochs x 2 batches
}

}  // namespace
}  // namespace taglets
