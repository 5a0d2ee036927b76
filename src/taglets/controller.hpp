// TAGLETS controller — the end-to-end system of Figure 2 and the main
// public API. Given a few-shot task it (1) selects task-related
// auxiliary data from SCADS, (2) trains the configured modules into
// taglets, (3) ensembles the taglets into soft pseudo labels for the
// unlabeled data (Eq. 6), and (4) distills everything into one servable
// end model (Eq. 7).
//
// run() schedules the work as a task graph (task_graph.hpp) that
// overlaps independent steps — backbone fetch runs alongside SCADS
// selection, the zero-shot module needs only the engine and graph
// embeddings so it trains while selection is still running, and the
// SCADS-consuming modules fan out as soon as selection resolves. Every
// node re-derives its RNG from config.train_seed, so any thread count
// (and the step-by-step composition of select/train_taglets below)
// gives bit-for-bit identical results.
#pragma once

#include <memory>
#include <optional>

#include "backbone/zoo.hpp"
#include "ensemble/distill.hpp"
#include "ensemble/servable.hpp"
#include "modules/registry.hpp"
#include "modules/zsl_kg.hpp"
#include "scads/selection.hpp"
#include "synth/split.hpp"

namespace taglets {

struct SystemConfig {
  /// Modules to train, resolved through the registry. Defaults to the
  /// paper's four-module line-up.
  std::vector<std::string> module_names =
      modules::ModuleRegistry::default_lineup();
  /// Backbone phi for the trainable modules and the end model.
  backbone::Kind backbone = backbone::Kind::kRn50S;
  /// SCADS selection parameters (N, K, prune level).
  scads::SelectionConfig selection{};
  ensemble::EndModelConfig end_model{};
  std::uint64_t train_seed = 0;
  /// Scales every module's epoch counts (tests use < 1).
  double epoch_scale = 1.0;
  /// When non-empty, Controller::run checkpoints each completed
  /// pipeline node into this directory (crash-safe writes; see
  /// docs/ROBUSTNESS.md).
  std::string checkpoint_dir;
  /// Skip nodes whose checkpoint artifacts already exist. Because
  /// every node re-derives its RNG from train_seed, a resumed run is
  /// bitwise identical to an uninterrupted one.
  bool resume = false;
};

/// One-line fingerprint of everything that determines a run's output;
/// stored in the checkpoint MANIFEST so --resume refuses a directory
/// produced under a different configuration. Records *effective*
/// values: a selection seed of 0 means "use train_seed", so the two
/// spellings of the same behavior fingerprint identically.
std::string config_fingerprint(const SystemConfig& config);

class Checkpoint;

struct SystemResult {
  ensemble::ServableModel end_model;
  /// The trained taglets, retained for diagnostics and ablations.
  std::vector<modules::Taglet> taglets;
  /// Which auxiliary concepts were selected (provenance of R).
  scads::Selection selection;
  /// Soft pseudo labels assigned to the unlabeled pool (Eq. 6).
  tensor::Tensor pseudo_labels;
  double train_seconds = 0.0;
};

class Controller {
 public:
  /// All pointers non-owning; `zsl_engine` may be null if the line-up
  /// excludes "zsl-kg". `registry` null means the global registry.
  Controller(scads::Scads* scads, backbone::Zoo* zoo,
             modules::ZslKgEngine* zsl_engine = nullptr,
             modules::ModuleRegistry* registry = nullptr);

  /// Run the full pipeline on a task.
  SystemResult run(const synth::FewShotTask& task, const SystemConfig& config);

  /// Steps exposed individually for ablation studies (train_taglets
  /// trains the line-up one module after another, without checkpoints):
  scads::Selection select(const synth::FewShotTask& task,
                          const SystemConfig& config) const;
  std::vector<modules::Taglet> train_taglets(const synth::FewShotTask& task,
                                             const scads::Selection& selection,
                                             const SystemConfig& config);

 private:
  SystemResult run_graph(const synth::FewShotTask& task,
                         const SystemConfig& config,
                         const Checkpoint& checkpoint);

  /// Checkpoint-aware training of one module slot: loads the slot's
  /// artifact when resuming, otherwise trains and checkpoints it.
  /// Shared by train_taglets and the graph's module nodes.
  modules::Taglet train_module(std::size_t index,
                               const modules::ModuleContext& context,
                               const SystemConfig& config,
                               const Checkpoint& checkpoint);

  scads::Scads* scads_;
  backbone::Zoo* zoo_;
  modules::ZslKgEngine* zsl_engine_;
  modules::ModuleRegistry* registry_;
};

}  // namespace taglets
