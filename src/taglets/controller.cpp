#include "taglets/controller.hpp"

#include <sstream>
#include <stdexcept>

#include "ensemble/ensemble.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "taglets/checkpoint.hpp"
#include "taglets/task_graph.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace taglets {

using tensor::Tensor;

Controller::Controller(scads::Scads* scads, backbone::Zoo* zoo,
                       modules::ZslKgEngine* zsl_engine,
                       modules::ModuleRegistry* registry)
    : scads_(scads),
      zoo_(zoo),
      zsl_engine_(zsl_engine),
      registry_(registry != nullptr ? registry
                                    : &modules::ModuleRegistry::global()) {
  TAGLETS_CHECK(!(scads_ == nullptr || zoo_ == nullptr),
                "Controller: scads and zoo are required");
}

scads::Selection Controller::select(const synth::FewShotTask& task,
                                    const SystemConfig& config) const {
  scads::SelectionConfig selection = config.selection;
  if (selection.seed == 0) selection.seed = config.train_seed;
  return scads::select_auxiliary(*scads_, task, selection);
}

std::string config_fingerprint(const SystemConfig& config) {
  // select() substitutes train_seed when the selection seed is 0, so
  // the fingerprint must record the *effective* seed — otherwise two
  // behaviorally identical configs refuse to resume each other.
  const std::uint64_t effective_selection_seed =
      config.selection.seed == 0 ? config.train_seed : config.selection.seed;
  std::ostringstream os;
  os << "modules=" << util::join(config.module_names, ",")
     << " backbone=" << static_cast<int>(config.backbone)
     << " seed=" << config.train_seed
     << " epoch_scale=" << config.epoch_scale
     << " selection=" << config.selection.related_per_class << "/"
     << config.selection.images_per_concept << "/"
     << config.selection.prune_level << "/" << effective_selection_seed
     << " end_model=" << config.end_model.epochs << "/"
     << config.end_model.batch_size << "/" << config.end_model.min_steps
     << "/" << config.end_model.lr << "/" << config.end_model.weight_decay
     << "/" << (config.end_model.soft_targets ? "soft" : "hard");
  return os.str();
}

modules::Taglet Controller::train_module(std::size_t index,
                                         const modules::ModuleContext& context,
                                         const SystemConfig& config,
                                         const Checkpoint& checkpoint) {
  std::unique_ptr<modules::Module> mod =
      registry_->create(config.module_names[index]);
  const std::string name = mod->name();
  if (checkpoint.has_taglet(index, name)) {
    TAGLETS_LOG(kInfo) << "resuming taglet " << name << " from "
                       << checkpoint.taglet_path(index, name);
    modules::Taglet taglet = checkpoint.load_taglet(index, name);
    obs::MetricsRegistry::global()
        .counter("pipeline.modules_resumed_total")
        .add();
    return taglet;
  }
  TAGLETS_TRACE_SCOPE("module.train",
                      {{"module", name},
                       {"epoch_scale", std::to_string(config.epoch_scale)}});
  TAGLETS_LOG(kInfo) << "training module " << name;
  modules::Taglet taglet = mod->train(context);
  checkpoint.save_taglet(index, name, taglet);
  obs::MetricsRegistry::global().counter("pipeline.modules_trained_total").add();
  return taglet;
}

std::vector<modules::Taglet> Controller::train_taglets(
    const synth::FewShotTask& task, const scads::Selection& selection,
    const SystemConfig& config) {
  TAGLETS_CHECK(!(config.module_names.empty()),
                "Controller: empty module line-up");
  modules::ModuleContext context;
  context.task = &task;
  context.scads = scads_;
  context.selection = &selection;
  context.backbone = &zoo_->get(config.backbone);
  context.zsl_engine = zsl_engine_;
  context.train_seed = config.train_seed;
  context.epoch_scale = config.epoch_scale;

  std::vector<modules::Taglet> taglets;
  taglets.reserve(config.module_names.size());
  for (std::size_t i = 0; i < config.module_names.size(); ++i) {
    taglets.push_back(train_module(i, context, config, Checkpoint()));
  }
  return taglets;
}

SystemResult Controller::run(const synth::FewShotTask& task,
                             const SystemConfig& config) {
  util::Timer timer;
  TAGLETS_TRACE_SCOPE(
      "pipeline.run",
      {{"dataset", task.dataset_name},
       {"classes", std::to_string(task.num_classes())},
       {"modules", std::to_string(config.module_names.size())}});
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("pipeline.runs_total").add();

  // Node checkpointing (docs/ROBUSTNESS.md). Each node re-derives its
  // RNG from config.train_seed, so loading a completed node's artifact
  // and continuing reproduces the uninterrupted run bit for bit. The
  // pipeline.after_* fault sites mark the edge crossings a crash can
  // be injected at (TAGLETS_FAULT).
  const Checkpoint checkpoint =
      config.checkpoint_dir.empty()
          ? Checkpoint()
          : Checkpoint(config.checkpoint_dir, config.resume,
                       config_fingerprint(config));

  SystemResult result = run_graph(task, config, checkpoint);
  result.train_seconds = timer.elapsed_seconds();
  registry.gauge("pipeline.last_train_seconds").set(result.train_seconds);
  return result;
}

SystemResult Controller::run_graph(const synth::FewShotTask& task,
                                   const SystemConfig& config,
                                   const Checkpoint& checkpoint) {
  TAGLETS_CHECK(!(config.module_names.empty()),
                "Controller: empty module line-up");

  // Node results live on this frame; the graph's edges are what make
  // each write happen-before every read (TaskGraph resolves a child
  // only after its parents, across one mutex).
  const backbone::Pretrained* phi = nullptr;
  scads::Selection selection;
  std::vector<std::optional<modules::Taglet>> slots(config.module_names.size());
  std::vector<modules::Taglet> taglets;
  Tensor pseudo;
  std::optional<nn::Classifier> end_model;

  TaskGraph graph;

  const TaskGraph::NodeId backbone_node = graph.add_node(
      "backbone", [&] { phi = &zoo_->get(config.backbone); });

  const TaskGraph::NodeId selection_node = graph.add_node("selection", [&] {
    TAGLETS_TRACE_SCOPE("pipeline.scads_selection");
    if (checkpoint.has_selection()) {
      TAGLETS_LOG(kInfo) << "resuming selection from "
                         << checkpoint.selection_path();
      selection = checkpoint.load_selection();
    } else {
      selection = select(task, config);
      checkpoint.save_selection(selection);
    }
    util::fault::maybe_fail("pipeline.after_selection");
    TAGLETS_LOG(kInfo) << "selected " << selection.intermediate_classes()
                       << " auxiliary concepts, |R| = "
                       << selection.data.size();
  });

  std::vector<TaskGraph::NodeId> module_nodes;
  module_nodes.reserve(config.module_names.size());
  for (std::size_t i = 0; i < config.module_names.size(); ++i) {
    const std::string& name = config.module_names[i];
    std::vector<TaskGraph::NodeId> deps{backbone_node};
    // The zero-shot module reads only the pretrained engine and the
    // graph embeddings — not the SCADS training data — so it starts
    // without waiting for selection (the DAG's headline overlap).
    if (name != "zsl-kg") deps.push_back(selection_node);
    module_nodes.push_back(graph.add_node(
        "module:" + name,
        [&, i] {
          modules::ModuleContext context;
          context.task = &task;
          context.scads = scads_;
          context.selection = &selection;
          context.backbone = phi;
          context.zsl_engine = zsl_engine_;
          context.train_seed = config.train_seed;
          context.epoch_scale = config.epoch_scale;
          slots[i] = train_module(i, context, config, checkpoint);
        },
        deps));
  }

  const TaskGraph::NodeId ensemble_node = graph.add_node(
      "ensemble",
      [&] {
        util::fault::maybe_fail("pipeline.after_training");
        taglets.reserve(slots.size());
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (!slots[i].has_value()) {
            throw std::runtime_error("Controller: module '" +
                                     config.module_names[i] +
                                     "' finished without producing a taglet");
          }
          taglets.push_back(std::move(*slots[i]));
        }
        TAGLETS_TRACE_SCOPE(
            "pipeline.ensemble_vote",
            {{"unlabeled", std::to_string(task.unlabeled_inputs.rows())}});
        if (checkpoint.has_pseudo()) {
          TAGLETS_LOG(kInfo) << "resuming pseudo labels from "
                             << checkpoint.pseudo_path();
          pseudo = checkpoint.load_pseudo();
        } else {
          pseudo =
              task.unlabeled_inputs.rows() > 0
                  ? ensemble::ensemble_proba(taglets, task.unlabeled_inputs)
                  : Tensor::zeros(0, task.num_classes());
          checkpoint.save_pseudo(pseudo);
        }
        util::fault::maybe_fail("pipeline.after_ensemble");
      },
      module_nodes);

  graph.add_node(
      "distill",
      [&] {
        util::Rng rng(util::combine_seeds({config.train_seed, 0xE4DULL}));
        TAGLETS_TRACE_SCOPE("pipeline.distillation");
        end_model = ensemble::train_end_model(task, pseudo, phi->encoder,
                                              phi->feature_dim,
                                              config.end_model, rng,
                                              config.epoch_scale);
      },
      {backbone_node, ensemble_node});

  graph.run(util::Parallel::global());

  return SystemResult{
      ensemble::ServableModel(std::move(*end_model), task.class_names),
      std::move(taglets), std::move(selection), std::move(pseudo), 0.0};
}

}  // namespace taglets
