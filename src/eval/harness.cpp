#include "eval/harness.hpp"

#include <stdexcept>

#include "baselines/finetune.hpp"
#include "baselines/fixmatch_baseline.hpp"
#include "baselines/meta_pseudo_labels.hpp"
#include "baselines/simclr.hpp"
#include "ensemble/ensemble.hpp"
#include "nn/trainer.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace taglets::eval {

Harness::Harness(Lab& lab, std::size_t seeds, double epoch_scale)
    : lab_(lab),
      seeds_(seeds != 0
                 ? seeds
                 : static_cast<std::size_t>(util::env_long("TAGLETS_SEEDS", 3))),
      epoch_scale_(epoch_scale > 0.0
                       ? epoch_scale
                       : (util::env_flag("TAGLETS_FAST") ? 0.34 : 1.0)) {
  if (seeds_ == 0) seeds_ = 1;
}

SystemConfig Harness::system_config(backbone::Kind backbone, int prune_level,
                                    std::uint64_t seed) const {
  SystemConfig config;
  config.backbone = backbone;
  config.selection.prune_level = prune_level;
  config.train_seed = seed + 1;  // avoid the seed==0 "use train_seed" sentinel
  config.epoch_scale = epoch_scale_;
  return config;
}

double Harness::run_once(const synth::TaskSpec& spec, std::size_t shots,
                         std::size_t split, const Cell& cell,
                         std::uint64_t seed) {
  synth::FewShotTask task = lab_.task(spec, shots, split);
  const std::uint64_t run_seed = util::combine_seeds(
      {seed + 1, shots, split, static_cast<std::uint64_t>(cell.backbone),
       std::hash<std::string>{}(spec.name)});

  if (cell.method == kTaglets) {
    Controller controller(&lab_.scads(), &lab_.zoo(), &lab_.zsl_engine());
    SystemConfig config =
        system_config(cell.backbone, cell.prune_level, run_seed);
    SystemResult result = controller.run(task, config);
    tensor::Tensor logits =
        result.end_model.model().logits(task.test_inputs, false);
    return 100.0 * nn::accuracy(logits, task.test_labels);
  }

  const backbone::Pretrained& phi = lab_.zoo().get(cell.backbone);
  std::unique_ptr<baselines::Baseline> method;
  if (cell.method == kFineTuning) {
    method = std::make_unique<baselines::FineTune>();
  } else if (cell.method == kFineTuningDistilled) {
    method = std::make_unique<baselines::DistilledFineTune>();
  } else if (cell.method == kFixMatch) {
    method = std::make_unique<baselines::FixMatchBaseline>();
  } else if (cell.method == kMetaPseudoLabels) {
    // Appendix A.5: the MPL student always uses the ResNet-50 backbone.
    method = std::make_unique<baselines::MetaPseudoLabels>(
        &lab_.zoo().get(backbone::Kind::kRn50S));
  } else if (cell.method == kSimClr) {
    method = std::make_unique<baselines::SimClr>();
  } else {
    throw std::invalid_argument("Harness: unknown method " + cell.method);
  }
  nn::Classifier model = method->train(task, phi, run_seed, epoch_scale_);
  return 100.0 * nn::evaluate_accuracy(model, task.test_inputs,
                                       task.test_labels);
}

util::MeanCi Harness::run_cell(const synth::TaskSpec& spec, std::size_t shots,
                               std::size_t split, const Cell& cell) {
  std::vector<double> accs;
  accs.reserve(seeds_);
  for (std::size_t seed = 0; seed < seeds_; ++seed) {
    accs.push_back(run_once(spec, shots, split, cell, seed));
  }
  return util::summarize(accs);
}

namespace {

/// Key for per-module maps: the module name, suffixed with "#<slot>"
/// when the line-up repeats a name, so no entry silently overwrites
/// another.
std::string module_key(const std::map<std::string, double>& existing,
                       const std::string& name, std::size_t slot) {
  if (existing.count(name) == 0) return name;
  return name + "#" + std::to_string(slot);
}

}  // namespace

Harness::ModuleDiagnostics Harness::run_modules(
    const synth::TaskSpec& spec, std::size_t shots, std::size_t split,
    backbone::Kind backbone, int prune_level, std::uint64_t seed,
    const std::vector<std::string>& modules) {
  synth::FewShotTask task = lab_.task(spec, shots, split);
  const std::uint64_t run_seed = util::combine_seeds(
      {seed + 1, shots, split, static_cast<std::uint64_t>(backbone),
       std::hash<std::string>{}(spec.name)});
  Controller controller(&lab_.scads(), &lab_.zoo(), &lab_.zsl_engine());
  SystemConfig config = system_config(backbone, prune_level, run_seed);
  if (!modules.empty()) config.module_names = modules;
  SystemResult result = controller.run(task, config);

  ModuleDiagnostics diag;
  double sum = 0.0;
  for (std::size_t i = 0; i < result.taglets.size(); ++i) {
    auto& taglet = result.taglets[i];
    const double acc = 100.0 * nn::evaluate_accuracy(
                                   taglet.model(), task.test_inputs,
                                   task.test_labels);
    diag.module_accuracy[module_key(diag.module_accuracy, taglet.name(), i)] =
        acc;
    sum += acc;
  }
  // Guard the empty case: 0/0 would make the mean silently NaN and
  // poison every downstream aggregate.
  diag.module_mean = result.taglets.empty()
                         ? 0.0
                         : sum / static_cast<double>(result.taglets.size());
  diag.ensemble = 100.0 * ensemble::ensemble_accuracy(
                              result.taglets, task.test_inputs,
                              task.test_labels);
  tensor::Tensor logits =
      result.end_model.model().logits(task.test_inputs, false);
  diag.end_model = 100.0 * nn::accuracy(logits, task.test_labels);
  return diag;
}

std::map<std::string, double> Harness::run_leave_one_out(
    const synth::TaskSpec& spec, std::size_t shots, std::size_t split,
    backbone::Kind backbone, std::uint64_t seed,
    const std::vector<std::string>& modules) {
  synth::FewShotTask task = lab_.task(spec, shots, split);
  const std::uint64_t run_seed = util::combine_seeds(
      {seed + 1, shots, split, static_cast<std::uint64_t>(backbone),
       std::hash<std::string>{}(spec.name)});
  Controller controller(&lab_.scads(), &lab_.zoo(), &lab_.zsl_engine());
  SystemConfig config = system_config(backbone, /*prune_level=*/-1, run_seed);
  if (!modules.empty()) config.module_names = modules;
  scads::Selection selection = controller.select(task, config);
  std::vector<modules::Taglet> taglets =
      controller.train_taglets(task, selection, config);

  const double full = 100.0 * ensemble::ensemble_accuracy(
                                  taglets, task.test_inputs, task.test_labels);
  std::map<std::string, double> deltas;
  for (std::size_t skip = 0; skip < taglets.size(); ++skip) {
    std::vector<modules::Taglet> subset;
    for (std::size_t i = 0; i < taglets.size(); ++i) {
      if (i != skip) subset.push_back(taglets[i]);
    }
    const double acc = 100.0 * ensemble::ensemble_accuracy(
                                   subset, task.test_inputs, task.test_labels);
    // negative = removal hurts
    deltas[module_key(deltas, taglets[skip].name(), skip)] = acc - full;
  }
  return deltas;
}

}  // namespace taglets::eval
