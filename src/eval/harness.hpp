// Experiment harness: runs (method x backbone x shots x split x seed)
// cells of the paper's tables and the per-module diagnostics behind its
// figures. Seed count and epoch scaling are configurable through the
// TAGLETS_SEEDS / TAGLETS_FAST environment variables so the bench
// binaries stay argument-free.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "eval/lab.hpp"
#include "taglets/controller.hpp"
#include "util/stats.hpp"

namespace taglets::eval {

/// Method identifiers used in the tables.
inline constexpr const char* kFineTuning = "fine-tuning";
inline constexpr const char* kFineTuningDistilled = "fine-tuning (distilled)";
inline constexpr const char* kFixMatch = "fixmatch";
inline constexpr const char* kMetaPseudoLabels = "meta pseudo labels";
inline constexpr const char* kSimClr = "simclrv2";
inline constexpr const char* kTaglets = "taglets";

struct Cell {
  std::string method;
  backbone::Kind backbone = backbone::Kind::kRn50S;
  /// Pruning level applied to SCADS selection (TAGLETS rows only).
  int prune_level = -1;
};

class Harness {
 public:
  /// `seeds == 0` reads TAGLETS_SEEDS (default 3); `epoch_scale <= 0`
  /// reads TAGLETS_FAST (1 -> 0.34) else 1.0.
  explicit Harness(Lab& lab, std::size_t seeds = 0, double epoch_scale = 0.0);

  std::size_t seeds() const { return seeds_; }
  double epoch_scale() const { return epoch_scale_; }
  Lab& lab() { return lab_; }

  /// One method accuracy (%) for a single training seed.
  double run_once(const synth::TaskSpec& spec, std::size_t shots,
                  std::size_t split, const Cell& cell, std::uint64_t seed);

  /// Accuracy (%) summarized over the configured seeds — a table cell.
  util::MeanCi run_cell(const synth::TaskSpec& spec, std::size_t shots,
                        std::size_t split, const Cell& cell);

  /// Per-module diagnostics for one TAGLETS run (Figures 4-6, 8-13):
  /// individual taglet accuracies, their mean, the ensemble accuracy,
  /// and the distilled end-model accuracy, all in %. Map keys are
  /// module names, disambiguated with "#<slot>" when the line-up
  /// repeats a module. `modules` overrides the default line-up when
  /// non-empty.
  struct ModuleDiagnostics {
    std::map<std::string, double> module_accuracy;
    double module_mean = 0.0;
    double ensemble = 0.0;
    double end_model = 0.0;
  };
  ModuleDiagnostics run_modules(const synth::TaskSpec& spec, std::size_t shots,
                                std::size_t split, backbone::Kind backbone,
                                int prune_level, std::uint64_t seed,
                                const std::vector<std::string>& modules = {});

  /// Leave-one-out ablation (Figure 6): accuracy delta (%) of the
  /// ensemble when each module is removed, for one seed. Keys follow
  /// the run_modules disambiguation rule, so duplicate module names
  /// never overwrite each other's entry.
  std::map<std::string, double> run_leave_one_out(
      const synth::TaskSpec& spec, std::size_t shots, std::size_t split,
      backbone::Kind backbone, std::uint64_t seed,
      const std::vector<std::string>& modules = {});

  /// TAGLETS SystemConfig for this harness (selection defaults etc.).
  SystemConfig system_config(backbone::Kind backbone, int prune_level,
                             std::uint64_t seed) const;

 private:
  Lab& lab_;
  std::size_t seeds_;
  double epoch_scale_;
};

}  // namespace taglets::eval
