// pipeline-oh1: Controller::run on OfficeHome-Product-S, 1-shot, with
// product defaults, and the pipeline part of every traced run.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ensemble/distill.hpp"
#include "ensemble/ensemble.hpp"
#include "eval/lab.hpp"
#include "obs/trace.hpp"
#include "taglets/controller.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace taglets::bench {

namespace {

/// Cold set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Tasks per run. Timed runs cycle through them, so the medians and
/// the accuracy mean rest on several splits instead of one.
constexpr std::size_t kTasks = 5;

/// The environment every pipeline run needs, built cold: no disk cache,
/// so a run neither reads nor leaves backbones behind.
std::unique_ptr<eval::Lab> make_lab() {
  eval::LabConfig config;
  config.cache_dir = std::string();
  return std::make_unique<eval::Lab>(config);
}

/// Pretrains what Controller::run would otherwise build on first use:
/// the default backbone and the ZSL reference head. (Set-up then builds
/// the ZSL-KG engine, which the traced run times on its own.)
void warm_lab(eval::Lab& lab) {
  lab.zoo().get(SystemConfig().backbone);
  lab.zoo().zsl_reference();
}

/// Task k of a run: its split and its training seed both derive from
/// the run's seed.
std::uint64_t task_seed(const Options& options, std::size_t k) {
  return options.seed * kTasks + k;
}

synth::FewShotTask make_task(eval::Lab& lab, std::uint64_t seed) {
  return lab.task(synth::officehome_product_spec(), /*shots=*/1, /*split=*/seed);
}

/// Product defaults throughout; the plan is left to the product.
SystemConfig pipeline_config(std::uint64_t seed) {
  SystemConfig config;
  config.train_seed = seed;
  return config;
}

tensor::Tensor test_logits(SystemResult& result,
                           const synth::FewShotTask& task) {
  return result.end_model.model().logits(task.test_inputs, false);
}

double accuracy(const tensor::Tensor& logits,
                const std::vector<std::size_t>& labels) {
  std::size_t right = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto row = logits.row(i);
    const auto best = std::max_element(row.begin(), row.end()) - row.begin();
    if (static_cast<std::size_t>(best) == labels[i]) ++right;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(right) /
                              static_cast<double>(labels.size());
}

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

double seconds_of(const SpanStats* stats) {
  return stats == nullptr ? 0.0 : stats->incl_us * 1e-6;
}

const SpanStats* find_stats(const std::map<std::string, SpanStats>& stats,
                            const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? nullptr : &it->second;
}

std::string attr(const obs::TraceEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.attrs) {
    if (k == key) return v;
  }
  return "";
}

}  // namespace

Result run_pipeline(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<eval::Lab> lab;
  for (int i = 0; i < kSetups; ++i) {
    lab.reset();
    util::Timer timer;
    lab = make_lab();
    warm_lab(*lab);
    lab->zsl_engine();
    setup_s.push_back(timer.elapsed_seconds());
  }

  std::vector<synth::FewShotTask> tasks;
  for (std::size_t k = 0; k < kTasks; ++k) {
    tasks.push_back(make_task(*lab, task_seed(options, k)));
  }
  Controller controller(&lab->scads(), &lab->zoo(), &lab->zsl_engine());

  util::Timer warm_timer;
  SystemResult warm = controller.run(tasks[0], pipeline_config(task_seed(options, 0)));
  const double warm_s = warm_timer.elapsed_seconds();

  // First test logits of each task; a task that runs again must repeat
  // them bit for bit, the warm-up's included.
  std::vector<tensor::Tensor> logits(kTasks);
  logits[0] = test_logits(warm, tasks[0]);
  std::vector<double> run_ms, cpu_ms;
  bool identical = true;
  double timed_s = 0.0;
  for (std::size_t r = 0; r < kTasks || timed_s < options.seconds; ++r) {
    const std::size_t k = r % kTasks;
    const SystemConfig config = pipeline_config(task_seed(options, k));
    const double cpu0 = process_cpu_seconds();
    util::Timer timer;
    SystemResult run = controller.run(tasks[k], config);
    const double seconds = timer.elapsed_seconds();
    cpu_ms.push_back(1e3 * (process_cpu_seconds() - cpu0));
    run_ms.push_back(1e3 * seconds);
    timed_s += seconds;
    tensor::Tensor out = test_logits(run, tasks[k]);
    if (logits[k].empty()) {
      logits[k] = std::move(out);
    } else {
      identical = identical && bitwise_equal(out, logits[k]);
    }
  }
  std::vector<double> accuracies;
  for (std::size_t k = 0; k < kTasks; ++k) {
    accuracies.push_back(accuracy(logits[k], tasks[k].test_labels));
  }

  result.attempted = run_ms.size();
  result.check("a task's test logits are bitwise identical across runs", identical);
  result.metrics["setup_s"] = {median(setup_s), "s"};
  result.metrics["p50_ms"] = {median(run_ms), "ms"};
  // No percentile above the median has ten of the 5-6 timed runs beyond
  // it, so the tail reported is the median too; the slowest run (a
  // maximum, which spread 11-24% across seeds) is recorded in info.
  result.metrics["p99_ms"] = {median(run_ms), "ms"};
  result.metrics["throughput"] = {
      static_cast<double>(run_ms.size()) / timed_s, "1/s"};
  result.metrics["cpu_ms_per_op"] = {median(cpu_ms), "ms"};
  result.metrics["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  result.metrics["accuracy"] = {mean(accuracies), "fraction"};
  result.info["runs"] = static_cast<double>(run_ms.size());
  result.info["warmup_ms"] = 1e3 * warm_s;
  result.info["run_ms_min"] = *std::min_element(run_ms.begin(), run_ms.end());
  result.info["run_ms_max"] = *std::max_element(run_ms.begin(), run_ms.end());
  result.info["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  result.info["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());
  result.info["aux_examples"] = static_cast<double>(warm.selection.data.size());
  result.info["classes"] = static_cast<double>(tasks[0].num_classes());
  result.info["unlabeled"] = static_cast<double>(tasks[0].unlabeled_inputs.rows());
  return result;
}

void pipeline_layers(const Options& options, bool own, Result& result) {
  // Each layer is timed from outside, around its public call, with the
  // tracer off: tracing the product's nested spans would inflate them
  // (a traced Controller::run took 2-9% longer).
  util::Timer timer;
  std::unique_ptr<eval::Lab> lab = make_lab();
  const double lab_s = timer.elapsed_seconds();
  timer.reset();
  warm_lab(*lab);
  const double pretrain_s = timer.elapsed_seconds();
  timer.reset();
  lab->zsl_engine();
  const double zsl_engine_s = timer.elapsed_seconds();

  const synth::FewShotTask task = make_task(*lab, task_seed(options, 0));
  const SystemConfig config = pipeline_config(task_seed(options, 0));
  Controller controller(&lab->scads(), &lab->zoo(), &lab->zsl_engine());
  controller.run(task, config);  // warm-up
  timer.reset();
  SystemResult reference = controller.run(task, config);
  const double untraced_s = timer.elapsed_seconds();

  // The same work, one layer at a time and uncontended.
  timer.reset();
  const scads::Selection selection = controller.select(task, config);
  const double select_s = timer.elapsed_seconds();
  std::vector<modules::Taglet> taglets;
  std::map<std::string, double> alone_s;
  for (const std::string& name : config.module_names) {
    SystemConfig alone = config;
    alone.module_names = {name};
    timer.reset();
    taglets.push_back(std::move(controller.train_taglets(task, selection, alone)[0]));
    alone_s[name] = timer.elapsed_seconds();
  }
  timer.reset();
  const tensor::Tensor pseudo =
      ensemble::ensemble_proba(taglets, task.unlabeled_inputs);
  const double vote_s = timer.elapsed_seconds();
  const backbone::Pretrained& phi = lab->zoo().get(config.backbone);
  util::Rng rng(util::combine_seeds({config.train_seed, 0xE4DULL}));
  timer.reset();
  nn::Classifier end_model =
      ensemble::train_end_model(task, pseudo, phi.encoder, phi.feature_dim,
                                config.end_model, rng, config.epoch_scale);
  const double distill_s = timer.elapsed_seconds();
  result.check("layer-by-layer pseudo labels equal Controller::run's bitwise",
               bitwise_equal(pseudo, reference.pseudo_labels));
  result.check("layer-by-layer end model equals Controller::run's bitwise",
               bitwise_equal(end_model.logits(task.test_inputs, false),
                             test_logits(reference, task)));

  // One traced run: where the time goes inside Controller::run.
  obs::Tracer& tracer = obs::Tracer::global();
  obs::set_trace_enabled(true);
  const double begin_us = tracer.now_us();
  controller.run(task, config);
  const double end_us = tracer.now_us();
  obs::set_trace_enabled(false);

  auto& m = result.metrics;
  m["eval.lab_build_s"] = {lab_s, "s"};
  m["backbone.pretrain_s"] = {pretrain_s, "s"};
  m["modules.zsl_engine_s"] = {zsl_engine_s, "s"};
  m["scads.select_s"] = {select_s, "s"};
  m["scads.aux_examples"] = {static_cast<double>(selection.data.size()), "count"};
  m["ensemble.vote_s"] = {vote_s, "s"};
  m["ensemble.distill_s"] = {distill_s, "s"};

  // Scheduled (contended) module time from the product's own spans.
  std::map<std::string, double> sched_s;
  std::optional<obs::TraceEvent> run_span, last_module;
  double traced_selection_s = 0.0, traced_vote_s = 0.0, traced_distill_s = 0.0;
  for (obs::TraceEvent& e : tracer.snapshot()) {
    if (e.ts_us < begin_us || e.ts_us > end_us) continue;
    if (e.name == "pipeline.scads_selection") traced_selection_s = e.dur_us * 1e-6;
    if (e.name == "pipeline.ensemble_vote") traced_vote_s = e.dur_us * 1e-6;
    if (e.name == "pipeline.distillation") traced_distill_s = e.dur_us * 1e-6;
    if (e.name == "module.train") {
      sched_s[attr(e, "module")] += e.dur_us * 1e-6;
      if (!last_module ||
          e.ts_us + e.dur_us > last_module->ts_us + last_module->dur_us) {
        last_module = e;
      }
    }
    if (e.name == "pipeline.run") run_span = std::move(e);
  }
  double longest_supervised_s = 0.0;
  for (const std::string& name : config.module_names) {
    m["modules." + name + ".train_s"] = {alone_s[name], "s"};
    m["modules." + name + ".sched_s"] = {sched_s[name], "s"};
    if (name != "zsl-kg") {
      longest_supervised_s = std::max(longest_supervised_s, alone_s[name]);
    }
  }
  // zsl-kg needs no selection, so it runs beside select + the others.
  const double critical_s =
      std::max(select_s + longest_supervised_s, alone_s["zsl-kg"]) + vote_s +
      distill_s;
  m["taglets.critical_path_s"] = {critical_s, "s"};
  m["taglets.sched_ratio"] = {untraced_s / critical_s, "ratio"};

  // Share of the traced run's wall time that the spans on its critical
  // path cover: selection (unless zsl-kg finished last), the module
  // that finished last, the vote and the distillation.
  double share = 0.0;
  if (run_span && last_module) {
    const bool zsl_last = attr(*last_module, "module") == "zsl-kg";
    const double chain_s = (zsl_last ? 0.0 : traced_selection_s) +
                           last_module->dur_us * 1e-6 + traced_vote_s +
                           traced_distill_s;
    share = chain_s / (run_span->dur_us * 1e-6);
  }
  m["taglets.critical_span_share"] = {share, "fraction"};
  result.check("critical-path spans cover >= 90% of the traced run",
               share >= 0.9, "share " + std::to_string(share));

  const auto spans = reduce_spans(tracer_spans(begin_us, end_us));
  const SpanStats* epochs = find_stats(spans, "nn.epoch");
  const SpanStats* loops = find_stats(spans, "parallel.for_ranges");
  m["nn.epochs"] = {epochs ? static_cast<double>(epochs->count) : 0.0, "count"};
  m["nn.epoch_self_s"] = {epochs ? epochs->self_us * 1e-6 : 0.0, "s"};
  m["util.parallel_for_calls"] = {
      loops ? static_cast<double>(loops->count) : 0.0, "count"};
  m["util.parallel_for_incl_s"] = {seconds_of(loops), "s"};

  const double traced_s = (end_us - begin_us) * 1e-6;
  result.info["pipeline_untraced_s"] = untraced_s;
  result.info["pipeline_traced_s"] = traced_s;
  if (own) {
    m["obs.trace_overhead"] = {traced_s / untraced_s, "ratio"};
    result.spans = spans;
    result.raw_trace = tracer.export_json();
  }
  tracer.clear();
}

}  // namespace taglets::bench
