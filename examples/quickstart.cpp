// Quickstart: build the lab environment (synthetic world + SCADS +
// pretrained backbones), run TAGLETS on a 1-shot material-recognition
// task, and compare the servable end model against plain fine-tuning.
//
//   ./examples/quickstart
#include <algorithm>
#include <iostream>
#include <vector>

#include "baselines/finetune.hpp"
#include "eval/lab.hpp"
#include "nn/trainer.hpp"
#include "taglets/controller.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace taglets;

int main() {
  util::Timer total;

  // 1. The environment: knowledge graph, auxiliary data, backbones.
  util::Timer t_lab;
  eval::Lab lab;
  std::cout << "[lab] built in " << t_lab.elapsed_seconds() << "s\n";

  // 2. A 1-shot task: classify surface materials (10 classes).
  synth::FewShotTask task = lab.task(synth::fmd_spec(), /*shots=*/1,
                                     /*split=*/0);
  std::cout << "[task] " << task.dataset_name << ": "
            << task.labeled_labels.size() << " labeled, "
            << task.unlabeled_inputs.rows() << " unlabeled, "
            << task.test_labels.size() << " test examples\n";

  // 3. Run TAGLETS end to end.
  util::Timer t_run;
  Controller controller(&lab.scads(), &lab.zoo(), &lab.zsl_engine());
  SystemConfig config;
  config.train_seed = 42;
  SystemResult result = controller.run(task, config);
  std::cout << "[taglets] trained " << result.taglets.size()
            << " taglets + end model in " << t_run.elapsed_seconds() << "s\n";
  std::cout << "[taglets] |R| = " << result.selection.data.size()
            << " selected auxiliary examples across "
            << result.selection.intermediate_classes() << " concepts\n";

  // 4. Evaluate the servable model and each taglet.
  tensor::Tensor logits =
      result.end_model.model().logits(task.test_inputs, false);
  const double taglets_acc = 100.0 * nn::accuracy(logits, task.test_labels);
  std::cout << "[accuracy] TAGLETS end model: " << taglets_acc << "%\n";
  for (auto& taglet : result.taglets) {
    const double acc = 100.0 * nn::evaluate_accuracy(
                                   taglet.model(), task.test_inputs,
                                   task.test_labels);
    std::cout << "[accuracy]   taglet " << taglet.name() << ": " << acc
              << "%\n";
  }

  // 5. Baseline for contrast: fine-tune the same backbone on the shots.
  baselines::FineTune fine_tune;
  nn::Classifier ft = fine_tune.train(
      task, lab.zoo().get(backbone::Kind::kRn50S), /*seed=*/42, 1.0);
  const double ft_acc =
      100.0 * nn::evaluate_accuracy(ft, task.test_inputs, task.test_labels);
  std::cout << "[accuracy] fine-tuning baseline: " << ft_acc << "%\n";

  // 6. The end model is a single servable classifier.
  std::cout << "[serving] end model parameters: "
            << result.end_model.parameter_count() << "\n";
  tensor::Tensor example = task.test_inputs.row_copy(0);
  std::cout << "[serving] example prediction: "
            << result.end_model.predict_name(example) << " (truth: "
            << task.class_names[task.test_labels[0]] << ")\n";
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < task.test_labels.size(); ++i) {
    const tensor::Tensor item = task.test_inputs.row_copy(i);
    util::Timer timer;
    (void)result.end_model.predict(item);
    latency_ms.push_back(timer.elapsed_ms());
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  std::cout << "[serving] latency over " << latency_ms.size()
            << " predicts: mean=" << util::mean(latency_ms) << "ms p99="
            << latency_ms[(latency_ms.size() - 1) * 99 / 100] << "ms\n";

  std::cout << "[done] total " << total.elapsed_seconds() << "s\n";
  return 0;
}
