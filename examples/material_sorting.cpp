// Waste-sorting material recognizer (the FMD use case the paper
// motivates: "support waste sorting and recycling"). Shows the
// production-facing side of TAGLETS: train once, save the servable end
// model to disk, reload it in a "serving process", and measure
// single-example latency against an SLA budget.
//
//   ./examples/material_sorting
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

#include "ensemble/servable.hpp"
#include "eval/lab.hpp"
#include "nn/trainer.hpp"
#include "taglets/controller.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace taglets;

int main() {
  eval::Lab lab;

  // 5 labeled photos per material class; the rest of the pool unlabeled.
  synth::FewShotTask task = lab.task(synth::fmd_spec(), /*shots=*/5,
                                     /*split=*/0);
  std::cout << "[task] " << task.num_classes() << " material classes, "
            << task.labeled_labels.size() << " labeled photos, "
            << task.unlabeled_inputs.rows() << " unlabeled\n";

  Controller controller(&lab.scads(), &lab.zoo(), &lab.zsl_engine());
  SystemConfig config;
  config.train_seed = 3;
  SystemResult result = controller.run(task, config);
  std::cout << "[train] system trained in " << result.train_seconds << "s\n";

  // Persist the distilled model — the artifact a serving fleet deploys.
  const std::string path =
      (std::filesystem::temp_directory_path() / "material_sorter.bin")
          .string();
  result.end_model.save(path);
  std::cout << "[deploy] saved servable model ("
            << std::filesystem::file_size(path) << " bytes, "
            << result.end_model.parameter_count() << " parameters) to "
            << path << "\n";

  // "Serving process": reload and classify a stream of items.
  ensemble::ServableModel server = ensemble::ServableModel::load(path);
  std::size_t correct = 0;
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < task.test_labels.size(); ++i) {
    tensor::Tensor item = task.test_inputs.row_copy(i);
    util::Timer timer;
    const std::size_t predicted = server.predict(item);
    latency_ms.push_back(timer.elapsed_ms());
    if (predicted == task.test_labels[i]) ++correct;
  }
  std::cout << "[serve] accuracy over " << task.test_labels.size()
            << " items: "
            << 100.0 * static_cast<double>(correct) /
                   static_cast<double>(task.test_labels.size())
            << "%\n";
  std::sort(latency_ms.begin(), latency_ms.end());
  const double p99 = latency_ms[(latency_ms.size() - 1) * 99 / 100];
  std::cout << "[serve] latency: mean=" << util::mean(latency_ms)
            << "ms p99=" << p99 << "ms\n";
  std::cout << "[serve] SLA check (p99 < 5ms): "
            << (p99 < 5.0 ? "PASS" : "FAIL") << "\n";

  // Show a few individual decisions.
  for (std::size_t i = 0; i < 5; ++i) {
    tensor::Tensor item = task.test_inputs.row_copy(i);
    std::cout << "[serve] item " << i << ": predicted '"
              << server.predict_name(item) << "', truth '"
              << task.class_names[task.test_labels[i]] << "'\n";
  }
  std::filesystem::remove(path);
  return 0;
}
