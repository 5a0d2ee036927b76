#include "modules/multitask.hpp"

#include <stdexcept>

#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::modules {

using tensor::Tensor;

Taglet MultiTaskModule::train(const ModuleContext& context) const {
  TAGLETS_CHECK(!(context.task == nullptr ||
                context.backbone == nullptr ||
                context.selection == nullptr),
                "MultiTaskModule: incomplete context");
  const auto& task = *context.task;
  const auto& aux = context.selection->data;
  util::Rng rng = module_rng(context, name());

  nn::Sequential encoder = context.backbone->encoder;
  const std::size_t feature_dim = context.backbone->feature_dim;
  nn::Linear target_head(feature_dim, task.num_classes(), rng);
  nn::Linear aux_head(
      feature_dim,
      std::max<std::size_t>(1, context.selection->intermediate_classes()), rng);

  // Optimizer over the shared encoder plus both heads.
  std::vector<nn::Parameter*> params = encoder.parameters();
  for (auto* p : target_head.parameters()) params.push_back(p);
  for (auto* p : aux_head.parameters()) params.push_back(p);
  nn::Sgd::Config sgd;
  sgd.lr = config_.lr;
  sgd.momentum = config_.momentum;
  nn::Sgd optimizer(params, sgd);
  nn::StepDecayLr schedule(config_.lr, config_.milestones);

  std::size_t epochs = scaled_epochs(config_.epochs, context);
  const bool has_aux = aux.size() > 0;
  // Epochs iterate over the (larger) auxiliary set; a target batch is
  // drawn alongside every auxiliary batch so both losses contribute to
  // each update.
  const std::size_t driver_n = has_aux ? aux.size() : task.labeled_labels.size();
  const std::size_t steps_per_epoch =
      (driver_n + config_.batch_size - 1) / config_.batch_size;
  const std::size_t min_steps = static_cast<std::size_t>(
      static_cast<double>(config_.min_steps) * context.epoch_scale);
  if (min_steps > 0 && steps_per_epoch * epochs < min_steps) {
    epochs = (min_steps + steps_per_epoch - 1) / steps_per_epoch;
  }
  const std::size_t total_steps = steps_per_epoch * epochs;

  std::size_t step = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto aux_batches =
        nn::make_batches(driver_n, config_.batch_size, rng);
    for (const auto& aux_batch : aux_batches) {
      optimizer.set_learning_rate(schedule.rate(step, total_steps));

      // Target loss on a random labeled batch (Eq. 4).
      {
        const std::size_t nb =
            std::min(config_.batch_size, task.labeled_labels.size());
        std::vector<std::size_t> idx =
            rng.sample_without_replacement(task.labeled_labels.size(), nb);
        Tensor x = task.labeled_inputs.gather_rows(idx);
        std::vector<std::size_t> y(nb);
        for (std::size_t i = 0; i < nb; ++i) y[i] = task.labeled_labels[idx[i]];
        Tensor features = encoder.forward(x, /*training=*/true);
        Tensor logits = target_head.forward(features, true);
        auto loss = nn::cross_entropy(logits, y);
        encoder.backward_params(target_head.backward(loss.grad_logits));
      }

      // Auxiliary loss on the driver batch, scaled by lambda (Eq. 5).
      if (has_aux) {
        Tensor x = aux.inputs.gather_rows(aux_batch);
        std::vector<std::size_t> y(aux_batch.size());
        for (std::size_t i = 0; i < aux_batch.size(); ++i) {
          y[i] = aux.labels[aux_batch[i]];
        }
        Tensor features = encoder.forward(x, /*training=*/true);
        Tensor logits = aux_head.forward(features, true);
        auto loss = nn::cross_entropy(logits, y);
        Tensor scaled =
            tensor::scale(loss.grad_logits, static_cast<float>(config_.lambda));
        encoder.backward_params(aux_head.backward(scaled));
      }

      optimizer.step();
      ++step;
    }
  }

  return Taglet(name(), nn::Classifier(encoder, std::move(target_head)));
}

}  // namespace taglets::modules
