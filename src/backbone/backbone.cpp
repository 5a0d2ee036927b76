#include "backbone/backbone.hpp"

#include <stdexcept>

#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace taglets::backbone {

using synth::Dataset;
using tensor::Tensor;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBitS: return "BiT-S (ImageNet-21k-S)";
    case Kind::kRn50S: return "ResNet50-S (ImageNet-1k-S)";
  }
  return "?";
}

Pretrained pretrain_backbone(const synth::World& world, Kind kind,
                             const PretrainConfig& config) {
  Pretrained out;
  out.kind = kind;
  out.feature_dim = config.feature_dim;
  out.pretrain_concepts = kind == Kind::kBitS
                              ? world.auxiliary_concepts()
                              : world.auxiliary_subset(config.rn50_fraction);

  util::Rng rng(util::combine_seeds(
      {world.config().seed, 0xBACBACULL, static_cast<std::uint64_t>(kind)}));
  Dataset corpus = world.make_auxiliary_corpus(
      out.pretrain_concepts, config.images_per_class, rng);

  // Encoder ends in ReLU so downstream heads see penultimate activations.
  nn::Sequential encoder;
  {
    auto mlp = nn::make_mlp(
        {world.pixel_dim(), config.hidden_dim, config.feature_dim}, rng);
    encoder = std::move(mlp);
    encoder.add(std::make_unique<nn::ReLU>());
  }

  nn::Classifier model(encoder, config.feature_dim, corpus.num_classes(), rng);
  nn::FitConfig fit;
  fit.epochs = config.epochs;
  fit.batch_size = config.batch_size;
  fit.optimizer = nn::FitConfig::Opt::kSgd;
  fit.sgd.lr = config.lr;
  fit.sgd.momentum = config.momentum;
  fit.schedule = std::make_shared<nn::StepDecayLr>(
      config.lr, std::vector<double>{0.5, 0.8});
  nn::fit_hard(model, corpus.inputs, corpus.labels, fit, rng);

  out.final_train_accuracy =
      nn::evaluate_accuracy(model, corpus.inputs, corpus.labels);
  TAGLETS_LOG(kInfo) << "pretrained " << kind_name(kind) << " on "
                     << out.pretrain_concepts.size() << " concepts, train acc "
                     << out.final_train_accuracy;
  out.encoder = model.encoder();
  return out;
}

ReferenceHead train_reference_head(const synth::World& world,
                                   Pretrained& backbone,
                                   std::span<const graph::NodeId> concepts,
                                   const PretrainConfig& config) {
  util::Rng rng(util::combine_seeds({world.config().seed, 0x2EFULL}));
  Dataset corpus =
      world.make_auxiliary_corpus(concepts, config.images_per_class, rng);

  // The encoder is frozen, so its features are computed once and the
  // head trains on the cached rows. Encoder rows are independent (and
  // the pretrained encoder has no dropout), so every batch sees the bits
  // a per-batch encoder forward would give; the RNG draws (head init,
  // then the batch shuffles) keep their order.
  nn::Sequential encoder = backbone.encoder;  // forward() caches state
  const Tensor features = encoder.forward(corpus.inputs, /*training=*/false);
  nn::Classifier model(nn::Sequential(), backbone.feature_dim,
                       corpus.num_classes(), rng);
  nn::FitConfig fit;
  fit.epochs = config.epochs + 2;  // the frozen-encoder head trains fast
  fit.batch_size = config.batch_size;
  fit.freeze_encoder = true;
  fit.optimizer = nn::FitConfig::Opt::kSgd;
  fit.sgd.lr = 0.05;
  fit.sgd.momentum = config.momentum;
  nn::fit_hard(model, features, corpus.labels, fit, rng);

  ReferenceHead head;
  head.concepts.assign(concepts.begin(), concepts.end());
  // Head weight is (feature, classes); expose per-class rows.
  head.weights = tensor::transpose(model.head().weight().value);
  head.biases = model.head().bias().value;
  return head;
}

}  // namespace taglets::backbone
