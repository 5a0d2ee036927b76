#include "baselines/simclr.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::baselines {

using tensor::Tensor;

ContrastiveResult nt_xent(const Tensor& features, double temperature) {
  TAGLETS_CHECK(!(!features.is_matrix() ||
                features.rows() % 2 != 0 ||
                features.rows() < 4),
                "nt_xent: need an even batch of >= 4 rows");
  const std::size_t n = features.rows();  // 2B
  const std::size_t b = n / 2;
  const std::size_t d = features.cols();
  const float inv_tau = static_cast<float>(1.0 / temperature);

  // L2-normalized views z_i and their norms.
  Tensor z = features;
  std::vector<float> norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = z.row(i);
    float nv = tensor::l2_norm(row);
    if (nv < 1e-8f) nv = 1e-8f;
    norms[i] = nv;
    for (float& x : row) x /= nv;
  }

  // Similarity matrix s_ij = z_i . z_j / tau and row softmax excluding
  // the diagonal.
  Tensor sim = tensor::matmul_nt(z, z);
  for (float& x : sim.data()) x *= inv_tau;

  auto positive_of = [&](std::size_t i) { return i < b ? i + b : i - b; };

  Tensor p = Tensor::zeros(n, n);  // P_ik, zero on diagonal
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    float mx = -1e30f;
    for (std::size_t k = 0; k < n; ++k) {
      if (k != i) mx = std::max(mx, sim.at(i, k));
    }
    double denom = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      const double e = std::exp(sim.at(i, k) - mx);
      p.at(i, k) = static_cast<float>(e);
      denom += e;
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (k != i) p.at(i, k) /= static_cast<float>(denom);
    }
    loss -= std::log(static_cast<double>(p.at(i, positive_of(i))) + 1e-30);
  }
  loss /= static_cast<double>(n);

  // dL/dz_i = (1/(n*tau)) sum_{k != i} [ (P_ik - d_{k,pos(i)})
  //                                    + (P_ki - d_{i,pos(k)}) ] z_k
  Tensor coeff = Tensor::zeros(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      float c = p.at(i, k) + p.at(k, i);
      if (k == positive_of(i)) c -= 1.0f;
      if (i == positive_of(k)) c -= 1.0f;
      coeff.at(i, k) = c;
    }
  }
  Tensor dz = tensor::matmul(coeff, z);
  const float scale = inv_tau / static_cast<float>(n);
  for (float& x : dz.data()) x *= scale;

  // Through the normalization: df_i = (dz_i - (dz_i . z_i) z_i) / ||f_i||.
  Tensor df = Tensor::zeros(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    auto zi = z.row(i);
    auto gi = dz.row(i);
    const float proj = tensor::dot(gi, zi);
    auto out = df.row(i);
    for (std::size_t j = 0; j < d; ++j) {
      out[j] = (gi[j] - proj * zi[j]) / norms[i];
    }
  }
  return ContrastiveResult{loss, std::move(df)};
}

nn::Classifier SimClr::train(const synth::FewShotTask& task,
                             const backbone::Pretrained& backbone,
                             std::uint64_t seed, double epoch_scale) const {
  util::Rng rng = baseline_rng(seed, name());
  const std::size_t pixel_dim = task.labeled_inputs.cols();

  // From-scratch encoder with the same architecture family as the
  // pretrained backbones (SimCLRv2 does not use supervised pretraining).
  nn::Sequential encoder =
      nn::make_mlp({pixel_dim, config_.hidden_dim, config_.feature_dim}, rng);
  encoder.add(std::make_unique<nn::ReLU>());
  (void)backbone;

  // Contrastive corpus: unlabeled plus labeled inputs.
  Tensor corpus = task.unlabeled_inputs;
  if (corpus.rows() == 0) {
    corpus = task.labeled_inputs;
  }

  nn::Sgd::Config sgd;
  sgd.lr = config_.pretrain_lr;
  sgd.momentum = config_.momentum;
  nn::Sgd optimizer(encoder.parameters(), sgd);

  const std::size_t epochs = scale_epochs(config_.pretrain_epochs, epoch_scale);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& batch :
         nn::make_batches(corpus.rows(), config_.batch_size, rng)) {
      if (batch.size() < 2) continue;
      Tensor x = corpus.gather_rows(batch);
      Tensor view_a = synth::weak_augment(x, rng, config_.augment);
      Tensor view_b = synth::strong_augment(x, rng, config_.augment);
      // Stack the two views: rows (i, i+B) are positives.
      Tensor both = Tensor::zeros(2 * batch.size(), pixel_dim);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        auto a = view_a.row(i);
        std::copy(a.begin(), a.end(), both.row(i).begin());
        auto bview = view_b.row(i);
        std::copy(bview.begin(), bview.end(),
                  both.row(batch.size() + i).begin());
      }
      Tensor feats = encoder.forward(both, /*training=*/true);
      auto contrastive = nt_xent(feats, config_.temperature);
      encoder.backward_params(contrastive.grad_features);
      optimizer.step();
    }
  }

  // Supervised fine-tuning on the labeled shots.
  nn::Classifier model(encoder, config_.feature_dim, task.num_classes(), rng);
  nn::FitConfig fit;
  fit.epochs = scale_epochs(config_.finetune_epochs, epoch_scale);
  fit.batch_size = config_.batch_size;
  fit.sgd.lr = config_.finetune_lr;
  fit.sgd.momentum = config_.momentum;
  fit.min_steps = static_cast<std::size_t>(
      static_cast<double>(config_.finetune_min_steps) * epoch_scale);
  nn::fit_hard(model, task.labeled_inputs, task.labeled_labels, fit, rng);
  return model;
}

}  // namespace taglets::baselines
