#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::nn {

using tensor::Tensor;

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng)
    : weight_(kaiming_normal(in_features, out_features, rng)),
      bias_(Tensor::zeros(out_features)) {}

Linear::Linear(Tensor weight, Tensor bias)
    : weight_(std::move(weight)), bias_(std::move(bias)) {
  TAGLETS_CHECK(!(!weight_.value.is_matrix() ||
                !bias_.value.is_vector() ||
                bias_.value.size() != weight_.value.cols()),
                "Linear: weight/bias shape mismatch");
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return tensor::add_row_broadcast(tensor::matmul(input, weight_.value),
                                   bias_.value);
}

Tensor Linear::backward(const Tensor& grad_output) {
  // dW += x^T g ; db += column sums of g ; dx = g W^T.
  backward_params(grad_output);
  return tensor::matmul_nt(grad_output, weight_.value);
}

void Linear::backward_params(const Tensor& grad_output) {
  Tensor dw = tensor::matmul_tn(cached_input_, grad_output);
  tensor::add_scaled_inplace(weight_.grad, dw, 1.0f);
  Tensor db = tensor::column_sums(grad_output);
  tensor::add_scaled_inplace(bias_.grad, db, 1.0f);
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(weight_.value, bias_.value);
}

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = input;
  for (float& x : out.data()) x = x > 0.0f ? x : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  auto gd = grad.data();
  auto in = cached_input_.data();
  TAGLETS_CHECK_EQ(gd.size(), in.size(),
                   "ReLU::backward without matching forward");
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (in[i] <= 0.0f) gd[i] = 0.0f;
  }
  return grad;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  for (float& x : out.data()) x = std::tanh(x);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  auto gd = grad.data();
  auto od = cached_output_.data();
  TAGLETS_CHECK_EQ(gd.size(), od.size(),
                   "Tanh::backward without matching forward");
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= 1.0f - od[i] * od[i];
  return grad;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

Dropout::Dropout(float p, util::Rng rng) : p_(p), rng_(rng) {
  TAGLETS_CHECK(!(p < 0.0f || p >= 1.0f), "Dropout: p must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0f) {
    cached_mask_ = Tensor();
    return input;
  }
  cached_mask_ = input;  // reuse shape
  const float keep = 1.0f - p_;
  for (float& m : cached_mask_.data()) {
    m = rng_.bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  return tensor::hadamard(input, cached_mask_);
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (cached_mask_.empty()) return grad_output;
  return tensor::hadamard(grad_output, cached_mask_);
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(p_, rng_);
}

}  // namespace taglets::nn
