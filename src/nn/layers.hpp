// Layer abstraction with hand-written backprop. A layer caches whatever
// it needs during forward() and consumes it in the next backward();
// forward/backward calls therefore come in matched pairs (standard
// single-stream training, which is all the TAGLETS pipeline needs).
// backward_params() is the variant for a layer whose input is data
// rather than another layer's output: it accumulates the same parameter
// gradients but skips dL/d(input), which nobody reads there (for Linear
// that is the whole g * W^T product).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace taglets::nn {

/// A trainable tensor together with its gradient accumulator.
struct Parameter {
  tensor::Tensor value;
  tensor::Tensor grad;

  explicit Parameter(tensor::Tensor v)
      : value(std::move(v)),
        grad(value.is_matrix() ? tensor::Tensor::zeros(value.rows(), value.cols())
                               : tensor::Tensor::zeros(value.size())) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass on a batch (rows = examples). `training` toggles
  /// stochastic behaviour such as dropout.
  virtual tensor::Tensor forward(const tensor::Tensor& input, bool training) = 0;

  /// Backprop: takes dL/d(output), accumulates parameter gradients, and
  /// returns dL/d(input). Must be called after a matching forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Backprop for parameter gradients only: accumulates exactly what
  /// backward() does, bit for bit, without returning dL/d(input). The
  /// default runs backward() and drops its result.
  virtual void backward_params(const tensor::Tensor& grad_output) {
    backward(grad_output);
  }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::unique_ptr<Layer> clone() const = 0;
  virtual std::string name() const = 0;
};

/// Fully connected layer: y = x W + b, W is (in, out).
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);
  /// Construct from explicit weights (used by ZSL-KG to install predicted
  /// classification heads, Section 3.2.4 step 2).
  Linear(tensor::Tensor weight, tensor::Tensor bias);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// dW and db only: skips the dx = g * W^T product.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  Parameter weight_;
  Parameter bias_;
  tensor::Tensor cached_input_;
};

class ReLU : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor cached_input_;
};

class Tanh : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Tanh"; }

 private:
  tensor::Tensor cached_output_;
};

/// Inverted dropout; identity at evaluation time.
class Dropout : public Layer {
 public:
  Dropout(float p, util::Rng rng);

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Dropout"; }
  float rate() const { return p_; }

 private:
  float p_;
  util::Rng rng_;
  tensor::Tensor cached_mask_;
};

}  // namespace taglets::nn
