// Sequential container (our MLP building block). Also serializable so
// pretrained backbones can be cached to disk between bench invocations.
#pragma once

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "nn/layers.hpp"

namespace taglets::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// Backprops through layers n-1..1, then calls backward_params on
  /// layer 0: the input gradient is never formed.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Sequential"; }

  void zero_grad();

  /// Serialization of parameter tensors only (architecture is rebuilt by
  /// the caller; Linear layers round-trip exactly, stateless layers are
  /// recorded by name).
  void save(std::ostream& out) const;
  static Sequential load(std::istream& in, util::Rng& dropout_rng);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// MLP factory: dims = {in, hidden..., out}; ReLU between layers, no
/// activation after the last Linear (it produces logits/features).
Sequential make_mlp(const std::vector<std::size_t>& dims, util::Rng& rng,
                    float dropout = 0.0f);

}  // namespace taglets::nn
