// Classifier = encoder backbone + linear classification head. This is
// the shape every TAGLETS component shares: modules fine-tune a
// pretrained encoder phi with a freshly initialized head (App. A.5: "a
// single fully-connected layer" appended to the backbone), ZSL-KG
// installs a predicted head without target-task training, and the end
// model is one more classifier distilled from the ensemble.
#pragma once

#include <cstddef>
#include <istream>
#include <memory>
#include <ostream>

#include "nn/sequential.hpp"

namespace taglets::nn {

class Classifier {
 public:
  /// New head (Kaiming init) on a copy of the given encoder.
  Classifier(const Sequential& encoder, std::size_t feature_dim,
             std::size_t num_classes, util::Rng& rng);
  /// Install an explicit head (ZSL-KG path).
  Classifier(const Sequential& encoder, Linear head);

  Classifier(const Classifier& other);
  Classifier& operator=(const Classifier& other);
  Classifier(Classifier&&) = default;
  Classifier& operator=(Classifier&&) = default;

  std::size_t num_classes() const { return head_->out_features(); }
  std::size_t feature_dim() const { return head_->in_features(); }
  /// Width of the example vectors the encoder expects (equals
  /// feature_dim() when the encoder has no Linear layer).
  std::size_t input_dim() const;

  /// Encoder output for a batch (no head).
  tensor::Tensor features(const tensor::Tensor& inputs, bool training = false);
  /// Head(encoder(x)) logits.
  tensor::Tensor logits(const tensor::Tensor& inputs, bool training = false);
  /// softmax(logits); rows are probability vectors.
  tensor::Tensor predict_proba(const tensor::Tensor& inputs);
  /// argmax class per row.
  std::vector<std::size_t> predict(const tensor::Tensor& inputs);

  /// Backprop a dL/dlogits gradient through head and (unless frozen)
  /// encoder. Must follow a matching logits(..., training) call. The
  /// gradient of the inputs is never formed: with the encoder frozen the
  /// head stops at its parameters, otherwise the encoder's first layer
  /// does (Layer::backward_params).
  void backward(const tensor::Tensor& grad_logits);

  /// Trainable parameters; encoder excluded when frozen.
  std::vector<Parameter*> parameters();
  void zero_grad();

  void set_encoder_frozen(bool frozen) { encoder_frozen_ = frozen; }
  bool encoder_frozen() const { return encoder_frozen_; }

  Sequential& encoder() { return encoder_; }
  const Sequential& encoder() const { return encoder_; }
  Linear& head() { return *head_; }
  const Linear& head() const { return *head_; }

  /// Number of trainable scalars; the "servable size" the distillation
  /// stage is meant to bound.
  std::size_t parameter_count();

  void save(std::ostream& out) const;
  static Classifier load(std::istream& in, util::Rng& rng);

 private:
  Sequential encoder_;
  std::unique_ptr<Linear> head_;
  bool encoder_frozen_ = false;
};

}  // namespace taglets::nn
