#include "nn/classifier.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace taglets::nn {

using tensor::Tensor;

Classifier::Classifier(const Sequential& encoder, std::size_t feature_dim,
                       std::size_t num_classes, util::Rng& rng)
    : encoder_(encoder),
      head_(std::make_unique<Linear>(feature_dim, num_classes, rng)) {}

Classifier::Classifier(const Sequential& encoder, Linear head)
    : encoder_(encoder), head_(std::make_unique<Linear>(std::move(head))) {}

Classifier::Classifier(const Classifier& other)
    : encoder_(other.encoder_),
      head_(std::make_unique<Linear>(*other.head_)),
      encoder_frozen_(other.encoder_frozen_) {}

Classifier& Classifier::operator=(const Classifier& other) {
  if (this == &other) return *this;
  encoder_ = other.encoder_;
  head_ = std::make_unique<Linear>(*other.head_);
  encoder_frozen_ = other.encoder_frozen_;
  return *this;
}

std::size_t Classifier::input_dim() const {
  // The first Linear fixes the expected width; any layers before it
  // (activations, dropout) are width-preserving.
  for (std::size_t i = 0; i < encoder_.layer_count(); ++i) {
    if (const auto* linear = dynamic_cast<const Linear*>(&encoder_.layer(i))) {
      return linear->in_features();
    }
  }
  return feature_dim();
}

Tensor Classifier::features(const Tensor& inputs, bool training) {
  return encoder_.forward(inputs, training);
}

Tensor Classifier::logits(const Tensor& inputs, bool training) {
  return head_->forward(encoder_.forward(inputs, training), training);
}

Tensor Classifier::predict_proba(const Tensor& inputs) {
  return tensor::softmax(logits(inputs, /*training=*/false));
}

std::vector<std::size_t> Classifier::predict(const Tensor& inputs) {
  return tensor::argmax_rows(logits(inputs, /*training=*/false));
}

void Classifier::backward(const Tensor& grad_logits) {
  if (encoder_frozen_) {
    head_->backward_params(grad_logits);
  } else {
    encoder_.backward_params(head_->backward(grad_logits));
  }
}

std::vector<Parameter*> Classifier::parameters() {
  std::vector<Parameter*> out;
  if (!encoder_frozen_) out = encoder_.parameters();
  auto hp = head_->parameters();
  out.insert(out.end(), hp.begin(), hp.end());
  return out;
}

void Classifier::zero_grad() {
  encoder_.zero_grad();
  for (Parameter* p : head_->parameters()) p->zero_grad();
}

std::size_t Classifier::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : encoder_.parameters()) n += p->value.size();
  for (Parameter* p : head_->parameters()) n += p->value.size();
  return n;
}

void Classifier::save(std::ostream& out) const {
  encoder_.save(out);
  Sequential head_only;
  head_only.add(head_->clone());
  head_only.save(out);
}

Classifier Classifier::load(std::istream& in, util::Rng& rng) {
  Sequential encoder = Sequential::load(in, rng);
  Sequential head_seq = Sequential::load(in, rng);
  if (head_seq.layer_count() != 1) {
    throw std::runtime_error("Classifier::load: malformed head");
  }
  auto* lin = dynamic_cast<Linear*>(&head_seq.layer(0));
  if (lin == nullptr) {
    throw std::runtime_error("Classifier::load: head is not Linear");
  }
  return Classifier(encoder, Linear(lin->weight().value, lin->bias().value));
}

}  // namespace taglets::nn
