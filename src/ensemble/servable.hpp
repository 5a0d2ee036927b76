// Servable end model (design principle 3 / challenge 3: low-latency
// serving under SLAs). Wraps a single distilled classifier and
// serializes it to a compact binary file — in contrast to serving the
// whole taglet ensemble, whose cost grows with the number of modules.
// The model does not time itself; serve::Server times every batch.
//
// Concurrency: one model instance must not run two forward passes at
// once (layers cache activations on the instance — see
// nn/layers.hpp). Concurrent serving uses one replica per thread;
// serve::Server does exactly that.
#pragma once

#include <string>
#include <vector>

#include "nn/classifier.hpp"

namespace taglets::ensemble {

class ServableModel {
 public:
  ServableModel(nn::Classifier model, std::vector<std::string> class_names);

  const std::vector<std::string>& class_names() const { return class_names_; }
  std::size_t num_classes() const { return class_names_.size(); }
  /// Trainable scalar count — the "model size" serving cares about.
  std::size_t parameter_count() { return model_.parameter_count(); }

  /// Predict the class index of one example.
  std::size_t predict(const tensor::Tensor& example);
  /// Predict class name of one example.
  const std::string& predict_name(const tensor::Tensor& example);
  /// Batch probabilities.
  tensor::Tensor predict_proba(const tensor::Tensor& inputs);
  /// Batch class indices: one forward pass, then a per-row argmax on
  /// the calling thread. Results are identical to calling predict()
  /// row by row.
  std::vector<std::size_t> predict_batch(const tensor::Tensor& inputs);

  nn::Classifier& model() { return model_; }
  const nn::Classifier& model() const { return model_; }

  void save(const std::string& path) const;
  static ServableModel load(const std::string& path);

 private:
  nn::Classifier model_;
  std::vector<std::string> class_names_;
};

}  // namespace taglets::ensemble
