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
//
// Precision: serving can run the distilled model with int8-quantized
// weights (per-row affine, tensor/quant.hpp) — activations stay float32
// and accuracy loss is bounded by the eval::int8_accuracy_gate check.
// Select with set_precision(Precision::kInt8) or TAGLETS_SERVE_INT8=1
// (applied at load()). Training never sees the quantized weights; see
// docs/PERFORMANCE.md.
#pragma once

#include <string>
#include <vector>

#include "nn/classifier.hpp"
#include "tensor/quant.hpp"

namespace taglets::ensemble {

/// Numeric precision of the serving forward pass.
enum class Precision { kFloat32, kInt8 };

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
  /// Batch class indices. The forward pass and the per-row argmax both
  /// run on the shared util::Parallel pool; results are identical to
  /// calling predict() row by row.
  std::vector<std::size_t> predict_batch(const tensor::Tensor& inputs);

  /// Switch the serving forward pass between float32 and int8. The
  /// first switch to kInt8 quantizes every Linear weight matrix
  /// (per-row, tensor/quant.hpp) and caches the quantized program;
  /// switching back to kFloat32 is free. Throws if the model contains a
  /// layer kind the quantized path cannot execute.
  void set_precision(Precision precision);
  Precision precision() const { return precision_; }

  nn::Classifier& model() { return model_; }
  const nn::Classifier& model() const { return model_; }

  void save(const std::string& path) const;
  /// Loads the model; honours TAGLETS_SERVE_INT8=1 by switching the
  /// loaded instance to Precision::kInt8.
  static ServableModel load(const std::string& path);

 private:
  // One step of the cached int8 forward program (flattened from the
  // encoder Sequential + head; Dropout is identity at eval and dropped).
  struct QuantOp {
    enum class Kind { kLinear, kRelu, kTanh };
    Kind kind;
    tensor::QuantizedMatrix weight;  // kLinear only
    tensor::Tensor bias;             // kLinear only
  };

  tensor::Tensor quant_logits(const tensor::Tensor& inputs) const;

  nn::Classifier model_;
  std::vector<std::string> class_names_;
  Precision precision_ = Precision::kFloat32;
  std::vector<QuantOp> quant_ops_;
};

}  // namespace taglets::ensemble
