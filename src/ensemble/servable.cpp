#include "ensemble/servable.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"

namespace taglets::ensemble {

using tensor::Tensor;

ServableModel::ServableModel(nn::Classifier model,
                             std::vector<std::string> class_names)
    : model_(std::move(model)), class_names_(std::move(class_names)) {
  TAGLETS_CHECK_EQ(class_names_.size(), model_.num_classes(),
                   "ServableModel: class name count mismatch");
}

std::vector<std::size_t> ServableModel::predict_batch(const Tensor& inputs) {
  // One forward pass for the whole batch, then a plain per-row argmax:
  // a row is a few dozen floats, far too little to be worth a
  // fork-join. Rows are independent, so the labels match a serial
  // per-row predict() bit for bit.
  Tensor logits = model_.logits(inputs, /*training=*/false);
  std::vector<std::size_t> labels(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    labels[i] = tensor::argmax(logits.row(i));
  }
  return labels;
}

std::size_t ServableModel::predict(const Tensor& example) {
  Tensor batch = example.is_vector() ? example.reshape(1, example.size())
                                     : example;
  return predict_batch(batch).at(0);
}

const std::string& ServableModel::predict_name(const Tensor& example) {
  return class_names_.at(predict(example));
}

Tensor ServableModel::predict_proba(const Tensor& inputs) {
  return model_.predict_proba(inputs);
}

namespace {

// File format: magic, class-name table, then the classifier (whose
// tensors carry their own magic/rank checks — see tensor/serialize.cpp).
constexpr char kMagic[4] = {'T', 'G', 'S', '1'};
// Sanity caps so a corrupted header is reported as such instead of
// turning into a multi-gigabyte allocation.
constexpr std::uint32_t kMaxClasses = 1u << 20;
constexpr std::uint32_t kMaxNameLength = 1u << 12;

[[noreturn]] void load_error(const std::string& path, const std::string& why) {
  throw std::runtime_error("ServableModel::load: " + path + ": " + why);
}

}  // namespace

void ServableModel::save(const std::string& path) const {
  // Atomic write-temp-then-rename: a crash or injected fault
  // (TAGLETS_FAULT=servable.save:N) never leaves a partial model file.
  util::atomic_write_stream(path, "servable.save", [&](std::ostream& out) {
    out.write(kMagic, sizeof(kMagic));
    const std::uint32_t n = static_cast<std::uint32_t>(class_names_.size());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const std::string& name : class_names_) {
      const std::uint32_t len = static_cast<std::uint32_t>(name.size());
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(name.data(), len);
    }
    model_.save(out);
    if (!out) {
      throw std::runtime_error("ServableModel::save: write failed for " + path);
    }
  });
}

ServableModel ServableModel::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ServableModel::load: cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    load_error(path, "bad magic (not a servable model file)");
  }
  std::uint32_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) load_error(path, "truncated header");
  if (n == 0 || n > kMaxClasses) load_error(path, "corrupt class count");
  std::vector<std::string> names(n);
  for (auto& name : names) {
    std::uint32_t len = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!in) load_error(path, "truncated class-name table");
    if (len > kMaxNameLength) load_error(path, "corrupt class-name length");
    name.resize(len);
    in.read(name.data(), len);
    if (!in) load_error(path, "truncated class name");
  }
  util::Rng rng(0);
  nn::Classifier model = [&] {
    try {
      return nn::Classifier::load(in, rng);
    } catch (const std::exception& e) {
      load_error(path, e.what());
    }
  }();
  if (model.num_classes() != names.size()) {
    load_error(path, "class-name count (" + std::to_string(names.size()) +
                         ") does not match classifier output dimension (" +
                         std::to_string(model.num_classes()) + ")");
  }
  return ServableModel(std::move(model), std::move(names));
}

}  // namespace taglets::ensemble
