#include "nn/sequential.hpp"

#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/check.hpp"

namespace taglets::nn {

using tensor::Tensor;

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

void Sequential::add(std::unique_ptr<Layer> layer) {
  TAGLETS_CHECK(layer, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->backward(g);
  }
  layers_.front()->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& l : layers_) {
    auto ps = l->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& l : layers_) copy->add(l->clone());
  return copy;
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

namespace {

void write_string(std::ostream& out, const std::string& s) {
  const std::uint32_t n = static_cast<std::uint32_t>(s.size());
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in) {
  std::uint32_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) throw std::runtime_error("Sequential::load: truncated");
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (!in) throw std::runtime_error("Sequential::load: truncated");
  return s;
}

}  // namespace

void Sequential::save(std::ostream& out) const {
  const std::uint32_t n = static_cast<std::uint32_t>(layers_.size());
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& l : layers_) {
    write_string(out, l->name());
    if (const auto* lin = dynamic_cast<const Linear*>(l.get())) {
      tensor::write_tensor(out, lin->weight().value);
      tensor::write_tensor(out, lin->bias().value);
    } else if (const auto* drop = dynamic_cast<const Dropout*>(l.get())) {
      const float p = drop->rate();
      out.write(reinterpret_cast<const char*>(&p), sizeof(p));
    }
  }
}

Sequential Sequential::load(std::istream& in, util::Rng& dropout_rng) {
  std::uint32_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) throw std::runtime_error("Sequential::load: truncated header");
  Sequential seq;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = read_string(in);
    if (name == "Linear") {
      Tensor w = tensor::read_tensor(in);
      Tensor b = tensor::read_tensor(in);
      seq.add(std::make_unique<Linear>(std::move(w), std::move(b)));
    } else if (name == "ReLU") {
      seq.add(std::make_unique<ReLU>());
    } else if (name == "Tanh") {
      seq.add(std::make_unique<Tanh>());
    } else if (name == "Dropout") {
      float p = 0.0f;
      in.read(reinterpret_cast<char*>(&p), sizeof(p));
      if (!in) throw std::runtime_error("Sequential::load: truncated dropout");
      seq.add(std::make_unique<Dropout>(p, dropout_rng.fork()));
    } else {
      throw std::runtime_error("Sequential::load: unknown layer " + name);
    }
  }
  return seq;
}

Sequential make_mlp(const std::vector<std::size_t>& dims, util::Rng& rng,
                    float dropout) {
  TAGLETS_CHECK_GE(dims.size(), 2, "make_mlp: need >= 2 dims");
  Sequential seq;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    seq.add(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    const bool last = (i + 2 == dims.size());
    if (!last) {
      seq.add(std::make_unique<ReLU>());
      if (dropout > 0.0f) {
        seq.add(std::make_unique<Dropout>(dropout, rng.fork()));
      }
    }
  }
  return seq;
}

}  // namespace taglets::nn
