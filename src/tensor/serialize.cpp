#include "tensor/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace taglets::tensor {

namespace {

constexpr char kMagic[4] = {'T', 'G', 'T', '1'};
// Payload read granularity: 1 MiB of floats.
constexpr std::size_t kChunkFloats = (std::size_t{1} << 20) / sizeof(float);

template <typename T>
void write_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("read_tensor: truncated stream");
  return value;
}

}  // namespace

void write_tensor(std::ostream& out, const Tensor& t) {
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(t.rank()));
  write_pod<std::uint64_t>(out, t.rows());
  write_pod<std::uint64_t>(out, t.cols());
  auto data = t.data();
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
  if (!out) throw std::runtime_error("write_tensor: stream failure");
}

Tensor read_tensor(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("read_tensor: bad magic");
  }
  const auto rank = read_pod<std::uint32_t>(in);
  const auto rows = read_pod<std::uint64_t>(in);
  const auto cols = read_pod<std::uint64_t>(in);
  if (rank != 1 && rank != 2) throw std::runtime_error("read_tensor: bad rank");
  if (cols != 0 && rows > std::numeric_limits<std::uint64_t>::max() /
                              sizeof(float) / cols) {
    throw std::runtime_error("read_tensor: element count overflows");
  }
  const std::uint64_t count = rows * cols;
  // The header is untrusted: read the payload in bounded chunks, so
  // memory grows only with the bytes actually present and a header that
  // claims more than the stream holds fails as truncated.
  std::vector<float> values;
  while (values.size() < count) {
    const std::size_t offset = values.size();
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(count - offset, kChunkFloats));
    values.resize(offset + chunk);
    in.read(reinterpret_cast<char*>(values.data() + offset),
            static_cast<std::streamsize>(chunk * sizeof(float)));
    if (!in) throw std::runtime_error("read_tensor: truncated payload");
  }
  if (rank == 1) {
    if (cols != 1) throw std::runtime_error("read_tensor: rank-1 cols != 1");
    return Tensor::from_vector(std::move(values));
  }
  return Tensor::from_matrix(rows, cols, std::move(values));
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_tensor: cannot open " + path);
  write_tensor(out, t);
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_tensor: cannot open " + path);
  return read_tensor(in);
}

}  // namespace taglets::tensor
