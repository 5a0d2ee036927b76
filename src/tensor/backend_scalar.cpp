// Scalar reference backend: bit-for-bit the loops ops.cpp used before
// backends existed. Every other backend is tested against this one for
// bitwise equality (tests/backend_test.cpp), so these loops are the
// semantics of record — do not "optimize" them. This TU is compiled
// with -ffp-contract=off so the mul-then-add accumulations can never be
// fused into FMAs with different rounding than the SIMD backends.
#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/backend.hpp"

namespace taglets::tensor::backend {

namespace {

void gemm_rowblock(const float* arow, std::size_t k0, std::size_t k1,
                   const float* b, std::size_t ldb, std::size_t n,
                   float* crow) {
  for (std::size_t p = k0; p < k1; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;  // zero-skip contract: see backend.hpp
    const float* brow = b + p * ldb;
    for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
}

void gemm_rowblock2(const float* arow0, const float* arow1, std::size_t k0,
                    std::size_t k1, const float* b, std::size_t ldb,
                    std::size_t n, float* crow0, float* crow1) {
  gemm_rowblock(arow0, k0, k1, b, ldb, n, crow0);
  gemm_rowblock(arow1, k0, k1, b, ldb, n, crow1);
}

void gemm_nt2(const float* arow0, const float* arow1, std::size_t k,
              const float* bt, std::size_t ldb, std::size_t n, float* crow0,
              float* crow1) {
  for (std::size_t j = 0; j < n; ++j) {
    double s0 = 0.0;
    double s1 = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      const double b = bt[p * ldb + j];
      s0 += static_cast<double>(arow0[p]) * b;
      s1 += static_cast<double>(arow1[p]) * b;
    }
    crow0[j] = static_cast<float>(s0);
    crow1[j] = static_cast<float>(s1);
  }
}

void axpy(std::size_t n, float a, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ew_add(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void ew_sub(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void ew_mul(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void ew_scale(std::size_t n, float a, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= a;
}

void softmax_row(const float* in, std::size_t n, float* out) {
  if (n == 0) return;  // *max_element on an empty range is UB
  const float mx = *std::max_element(in, in + n);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = std::exp(in[j] - mx);
    sum += out[j];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
}

}  // namespace

namespace detail {

const Kernels& scalar_kernels() {
  static const Kernels k{
      "scalar", gemm_rowblock, gemm_rowblock2, gemm_nt2, axpy,
      ew_add,   ew_sub,        ew_mul,         ew_scale, softmax_row,
  };
  return k;
}

}  // namespace detail

}  // namespace taglets::tensor::backend
