// AVX2+FMA backend. Compiled with -mavx2 -mfma on x86 only (see
// src/tensor/CMakeLists.txt) and selected at runtime via
// __builtin_cpu_supports, so the binary stays runnable on pre-AVX2
// machines.
//
// Bitwise equality with the scalar backend (the determinism contract in
// backend.hpp) shapes every kernel here:
//  * float kernels vectorize across OUTPUT elements (the j axis) and
//    use explicit _mm256_mul_ps + _mm256_add_ps — never float FMA —
//    so each lane performs exactly the scalar op sequence;
//  * the zero-skip test in gemm_rowblock stays a scalar branch on
//    arow[p], identical to the scalar backend's decision;
//  * gemm_nt2 may use double FMA: the product of two floats is exact
//    in double (48 < 53 significand bits), so fmadd rounds once exactly
//    like the scalar mul-then-add;
//  * softmax_row vectorizes only the max reduction and the final scale
//    (max is order-insensitive for finite floats up to the sign of
//    zero, and exp(+0.0f) == exp(-0.0f) == 1.0f makes that harmless);
//    std::exp and the double sum stay scalar.
//
// The speedup over the (auto-vectorized, -march=native) scalar backend
// comes from register tiling: gemm_rowblock holds a 16-wide strip of C
// in two ymm accumulators across the whole k-block instead of storing
// and reloading C for every p.
#include <cstddef>
#include <cstdint>

#include "tensor/backend.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace taglets::tensor::backend {

namespace {

// kCheckZero=false is taken only when the caller proved the A block has
// no zeros, so dropping the test cannot change which p are skipped —
// the op sequence per element is identical, just without the (port-
// stealing) ucomiss per p in the hot loop.
template <bool kCheckZero>
void gemm_rowblock_impl(const float* arow, std::size_t k0, std::size_t k1,
                        const float* b, std::size_t ldb, std::size_t n,
                        float* crow) {
  std::size_t j = 0;
  // 64-wide strips: eight independent accumulator chains keep the FP
  // add ports saturated (one chain's add latency would otherwise gate
  // every p step), and C stays in registers across the whole k-block.
  for (; j + 64 <= n; j += 64) {
    float* cj = crow + j;
    __m256 c0 = _mm256_loadu_ps(cj);
    __m256 c1 = _mm256_loadu_ps(cj + 8);
    __m256 c2 = _mm256_loadu_ps(cj + 16);
    __m256 c3 = _mm256_loadu_ps(cj + 24);
    __m256 c4 = _mm256_loadu_ps(cj + 32);
    __m256 c5 = _mm256_loadu_ps(cj + 40);
    __m256 c6 = _mm256_loadu_ps(cj + 48);
    __m256 c7 = _mm256_loadu_ps(cj + 56);
    for (std::size_t p = k0; p < k1; ++p) {
      const float av = arow[p];
      if constexpr (kCheckZero) {
        if (av == 0.0f) continue;  // zero-skip contract: see backend.hpp
      }
      const __m256 va = _mm256_set1_ps(av);
      const float* brow = b + p * ldb + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
      c4 = _mm256_add_ps(c4, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 32)));
      c5 = _mm256_add_ps(c5, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 40)));
      c6 = _mm256_add_ps(c6, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 48)));
      c7 = _mm256_add_ps(c7, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 56)));
    }
    _mm256_storeu_ps(cj, c0);
    _mm256_storeu_ps(cj + 8, c1);
    _mm256_storeu_ps(cj + 16, c2);
    _mm256_storeu_ps(cj + 24, c3);
    _mm256_storeu_ps(cj + 32, c4);
    _mm256_storeu_ps(cj + 40, c5);
    _mm256_storeu_ps(cj + 48, c6);
    _mm256_storeu_ps(cj + 56, c7);
  }
  for (; j + 16 <= n; j += 16) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    __m256 c1 = _mm256_loadu_ps(crow + j + 8);
    for (std::size_t p = k0; p < k1; ++p) {
      const float av = arow[p];
      if constexpr (kCheckZero) {
        if (av == 0.0f) continue;
      }
      const __m256 va = _mm256_set1_ps(av);
      const float* brow = b + p * ldb + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
    }
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + 8, c1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    for (std::size_t p = k0; p < k1; ++p) {
      const float av = arow[p];
      if constexpr (kCheckZero) {
        if (av == 0.0f) continue;
      }
      c0 = _mm256_add_ps(
          c0, _mm256_mul_ps(_mm256_set1_ps(av),
                            _mm256_loadu_ps(b + p * ldb + j)));
    }
    _mm256_storeu_ps(crow + j, c0);
  }
  if (j < n) {
    for (std::size_t p = k0; p < k1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (std::size_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

bool block_has_zero(const float* arow, std::size_t k0, std::size_t k1) {
  for (std::size_t p = k0; p < k1; ++p) {
    if (arow[p] == 0.0f) return true;
  }
  return false;
}

void gemm_rowblock(const float* arow, std::size_t k0, std::size_t k1,
                   const float* b, std::size_t ldb, std::size_t n,
                   float* crow) {
  if (block_has_zero(arow, k0, k1)) {
    gemm_rowblock_impl<true>(arow, k0, k1, b, ldb, n, crow);
  } else {
    gemm_rowblock_impl<false>(arow, k0, k1, b, ldb, n, crow);
  }
}

template <bool kCheckZero>
void gemm_rowblock2_impl(const float* arow0, const float* arow1,
                         std::size_t k0, std::size_t k1, const float* b,
                         std::size_t ldb, std::size_t n, float* crow0,
                         float* crow1) {
  std::size_t j = 0;
  // 32-wide strips over two C rows: each loaded B strip feeds both
  // rows, halving B traffic vs two single-row passes, with the same
  // eight independent accumulator chains. The zero-skip decision stays
  // per-row, so each element sees exactly the single-row op sequence.
  for (; j + 32 <= n; j += 32) {
    float* c0j = crow0 + j;
    float* c1j = crow1 + j;
    __m256 a0 = _mm256_loadu_ps(c0j);
    __m256 a1 = _mm256_loadu_ps(c0j + 8);
    __m256 a2 = _mm256_loadu_ps(c0j + 16);
    __m256 a3 = _mm256_loadu_ps(c0j + 24);
    __m256 d0 = _mm256_loadu_ps(c1j);
    __m256 d1 = _mm256_loadu_ps(c1j + 8);
    __m256 d2 = _mm256_loadu_ps(c1j + 16);
    __m256 d3 = _mm256_loadu_ps(c1j + 24);
    for (std::size_t p = k0; p < k1; ++p) {
      const float v0 = arow0[p];
      const float v1 = arow1[p];
      const float* brow = b + p * ldb + j;
      if constexpr (kCheckZero) {
        const bool use0 = v0 != 0.0f;  // zero-skip contract, per row
        const bool use1 = v1 != 0.0f;
        if (!use0 && !use1) continue;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        if (use0) {
          const __m256 va = _mm256_set1_ps(v0);
          a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, b0));
          a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, b1));
          a2 = _mm256_add_ps(a2, _mm256_mul_ps(va, b2));
          a3 = _mm256_add_ps(a3, _mm256_mul_ps(va, b3));
        }
        if (use1) {
          const __m256 va = _mm256_set1_ps(v1);
          d0 = _mm256_add_ps(d0, _mm256_mul_ps(va, b0));
          d1 = _mm256_add_ps(d1, _mm256_mul_ps(va, b1));
          d2 = _mm256_add_ps(d2, _mm256_mul_ps(va, b2));
          d3 = _mm256_add_ps(d3, _mm256_mul_ps(va, b3));
        }
      } else {
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        const __m256 va0 = _mm256_set1_ps(v0);
        const __m256 va1 = _mm256_set1_ps(v1);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(va0, b0));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(va0, b1));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(va0, b2));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(va0, b3));
        d0 = _mm256_add_ps(d0, _mm256_mul_ps(va1, b0));
        d1 = _mm256_add_ps(d1, _mm256_mul_ps(va1, b1));
        d2 = _mm256_add_ps(d2, _mm256_mul_ps(va1, b2));
        d3 = _mm256_add_ps(d3, _mm256_mul_ps(va1, b3));
      }
    }
    _mm256_storeu_ps(c0j, a0);
    _mm256_storeu_ps(c0j + 8, a1);
    _mm256_storeu_ps(c0j + 16, a2);
    _mm256_storeu_ps(c0j + 24, a3);
    _mm256_storeu_ps(c1j, d0);
    _mm256_storeu_ps(c1j + 8, d1);
    _mm256_storeu_ps(c1j + 16, d2);
    _mm256_storeu_ps(c1j + 24, d3);
  }
  if (j < n) {
    gemm_rowblock_impl<kCheckZero>(arow0, k0, k1, b + j, ldb, n - j,
                                   crow0 + j);
    gemm_rowblock_impl<kCheckZero>(arow1, k0, k1, b + j, ldb, n - j,
                                   crow1 + j);
  }
}

void gemm_rowblock2(const float* arow0, const float* arow1, std::size_t k0,
                    std::size_t k1, const float* b, std::size_t ldb,
                    std::size_t n, float* crow0, float* crow1) {
  if (block_has_zero(arow0, k0, k1) || block_has_zero(arow1, k0, k1)) {
    gemm_rowblock2_impl<true>(arow0, arow1, k0, k1, b, ldb, n, crow0, crow1);
  } else {
    gemm_rowblock2_impl<false>(arow0, arow1, k0, k1, b, ldb, n, crow0,
                               crow1);
  }
}

void gemm_nt2(const float* arow0, const float* arow1, std::size_t k,
              const float* bt, std::size_t ldb, std::size_t n, float* crow0,
              float* crow1) {
  std::size_t j = 0;
  // 16-column strips over two C rows: eight double accumulator chains
  // (2 rows x 4 quads) stay in registers across all of k, and each
  // contiguous B^T strip, widened once, feeds both rows. Lanes are
  // distinct output columns and walk p serially, so the per-element
  // order matches the scalar backend.
  for (; j + 16 <= n; j += 16) {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d d0 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
    __m256d d2 = _mm256_setzero_pd(), d3 = _mm256_setzero_pd();
    const float* bp = bt + j;
    for (std::size_t p = 0; p < k; ++p, bp += ldb) {
      const __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(bp));
      const __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
      const __m256d b2 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 8));
      const __m256d b3 = _mm256_cvtps_pd(_mm_loadu_ps(bp + 12));
      const __m256d v0 = _mm256_set1_pd(static_cast<double>(arow0[p]));
      const __m256d v1 = _mm256_set1_pd(static_cast<double>(arow1[p]));
      // Exact-product double FMA == scalar mul-then-add (see header).
      a0 = _mm256_fmadd_pd(v0, b0, a0);
      a1 = _mm256_fmadd_pd(v0, b1, a1);
      a2 = _mm256_fmadd_pd(v0, b2, a2);
      a3 = _mm256_fmadd_pd(v0, b3, a3);
      d0 = _mm256_fmadd_pd(v1, b0, d0);
      d1 = _mm256_fmadd_pd(v1, b1, d1);
      d2 = _mm256_fmadd_pd(v1, b2, d2);
      d3 = _mm256_fmadd_pd(v1, b3, d3);
    }
    _mm_storeu_ps(crow0 + j, _mm256_cvtpd_ps(a0));
    _mm_storeu_ps(crow0 + j + 4, _mm256_cvtpd_ps(a1));
    _mm_storeu_ps(crow0 + j + 8, _mm256_cvtpd_ps(a2));
    _mm_storeu_ps(crow0 + j + 12, _mm256_cvtpd_ps(a3));
    _mm_storeu_ps(crow1 + j, _mm256_cvtpd_ps(d0));
    _mm_storeu_ps(crow1 + j + 4, _mm256_cvtpd_ps(d1));
    _mm_storeu_ps(crow1 + j + 8, _mm256_cvtpd_ps(d2));
    _mm_storeu_ps(crow1 + j + 12, _mm256_cvtpd_ps(d3));
  }
  for (; j < n; ++j) {
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
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ew_add(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void ew_sub(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ew_mul(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ew_scale(std::size_t n, float a, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= a;
}

void softmax_row(const float* in, std::size_t n, float* out) {
  if (n == 0) return;
  float mx;
  std::size_t j;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(in);
    for (j = 8; j + 8 <= n; j += 8) {
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(in + j));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vm);
    mx = lanes[0];
    for (int l = 1; l < 8; ++l) mx = mx < lanes[l] ? lanes[l] : mx;
  } else {
    mx = in[0];
    j = 1;
  }
  for (; j < n; ++j) mx = mx < in[j] ? in[j] : mx;
  double sum = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = std::exp(in[t] - mx);
    sum += out[t];
  }
  const float inv = static_cast<float>(1.0 / sum);
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    _mm256_storeu_ps(out + t, _mm256_mul_ps(_mm256_loadu_ps(out + t), vinv));
  }
  for (; t < n; ++t) out[t] *= inv;
}

}  // namespace

namespace detail {

const Kernels* avx2_kernels() {
  // gemm_nt2 uses fmadd_pd, so require FMA alongside AVX2.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const Kernels k{
      "avx2", gemm_rowblock, gemm_rowblock2, gemm_nt2, axpy,
      ew_add, ew_sub,        ew_mul,         ew_scale, softmax_row,
  };
  return &k;
}

}  // namespace detail

}  // namespace taglets::tensor::backend

#else  // non-x86: the avx2 backend does not exist on this architecture

namespace taglets::tensor::backend::detail {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace taglets::tensor::backend::detail

#endif
