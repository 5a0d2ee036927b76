// Runtime-dispatched SIMD kernel backends for the tensor hot paths.
//
// A backend is a table of row-level microkernels (Kernels) that ops.cpp
// drives from its existing util::Parallel row-blocking; backends never
// see whole tensors, only raw rows, so the blocking, shape checks, and
// finiteness guards stay in exactly one place (ops.cpp) and are by
// construction identical across backends.
//
// Available backends:
//   scalar — bit-for-bit the pre-backend loops; always available.
//   avx2   — AVX2+FMA x86 kernels, selected at runtime via CPUID
//            (__builtin_cpu_supports), compiled only on x86.
// Other architectures (ARM included) run scalar.
//
// Selection: TAGLETS_TENSOR_BACKEND = scalar | avx2 | native
// (default native = best available). Requesting an unavailable backend
// throws std::runtime_error at first use — a misconfigured fleet node
// must fail loudly, not silently fall back to scalar.
//
// Determinism contract (enforced by tests/backend_test.cpp): for every
// kernel, each output element is computed by the same sequence of
// floating-point operations in every backend, so results are bitwise
// identical backend-to-backend:
//   * gemm_rowblock / axpy accumulate per output element in ascending-p
//     order with an explicit mul-then-add per step (the kernel sources
//     are compiled with -ffp-contract=off so the scalar loops cannot be
//     FMA-contracted into different roundings);
//   * gemm_rowblock skips p where arow[p] == 0.0f — the zero-skip
//     decision is part of the kernel contract and must be made on the
//     same scalar value in every backend (SIMD lanes vectorize j, never
//     the skip test), so even NaN/Inf columns in B are dropped or
//     propagated identically (see the TAGLETS_CHECK_FINITE guard in
//     ops.cpp for why skipping can drop 0*NaN at all);
//   * gemm_nt2 accumulates each output element in double in
//     ascending-p order, reading B^T (pre-transposed by the caller, so
//     every B access is contiguous); SIMD lanes are distinct output
//     columns and use double FMA, which is bitwise-equal to the scalar
//     mul-then-add because the product of two floats is exact in
//     double;
//   * softmax_row keeps std::exp and the double sum scalar (vectorizing
//     only the max reduction and the final scale, both lane-exact).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace taglets::tensor::backend {

/// Table of row-level microkernels. All pointers are non-null in every
/// registered backend; kernels are pure functions and thread-safe.
struct Kernels {
  const char* name;

  /// crow[j] += sum over p in [k0, k1) of arow[p] * b[p*ldb + j] for
  /// j in [0, n), accumulating in ascending-p order per j and skipping
  /// p where arow[p] == 0.0f (zero-skip contract, see header comment).
  void (*gemm_rowblock)(const float* arow, std::size_t k0, std::size_t k1,
                        const float* b, std::size_t ldb, std::size_t n,
                        float* crow);

  /// Two C rows per pass: exactly gemm_rowblock(arow0, ..., crow0)
  /// followed by gemm_rowblock(arow1, ..., crow1), but backends may
  /// interleave the rows so each loaded B strip feeds both, halving B
  /// traffic. Per-element accumulation order and the per-row zero-skip
  /// decisions are unchanged, so results stay bitwise identical to two
  /// single-row calls.
  void (*gemm_rowblock2)(const float* arow0, const float* arow1,
                         std::size_t k0, std::size_t k1, const float* b,
                         std::size_t ldb, std::size_t n, float* crow0,
                         float* crow1);

  /// Two output rows of C = A * B^T, given B^T (k x n, row stride
  /// ldb): crowR[j] = (float)(sum over p in [0, k) of
  /// (double)arowR[p] * (double)bt[p*ldb + j]) for j in [0, n) and
  /// R in {0, 1}, accumulating in ascending-p order per element with no
  /// zero-skip. arow1/crow1 may alias arow0/crow0 (an odd last row):
  /// the kernel only stores to C, never reads it.
  void (*gemm_nt2)(const float* arow0, const float* arow1, std::size_t k,
                   const float* bt, std::size_t ldb, std::size_t n,
                   float* crow0, float* crow1);

  /// y[i] += a * x[i]. No zero-skip: callers that want the matmul
  /// skip rule apply it before calling (identically for all backends).
  void (*axpy)(std::size_t n, float a, const float* x, float* y);

  /// y[i] += x[i] / y[i] -= x[i] / y[i] *= x[i] / y[i] *= a.
  void (*ew_add)(std::size_t n, const float* x, float* y);
  void (*ew_sub)(std::size_t n, const float* x, float* y);
  void (*ew_mul)(std::size_t n, const float* x, float* y);
  void (*ew_scale)(std::size_t n, float a, float* y);

  /// out = softmax(in) over one row of n elements (in != out). Max
  /// subtraction for stability; the exp/sum stage is scalar by contract.
  void (*softmax_row)(const float* in, std::size_t n, float* out);
};

/// The active backend, resolved once per process from
/// TAGLETS_TENSOR_BACKEND (+ CPUID). Hot paths call this per op, not
/// per row — it is one relaxed atomic load after the first call.
const Kernels& active();

/// Name of the active backend ("scalar" / "avx2").
std::string active_name();

/// Names of the backends usable on this machine (always contains
/// "scalar").
std::vector<std::string> available();

/// Backend by name, or nullptr when unknown/unavailable here.
const Kernels* lookup(const std::string& name);

/// Testing/bench hook: force the active backend, returning the previous
/// table (restore it when done). nullptr re-resolves from the
/// environment on next use.
const Kernels* exchange_active(const Kernels* kernels);

namespace detail {
/// Per-backend tables; avx2 returns nullptr when the instruction set
/// is missing at compile or run time.
const Kernels& scalar_kernels();
const Kernels* avx2_kernels();
}  // namespace detail

}  // namespace taglets::tensor::backend
