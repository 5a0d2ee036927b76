// Tensor operations used by the NN substrate, the graph-embedding code
// (retrofitting, cosine search), and the ensemble math. Matmul uses
// cache-blocked loops parallelized over row blocks via util::Parallel
// (bitwise-identical results at every TAGLETS_THREADS setting); the
// inner row kernels are dispatched through tensor/backend.hpp
// (TAGLETS_TENSOR_BACKEND = scalar | avx2 | native) under a
// bitwise-determinism contract, so results are also identical at every
// backend setting — see docs/PERFORMANCE.md. All functions validate
// shapes via TAGLETS_CHECK (throwing util::ContractViolation, see
// docs/CORRECTNESS.md) so shape bugs fail loudly rather than silently.
// The matmul zero-skip fast path additionally rejects non-finite
// operands in debug builds (or with TAGLETS_CHECK_FINITE=1), since
// skipping 0 * NaN would silently drop NaN/Inf propagation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace taglets::tensor {

/// Toggle the matmul finiteness guard at runtime (defaults: on in debug
/// builds, TAGLETS_CHECK_FINITE elsewhere). Returns the previous value.
bool set_finite_checks(bool enabled);
/// Whether the matmul finiteness guard is currently active (shared by
/// all kernels with a zero-skip fast path).
bool finite_checks_enabled();

// ---- matrix products -------------------------------------------------

/// C = A(mxk) * B(kxn).
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T * B for A (k x m), B (k x n): exactly matmul(transpose(a), b),
/// bit for bit.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A * B^T, accumulated per element in double (no zero-skip).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);

// ---- elementwise -----------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor hadamard(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
/// a += s * b (AXPY).
void add_scaled_inplace(Tensor& a, const Tensor& b, float s);
/// Add a rank-1 bias to every row of a matrix.
Tensor add_row_broadcast(const Tensor& a, const Tensor& bias);

// ---- reductions ------------------------------------------------------

float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> a);
/// Cosine similarity; 0 when either vector has zero norm.
float cosine_similarity(std::span<const float> a, std::span<const float> b);
/// Column sums of a matrix as a rank-1 tensor.
Tensor column_sums(const Tensor& a);
/// Mean over rows as a rank-1 tensor.
Tensor row_mean(const Tensor& a);

// ---- probability helpers --------------------------------------------

/// Numerically stable softmax of each row (matrix) or of the vector.
Tensor softmax(const Tensor& logits);
/// Stable log-softmax.
Tensor log_softmax(const Tensor& logits);
/// Index of the max element per row.
std::vector<std::size_t> argmax_rows(const Tensor& a);
std::size_t argmax(std::span<const float> a);
/// Max element per row.
std::vector<float> max_rows(const Tensor& a);

/// L2-normalize each row in place; zero rows are left untouched.
void normalize_rows(Tensor& a);

/// Top-k indices by descending value (ties broken by lower index).
std::vector<std::size_t> top_k_indices(std::span<const float> values,
                                       std::size_t k);

}  // namespace taglets::tensor
