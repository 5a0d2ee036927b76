#include "tensor/ops.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "tensor/backend.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace taglets::tensor {

namespace {

constexpr std::size_t kBlock = 64;

// -1 = resolve lazily from build mode / TAGLETS_CHECK_FINITE.
std::atomic<int> g_finite_checks{-1};

// The matmul kernels skip zero multiplicands for speed, which silently
// drops NaN/Inf propagation (0 * NaN must be NaN). Keep the fast path,
// but in debug mode (or with TAGLETS_CHECK_FINITE=1) reject non-finite
// operands so the skip can never mask a poisoned tensor.
void debug_check_finite(const Tensor& t, const char* what) {
  if (!finite_checks_enabled()) return;
  TAGLETS_CHECK_FINITE(t, what,
                       ": non-finite operand (zero-skip fast path would "
                       "drop NaN/Inf propagation)");
}

}  // namespace

bool set_finite_checks(bool enabled) {
  const int prev = g_finite_checks.exchange(enabled ? 1 : 0,
                                            std::memory_order_relaxed);
  return prev > 0;
}

bool finite_checks_enabled() {
  int v = g_finite_checks.load(std::memory_order_relaxed);
  if (v < 0) {
#ifndef NDEBUG
    v = 1;
#else
    v = util::env_flag("TAGLETS_CHECK_FINITE") ? 1 : 0;
#endif
    g_finite_checks.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

// matmul and matmul_nt parallelize over disjoint row blocks of C
// through util::Parallel and hand each row block to the active backend
// (tensor/backend.hpp); matmul_tn is matmul over a transposed A. Each
// output row is accumulated by exactly one chunk in the same p-order as
// the serial loop, so results are bitwise-identical at every thread
// count — and, by the backend determinism contract, at every
// TAGLETS_TENSOR_BACKEND setting.

Tensor matmul(const Tensor& a, const Tensor& b) {
  TAGLETS_CHECK(a.is_matrix() && b.is_matrix(), "matmul: rank-2 required");
  TAGLETS_CHECK(a.cols() == b.rows(), "matmul: inner dim mismatch");
  debug_check_finite(a, "matmul");
  debug_check_finite(b, "matmul");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c = Tensor::zeros(m, n);
  const backend::Kernels& kern = backend::active();
  const float* bp = b.data().data();
  // i-k-j loop order with blocking on k: the innermost (backend) loop
  // walks both B and C rows contiguously.
  util::parallel_for_ranges(m, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t kk = 0; kk < k; kk += kBlock) {
      const std::size_t kend = std::min(k, kk + kBlock);
      // Paired rows share each loaded B strip (see gemm_rowblock2);
      // results are bitwise identical to the single-row path.
      std::size_t i = r0;
      for (; i + 1 < r1; i += 2) {
        kern.gemm_rowblock2(a.row(i).data(), a.row(i + 1).data(), kk, kend,
                            bp, n, n, c.row(i).data(), c.row(i + 1).data());
      }
      if (i < r1) {
        kern.gemm_rowblock(a.row(i).data(), kk, kend, bp, n, n,
                           c.row(i).data());
      }
    }
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  TAGLETS_CHECK(a.is_matrix() && b.is_matrix(), "matmul_tn: rank-2 required");
  TAGLETS_CHECK(a.rows() == b.rows(), "matmul_tn: inner dim mismatch");
  // Per output element this is the op sequence of a p-outer axpy loop
  // over the rows of a: ascending p, float mul-then-add, and the
  // zero-skip decided on the same scalar a[p][i]. So the register-tiled
  // matmul kernels give the same bits once a^T is materialized.
  return matmul(transpose(a), b);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  TAGLETS_CHECK(a.is_matrix() && b.is_matrix(), "matmul_nt: rank-2 required");
  TAGLETS_CHECK(a.cols() == b.cols(), "matmul_nt: inner dim mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c = Tensor::zeros(m, n);
  // One transpose per call, so the kernel reads B^T rows contiguously
  // instead of striding down the rows of B.
  const Tensor bt = transpose(b);
  const backend::Kernels& kern = backend::active();
  const float* btp = bt.data().data();
  util::parallel_for_ranges(m, [&](std::size_t r0, std::size_t r1) {
    std::size_t i = r0;
    for (; i + 1 < r1; i += 2) {
      kern.gemm_nt2(a.row(i).data(), a.row(i + 1).data(), k, btp, n, n,
                    c.row(i).data(), c.row(i + 1).data());
    }
    if (i < r1) {
      // An odd last row runs as both rows of the pair (the kernel only
      // stores to C, so the aliased second row rewrites the same bits).
      kern.gemm_nt2(a.row(i).data(), a.row(i).data(), k, btp, n, n,
                    c.row(i).data(), c.row(i).data());
    }
  });
  return c;
}

Tensor transpose(const Tensor& a) {
  TAGLETS_CHECK(a.is_matrix(), "transpose: rank-2 required");
  Tensor t = Tensor::zeros(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

Tensor add(const Tensor& a, const Tensor& b) {
  TAGLETS_CHECK(same_shape(a, b), "add: shape mismatch");
  Tensor c = a;
  backend::active().ew_add(c.size(), b.data().data(), c.data().data());
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  TAGLETS_CHECK(same_shape(a, b), "sub: shape mismatch");
  Tensor c = a;
  backend::active().ew_sub(c.size(), b.data().data(), c.data().data());
  return c;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  TAGLETS_CHECK(same_shape(a, b), "hadamard: shape mismatch");
  Tensor c = a;
  backend::active().ew_mul(c.size(), b.data().data(), c.data().data());
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  backend::active().ew_scale(c.size(), s, c.data().data());
  return c;
}

void add_scaled_inplace(Tensor& a, const Tensor& b, float s) {
  TAGLETS_CHECK(same_shape(a, b), "add_scaled_inplace: shape mismatch");
  // No zero-skip on s: unlike matmul this is a single pass, and the
  // optimizer update path relies on a += 0 * b normalizing -0.0 the
  // same way the historical loop did.
  backend::active().axpy(a.size(), s, b.data().data(), a.data().data());
}

Tensor add_row_broadcast(const Tensor& a, const Tensor& bias) {
  TAGLETS_CHECK(a.is_matrix(), "add_row_broadcast: matrix required");
  TAGLETS_CHECK(bias.is_vector() && bias.size() == a.cols(),
          "add_row_broadcast: bias size mismatch");
  Tensor c = a;
  const backend::Kernels& kern = backend::active();
  const float* bp = bias.data().data();
  for (std::size_t i = 0; i < c.rows(); ++i) {
    kern.ew_add(c.cols(), bp, c.row(i).data());
  }
  return c;
}

float dot(std::span<const float> a, std::span<const float> b) {
  TAGLETS_CHECK(a.size() == b.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(s);
}

float l2_norm(std::span<const float> a) {
  double s = 0.0;
  for (float x : a) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

float cosine_similarity(std::span<const float> a, std::span<const float> b) {
  const float na = l2_norm(a), nb = l2_norm(b);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return dot(a, b) / (na * nb);
}

Tensor column_sums(const Tensor& a) {
  TAGLETS_CHECK(a.is_matrix(), "column_sums: matrix required");
  Tensor out = Tensor::zeros(a.cols());
  const backend::Kernels& kern = backend::active();
  float* op = out.data().data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    kern.ew_add(a.cols(), a.row(i).data(), op);
  }
  return out;
}

Tensor row_mean(const Tensor& a) {
  Tensor out = column_sums(a);
  if (a.rows() > 0) {
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] /= static_cast<float>(a.rows());
    }
  }
  return out;
}

Tensor softmax(const Tensor& logits) {
  const backend::Kernels& kern = backend::active();
  if (logits.is_vector()) {
    Tensor out = Tensor::zeros(logits.size());
    kern.softmax_row(logits.data().data(), logits.size(), out.data().data());
    return out;
  }
  Tensor out = Tensor::zeros(logits.rows(), logits.cols());
  // Rows are independent; batches below the threshold stay serial so
  // chunk dispatch never dominates tiny softmaxes. Either path produces
  // identical bits per row.
  constexpr std::size_t kParallelMinRows = 64;
  auto run_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      kern.softmax_row(logits.row(i).data(), logits.cols(),
                       out.row(i).data());
    }
  };
  if (logits.rows() >= kParallelMinRows) {
    util::parallel_for_ranges(logits.rows(), run_rows);
  } else {
    run_rows(0, logits.rows());
  }
  return out;
}

Tensor log_softmax(const Tensor& logits) {
  TAGLETS_CHECK(logits.is_matrix() || logits.is_vector(),
                "log_softmax: bad rank");
  Tensor out = logits;
  const std::size_t rows = logits.is_matrix() ? logits.rows() : 1;
  const std::size_t cols = logits.is_matrix() ? logits.cols() : logits.size();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = out.data().data() + i * cols;
    const float mx = *std::max_element(row, row + cols);
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) sum += std::exp(row[j] - mx);
    const float lse = mx + static_cast<float>(std::log(sum));
    for (std::size_t j = 0; j < cols; ++j) row[j] -= lse;
  }
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& a) {
  std::vector<std::size_t> out;
  if (a.is_vector()) {
    out.push_back(argmax(a.data()));
    return out;
  }
  out.reserve(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) out.push_back(argmax(a.row(i)));
  return out;
}

std::size_t argmax(std::span<const float> a) {
  TAGLETS_CHECK(!a.empty(), "argmax: empty");
  return static_cast<std::size_t>(
      std::max_element(a.begin(), a.end()) - a.begin());
}

std::vector<float> max_rows(const Tensor& a) {
  TAGLETS_CHECK(a.is_matrix(), "max_rows: matrix required");
  std::vector<float> out;
  out.reserve(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto row = a.row(i);
    out.push_back(*std::max_element(row.begin(), row.end()));
  }
  return out;
}

void normalize_rows(Tensor& a) {
  if (a.is_vector()) {
    const float n = l2_norm(a.data());
    if (n > 0.0f) {
      for (float& x : a.data()) x /= n;
    }
    return;
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto row = a.row(i);
    const float n = l2_norm(row);
    if (n > 0.0f) {
      for (float& x : row) x /= n;
    }
  }
}

std::vector<std::size_t> top_k_indices(std::span<const float> values,
                                       std::size_t k) {
  std::vector<std::size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), 0);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k), idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace taglets::tensor
