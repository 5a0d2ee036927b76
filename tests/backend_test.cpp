// Tests for the runtime-dispatched tensor backends (tensor/backend.hpp):
//  * registry / TAGLETS_TENSOR_BACKEND selection behaviour,
//  * the bitwise-determinism contract across backends, pinned over
//    adversarial shapes (k = 0, 1xN, odd tails, signed zeros,
//    denormals) and over the NaN zero-skip policy,
//  * matmul_tn / matmul_nt pinned bitwise to the loops they replaced
//    (kept below as reference implementations),
//  * property checks of every backend against a naive triple loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/classifier.hpp"
#include "nn/sequential.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace taglets::tensor {
namespace {

// RAII override of the active backend (mirrors the pattern the benches
// use for the thread pool).
class BackendOverride {
 public:
  explicit BackendOverride(const backend::Kernels* kernels)
      : prev_(backend::exchange_active(kernels)) {}
  ~BackendOverride() { backend::exchange_active(prev_); }
  BackendOverride(const BackendOverride&) = delete;
  BackendOverride& operator=(const BackendOverride&) = delete;

 private:
  const backend::Kernels* prev_;
};

std::vector<const backend::Kernels*> all_backends() {
  std::vector<const backend::Kernels*> out;
  for (const std::string& name : backend::available()) {
    out.push_back(backend::lookup(name));
  }
  return out;
}

Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

// Sprinkle the adversarial values the zero-skip / determinism contract
// cares about: exact zeros of both signs and denormals.
void poison(Tensor& t, util::Rng& rng) {
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.15) {
      d[i] = 0.0f;
    } else if (u < 0.25) {
      d[i] = -0.0f;
    } else if (u < 0.32) {
      d[i] = std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + (i % 7));
    }
  }
}

void expect_same_bits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(same_shape(a, b)) << what;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    std::uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, &ad[i], sizeof(ua));
    std::memcpy(&ub, &bd[i], sizeof(ub));
    ASSERT_EQ(ua, ub) << what << ": bit mismatch at index " << i << " ("
                      << ad[i] << " vs " << bd[i] << ")";
  }
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::zeros(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(k, j);
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

// The loops matmul_tn and matmul_nt ran before they moved onto the
// register-tiled kernels, kept verbatim as their semantics of record
// (this TU is compiled with -ffp-contract=off, like the kernels).
// matmul_tn: p-outer axpy over the rows of A, with the zero-skip taken
// on a[p][i] before the axpy.
Tensor reference_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Tensor c = Tensor::zeros(m, n);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.row(p).data();
    const float* brow = b.row(p).data();
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i).data();
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

// matmul_nt: one double dot product per output element, ascending p.
Tensor reference_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c = Tensor::zeros(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.row(j).data();
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s += static_cast<double>(arow[p]) * brow[p];
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(same_shape(a, b))
      << a.shape_string() << " vs " << b.shape_string();
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    ASSERT_NEAR(ad[i], bd[i], tol) << "at index " << i;
  }
}

// ---------------------------------------------------------- registry

TEST(BackendRegistry, ScalarAlwaysAvailable) {
  const auto names = backend::available();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  EXPECT_NE(backend::lookup("scalar"), nullptr);
  EXPECT_EQ(backend::lookup("scalar"), &backend::detail::scalar_kernels());
}

TEST(BackendRegistry, LookupUnknownReturnsNull) {
  EXPECT_EQ(backend::lookup("bogus"), nullptr);
  EXPECT_EQ(backend::lookup(""), nullptr);
  // ARM builds run the scalar backend; there is no "neon" table.
  EXPECT_EQ(backend::lookup("neon"), nullptr);
}

TEST(BackendRegistry, ActiveNameIsListed) {
  const std::string name = backend::active_name();
  const auto names = backend::available();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
}

TEST(BackendRegistry, ExchangeActiveOverridesAndRestores) {
  const backend::Kernels* scalar = backend::lookup("scalar");
  const backend::Kernels* prev = backend::exchange_active(scalar);
  EXPECT_EQ(backend::active_name(), "scalar");
  backend::exchange_active(prev);
}

TEST(BackendRegistry, EveryListedBackendHasCompleteKernelTable) {
  for (const backend::Kernels* k : all_backends()) {
    ASSERT_NE(k, nullptr);
    EXPECT_NE(k->name, nullptr);
    EXPECT_NE(k->gemm_rowblock, nullptr);
    EXPECT_NE(k->gemm_rowblock2, nullptr);
    EXPECT_NE(k->gemm_nt2, nullptr);
    EXPECT_NE(k->axpy, nullptr);
    EXPECT_NE(k->ew_add, nullptr);
    EXPECT_NE(k->ew_sub, nullptr);
    EXPECT_NE(k->ew_mul, nullptr);
    EXPECT_NE(k->ew_scale, nullptr);
    EXPECT_NE(k->softmax_row, nullptr);
  }
}

// ------------------------------------------- cross-backend determinism

struct Shape {
  std::size_t m, k, n;
};

// Odd tails, k = 0, 1xN, and widths straddling the 8/16-lane strips.
const Shape kAdversarialShapes[] = {
    {1, 1, 1},  {1, 0, 5},  {3, 0, 0},  {1, 7, 13},  {3, 17, 33},
    {5, 64, 31}, {2, 65, 16}, {4, 128, 40}, {7, 13, 17}, {2, 3, 129},
};

TEST(BackendDeterminism, MatmulBitwiseIdenticalAcrossBackends) {
  for (const Shape& s : kAdversarialShapes) {
    util::Rng rng(s.m * 131 + s.k * 17 + s.n);
    Tensor a = random_tensor(s.m, s.k, rng);
    Tensor b = random_tensor(s.k, s.n, rng);
    poison(a, rng);
    poison(b, rng);
    BackendOverride scalar(backend::lookup("scalar"));
    const Tensor ref = matmul(a, b);
    const Tensor ref_tn = matmul_tn(transpose(a), b);
    const Tensor ref_nt = matmul_nt(a, transpose(b));
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride other(k);
      expect_same_bits(matmul(a, b), ref, k->name);
      expect_same_bits(matmul_tn(transpose(a), b), ref_tn, k->name);
      expect_same_bits(matmul_nt(a, transpose(b)), ref_nt, k->name);
    }
  }
}

// Not just backend against backend: both products must equal, bit for
// bit, the reference loops above on every backend. Shapes add 16- and
// 17-column outputs (one full gemm_nt2 strip, and a strip plus a scalar
// tail) to the adversarial set. Besides zeros, signed zeros and
// denormals, each case plants NaN in a B row whose A multiplier is
// zero: matmul_tn must skip it, matmul_nt (no zero-skip) must
// propagate it, both exactly as the reference does.
TEST(BackendDeterminism, MatmulTnNtBitwiseEqualReferenceLoops) {
  std::vector<Shape> shapes(std::begin(kAdversarialShapes),
                            std::end(kAdversarialShapes));
  shapes.insert(shapes.end(), {{3, 9, 16}, {5, 33, 17}, {4, 160, 16},
                               {7, 64, 17}, {2, 40, 33}, {6, 128, 20}});
  const bool prev_checks = set_finite_checks(false);
  for (const Shape& s : shapes) {
    util::Rng rng(s.m * 7919 + s.k * 131 + s.n);
    // matmul_tn(at, b): at is (k x m), b is (k x n).
    Tensor at = random_tensor(s.k, s.m, rng);
    Tensor b = random_tensor(s.k, s.n, rng);
    // matmul_nt(a, bn): a is (m x k), bn is (n x k).
    Tensor a = random_tensor(s.m, s.k, rng);
    Tensor bn = random_tensor(s.n, s.k, rng);
    poison(at, rng);
    poison(b, rng);
    poison(a, rng);
    poison(bn, rng);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    if (s.k > 0) {
      const std::size_t p = s.k / 2;
      for (std::size_t i = 0; i < s.m; ++i) {
        at.at(p, i) = (i % 2 == 0) ? 0.0f : -0.0f;
        a.at(i, p) = (i % 2 == 0) ? -0.0f : 0.0f;
      }
      for (std::size_t j = 0; j < s.n; ++j) b.at(p, j) = nan;
      if (s.n > 0) bn.at(s.n - 1, p) = nan;
    }
    const Tensor ref_tn = reference_matmul_tn(at, b);
    const Tensor ref_nt = reference_matmul_nt(a, bn);
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride other(k);
      expect_same_bits(matmul_tn(at, b), ref_tn, k->name);
      expect_same_bits(matmul_nt(a, bn), ref_nt, k->name);
    }
    if (s.k > 0 && s.m > 0) {
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_FALSE(std::isnan(ref_tn.at(0, j)));  // skipped
      }
      if (s.n > 0) {
        ASSERT_TRUE(std::isnan(ref_nt.at(0, s.n - 1)));  // propagated
      }
    }
  }
  set_finite_checks(prev_checks);
}

TEST(BackendDeterminism, SoftmaxBitwiseIdenticalAcrossBackends) {
  util::Rng rng(99);
  Tensor logits = random_tensor(9, 33, rng);
  poison(logits, rng);
  // A row of equal values and a row with huge spread.
  for (std::size_t j = 0; j < logits.cols(); ++j) {
    logits.at(1, j) = 2.5f;
    logits.at(2, j) = (j % 2 != 0) ? 80.0f : -80.0f;
  }
  BackendOverride scalar(backend::lookup("scalar"));
  const Tensor ref = softmax(logits);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride other(k);
    expect_same_bits(softmax(logits), ref, k->name);
  }
}

TEST(BackendDeterminism, ElementwiseBitwiseIdenticalAcrossBackends) {
  util::Rng rng(7);
  Tensor a = random_tensor(5, 37, rng);
  Tensor b = random_tensor(5, 37, rng);
  poison(a, rng);
  poison(b, rng);
  BackendOverride scalar(backend::lookup("scalar"));
  const Tensor ref_add = add(a, b);
  const Tensor ref_sub = sub(a, b);
  const Tensor ref_mul = hadamard(a, b);
  const Tensor ref_scale = scale(a, 0.37f);
  Tensor ref_axpy = a;
  add_scaled_inplace(ref_axpy, b, -1.25f);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride other(k);
    expect_same_bits(add(a, b), ref_add, k->name);
    expect_same_bits(sub(a, b), ref_sub, k->name);
    expect_same_bits(hadamard(a, b), ref_mul, k->name);
    expect_same_bits(scale(a, 0.37f), ref_scale, k->name);
    Tensor axpy = a;
    add_scaled_inplace(axpy, b, -1.25f);
    expect_same_bits(axpy, ref_axpy, k->name);
  }
}

// The zero-skip decision must be identical in every backend: with the
// finiteness guard off, a zero in A must drop a NaN/Inf column of B
// (or propagate it) the same way everywhere. Pinned so a future
// backend can't make NaN propagation backend-dependent.
TEST(BackendDeterminism, ZeroSkipDropsNanIdenticallyAcrossBackends) {
  const bool prev_checks = set_finite_checks(false);
  {
    Tensor a = Tensor::zeros(2, 3);
    a.at(0, 0) = 0.0f;   // skips the NaN row of B
    a.at(0, 1) = 1.0f;
    a.at(0, 2) = -0.0f;  // -0.0 must skip exactly like +0.0
    a.at(1, 0) = 2.0f;   // hits the NaN row of B
    a.at(1, 1) = 1.0f;
    a.at(1, 2) = 0.5f;
    Tensor b = Tensor::full(3, 19, 1.0f);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      b.at(0, j) = std::numeric_limits<float>::quiet_NaN();
      b.at(2, j) = std::numeric_limits<float>::infinity();
    }
    BackendOverride scalar(backend::lookup("scalar"));
    const Tensor ref = matmul(a, b);
    // Row 0 skipped both poisoned rows of B: finite everywhere.
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(ref.at(0, j)));
      ASSERT_TRUE(std::isnan(ref.at(1, j)));
    }
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride other(k);
      expect_same_bits(matmul(a, b), ref, k->name);
    }
  }
  set_finite_checks(prev_checks);
}

// A short training loop (forward, backward, SGD) must produce bitwise
// identical parameters on every backend — the ISSUE's training-path
// determinism requirement, end to end through nn::.
TEST(BackendDeterminism, TrainingLoopBitwiseIdenticalAcrossBackends) {
  auto run_training = [](const backend::Kernels* kernels) {
    BackendOverride ov(kernels);
    util::Rng rng(21);
    nn::Sequential encoder = nn::make_mlp({6, 8, 4}, rng);
    nn::Classifier clf(encoder, 4, 3, rng);
    util::Rng data_rng(5);
    Tensor x = random_tensor(12, 6, data_rng);
    std::vector<std::size_t> y(12);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
    for (int step = 0; step < 5; ++step) {
      Tensor logits = clf.logits(x, /*training=*/true);
      Tensor grad = softmax(logits);
      for (std::size_t i = 0; i < grad.rows(); ++i) {
        grad.at(i, y[i]) -= 1.0f;
      }
      clf.zero_grad();
      clf.backward(grad);
      for (nn::Parameter* p : clf.parameters()) {
        add_scaled_inplace(p->value, p->grad, -0.05f);
      }
    }
    std::vector<Tensor> out;
    for (nn::Parameter* p : clf.parameters()) out.push_back(p->value);
    out.push_back(clf.logits(x, /*training=*/false));
    return out;
  };
  const auto ref = run_training(backend::lookup("scalar"));
  for (const backend::Kernels* k : all_backends()) {
    const auto got = run_training(k);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_same_bits(got[i], ref[i], k->name);
    }
  }
}

// ------------------------------------------------ property vs naive

TEST(BackendProperty, GemmMatchesNaiveTripleLoopOnRandomOddShapes) {
  util::Rng rng(123);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride ov(k);
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform() * 34);
      const std::size_t kk = 1 + static_cast<std::size_t>(rng.uniform() * 34);
      const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 34);
      Tensor a = random_tensor(m, kk, rng);
      Tensor b = random_tensor(kk, n, rng);
      const Tensor ref = naive_matmul(a, b);
      expect_close(matmul(a, b), ref, 1e-3f);
      expect_close(matmul_tn(transpose(a), b), ref, 1e-3f);
      expect_close(matmul_nt(a, transpose(b)), ref, 1e-3f);
    }
  }
}

TEST(BackendProperty, SoftmaxRowsSumToOneOnEveryBackend) {
  util::Rng rng(321);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride ov(k);
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t rows = 1 + static_cast<std::size_t>(rng.uniform() * 9);
      const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform() * 40);
      Tensor logits = random_tensor(rows, cols, rng);
      const Tensor probs = softmax(logits);
      for (std::size_t i = 0; i < probs.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < probs.cols(); ++j) {
          const float p = probs.at(i, j);
          ASSERT_GE(p, 0.0f);
          ASSERT_LE(p, 1.0f);
          sum += p;
        }
        ASSERT_NEAR(sum, 1.0, 1e-5) << k->name;
      }
    }
  }
}

}  // namespace
}  // namespace taglets::tensor
