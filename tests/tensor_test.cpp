#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace taglets::tensor {
namespace {

Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

/// Reference O(n^3) matmul for verification.
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

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(same_shape(a, b)) << a.shape_string() << " vs " << b.shape_string();
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    ASSERT_NEAR(ad[i], bd[i], tol) << "at index " << i;
  }
}

// -------------------------------------------------------- construction

// Regression: Tensor storage must honour kAlignment (32 bytes) on
// every construction path, including the copy-in ones — the SIMD
// backends rely on an aligned base pointer (see tensor/tensor.hpp).
TEST(Tensor, StorageIsThirtyTwoByteAligned) {
  auto aligned = [](const Tensor& t) {
    return reinterpret_cast<std::uintptr_t>(t.data().data()) % kAlignment == 0;
  };
  EXPECT_TRUE(aligned(Tensor::zeros(7)));
  EXPECT_TRUE(aligned(Tensor::zeros(3, 5)));
  EXPECT_TRUE(aligned(Tensor::full(2, 9, 1.0f)));
  EXPECT_TRUE(aligned(Tensor::from_vector({1.0f, 2.0f, 3.0f})));
  EXPECT_TRUE(aligned(Tensor::from_matrix(2, 2, {1.0f, 2.0f, 3.0f, 4.0f})));
  EXPECT_TRUE(aligned(Tensor::identity(5)));
  const Tensor m = Tensor::from_matrix(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(aligned(m.reshape(3, 2)));
  EXPECT_TRUE(aligned(m.flatten()));
  EXPECT_TRUE(aligned(m.row_copy(1)));
  const std::size_t idx[] = {1, 0};
  EXPECT_TRUE(aligned(m.gather_rows(idx)));
  Tensor copy = m;  // copy construction must preserve alignment too
  EXPECT_TRUE(aligned(copy));
}

TEST(Tensor, ZerosVector) {
  Tensor v = Tensor::zeros(5);
  EXPECT_TRUE(v.is_vector());
  EXPECT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST(Tensor, ZerosMatrixAndFull) {
  Tensor m = Tensor::zeros(2, 3);
  EXPECT_TRUE(m.is_matrix());
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  Tensor f = Tensor::full(2, 2, 1.5f);
  EXPECT_EQ(f.at(1, 1), 1.5f);
}

TEST(Tensor, FromMatrixValidatesSize) {
  EXPECT_THROW(Tensor::from_matrix(2, 2, {1.0f, 2.0f, 3.0f}),
               std::invalid_argument);
  Tensor m = Tensor::from_matrix(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m.at(1, 0), 3.0f);
}

TEST(Tensor, Identity) {
  Tensor id = Tensor::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(Tensor, RowAccessAndCopy) {
  Tensor m = Tensor::from_matrix(2, 3, {1, 2, 3, 4, 5, 6});
  auto row = m.row(1);
  EXPECT_EQ(row[2], 6.0f);
  Tensor copy = m.row_copy(0);
  EXPECT_TRUE(copy.is_vector());
  EXPECT_EQ(copy[1], 2.0f);
}

TEST(Tensor, GatherRows) {
  Tensor m = Tensor::from_matrix(3, 2, {1, 2, 3, 4, 5, 6});
  std::vector<std::size_t> idx{2, 0, 2};
  Tensor g = m.gather_rows(idx);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  EXPECT_EQ(g.at(2, 0), 5.0f);
  std::vector<std::size_t> bad{5};
  EXPECT_THROW(m.gather_rows(bad), taglets::util::ContractViolation);
}

TEST(Tensor, ReshapeAndFlatten) {
  Tensor v = Tensor::from_vector({1, 2, 3, 4, 5, 6});
  Tensor m = v.reshape(2, 3);
  EXPECT_EQ(m.at(1, 0), 4.0f);
  Tensor back = m.flatten();
  EXPECT_TRUE(back.is_vector());
  EXPECT_EQ(back[5], 6.0f);
  EXPECT_THROW(v.reshape(2, 4), std::invalid_argument);
}

TEST(Tensor, FillAndNorm) {
  Tensor m = Tensor::zeros(2, 2);
  m.fill(2.0f);
  EXPECT_FLOAT_EQ(m.squared_norm(), 16.0f);
}

TEST(Tensor, ShapeString) {
  EXPECT_EQ(Tensor::zeros(3).shape_string(), "[3]");
  EXPECT_EQ(Tensor::zeros(2, 4).shape_string(), "[2, 4]");
}

// -------------------------------------------------------------- matmul

struct MatmulShape {
  std::size_t m, k, n;
};

class MatmulTest : public ::testing::TestWithParam<MatmulShape> {};

TEST_P(MatmulTest, MatchesNaiveReference) {
  const auto& s = GetParam();
  util::Rng rng(s.m * 1000 + s.k * 100 + s.n);
  Tensor a = random_tensor(s.m, s.k, rng);
  Tensor b = random_tensor(s.k, s.n, rng);
  expect_close(matmul(a, b), naive_matmul(a, b));
}

TEST_P(MatmulTest, TransposedVariantsConsistent) {
  const auto& s = GetParam();
  util::Rng rng(s.m + s.k + s.n);
  Tensor a = random_tensor(s.m, s.k, rng);
  Tensor b = random_tensor(s.k, s.n, rng);
  // matmul_tn(a^T stored as a, b): here build a_t explicitly.
  Tensor at = transpose(a);
  expect_close(matmul_tn(at, b), matmul(a, b));
  Tensor bt = transpose(b);
  expect_close(matmul_nt(a, bt), matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulTest,
    ::testing::Values(MatmulShape{1, 1, 1}, MatmulShape{2, 3, 4},
                      MatmulShape{7, 5, 3}, MatmulShape{16, 16, 16},
                      MatmulShape{33, 65, 17}, MatmulShape{70, 70, 70},
                      MatmulShape{1, 128, 1}, MatmulShape{128, 1, 128}));

TEST(Ops, MatmulShapeErrors) {
  Tensor a = Tensor::zeros(2, 3);
  Tensor b = Tensor::zeros(4, 2);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, TransposeInvolution) {
  util::Rng rng(3);
  Tensor a = random_tensor(4, 7, rng);
  expect_close(transpose(transpose(a)), a);
}

// ---------------------------------------------------------- elementwise

TEST(Ops, AddSubHadamardScale) {
  Tensor a = Tensor::from_matrix(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::from_matrix(2, 2, {5, 6, 7, 8});
  expect_close(add(a, b), Tensor::from_matrix(2, 2, {6, 8, 10, 12}));
  expect_close(sub(b, a), Tensor::from_matrix(2, 2, {4, 4, 4, 4}));
  expect_close(hadamard(a, b), Tensor::from_matrix(2, 2, {5, 12, 21, 32}));
  expect_close(scale(a, 2.0f), Tensor::from_matrix(2, 2, {2, 4, 6, 8}));
  Tensor c = Tensor::zeros(1, 2);
  EXPECT_THROW(add(a, c), std::invalid_argument);
}

TEST(Ops, AddScaledInplace) {
  Tensor a = Tensor::from_vector({1, 1});
  Tensor b = Tensor::from_vector({2, 4});
  add_scaled_inplace(a, b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
}

TEST(Ops, AddRowBroadcast) {
  Tensor a = Tensor::from_matrix(2, 2, {1, 2, 3, 4});
  Tensor bias = Tensor::from_vector({10, 20});
  expect_close(add_row_broadcast(a, bias),
               Tensor::from_matrix(2, 2, {11, 22, 13, 24}));
}

// ----------------------------------------------------------- reductions

TEST(Ops, DotAndNorms) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, 5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
  EXPECT_NEAR(l2_norm(a), std::sqrt(14.0f), 1e-6);
}

TEST(Ops, CosineSimilarityProperties) {
  std::vector<float> a{1, 0};
  std::vector<float> b{0, 1};
  std::vector<float> c{2, 0};
  std::vector<float> zero{0, 0};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(cosine_similarity(a, zero), 0.0f);
}

TEST(Ops, ColumnSumsAndRowMean) {
  Tensor m = Tensor::from_matrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor sums = column_sums(m);
  EXPECT_FLOAT_EQ(sums[0], 5.0f);
  EXPECT_FLOAT_EQ(sums[2], 9.0f);
  Tensor mean = row_mean(m);
  EXPECT_FLOAT_EQ(mean[1], 3.5f);
}

// ------------------------------------------------------------- softmax

TEST(Ops, SoftmaxRowsSumToOne) {
  util::Rng rng(5);
  Tensor logits = random_tensor(6, 9, rng);
  Tensor p = softmax(logits);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (float x : p.row(i)) {
      EXPECT_GT(x, 0.0f);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  Tensor logits = Tensor::from_matrix(1, 3, {1000.0f, 1000.0f, 900.0f});
  Tensor p = softmax(logits);
  EXPECT_NEAR(p.at(0, 0), 0.5f, 1e-4);
  EXPECT_NEAR(p.at(0, 2), 0.0f, 1e-4);
  EXPECT_FALSE(std::isnan(p.at(0, 0)));
}

TEST(Ops, SoftmaxVectorForm) {
  Tensor v = Tensor::from_vector({0.0f, 0.0f});
  Tensor p = softmax(v);
  EXPECT_NEAR(p[0], 0.5f, 1e-6);
}

TEST(Ops, SoftmaxEmptyRowsDoNotCrash) {
  // *max_element over an empty row used to be UB; empty shapes must
  // round-trip untouched instead.
  Tensor zero_cols = Tensor::zeros(3, 0);
  Tensor p = softmax(zero_cols);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.cols(), 0u);
  Tensor empty_vec = Tensor::zeros(0);
  EXPECT_EQ(softmax(empty_vec).size(), 0u);
}

TEST(Ops, MatmulFiniteCheckGuardsZeroSkipFastPath) {
  const bool prev = set_finite_checks(true);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a = Tensor::from_matrix(2, 2, {0.0f, 1.0f, 2.0f, 3.0f});
  Tensor bad = Tensor::from_matrix(2, 2, {nan, 0.0f, 0.0f, 0.0f});
  EXPECT_THROW(matmul(a, bad), taglets::util::ContractViolation);
  EXPECT_THROW(matmul(bad, a), taglets::util::ContractViolation);
  EXPECT_THROW(matmul_tn(bad, a), taglets::util::ContractViolation);
  set_finite_checks(false);
  // With the guard off the zero-skip fast path runs (and may drop
  // 0 * NaN, which is exactly why the guard exists).
  Tensor c = matmul(a, bad);
  EXPECT_EQ(c.rows(), 2u);
  set_finite_checks(prev);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(9);
  Tensor logits = random_tensor(4, 5, rng);
  Tensor lp = log_softmax(logits);
  Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(lp.at(i, j), std::log(p.at(i, j)), 1e-4);
    }
  }
}

TEST(Ops, ArgmaxAndMaxRows) {
  Tensor m = Tensor::from_matrix(2, 3, {1, 5, 2, 9, 0, 3});
  auto args = argmax_rows(m);
  EXPECT_EQ(args[0], 1u);
  EXPECT_EQ(args[1], 0u);
  auto maxes = max_rows(m);
  EXPECT_FLOAT_EQ(maxes[1], 9.0f);
  std::vector<float> empty;
  EXPECT_THROW(argmax(empty), std::invalid_argument);
}

TEST(Ops, NormalizeRowsUnitNorm) {
  Tensor m = Tensor::from_matrix(2, 2, {3, 4, 0, 0});
  normalize_rows(m);
  EXPECT_NEAR(l2_norm(m.row(0)), 1.0f, 1e-6);
  // Zero row untouched.
  EXPECT_FLOAT_EQ(m.at(1, 0), 0.0f);
}

TEST(Ops, TopKIndicesOrderedAndTieBroken) {
  std::vector<float> values{0.1f, 0.9f, 0.9f, 0.5f};
  auto top = top_k_indices(values, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie broken toward lower index
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
  EXPECT_EQ(top_k_indices(values, 10).size(), 4u);
}

// ----------------------------------------------------------- serialize

TEST(Serialize, RoundTripMatrix) {
  util::Rng rng(12);
  Tensor t = random_tensor(5, 7, rng);
  std::stringstream buffer;
  write_tensor(buffer, t);
  Tensor back = read_tensor(buffer);
  expect_close(back, t, 0.0f);
}

TEST(Serialize, RoundTripVector) {
  Tensor t = Tensor::from_vector({1.5f, -2.5f, 0.0f});
  std::stringstream buffer;
  write_tensor(buffer, t);
  Tensor back = read_tensor(buffer);
  EXPECT_TRUE(back.is_vector());
  EXPECT_FLOAT_EQ(back[1], -2.5f);
}

TEST(Serialize, RejectsBadMagicAndTruncation) {
  std::stringstream bad("XXXXgarbage");
  EXPECT_THROW(read_tensor(bad), std::runtime_error);

  Tensor t = Tensor::zeros(4, 4);
  std::stringstream buffer;
  write_tensor(buffer, t);
  std::string payload = buffer.str();
  payload.resize(payload.size() / 2);
  std::stringstream truncated(payload);
  EXPECT_THROW(read_tensor(truncated), std::runtime_error);
}

// A header is untrusted input: its element count must neither overflow
// nor be allocated before the payload bytes are actually there.
std::string tensor_header(std::uint32_t rank, std::uint64_t rows,
                          std::uint64_t cols) {
  std::string header = "TGT1";
  header.append(reinterpret_cast<const char*>(&rank), sizeof(rank));
  header.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
  header.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
  return header;
}

TEST(Serialize, RejectsHugeHeaderWithoutAllocatingIt) {
  std::stringstream huge(tensor_header(2, std::uint64_t{1} << 60, 1) +
                         std::string(64, '\0'));
  EXPECT_THROW(read_tensor(huge), std::runtime_error);

  // rows * cols * sizeof(float) wraps around 2^64.
  std::stringstream overflow(
      tensor_header(2, std::uint64_t{1} << 62, 8) + std::string(64, '\0'));
  EXPECT_THROW(read_tensor(overflow), std::runtime_error);
}

TEST(Serialize, RoundTripSpansSeveralReadChunks) {
  util::Rng rng(13);
  // 2.4 MiB of payload: three 1 MiB read chunks, the last one partial.
  Tensor t = random_tensor(600, 1000, rng);
  std::stringstream buffer;
  write_tensor(buffer, t);
  Tensor back = read_tensor(buffer);
  expect_close(back, t, 0.0f);
}

}  // namespace
}  // namespace taglets::tensor
