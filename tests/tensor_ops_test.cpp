#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/tensor_ops.h"

namespace pgti {
namespace {

Tensor make(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(shape, rng);
}

TEST(Elementwise, AddSubMulDiv) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4});
  Tensor b = Tensor::from_vector({4, 3, 2, 1});
  EXPECT_EQ(ops::add(a, b).at({0}), 5.0f);
  EXPECT_EQ(ops::sub(a, b).at({0}), -3.0f);
  EXPECT_EQ(ops::mul(a, b).at({1}), 6.0f);
  EXPECT_EQ(ops::div(a, b).at({3}), 4.0f);
}

TEST(Elementwise, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 2});
  EXPECT_THROW(ops::add(a, b), std::invalid_argument);
}

TEST(Elementwise, ScalarOps) {
  Tensor a = Tensor::from_vector({1, 2});
  EXPECT_EQ(ops::add_scalar(a, 0.5f).at({0}), 1.5f);
  EXPECT_EQ(ops::mul_scalar(a, 3.0f).at({1}), 6.0f);
}

TEST(Elementwise, InPlaceOps) {
  Tensor a = Tensor::from_vector({1, 2});
  Tensor b = Tensor::from_vector({10, 20});
  ops::add_(a, b);
  EXPECT_EQ(a.at({1}), 22.0f);
  ops::sub_(a, b);
  EXPECT_EQ(a.at({1}), 2.0f);
  ops::scale_(a, 2.0f);
  EXPECT_EQ(a.at({0}), 2.0f);
  ops::axpy_(0.5f, b, a);
  EXPECT_EQ(a.at({0}), 7.0f);
  ops::mul_(a, b);
  EXPECT_EQ(a.at({0}), 70.0f);
}

TEST(Unary, Activations) {
  Tensor a = Tensor::from_vector({-1.0f, 0.0f, 1.0f});
  EXPECT_NEAR(ops::sigmoid(a).at({0}), 1.0f / (1.0f + std::exp(1.0f)), 1e-6f);
  EXPECT_NEAR(ops::tanh(a).at({2}), std::tanh(1.0f), 1e-6f);
  EXPECT_EQ(ops::relu(a).at({0}), 0.0f);
  EXPECT_EQ(ops::relu(a).at({2}), 1.0f);
  EXPECT_NEAR(ops::exp(a).at({1}), 1.0f, 1e-6f);
  EXPECT_EQ(ops::abs(a).at({0}), 1.0f);
  EXPECT_EQ(ops::neg(a).at({2}), -1.0f);
}

// ----------------------------------------------------- in-tree tanh_f

float from_bits(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

// |got - want| in units of the float spacing at |want| (the spacing
// below a power of two, so results just under 1 are held to 2^-24).
double ulp_error(float got, double want) {
  const double spacing =
      want == 0.0 ? std::ldexp(1.0, -149)
                  : std::ldexp(1.0, std::max(std::ilogb(want) - 23, -149));
  return std::fabs(static_cast<double>(got) - want) / spacing;
}

TEST(TanhF, WithinTwoUlpOfDoubleTanhOverEverySeventhPattern) {
  // Every 7th bit pattern in [0, 20] (157M inputs) through the
  // vectorized ops::tanh_ path.  The negative half is checked as exact
  // oddness, f(-x) == -f(x) bit for bit, which with the bound on
  // [0, 20] bounds the error on [-20, 0] too.
  const std::uint32_t last = 0x41A00000u;  // 20.0f
  const std::int64_t chunk = 1 << 16;
  Tensor pos = Tensor::empty({chunk});
  Tensor neg = Tensor::empty({chunk});
  std::vector<float> xs(static_cast<std::size_t>(chunk));
  double worst = 0.0;
  float worst_x = 0.0f;
  std::int64_t checked = 0;
  std::uint64_t b = 0;
  while (b <= last) {
    std::int64_t n = 0;
    for (; n < chunk && b <= last; ++n, b += 7) {
      xs[static_cast<std::size_t>(n)] = from_bits(static_cast<std::uint32_t>(b));
    }
    for (std::int64_t i = 0; i < chunk; ++i) {
      const float x = i < n ? xs[static_cast<std::size_t>(i)] : 0.0f;
      pos.data()[i] = x;
      neg.data()[i] = -x;
    }
    ops::tanh_(pos);
    ops::tanh_(neg);
    for (std::int64_t i = 0; i < n; ++i) {
      const float x = xs[static_cast<std::size_t>(i)];
      const float y = pos.data()[i];
      const double e = ulp_error(y, std::tanh(static_cast<double>(x)));
      if (e > worst) {
        worst = e;
        worst_x = x;
      }
      const float minus_y = -y;
      ASSERT_EQ(std::memcmp(&neg.data()[i], &minus_y, sizeof(float)), 0) << "x = " << x;
    }
    checked += n;
  }
  EXPECT_EQ(checked, static_cast<std::int64_t>(last / 7) + 1);
  EXPECT_LE(worst, 2.0) << "worst input " << worst_x;
}

TEST(TanhF, SpecialValues) {
  EXPECT_TRUE(std::isnan(ops::tanh_f(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(ops::tanh_f(-std::numeric_limits<float>::quiet_NaN())));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ops::tanh_f(inf), 1.0f);
  EXPECT_EQ(ops::tanh_f(-inf), -1.0f);
  EXPECT_EQ(ops::tanh_f(0.0f), 0.0f);
  EXPECT_FALSE(std::signbit(ops::tanh_f(0.0f)));
  EXPECT_EQ(ops::tanh_f(-0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(ops::tanh_f(-0.0f)));
  // tanh(x) rounds to x itself for tiny x.
  for (float x : {FLT_MIN, -FLT_MIN, 1e-30f, -1e-30f}) EXPECT_EQ(ops::tanh_f(x), x);
}

// -------------------------------------------------------------- matmul

TEST(Matmul, KnownValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}).reshape({2, 3});
  Tensor b = Tensor::from_vector({7, 8, 9, 10, 11, 12}).reshape({3, 2});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Matmul, IncompatibleShapesThrow) {
  EXPECT_THROW(ops::matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               std::invalid_argument);
}

TEST(Matmul, TnMatchesExplicitTranspose) {
  Tensor a = make({5, 3}, 1);
  Tensor b = make({5, 4}, 2);
  Tensor via_tn = ops::matmul_tn(a, b);
  Tensor via_t = ops::matmul(a.transpose(0, 1).contiguous(), b);
  EXPECT_LT(ops::max_abs_diff(via_tn, via_t), 1e-5f);
}

TEST(Matmul, NtMatchesExplicitTranspose) {
  Tensor a = make({4, 6}, 3);
  Tensor b = make({5, 6}, 4);
  Tensor via_nt = ops::matmul_nt(a, b);
  Tensor via_t = ops::matmul(a, b.transpose(0, 1).contiguous());
  EXPECT_LT(ops::max_abs_diff(via_nt, via_t), 1e-5f);
}

class MatmulSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Tensor a = make({m, k}, 10);
  Tensor b = make({k, n}, 11);
  Tensor c = ops::matmul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a.at({i, kk}) * b.at({kk, j});
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4f) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSizes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 7, 3},
                                           std::tuple{16, 16, 16}, std::tuple{33, 5, 9},
                                           std::tuple{64, 3, 1}, std::tuple{5, 64, 5}));

// ----------------------------------------------------- broadcast helpers

TEST(Broadcast, AddBias) {
  Tensor m = Tensor::zeros({3, 2});
  Tensor bias = Tensor::from_vector({1.0f, 2.0f});
  Tensor out = ops::add_bias(m, bias);
  EXPECT_EQ(out.at({2, 0}), 1.0f);
  EXPECT_EQ(out.at({0, 1}), 2.0f);
}

TEST(Broadcast, AddBiasRank3) {
  Tensor m = Tensor::zeros({2, 3, 2});
  Tensor out = ops::add_bias(m, Tensor::from_vector({5.0f, 6.0f}));
  EXPECT_EQ(out.at({1, 2, 1}), 6.0f);
}

TEST(Broadcast, AddBiasWrongSizeThrows) {
  EXPECT_THROW(ops::add_bias(Tensor::zeros({2, 3}), Tensor::zeros({2})),
               std::invalid_argument);
}

TEST(Broadcast, MulColvec) {
  Tensor m = Tensor::ones({2, 3});
  Tensor col = Tensor::from_vector({2.0f, 3.0f}).reshape({2, 1});
  Tensor out = ops::mul_colvec(m, col);
  EXPECT_EQ(out.at({0, 2}), 2.0f);
  EXPECT_EQ(out.at({1, 0}), 3.0f);
}

// ------------------------------------------------------------- reductions

TEST(Reduce, SumMean) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(ops::sum(t), 10.0);
  EXPECT_DOUBLE_EQ(ops::mean(t), 2.5);
}

TEST(Reduce, MaxAbs) {
  EXPECT_EQ(ops::max_abs(Tensor::from_vector({-5, 2, 3})), 5.0f);
}

TEST(Reduce, ColsumRowsum) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6}).reshape({2, 3});
  Tensor cs = ops::colsum(t);
  EXPECT_EQ(cs.at({0}), 5.0f);
  EXPECT_EQ(cs.at({2}), 9.0f);
  Tensor rs = ops::rowsum(t);
  EXPECT_EQ(rs.at({0, 0}), 6.0f);
  EXPECT_EQ(rs.at({1, 0}), 15.0f);
}

// ------------------------------------------------------------- concat

TEST(Concat, LastDim) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}).reshape({2, 2});
  Tensor b = Tensor::from_vector({5, 6}).reshape({2, 1});
  Tensor c = ops::concat_lastdim({a, b});
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.at({0, 2}), 5.0f);
  EXPECT_EQ(c.at({1, 0}), 3.0f);
}

TEST(Concat, ThreeParts) {
  Tensor a = Tensor::ones({2, 1});
  Tensor b = ops::mul_scalar(Tensor::ones({2, 2}), 2.0f);
  Tensor c = ops::mul_scalar(Tensor::ones({2, 1}), 3.0f);
  Tensor out = ops::concat_lastdim({a, b, c});
  ASSERT_EQ(out.shape(), (Shape{2, 4}));
  EXPECT_EQ(out.at({1, 0}), 1.0f);
  EXPECT_EQ(out.at({1, 2}), 2.0f);
  EXPECT_EQ(out.at({1, 3}), 3.0f);
}

TEST(Concat, MismatchThrows) {
  EXPECT_THROW(ops::concat_lastdim({Tensor::zeros({2, 2}), Tensor::zeros({3, 2})}),
               std::invalid_argument);
  EXPECT_THROW(ops::concat_lastdim({}), std::invalid_argument);
}

// ------------------------------------------------------------- softmax

TEST(Softmax, RowsSumToOne) {
  Tensor t = make({5, 7}, 99);
  Tensor s = ops::softmax_lastdim(t);
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) {
      const float v = s.at({r, c});
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor t = Tensor::from_vector({1000.0f, 1000.0f});
  Tensor s = ops::softmax_lastdim(t.reshape({1, 2}));
  EXPECT_NEAR(s.at({0, 0}), 0.5f, 1e-6f);
}

TEST(Softmax, ShiftInvariant) {
  Tensor t = Tensor::from_vector({1.0f, 2.0f, 3.0f}).reshape({1, 3});
  Tensor shifted = ops::add_scalar(t, 100.0f);
  EXPECT_LT(ops::max_abs_diff(ops::softmax_lastdim(t), ops::softmax_lastdim(shifted)),
            1e-6f);
}

// ------------------------------------------------------------- metrics

TEST(Metrics, MaeMse) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  Tensor b = Tensor::from_vector({2, 2, 1});
  EXPECT_DOUBLE_EQ(ops::mae(a, b), 1.0);
  EXPECT_NEAR(ops::mse(a, b), 5.0 / 3.0, 1e-12);
}

TEST(Metrics, MaxAbsDiffHandlesViews) {
  Tensor a = Tensor::arange(6).reshape({2, 3});
  EXPECT_EQ(ops::max_abs_diff(a.transpose(0, 1), a.transpose(0, 1)), 0.0f);
}

TEST(Metrics, NonContiguousInputRejectedByKernels) {
  Tensor t = Tensor::zeros({4, 4});
  EXPECT_THROW(ops::add(t.slice(1, 0, 2), t.slice(1, 2, 2)), std::logic_error);
}

}  // namespace
}  // namespace pgti
