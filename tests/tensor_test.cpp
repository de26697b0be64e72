#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "lcda/tensor/ops.h"
#include "lcda/tensor/tensor.h"
#include "lcda/util/rng.h"

namespace lcda::tensor {
namespace {

using util::Rng;

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data()) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

// ---------------------------------------------------------------- Tensor

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.shape_str(), "[2, 3, 4]");
  for (float x : t.data()) EXPECT_EQ(x, 0.0f);
}

TEST(Tensor, RejectsBadShapes) {
  EXPECT_THROW(Tensor({0, 2}), std::invalid_argument);
  EXPECT_THROW(Tensor({-1}), std::invalid_argument);
  EXPECT_THROW(Tensor({2}, {1.0f}), std::invalid_argument);
}

TEST(Tensor, At2dAnd4dIndexing) {
  Tensor m({2, 3});
  m.at(1, 2) = 5.0f;
  EXPECT_EQ(m[5], 5.0f);
  Tensor t({2, 3, 4, 4});
  t.at(1, 2, 3, 3) = 7.0f;
  EXPECT_EQ(t[t.size() - 1], 7.0f);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t({2, 6});
  t[7] = 3.0f;
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r[7], 3.0f);
  EXPECT_THROW((void)t.reshaped({5}), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({3}), b({3});
  a.fill(2.0f);
  b.fill(3.0f);
  a += b;
  EXPECT_EQ(a[0], 5.0f);
  a -= b;
  EXPECT_EQ(a[1], 2.0f);
  a *= 2.0f;
  EXPECT_EQ(a[2], 4.0f);
  Tensor c({4});
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t({2, 2}, {1.0f, -2.0f, 3.0f, -4.0f});
  EXPECT_DOUBLE_EQ(t.sum(), -2.0);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(30.0), 1e-6);
  EXPECT_EQ(t.max_abs(), 4.0f);
}

TEST(Tensor, HeNormalStddev) {
  Rng rng(5);
  const Tensor t = Tensor::he_normal({64, 64}, 128, rng);
  double sum = 0.0, sq = 0.0;
  for (float x : t.data()) {
    sum += x;
    sq += static_cast<double>(x) * x;
  }
  const double n = static_cast<double>(t.size());
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sq / n), std::sqrt(2.0 / 128), 0.01);
}

// ------------------------------------------------------------------ GEMM

void naive_gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  }
}

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm(a, b, c);
  naive_gemm(a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 32, 8), std::make_tuple(9, 1, 9)));

TEST(Gemm, TransposedVariantsAgree) {
  Rng rng(77);
  const Tensor a = random_tensor({6, 4}, rng);   // used as A^T: (4,6)
  const Tensor b = random_tensor({6, 5}, rng);
  Tensor c1({4, 5});
  gemm_at_b(a, b, c1);
  // Reference: transpose A explicitly.
  Tensor at({4, 6});
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor ref({4, 5});
  naive_gemm(at, b, ref);
  for (std::size_t i = 0; i < c1.size(); ++i) ASSERT_NEAR(c1[i], ref[i], 1e-4);
}

TEST(Gemm, ABTransposedAgrees) {
  Rng rng(78);
  const Tensor a = random_tensor({3, 7}, rng);
  const Tensor b = random_tensor({5, 7}, rng);  // used as B^T: (7,5)
  Tensor c({3, 5});
  gemm_a_bt(a, b, c);
  Tensor bt({7, 5});
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 7; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor ref({3, 5});
  naive_gemm(a, bt, ref);
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Gemm, RejectsMismatchedShapes) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

// ------------------------------------------------------------------ Conv

/// Direct convolution reference (stride 1, square kernel, zero padding).
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                  const ConvGeom& g) {
  const int n = x.dim(0), cin = x.dim(1);
  const int cout = w.dim(0), k = g.kernel;
  const int oh = g.out_h(), ow = g.out_w();
  Tensor y({n, cout, oh, ow});
  for (int i = 0; i < n; ++i) {
    for (int co = 0; co < cout; ++co) {
      for (int yy = 0; yy < oh; ++yy) {
        for (int xx = 0; xx < ow; ++xx) {
          float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(co)];
          for (int ci = 0; ci < cin; ++ci) {
            for (int ky = 0; ky < k; ++ky) {
              for (int kx = 0; kx < k; ++kx) {
                const int iy = yy * g.stride + ky - g.pad;
                const int ix = xx * g.stride + kx - g.pad;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
                acc += x.at(i, ci, iy, ix) * w.at(co, ci, ky, kx);
              }
            }
          }
          y.at(i, co, yy, xx) = acc;
        }
      }
    }
  }
  return y;
}

class ConvForward
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvForward, MatchesNaive) {
  const auto [cin, cout, kernel, size] = GetParam();
  Rng rng(static_cast<std::uint64_t>(cin * 1000 + cout * 100 + kernel * 10 + size));
  const ConvGeom g{size, size, kernel, 1, kernel / 2};
  const Tensor x = random_tensor({2, cin, size, size}, rng);
  const Tensor w = random_tensor({cout, cin, kernel, kernel}, rng);
  const Tensor bias = random_tensor({cout}, rng);
  Tensor y({2, cout, g.out_h(), g.out_w()});
  std::vector<float> scratch;
  conv2d_forward(x, w, bias, g, y, scratch);
  const Tensor ref = naive_conv(x, w, bias, g);
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], ref[i], 1e-4) << "at flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvForward,
    ::testing::Values(std::make_tuple(1, 1, 3, 6), std::make_tuple(3, 8, 3, 8),
                      std::make_tuple(2, 4, 5, 8), std::make_tuple(3, 2, 7, 8),
                      std::make_tuple(4, 4, 1, 5)));

TEST(ConvBackward, NumericalGradientCheck) {
  Rng rng(99);
  const ConvGeom g{5, 5, 3, 1, 1};
  Tensor x = random_tensor({1, 2, 5, 5}, rng);
  Tensor w = random_tensor({3, 2, 3, 3}, rng);
  Tensor bias = random_tensor({3}, rng);
  std::vector<float> scratch;

  // Loss = sum(y * m) for a fixed random mask m => dy = m.
  const Tensor mask = random_tensor({1, 3, 5, 5}, rng);
  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor y({1, 3, g.out_h(), g.out_w()});
    conv2d_forward(xx, ww, bb, g, y, scratch);
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) s += y[i] * mask[i];
    return s;
  };

  Tensor dx({1, 2, 5, 5}), dw({3, 2, 3, 3}), dbias({3});
  conv2d_backward(x, w, g, mask, &dx, &dw, &dbias, scratch);

  const float eps = 1e-3f;
  // Spot-check several coordinates of each gradient.
  for (std::size_t idx : {0u, 7u, 23u, 49u}) {
    Tensor xp = x;
    xp[idx] += eps;
    Tensor xm = x;
    xm[idx] -= eps;
    const double num = (loss(xp, w, bias) - loss(xm, w, bias)) / (2 * eps);
    EXPECT_NEAR(dx[idx], num, 2e-2) << "dx[" << idx << "]";
  }
  for (std::size_t idx : {0u, 11u, 35u, 53u}) {
    Tensor wp = w;
    wp[idx] += eps;
    Tensor wm = w;
    wm[idx] -= eps;
    const double num = (loss(x, wp, bias) - loss(x, wm, bias)) / (2 * eps);
    EXPECT_NEAR(dw[idx], num, 2e-2) << "dw[" << idx << "]";
  }
  for (std::size_t idx : {0u, 2u}) {
    Tensor bp = bias;
    bp[idx] += eps;
    Tensor bm = bias;
    bm[idx] -= eps;
    const double num = (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(dbias[idx], num, 2e-2) << "dbias[" << idx << "]";
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> — the defining adjoint property that
  // makes the conv backward pass correct.
  Rng rng(123);
  const ConvGeom g{6, 6, 3, 1, 1};
  const int channels = 2;
  const Tensor x = random_tensor({channels, 6, 6}, rng);
  const std::size_t col_elems =
      static_cast<std::size_t>(channels) * 9 * g.out_h() * g.out_w();
  std::vector<float> cols(col_elems);
  im2col(x.raw(), channels, g, cols.data());

  Tensor c({static_cast<int>(col_elems)});
  for (auto& v : c.data()) v = static_cast<float>(rng.uniform(-1, 1));
  Tensor back({channels, 6, 6});
  back.fill(0.0f);
  col2im(c.raw(), channels, g, back.raw());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_elems; ++i) lhs += cols[i] * c[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ------------------------------------------- Conv kernels: bit identity

// The serial conv loops the library's register-tiled kernels replaced, kept
// here verbatim as the reference: every output is one accumulator summed in
// a fixed order. The tiled kernels must give the same bytes, not just close
// values.
namespace serial {

void im2col(const float* input, int channels, const ConvGeom& g, float* columns) {
  const int oh = g.out_h(), ow = g.out_w();
  const int k = g.kernel;
  for (int c = 0; c < channels; ++c) {
    const float* img = input + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        float* dst = columns + (static_cast<std::size_t>(c) * k * k + ki * k + kj) *
                                   (static_cast<std::size_t>(oh) * ow);
        for (int y = 0; y < oh; ++y) {
          const int iy = y * g.stride + ki - g.pad;
          for (int x = 0; x < ow; ++x) {
            const int ix = x * g.stride + kj - g.pad;
            const bool in_bounds = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            dst[static_cast<std::size_t>(y) * ow + x] =
                in_bounds ? img[static_cast<std::size_t>(iy) * g.in_w + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* columns, int channels, const ConvGeom& g, float* input_grad) {
  const int oh = g.out_h(), ow = g.out_w();
  const int k = g.kernel;
  for (int c = 0; c < channels; ++c) {
    float* img = input_grad + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        const float* src = columns +
                           (static_cast<std::size_t>(c) * k * k + ki * k + kj) *
                               (static_cast<std::size_t>(oh) * ow);
        for (int y = 0; y < oh; ++y) {
          const int iy = y * g.stride + ki - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int x = 0; x < ow; ++x) {
            const int ix = x * g.stride + kj - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            img[static_cast<std::size_t>(iy) * g.in_w + ix] +=
                src[static_cast<std::size_t>(y) * ow + x];
          }
        }
      }
    }
  }
}

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    const ConvGeom& g, Tensor& y) {
  const int n = x.dim(0), cin = x.dim(1);
  const int cout = w.dim(0), k = w.dim(2);
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t col_rows = static_cast<std::size_t>(cin) * k * k;
  const std::size_t col_cols = static_cast<std::size_t>(oh) * ow;
  std::vector<float> scratch(col_rows * col_cols);
  const std::size_t img_in = static_cast<std::size_t>(cin) * g.in_h * g.in_w;
  const std::size_t img_out = static_cast<std::size_t>(cout) * oh * ow;
  for (int i = 0; i < n; ++i) {
    serial::im2col(x.raw() + i * img_in, cin, g, scratch.data());
    const float* W = w.raw();
    float* Y = y.raw() + i * img_out;
    for (int co = 0; co < cout; ++co) {
      float* yrow = Y + static_cast<std::size_t>(co) * col_cols;
      const float b = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(co)];
      std::fill(yrow, yrow + col_cols, b);
      const float* wrow = W + static_cast<std::size_t>(co) * col_rows;
      for (std::size_t r = 0; r < col_rows; ++r) {
        const float wv = wrow[r];
        if (wv == 0.0f) continue;
        const float* crow = scratch.data() + r * col_cols;
        for (std::size_t j = 0; j < col_cols; ++j) yrow[j] += wv * crow[j];
      }
    }
  }
}

void conv2d_backward(const Tensor& x, const Tensor& w, const ConvGeom& g,
                     const Tensor& dy, Tensor& dx, Tensor& dw, Tensor& dbias) {
  const int n = x.dim(0), cin = x.dim(1);
  const int cout = w.dim(0), k = w.dim(2);
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t col_rows = static_cast<std::size_t>(cin) * k * k;
  const std::size_t col_cols = static_cast<std::size_t>(oh) * ow;
  const std::size_t img_in = static_cast<std::size_t>(cin) * g.in_h * g.in_w;
  const std::size_t img_out = static_cast<std::size_t>(cout) * oh * ow;
  std::vector<float> cols(col_rows * col_cols), dcols(col_rows * col_cols);
  dw.fill(0.0f);
  dbias.fill(0.0f);
  dx.fill(0.0f);
  for (int i = 0; i < n; ++i) {
    const float* DY = dy.raw() + i * img_out;
    for (int co = 0; co < cout; ++co) {
      const float* dyrow = DY + static_cast<std::size_t>(co) * col_cols;
      float acc = 0.0f;
      for (std::size_t j = 0; j < col_cols; ++j) acc += dyrow[j];
      dbias[static_cast<std::size_t>(co)] += acc;
    }
    serial::im2col(x.raw() + i * img_in, cin, g, cols.data());
    for (int co = 0; co < cout; ++co) {
      const float* dyrow = DY + static_cast<std::size_t>(co) * col_cols;
      float* dwrow = dw.raw() + static_cast<std::size_t>(co) * col_rows;
      for (std::size_t r = 0; r < col_rows; ++r) {
        const float* crow = cols.data() + r * col_cols;
        float acc = 0.0f;
        for (std::size_t j = 0; j < col_cols; ++j) acc += dyrow[j] * crow[j];
        dwrow[r] += acc;
      }
    }
    std::fill(dcols.begin(), dcols.end(), 0.0f);
    for (int co = 0; co < cout; ++co) {
      const float* wrow = w.raw() + static_cast<std::size_t>(co) * col_rows;
      const float* dyrow = DY + static_cast<std::size_t>(co) * col_cols;
      for (std::size_t r = 0; r < col_rows; ++r) {
        const float wv = wrow[r];
        if (wv == 0.0f) continue;
        float* drow = dcols.data() + r * col_cols;
        for (std::size_t j = 0; j < col_cols; ++j) drow[j] += wv * dyrow[j];
      }
    }
    serial::col2im(dcols.data(), cin, g, dx.raw() + i * img_in);
  }
}

}  // namespace serial

/// Uniform values in (-1, 1) with exact zeros, -0 and subnormals mixed in,
/// and +-infinity at rate `inf_rate`.
Tensor edge_case_tensor(std::vector<int> shape, Rng& rng, double inf_rate = 0.0) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) {
    const double u = rng.uniform();
    const double value = rng.uniform(-1.0, 1.0);
    if (u < 0.08) {
      v = 0.0f;
    } else if (u < 0.14) {
      v = -0.0f;
    } else if (u < 0.20) {
      v = static_cast<float>(value * 1e-39);  // subnormal
    } else if (u < 0.20 + inf_rate) {
      v = value < 0 ? -INFINITY : INFINITY;
    } else {
      v = static_cast<float>(value);
    }
  }
  return t;
}

/// Index of the first float whose bits differ, or -1.
long first_bit_difference(const Tensor& got, const Tensor& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got.data()[i], &want.data()[i], sizeof(float)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

struct ConvCase {
  int batch, cin, cout, kernel, size, stride, pad;
  double inf_rate = 0.0;
};

std::ostream& operator<<(std::ostream& os, const ConvCase& c) {
  return os << "batch " << c.batch << ", " << c.cin << "->" << c.cout << ", k"
            << c.kernel << ", " << c.size << 'x' << c.size << ", stride "
            << c.stride << ", pad " << c.pad << ", inf rate " << c.inf_rate;
}

std::vector<ConvCase> differential_cases() {
  std::vector<ConvCase> cases;
  const std::pair<int, int> channels[] = {{1, 2}, {2, 1}, {3, 5},
                                          {5, 3}, {24, 48}, {48, 24}};
  int index = 0;
  for (int kernel : {1, 3, 5, 7}) {
    for (const auto& [cin, cout] : channels) {
      for (int size : {5, 6, 7}) {
        const int batch = index % 2 == 0 ? 1 : 3;
        const int stride = index % 3 == 2 ? 2 : 1;
        // The layers' "same" padding, and on some cases none or full.
        int pad = kernel / 2;
        if (index % 4 == 3) pad = kernel - 1;
        if (index % 4 == 1 && kernel <= size) pad = 0;
        cases.push_back({batch, cin, cout, kernel, size, stride, pad});
        ++index;
      }
    }
  }
  // The trained-small scenario's layers, then the same with infinities.
  for (double inf_rate : {0.0, 0.01}) {
    cases.push_back({3, 3, 24, 3, 16, 1, 1, inf_rate});
    cases.push_back({3, 24, 24, 3, 8, 1, 1, inf_rate});
    cases.push_back({3, 24, 48, 3, 8, 1, 1, inf_rate});
    cases.push_back({3, 48, 48, 3, 4, 1, 1, inf_rate});
  }
  return cases;
}

TEST(ConvKernelDifferential, SameBytesAsTheSerialLoops) {
  std::uint64_t seed = 1;
  for (const ConvCase& c : differential_cases()) {
    SCOPED_TRACE(::testing::Message() << c);
    Rng rng(seed++);
    const ConvGeom g{c.size, c.size, c.kernel, c.stride, c.pad};
    const Tensor x = edge_case_tensor({c.batch, c.cin, c.size, c.size}, rng, c.inf_rate);
    Tensor w = edge_case_tensor({c.cout, c.cin, c.kernel, c.kernel}, rng);
    Tensor bias = edge_case_tensor({c.cout}, rng);
    const Tensor dy =
        edge_case_tensor({c.batch, c.cout, g.out_h(), g.out_w()}, rng, c.inf_rate);
    // Output channel 0 has only zero weights and a -0 bias, so its outputs
    // are exactly the bias; input channel 0 meets zero weights in every
    // output channel, so its dx is exactly +0 (or from the other rows).
    const std::size_t col_rows = static_cast<std::size_t>(c.cin) * c.kernel * c.kernel;
    for (std::size_t r = 0; r < col_rows; ++r) w[r] = r % 2 ? 0.0f : -0.0f;
    for (int co = 0; co < c.cout; ++co) w[co * col_rows] = 0.0f;
    bias[0] = -0.0f;

    Tensor y({c.batch, c.cout, g.out_h(), g.out_w()});
    Tensor y_ref = y;
    std::vector<float> scratch;
    conv2d_forward(x, w, bias, g, y, scratch);
    serial::conv2d_forward(x, w, bias, g, y_ref);
    EXPECT_EQ(first_bit_difference(y, y_ref), -1) << "y";

    Tensor dx(x.shape()), dw(w.shape()), dbias(bias.shape());
    Tensor dx_ref = dx, dw_ref = dw, dbias_ref = dbias;
    conv2d_backward(x, w, g, dy, &dx, &dw, &dbias, scratch);
    serial::conv2d_backward(x, w, g, dy, dx_ref, dw_ref, dbias_ref);
    EXPECT_EQ(first_bit_difference(dx, dx_ref), -1) << "dx";
    EXPECT_EQ(first_bit_difference(dw, dw_ref), -1) << "dw";
    EXPECT_EQ(first_bit_difference(dbias, dbias_ref), -1) << "dbias";

    // Each gradient alone, and a forward without bias, give the same bytes.
    Tensor only(dw.shape());
    conv2d_backward(x, w, g, dy, nullptr, &only, nullptr, scratch);
    EXPECT_EQ(first_bit_difference(only, dw_ref), -1) << "dw alone";
    only = Tensor(dx.shape());
    conv2d_backward(x, w, g, dy, &only, nullptr, nullptr, scratch);
    EXPECT_EQ(first_bit_difference(only, dx_ref), -1) << "dx alone";
    only = Tensor(dbias.shape());
    conv2d_backward(x, w, g, dy, nullptr, nullptr, &only, scratch);
    EXPECT_EQ(first_bit_difference(only, dbias_ref), -1) << "dbias alone";
    conv2d_forward(x, w, Tensor(), g, y, scratch);
    serial::conv2d_forward(x, w, Tensor(), g, y_ref);
    EXPECT_EQ(first_bit_difference(y, y_ref), -1) << "y without bias";

    // im2col and col2im on their own; col2im adds into a nonzero gradient.
    const int col_cols = g.out_h() * g.out_w();
    Tensor cols({static_cast<int>(col_rows), col_cols});
    Tensor cols_ref = cols;
    im2col(x.raw(), c.cin, g, cols.raw());
    serial::im2col(x.raw(), c.cin, g, cols_ref.raw());
    EXPECT_EQ(first_bit_difference(cols, cols_ref), -1) << "im2col";
    const Tensor terms = edge_case_tensor(cols.shape(), rng, c.inf_rate);
    Tensor grad = edge_case_tensor({c.cin, c.size, c.size}, rng);
    Tensor grad_ref = grad;
    col2im(terms.raw(), c.cin, g, grad.raw());
    serial::col2im(terms.raw(), c.cin, g, grad_ref.raw());
    EXPECT_EQ(first_bit_difference(grad, grad_ref), -1) << "col2im";
  }
}

// ------------------------------------------- Conv kernels: operand shapes

// Well-shaped operands of a 2-sample 2->4 3x3 conv on 5x5 inputs; each test
// mis-shapes one of them. Every mis-shape is one the kernels would otherwise
// read or write past, or silently misread.
struct ConvOperands {
  ConvGeom g{5, 5, 3, 1, 1};
  Tensor x{2, 2, 5, 5}, w{4, 2, 3, 3}, bias{4}, y{2, 4, 5, 5};
  Tensor dy{2, 4, 5, 5}, dx{2, 2, 5, 5}, dw{4, 2, 3, 3}, dbias{4};
  std::vector<float> scratch;

  void forward() { conv2d_forward(x, w, bias, g, y, scratch); }
  void backward() { conv2d_backward(x, w, g, dy, &dx, &dw, &dbias, scratch); }
};

TEST(ConvShapes, WellShapedOperandsPass) {
  ConvOperands op;
  EXPECT_NO_THROW(op.forward());
  EXPECT_NO_THROW(op.backward());
}

TEST(ConvShapes, ForwardChecksX) {
  ConvOperands op;
  op.x = Tensor({2, 2, 6, 5});
  EXPECT_THROW(op.forward(), std::invalid_argument);
}

TEST(ConvShapes, ForwardChecksW) {
  ConvOperands op;
  op.w = Tensor({4, 2, 3, 3, 1});
  EXPECT_THROW(op.forward(), std::invalid_argument);
}

TEST(ConvShapes, ForwardChecksBias) {
  ConvOperands op;
  op.bias = Tensor({2});
  EXPECT_THROW(op.forward(), std::invalid_argument);
}

TEST(ConvShapes, ForwardChecksY) {
  ConvOperands op;
  op.y = Tensor({2, 4, 5, 6});
  EXPECT_THROW(op.forward(), std::invalid_argument);
}

TEST(ConvShapes, BackwardChecksX) {
  ConvOperands op;
  op.x = Tensor({2, 2, 5, 6});
  EXPECT_THROW(op.backward(), std::invalid_argument);
}

TEST(ConvShapes, BackwardChecksW) {
  ConvOperands op;
  op.w = Tensor({4, 3, 3, 3});
  EXPECT_THROW(op.backward(), std::invalid_argument);
}

TEST(ConvShapes, BackwardChecksDy) {
  ConvOperands op;
  op.dy = Tensor({1, 4, 5, 5});
  EXPECT_THROW(op.backward(), std::invalid_argument);
}

TEST(ConvShapes, BackwardChecksDx) {
  ConvOperands op;
  op.dx = Tensor({2, 2, 5, 6});
  EXPECT_THROW(op.backward(), std::invalid_argument);
}

TEST(ConvShapes, BackwardChecksDw) {
  ConvOperands op;
  op.dw = Tensor({5, 2, 3, 3});
  EXPECT_THROW(op.backward(), std::invalid_argument);
}

TEST(ConvShapes, BackwardChecksDbias) {
  ConvOperands op;
  op.dbias = Tensor({5});
  EXPECT_THROW(op.backward(), std::invalid_argument);
}

// ------------------------------------------------------------------ Pool

TEST(MaxPool, ForwardPicksMax) {
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y({1, 1, 1, 1});
  std::vector<int> argmax;
  maxpool2x2_forward(x, y, argmax);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(argmax[0], 1);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y({1, 1, 1, 1});
  std::vector<int> argmax;
  maxpool2x2_forward(x, y, argmax);
  Tensor dy({1, 1, 1, 1}, {2.5f});
  Tensor dx({1, 1, 2, 2});
  maxpool2x2_backward(dy, argmax, dx);
  EXPECT_EQ(dx[1], 2.5f);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(MaxPool, HalvesSpatialDims) {
  Rng rng(7);
  const Tensor x = random_tensor({2, 3, 8, 8}, rng);
  Tensor y({2, 3, 4, 4});
  std::vector<int> argmax;
  maxpool2x2_forward(x, y, argmax);
  // Every output must equal the max of its 2x2 window.
  for (int n = 0; n < 2; ++n) {
    for (int c = 0; c < 3; ++c) {
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          float mx = -1e9f;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              mx = std::max(mx, x.at(n, c, i * 2 + dy, j * 2 + dx));
            }
          }
          ASSERT_EQ(y.at(n, c, i, j), mx);
        }
      }
    }
  }
}

// ------------------------------------------------------- ReLU / softmax

TEST(Relu, ForwardAndBackward) {
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y({4});
  relu_forward(x, y);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({4}, {1.0f, 1.0f, 1.0f, 1.0f});
  Tensor dx({4});
  relu_backward(x, dy, dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(11);
  const Tensor logits = random_tensor({5, 10}, rng);
  Tensor probs({5, 10});
  softmax_rows(logits, probs);
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 10; ++j) {
      const float p = probs.at(i, j);
      ASSERT_GE(p, 0.0f);
      s += p;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor probs({1, 3});
  softmax_rows(logits, probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_GT(probs[1], probs[0]);
}

TEST(CrossEntropy, LossAndGradient) {
  Tensor probs({2, 3}, {0.7f, 0.2f, 0.1f, 0.1f, 0.1f, 0.8f});
  const std::vector<int> labels = {0, 2};
  Tensor dlogits({2, 3});
  const double loss = cross_entropy_loss(probs, labels, dlogits);
  EXPECT_NEAR(loss, -(std::log(0.7) + std::log(0.8)) / 2.0, 1e-6);
  // dlogits = (p - onehot) / N
  EXPECT_NEAR(dlogits.at(0, 0), (0.7 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(dlogits.at(0, 1), 0.2 / 2.0, 1e-6);
  EXPECT_NEAR(dlogits.at(1, 2), (0.8 - 1.0) / 2.0, 1e-6);
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor probs({1, 3}, {0.3f, 0.3f, 0.4f});
  Tensor dlogits({1, 3});
  const std::vector<int> bad = {3};
  EXPECT_THROW((void)cross_entropy_loss(probs, bad, dlogits), std::invalid_argument);
}

TEST(ArgmaxRows, PicksLargest) {
  Tensor t({2, 3}, {0.1f, 0.9f, 0.0f, 0.5f, 0.2f, 0.6f});
  const auto am = argmax_rows(t);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 2);
}

// ----------------------------------------------------------------- Dense

TEST(Dense, ForwardWithBias) {
  Tensor x({1, 2}, {1.0f, 2.0f});
  Tensor w({2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  Tensor b({2}, {0.5f, -0.5f});
  Tensor y({1, 2});
  dense_forward(x, w, b, y);
  EXPECT_EQ(y[0], 1.5f);
  EXPECT_EQ(y[1], 1.5f);
}

TEST(Dense, BackwardGradientCheck) {
  Rng rng(31);
  Tensor x = random_tensor({3, 4}, rng);
  Tensor w = random_tensor({4, 5}, rng);
  Tensor b = random_tensor({5}, rng);
  const Tensor mask = random_tensor({3, 5}, rng);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor y({3, 5});
    dense_forward(xx, ww, bb, y);
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) s += y[i] * mask[i];
    return s;
  };

  Tensor dx({3, 4}), dw({4, 5}), db({5});
  dense_backward(x, w, mask, &dx, &dw, &db);

  const float eps = 1e-3f;
  for (std::size_t idx : {0u, 5u, 11u}) {
    Tensor xp = x;
    xp[idx] += eps;
    Tensor xm = x;
    xm[idx] -= eps;
    EXPECT_NEAR(dx[idx], (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps), 2e-2);
  }
  for (std::size_t idx : {0u, 9u, 19u}) {
    Tensor wp = w;
    wp[idx] += eps;
    Tensor wm = w;
    wm[idx] -= eps;
    EXPECT_NEAR(dw[idx], (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps), 2e-2);
  }
}

}  // namespace
}  // namespace lcda::tensor
