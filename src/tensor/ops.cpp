#include "lcda/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>

namespace lcda::tensor {

namespace {
void check_matrix(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(name) + ": expected rank-2 tensor, got " +
                                t.shape_str());
  }
}
}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "gemm:A");
  check_matrix(b, "gemm:B");
  check_matrix(c, "gemm:C");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm: dimension mismatch");
  }
  const float* A = a.raw();
  const float* B = b.raw();
  float* C = c.raw();
  std::fill(C, C + static_cast<std::size_t>(m) * n, 0.0f);
  // ikj loop order: streams through B and C rows — cache friendly.
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = A[static_cast<std::size_t>(i) * k + kk];
      if (aik == 0.0f) continue;
      const float* Brow = B + static_cast<std::size_t>(kk) * n;
      float* Crow = C + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) Crow[j] += aik * Brow[j];
    }
  }
}

void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "gemm_at_b:A");
  check_matrix(b, "gemm_at_b:B");
  check_matrix(c, "gemm_at_b:C");
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_at_b: dimension mismatch");
  }
  const float* A = a.raw();
  const float* B = b.raw();
  float* C = c.raw();
  std::fill(C, C + static_cast<std::size_t>(m) * n, 0.0f);
  for (int kk = 0; kk < k; ++kk) {
    const float* Arow = A + static_cast<std::size_t>(kk) * m;
    const float* Brow = B + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float aki = Arow[i];
      if (aki == 0.0f) continue;
      float* Crow = C + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) Crow[j] += aki * Brow[j];
    }
  }
}

void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matrix(a, "gemm_a_bt:A");
  check_matrix(b, "gemm_a_bt:B");
  check_matrix(c, "gemm_a_bt:C");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_a_bt: dimension mismatch");
  }
  const float* A = a.raw();
  const float* B = b.raw();
  float* C = c.raw();
  for (int i = 0; i < m; ++i) {
    const float* Arow = A + static_cast<std::size_t>(i) * k;
    float* Crow = C + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* Brow = B + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += Arow[kk] * Brow[kk];
      Crow[j] = acc;
    }
  }
}

namespace {

// im2col into rows `row_stride` floats apart (>= out_h*out_w); the floats
// past out_h*out_w in each row are left as they are. Each channel is first
// copied into `padded`, (in_h + 2*pad) x (in_w + 2*pad) floats whose border
// is zero, so every output row is a plain copy with no bounds tests.
void im2col_rows(const float* input, int channels, const ConvGeom& g,
                 float* columns, std::size_t row_stride, float* padded) {
  const int oh = g.out_h(), ow = g.out_w();
  const int k = g.kernel;
  const std::size_t pw = static_cast<std::size_t>(g.in_w) + 2 * g.pad;
  const std::size_t ph = static_cast<std::size_t>(g.in_h) + 2 * g.pad;
  std::fill(padded, padded + ph * pw, 0.0f);
  // columns layout: row = (c*k*k + ki*k + kj), col = (y*ow + x)
  for (int c = 0; c < channels; ++c) {
    const float* img = input + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    for (int iy = 0; iy < g.in_h; ++iy) {
      std::copy(img + static_cast<std::size_t>(iy) * g.in_w,
                img + static_cast<std::size_t>(iy + 1) * g.in_w,
                padded + (iy + g.pad) * pw + g.pad);
    }
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        float* dst = columns +
                     (static_cast<std::size_t>(c) * k * k + ki * k + kj) * row_stride;
        for (int y = 0; y < oh; ++y, dst += ow) {
          const float* src = padded + (y * g.stride + ki) * pw + kj;
          for (int x = 0; x < ow; ++x) dst[x] = src[x * g.stride];
        }
      }
    }
  }
}

std::size_t padded_image_size(const ConvGeom& g) {
  return (static_cast<std::size_t>(g.in_h) + 2 * g.pad) *
         (static_cast<std::size_t>(g.in_w) + 2 * g.pad);
}

}  // namespace

void im2col(const float* input, int channels, const ConvGeom& g, float* columns) {
  std::vector<float> padded(padded_image_size(g));
  im2col_rows(input, channels, g, columns,
              static_cast<std::size_t>(g.out_h()) * g.out_w(), padded.data());
}

namespace {

// col2im through `padded`, laid out as in im2col_rows: the image is copied
// into its interior, every column adds into it with no bounds tests, and the
// interior is copied back. Each pixel still takes its terms in im2col's
// (ki, kj, y, x) order, starting from its own value; the border only
// collects the terms a bounds test would drop.
void col2im_padded(const float* columns, int channels, const ConvGeom& g,
                   float* input_grad, float* padded) {
  const int oh = g.out_h(), ow = g.out_w();
  const int k = g.kernel;
  const std::size_t pw = static_cast<std::size_t>(g.in_w) + 2 * g.pad;
  const std::size_t ph = static_cast<std::size_t>(g.in_h) + 2 * g.pad;
  for (int c = 0; c < channels; ++c) {
    float* img = input_grad + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    std::fill(padded, padded + ph * pw, 0.0f);
    for (int iy = 0; iy < g.in_h; ++iy) {
      std::copy(img + static_cast<std::size_t>(iy) * g.in_w,
                img + static_cast<std::size_t>(iy + 1) * g.in_w,
                padded + (iy + g.pad) * pw + g.pad);
    }
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        const float* src = columns +
                           (static_cast<std::size_t>(c) * k * k + ki * k + kj) *
                               (static_cast<std::size_t>(oh) * ow);
        for (int y = 0; y < oh; ++y, src += ow) {
          float* dst = padded + (y * g.stride + ki) * pw + kj;
          for (int x = 0; x < ow; ++x) dst[x * g.stride] += src[x];
        }
      }
    }
    for (int iy = 0; iy < g.in_h; ++iy) {
      const float* row = padded + (iy + g.pad) * pw + g.pad;
      std::copy(row, row + g.in_w, img + static_cast<std::size_t>(iy) * g.in_w);
    }
  }
}

}  // namespace

void col2im(const float* columns, int channels, const ConvGeom& g, float* input_grad) {
  std::vector<float> padded(padded_image_size(g));
  col2im_padded(columns, channels, g, input_grad, padded.data());
}

namespace {

// ------------------------------------------------------ conv register tiles
//
// Every conv output below is a sum of products, computed as a serial loop
// would: one accumulator per output, the terms added one at a time in a
// fixed order. The tiles only choose which outputs run side by side. Lanes
// go across independent outputs, never along a reduction, and a tile's
// accumulators stay in registers for its whole reduction. So each output
// sees the same float operations in the same order however it is tiled,
// and the bytes equal the plain loops' (tensor_test ConvKernelDifferential
// keeps those loops and compares every byte).
//
// Vec is the GCC/Clang generic vector: SSE2 on x86-64, NEON on aarch64.
using Vec = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
constexpr int kTileVecs = 4;  // a tile row holds kTileVecs * kLanes outputs
constexpr int kTileRows = 2;

Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

Vec splat(float s) { return Vec{s, s, s, s}; }

std::size_t round_up_to_lanes(std::size_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

// The two sums the conv kernels need, over c = a * b with a (rows x depth)
// and b (depth x cols), row i of a at a + i*lda and row k of b at b + k*ldb:
enum class Sum {
  // c[i][j] = init[i] + a[i][0]*b[0][j] + a[i][1]*b[1][j] + ..., skipping
  // every term whose a[i][k] is 0 (forward with init = bias, and dx with
  // init = 0). A skipped zero keeps -0 and non-finite results as they are.
  kInitSkippingZeroA,
  // c[i][j] += 0 + a[i][0]*b[0][j] + a[i][1]*b[1][j] + ... (dW, one sample).
  kAddFromZero,
};

struct Operands {
  const float* a;
  std::size_t lda;
  const float* b;  // each row readable up to round_up_to_lanes(cols)
  std::size_t ldb;
  std::size_t rows, depth, cols;
  const float* init;  // kInitSkippingZeroA: one value per row, or null for 0
  float* c;
  std::size_t ldc;
};

// Rows i .. i+kRows-1, columns j .. j+kVecs*kLanes-1 (those < cols).
template <Sum kSum, int kRows, int kVecs>
void sum_tile(const Operands& op, std::size_t i, std::size_t j) {
  Vec acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    const float start =
        kSum == Sum::kInitSkippingZeroA && op.init ? op.init[i + r] : 0.0f;
    for (int q = 0; q < kVecs; ++q) acc[r][q] = splat(start);
  }
  const float* a = op.a + i * op.lda;
  const float* b = op.b + j;
  for (std::size_t k = 0; k < op.depth; ++k, b += op.ldb) {
    Vec bk[kVecs];
    for (int q = 0; q < kVecs; ++q) bk[q] = load(b + q * kLanes);
    for (int r = 0; r < kRows; ++r) {
      const float s = a[r * op.lda + k];
      if (kSum == Sum::kInitSkippingZeroA && s == 0.0f) continue;
      for (int q = 0; q < kVecs; ++q) acc[r][q] += s * bk[q];
    }
  }
  for (int r = 0; r < kRows; ++r) {
    float* c = op.c + (i + r) * op.ldc + j;
    for (int q = 0; q < kVecs; ++q, c += kLanes) {
      const std::size_t col = j + q * kLanes;
      if (kSum == Sum::kAddFromZero) {
        store(c, load(c) + acc[r][q]);  // c's rows are padded to whole Vecs
      } else if (col + kLanes <= op.cols) {
        store(c, acc[r][q]);
      } else {
        float tail[kLanes];
        store(tail, acc[r][q]);
        std::memcpy(c, tail, std::min(op.cols - col, kLanes) * sizeof(float));
      }
    }
  }
}

template <Sum kSum, int kRows>
void sum_row_tile(const Operands& op, std::size_t i) {
  for (std::size_t j = 0; j < op.cols; j += kTileVecs * kLanes) {
    switch ((std::min(op.cols - j, kTileVecs * kLanes) + kLanes - 1) / kLanes) {
      case 4: sum_tile<kSum, kRows, 4>(op, i, j); break;
      case 3: sum_tile<kSum, kRows, 3>(op, i, j); break;
      case 2: sum_tile<kSum, kRows, 2>(op, i, j); break;
      default: sum_tile<kSum, kRows, 1>(op, i, j); break;
    }
  }
}

template <Sum kSum>
void sum_products(const Operands& op) {
  static_assert(kTileVecs == 4, "sum_row_tile dispatches 1 to 4 Vecs");
  std::size_t i = 0;
  for (; i + kTileRows <= op.rows; i += kTileRows) sum_row_tile<kSum, kTileRows>(op, i);
  for (; i < op.rows; ++i) sum_row_tile<kSum, 1>(op, i);
}

// dst[j][i] = src[i][j] for i < rows, j < cols; rows `*_stride` floats apart.
void transpose(const float* src, std::size_t rows, std::size_t cols,
               std::size_t src_stride, float* dst, std::size_t dst_stride) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      dst[j * dst_stride + i] = src[i * src_stride + j];
    }
  }
}

[[noreturn]] void conv_shape_error(const char* op, const char* operand,
                                   const Tensor& t) {
  throw std::invalid_argument(std::string(op) + ": " + operand + " has shape " +
                              t.shape_str());
}

// Compares in place: a check runs on every call, so it builds no vector.
void check_shape(const char* op, const char* operand, const Tensor& t,
                 std::initializer_list<int> expected) {
  if (!std::ranges::equal(t.shape(), expected)) conv_shape_error(op, operand, t);
}

void check_same_shape(const char* op, const char* operand, const Tensor& t,
                      const Tensor& like) {
  if (!t.same_shape(like)) conv_shape_error(op, operand, t);
}

// x (N,Cin,H,W) and w (Cout,Cin,K,K) against g; returns N.
int check_conv_operands(const char* op, const Tensor& x, const Tensor& w,
                        const ConvGeom& g) {
  if (g.kernel < 1 || g.stride < 1 || g.pad < 0 || g.out_h() < 1 || g.out_w() < 1) {
    throw std::invalid_argument(std::string(op) + ": bad geometry");
  }
  if (x.rank() != 4 || x.dim(2) != g.in_h || x.dim(3) != g.in_w) {
    conv_shape_error(op, "x", x);
  }
  if (w.rank() != 4) conv_shape_error(op, "w", w);
  check_shape(op, "w", w, {w.dim(0), x.dim(1), g.kernel, g.kernel});
  return x.dim(0);
}

}  // namespace

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                    const ConvGeom& g, Tensor& y, std::vector<float>& scratch) {
  const int n = check_conv_operands("conv2d_forward", x, w, g);
  const int cin = x.dim(1), cout = w.dim(0), k = g.kernel;
  const int oh = g.out_h(), ow = g.out_w();
  if (!bias.empty()) check_shape("conv2d_forward", "bias", bias, {cout});
  check_shape("conv2d_forward", "y", y, {n, cout, oh, ow});

  const std::size_t col_rows = static_cast<std::size_t>(cin) * k * k;
  const std::size_t col_cols = static_cast<std::size_t>(oh) * ow;
  const std::size_t col_stride = round_up_to_lanes(col_cols);
  scratch.resize(col_rows * col_stride + padded_image_size(g));
  float* padded = scratch.data() + col_rows * col_stride;

  const std::size_t img_in = static_cast<std::size_t>(cin) * g.in_h * g.in_w;
  const std::size_t img_out = static_cast<std::size_t>(cout) * col_cols;
  // y_img (cout x col_cols) = bias + W (cout x col_rows) * columns
  Operands op{.a = w.raw(), .lda = col_rows,
              .b = scratch.data(), .ldb = col_stride,
              .rows = static_cast<std::size_t>(cout), .depth = col_rows, .cols = col_cols,
              .init = bias.empty() ? nullptr : bias.raw(), .c = nullptr, .ldc = col_cols};
  for (int i = 0; i < n; ++i) {
    im2col_rows(x.raw() + i * img_in, cin, g, scratch.data(), col_stride, padded);
    op.c = y.raw() + i * img_out;
    sum_products<Sum::kInitSkippingZeroA>(op);
  }
}

void conv2d_backward(const Tensor& x, const Tensor& w, const ConvGeom& g,
                     const Tensor& dy, Tensor* dx, Tensor* dw, Tensor* dbias,
                     std::vector<float>& scratch) {
  const int n = check_conv_operands("conv2d_backward", x, w, g);
  const int cin = x.dim(1), cout = w.dim(0), k = g.kernel;
  const int oh = g.out_h(), ow = g.out_w();
  check_shape("conv2d_backward", "dy", dy, {n, cout, oh, ow});
  if (dx) check_same_shape("conv2d_backward", "dx", *dx, x);
  if (dw) check_same_shape("conv2d_backward", "dw", *dw, w);
  if (dbias) check_shape("conv2d_backward", "dbias", *dbias, {cout});

  const std::size_t cout_n = static_cast<std::size_t>(cout);
  const std::size_t col_rows = static_cast<std::size_t>(cin) * k * k;
  const std::size_t col_cols = static_cast<std::size_t>(oh) * ow;
  const std::size_t col_stride = round_up_to_lanes(col_cols);
  const std::size_t cout_stride = round_up_to_lanes(cout_n);
  const std::size_t img_in = static_cast<std::size_t>(cin) * g.in_h * g.in_w;
  const std::size_t img_out = cout_n * col_cols;

  // One sample's columns and dy in the layouts the tiles read, the weights
  // transposed, and dW and dbias transposed (rows padded to whole Vecs).
  // dx's columns reuse im2col's: each sample's dW is done with them first.
  std::size_t size = 0;
  auto carve = [&](std::size_t floats) {
    const std::size_t at = size;
    size += floats;
    return at;
  };
  const std::size_t cols_at = carve(col_rows * col_stride);    // im2col(x_i), dcols
  const std::size_t dy_at = carve(cout_n * col_stride);        // dy_i, padded
  const std::size_t dyt_at = carve(col_cols * cout_stride);    // dy_i^T
  const std::size_t wt_at = carve(col_rows * cout_n);          // W^T
  const std::size_t dwt_at = carve(col_rows * cout_stride);    // dW^T
  const std::size_t dbias_at = carve(cout_stride);             // dbias
  const std::size_t padded_at = carve(padded_image_size(g));   // for im2col
  scratch.resize(size);
  float* cols = scratch.data() + cols_at;
  float* dcols = cols;
  float* dy_pad = scratch.data() + dy_at;
  float* dy_t = scratch.data() + dyt_at;
  float* w_t = scratch.data() + wt_at;
  float* dw_t = scratch.data() + dwt_at;
  float* dbias_acc = scratch.data() + dbias_at;
  float* padded = scratch.data() + padded_at;

  std::fill(dw_t, dw_t + col_rows * cout_stride, 0.0f);
  std::fill(dbias_acc, dbias_acc + cout_stride, 0.0f);
  if (dx) {
    dx->fill(0.0f);
    transpose(w.raw(), cout_n, col_rows, col_rows, w_t, cout_n);
  }
  // dW^T (col_rows x cout) += columns (col_rows x col_cols) * dy_i^T
  const Operands dw_op{.a = cols, .lda = col_stride,
                       .b = dy_t, .ldb = cout_stride,
                       .rows = col_rows, .depth = col_cols, .cols = cout_n,
                       .init = nullptr, .c = dw_t, .ldc = cout_stride};
  // dcols (col_rows x col_cols) = W^T (col_rows x cout) * dy_i
  const Operands dx_op{.a = w_t, .lda = cout_n,
                       .b = dy_pad, .ldb = col_stride,
                       .rows = col_rows, .depth = cout_n, .cols = col_cols,
                       .init = nullptr, .c = dcols, .ldc = col_cols};

  for (int i = 0; i < n; ++i) {
    const float* dy_i = dy.raw() + i * img_out;
    if (dw || dbias) transpose(dy_i, cout_n, col_cols, col_cols, dy_t, cout_stride);
    if (dbias) {
      // Lanes across channels: each channel's sum still runs over j in order.
      for (std::size_t co = 0; co < cout_n; co += kLanes) {
        Vec acc = splat(0.0f);
        for (std::size_t j = 0; j < col_cols; ++j) {
          acc += load(dy_t + j * cout_stride + co);
        }
        store(dbias_acc + co, load(dbias_acc + co) + acc);
      }
    }
    if (dw) {
      im2col_rows(x.raw() + i * img_in, cin, g, cols, col_stride, padded);
      sum_products<Sum::kAddFromZero>(dw_op);
    }
    if (dx) {
      for (std::size_t co = 0; co < cout_n; ++co) {
        std::copy(dy_i + co * col_cols, dy_i + (co + 1) * col_cols,
                  dy_pad + co * col_stride);
      }
      sum_products<Sum::kInitSkippingZeroA>(dx_op);
      col2im_padded(dcols, cin, g, dx->raw() + i * img_in, padded);
    }
  }

  if (dw) transpose(dw_t, col_rows, cout_n, cout_stride, dw->raw(), col_rows);
  if (dbias) std::copy(dbias_acc, dbias_acc + cout_n, dbias->raw());
}

void maxpool2x2_forward(const Tensor& x, Tensor& y, std::vector<int>& argmax) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = h / 2, ow = w / 2;
  argmax.assign(static_cast<std::size_t>(n) * c * oh * ow, 0);
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      for (int y0 = 0; y0 < oh; ++y0) {
        for (int x0 = 0; x0 < ow; ++x0) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = 0;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              const int iy = y0 * 2 + dy, ix = x0 * 2 + dx;
              const std::size_t idx =
                  ((static_cast<std::size_t>(i) * c + ch) * h + iy) * w + ix;
              if (x[idx] > best) {
                best = x[idx];
                best_idx = static_cast<int>(idx);
              }
            }
          }
          y[out_idx] = best;
          argmax[out_idx] = best_idx;
          ++out_idx;
        }
      }
    }
  }
}

void maxpool2x2_backward(const Tensor& dy, const std::vector<int>& argmax,
                         Tensor& dx) {
  dx.fill(0.0f);
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    dx[static_cast<std::size_t>(argmax[i])] += dy[i];
  }
}

void relu_forward(const Tensor& x, Tensor& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  for (std::size_t i = 0; i < x.size(); ++i) dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
}

void dense_forward(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y) {
  gemm(x, w, y);
  const int n = y.dim(0), out = y.dim(1);
  if (!bias.empty()) {
    for (int i = 0; i < n; ++i) {
      float* row = y.raw() + static_cast<std::size_t>(i) * out;
      for (int j = 0; j < out; ++j) row[j] += bias[static_cast<std::size_t>(j)];
    }
  }
}

void dense_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                    Tensor* dx, Tensor* dw, Tensor* dbias) {
  if (dx) gemm_a_bt(dy, w, *dx);          // dx (N,In) = dy (N,Out) * W^T
  if (dw) gemm_at_b(x, dy, *dw);          // dw (In,Out) = x^T * dy
  if (dbias) {
    dbias->fill(0.0f);
    const int n = dy.dim(0), out = dy.dim(1);
    for (int i = 0; i < n; ++i) {
      const float* row = dy.raw() + static_cast<std::size_t>(i) * out;
      for (int j = 0; j < out; ++j) (*dbias)[static_cast<std::size_t>(j)] += row[j];
    }
  }
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  const int n = logits.dim(0), c = logits.dim(1);
  for (int i = 0; i < n; ++i) {
    const float* in = logits.raw() + static_cast<std::size_t>(i) * c;
    float* out = probs.raw() + static_cast<std::size_t>(i) * c;
    float mx = in[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, in[j]);
    double sum = 0.0;
    for (int j = 0; j < c; ++j) {
      out[j] = std::exp(in[j] - mx);
      sum += out[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int j = 0; j < c; ++j) out[j] *= inv;
  }
}

double cross_entropy_loss(const Tensor& probs, std::span<const int> labels,
                          Tensor& dlogits) {
  const int n = probs.dim(0), c = probs.dim(1);
  if (labels.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("cross_entropy_loss: label count mismatch");
  }
  double loss = 0.0;
  const float invn = 1.0f / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int label = labels[static_cast<std::size_t>(i)];
    if (label < 0 || label >= c) {
      throw std::invalid_argument("cross_entropy_loss: label out of range");
    }
    const float* p = probs.raw() + static_cast<std::size_t>(i) * c;
    float* d = dlogits.raw() + static_cast<std::size_t>(i) * c;
    loss -= std::log(std::max(p[label], 1e-12f));
    for (int j = 0; j < c; ++j) d[j] = p[j] * invn;
    d[label] -= invn;
  }
  return loss / n;
}

std::vector<int> argmax_rows(const Tensor& t) {
  const int n = t.dim(0), c = t.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const float* row = t.raw() + static_cast<std::size_t>(i) * c;
    int best = 0;
    for (int j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace lcda::tensor
