#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/vec.h"

namespace ddpkit::kernels {

namespace {

void CheckFloatContiguous(const Tensor& t, const char* what) {
  DDPKIT_CHECK(t.defined()) << what << " undefined";
  DDPKIT_CHECK(t.dtype() == DType::kFloat32) << what << " must be float32";
  DDPKIT_CHECK(t.is_contiguous()) << what << " must be contiguous";
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  DDPKIT_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.ShapeString() << " vs " << b.ShapeString()
      << " (elementwise kernels do not broadcast)";
}

/// SIMD-path helpers: the batch fn receives whole [lo, hi) spans and is
/// expected to forward to a vec.h entry point.
template <typename BatchFn>
Tensor UnaryBatch(const Tensor& a, BatchFn fn) {
  CheckFloatContiguous(a, "input");
  Tensor out = Tensor::Empty(a.shape(), DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, a.numel(), kParallelGrain, [&](int64_t b, int64_t e) {
    fn(pa + b, po + b, e - b);
  });
  return out;
}

template <typename BatchFn>
Tensor BinaryBatch(const Tensor& a, const Tensor& b, BatchFn fn) {
  CheckFloatContiguous(a, "lhs");
  CheckFloatContiguous(b, "rhs");
  CheckSameShape(a, b);
  Tensor out = Tensor::Empty(a.shape(), DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, a.numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    fn(pa + lo, pb + lo, po + lo, hi - lo);
  });
  return out;
}

}  // namespace

// ---- Elementwise ------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Add(x, y, d, n); });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Sub(x, y, d, n); });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Mul(x, y, d, n); });
}

Tensor Scale(const Tensor& a, double s) {
  const float fs = static_cast<float>(s);
  return UnaryBatch(a, [fs](const float* x, float* d, int64_t n) {
    vec::Scale(x, fs, d, n);
  });
}

Tensor AddScalar(const Tensor& a, double s) {
  const float fs = static_cast<float>(s);
  return UnaryBatch(a, [fs](const float* x, float* d, int64_t n) {
    vec::AddScalar(x, fs, d, n);
  });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBatch(a, b, [](const float* x, const float* y, float* d,
                              int64_t n) { vec::Div(x, y, d, n); });
}

Tensor Neg(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Neg(x, d, n); });
}

Tensor Exp(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Exp(x, d, n); });
}

Tensor Log(const Tensor& a) {
  CheckFloatContiguous(a, "input");
  Tensor out = Tensor::Empty(a.shape(), DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, a.numel(), kParallelGrain, [&](int64_t b, int64_t e) {
    // ddplint: allow(raw-elementwise-loop) log stays on libm, one element
    // at a time: vec.h owns exp and tanh, not log
    for (int64_t i = b; i < e; ++i) po[i] = std::log(pa[i]);
  });
  return out;
}

Tensor Sqrt(const Tensor& a) {
  // sqrtps is correctly rounded per IEEE-754, so every level agrees.
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Sqrt(x, d, n); });
}

void Axpy(double alpha, const Tensor& x, Tensor* y) {
  DDPKIT_CHECK(y != nullptr);
  CheckFloatContiguous(x, "x");
  CheckFloatContiguous(*y, "y");
  CheckSameShape(x, *y);
  const float a = static_cast<float>(alpha);
  const float* px = x.data<float>();
  float* py = y->data<float>();
  ParallelFor(0, x.numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    vec::Axpy(a, px + lo, py + lo, hi - lo);
  });
}

void ScaleInPlace(Tensor* y, double s) {
  DDPKIT_CHECK(y != nullptr);
  CheckFloatContiguous(*y, "y");
  const float fs = static_cast<float>(s);
  float* py = y->data<float>();
  ParallelFor(0, y->numel(), kParallelGrain, [&](int64_t lo, int64_t hi) {
    vec::ScaleInPlace(py + lo, fs, hi - lo);
  });
}

void AddInPlace(Tensor* dst, const Tensor& src) { Axpy(1.0, src, dst); }

// ---- Activations -------------------------------------------------------------

Tensor Relu(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Relu(x, d, n); });
}

Tensor ReluBackward(const Tensor& grad_out, const Tensor& input) {
  return BinaryBatch(grad_out, input,
                     [](const float* g, const float* x, float* d, int64_t n) {
                       vec::ReluBackward(g, x, d, n);
                     });
}

Tensor Gelu(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Gelu(x, d, n); });
}

Tensor GeluBackward(const Tensor& grad_out, const Tensor& input) {
  return BinaryBatch(grad_out, input,
                     [](const float* g, const float* x, float* d, int64_t n) {
                       vec::GeluBackward(g, x, d, n);
                     });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Sigmoid(x, d, n); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryBatch(
      a, [](const float* x, float* d, int64_t n) { vec::Tanh(x, d, n); });
}

// ---- Dense kernels: one GEMM ------------------------------------------------------
//
// MatMul, MatMulTransA, MatMulTransB, Conv2d and both Conv2d backward
// kernels are all vec::Gemm calls over disjoint output tiles: each output
// element has exactly one writer and sums its products in one fixed
// ascending order, so results do not depend on the pool size or the SIMD
// level (DESIGN.md §10). A B operand that is row-major is read in place.
// A convolution's im2col matrix is never built: one image is copied into a
// per-thread buffer (zero-padded, phase-split or dilated) whose rows the
// kernel reads in place through a row-offset table. What is left — Bᵀ in
// MatMulTransB and the weight gradient's transposed im2col — is packed one
// kPanelRows × kPanelCols panel at a time into a per-thread buffer.

namespace {

constexpr int64_t kPanelCols = vec::kGemmPanelCols;
/// k rows per packed panel: a panel is at most 256 × 32 floats (32 KB).
constexpr int64_t kPanelRows = 256;
/// Output rows per MatMul tile (a multiple of the kernel's 4-row tile).
constexpr int64_t kTileRows = 32;

/// This thread's panel buffer, reused by every packed GEMM it runs.
float* PanelBuffer() {
  thread_local std::vector<float> panel(
      static_cast<size_t>(kPanelRows * kPanelCols));
  return panel.data();
}

/// C[m×n] (+)= A[m×k]·B where `pack(p0, p1, j0, cols, dst)` supplies B one
/// panel at a time: B(p, j0 + jj) goes to dst[(p - p0) * kPanelCols + jj]
/// for p in [p0, p1), jj in [0, cols). The k blocks of a column panel run
/// in ascending order, the later ones accumulating, which vec::Gemm
/// guarantees is the same as one pass over all of k.
template <typename Pack>
void GemmPacked(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
                int64_t a_cs, float* c, int64_t ldc, bool accumulate,
                const Pack& pack) {
  float* panel = PanelBuffer();
  for (int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const int64_t cols = std::min(kPanelCols, n - j0);
    if (k == 0) {
      vec::Gemm(m, cols, 0, a, a_rs, a_cs, panel, kPanelCols, c + j0, ldc,
                accumulate);
    }
    for (int64_t p0 = 0; p0 < k; p0 += kPanelRows) {
      const int64_t p1 = std::min(k, p0 + kPanelRows);
      pack(p0, p1, j0, cols, panel);
      vec::Gemm(m, cols, p1 - p0, a + p0 * a_cs, a_rs, a_cs, panel,
                kPanelCols, c + j0, ldc, accumulate || p0 > 0);
    }
  }
}

/// Runs body(i0, rows, j0, cols) over an m×n output cut into kTileRows ×
/// kPanelCols tiles, in parallel. Tiles are numbered column-major, so the
/// tiles one thread runs in a row share a B column strip in cache.
template <typename Body>
void ForEachTile(int64_t m, int64_t n, int64_t k, const Body& body) {
  const int64_t row_tiles = (m + kTileRows - 1) / kTileRows;
  const int64_t col_tiles = (n + kPanelCols - 1) / kPanelCols;
  ParallelFor(0, row_tiles * col_tiles,
              GrainFromCost(kTileRows * kPanelCols * std::max<int64_t>(k, 1)),
              [&](int64_t tb, int64_t te) {
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = (t % row_tiles) * kTileRows;
      const int64_t j0 = (t / row_tiles) * kPanelCols;
      body(i0, std::min(kTileRows, m - i0), j0, std::min(kPanelCols, n - j0));
    }
  });
}

void CheckMatrices(const Tensor& a, const Tensor& b) {
  CheckFloatContiguous(a, "a");
  CheckFloatContiguous(b, "b");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_EQ(b.dim(), 2);
}

}  // namespace

// ---- Linear algebra -------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckMatrices(a, b);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  DDPKIT_CHECK_EQ(k, b.size(0));
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ForEachTile(m, n, k, [&](int64_t i0, int64_t rows, int64_t j0, int64_t cols) {
    vec::Gemm(rows, cols, k, pa + i0 * k, k, 1, pb + j0, n, po + i0 * n + j0,
              n, /*accumulate=*/false);
  });
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CheckMatrices(a, b);
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  DDPKIT_CHECK_EQ(k, b.size(0));
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  // A(i, p) = a[p][i]: the kernel reads A through strides, so no copy.
  ForEachTile(m, n, k, [&](int64_t i0, int64_t rows, int64_t j0, int64_t cols) {
    vec::Gemm(rows, cols, k, pa + i0, 1, m, pb + j0, n, po + i0 * n + j0, n,
              /*accumulate=*/false);
  });
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CheckMatrices(a, b);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  DDPKIT_CHECK_EQ(k, b.size(1));
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ForEachTile(m, n, k, [&](int64_t i0, int64_t rows, int64_t j0, int64_t cols) {
    // B(p, j) = b[j][p]: pack each column strip of b's rows as a k panel.
    GemmPacked(rows, cols, k, pa + i0 * k, k, 1, po + i0 * n + j0, n,
               /*accumulate=*/false,
               [&](int64_t p0, int64_t p1, int64_t jp, int64_t cc,
                   float* dst) {
                 for (int64_t jj = 0; jj < cc; ++jj) {
                   const float* src = pb + (j0 + jp + jj) * k;
                   for (int64_t p = p0; p < p1; ++p) {
                     dst[(p - p0) * kPanelCols + jj] = src[p];
                   }
                 }
               });
  });
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({n, m}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
    }
  });
  return out;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  CheckFloatContiguous(a, "a");
  CheckFloatContiguous(bias, "bias");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  DDPKIT_CHECK_EQ(bias.numel(), a.size(1));
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pbias = bias.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      vec::Add(pa + i * n, pbias, po + i * n, n);
    }
  });
  return out;
}

Tensor SumRows(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  // Column-partitioned: each output element is owned by one thread and
  // accumulates rows in ascending order, exactly as the serial loop does.
  ParallelFor(0, n, GrainFromCost(m), [&](int64_t jb, int64_t je) {
    std::fill(po + jb, po + je, 0.0f);
    for (int64_t i = 0; i < m; ++i) {
      vec::AccumulateAdd(po + jb, pa + i * n + jb, je - jb);
    }
  });
  return out;
}

// ---- Convolution ----------------------------------------------------------------

namespace {

int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t stride,
                    int64_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

struct ConvGeom {
  int64_t cin, h, w, cout, kh, kw, oh, ow, stride, pad;
};

/// This thread's copy of one image in the layout a conv GEMM reads in
/// place (see ShiftedInput / ShiftedGrad); grows to the largest image.
float* ImageBuffer(int64_t floats) {
  thread_local std::vector<float> image;
  if (static_cast<int64_t>(image.size()) < floats) {
    image.resize(static_cast<size_t>(floats));
  }
  return image.data();
}

/// dst[t] = src[x0 + t * stride] for the t whose index lies in [0, width),
/// +0 for the rest (padding); src == nullptr is a padding row.
void StridedGather(const float* src, int64_t width, int64_t x0,
                   int64_t stride, int64_t len, float* dst) {
  int64_t lo = len, hi = len;
  if (src != nullptr && x0 < width) {
    lo = std::min(len, x0 >= 0 ? 0 : (-x0 + stride - 1) / stride);
    hi = std::max(lo, std::min(len, (width - 1 - x0) / stride + 1));
  }
  std::fill(dst, dst + lo, 0.0f);
  if (stride == 1) {
    if (hi > lo) vec::Copy(dst + lo, src + x0 + lo, hi - lo);
  } else {
    for (int64_t t = lo; t < hi; ++t) dst[t] = src[x0 + t * stride];
  }
  std::fill(dst + hi, dst + len, 0.0f);
}

/// The forward conv's B operand, im2col without the copies. One image is
/// zero-padded and split into stride × stride phases,
///
///   buf[ic][ry][rx][r][c] = input[ic][r·s + ry − pad][c·s + rx − pad]
///
/// (+0 outside the input), so that the tap (ic, ky, kx) of output pixel
/// (y, x) sits at buf + offsets[(ic, ky, kx)] + y·cols + x: every GEMM row
/// is contiguous along x, whatever the stride. With stride 1 there is one
/// phase and buf is just the padded image.
struct ShiftedInput {
  int64_t phases_y, phases_x, rows, cols;
  std::vector<int64_t> offsets;  // per (ic, ky, kx), ascending

  explicit ShiftedInput(const ConvGeom& g)
      : phases_y(std::min(g.stride, g.kh)),
        phases_x(std::min(g.stride, g.kw)),
        rows(g.oh + (g.kh - 1) / g.stride),
        cols(g.ow + (g.kw - 1) / g.stride) {
    offsets.reserve(static_cast<size_t>(g.cin * g.kh * g.kw));
    for (int64_t ic = 0; ic < g.cin; ++ic) {
      for (int64_t ky = 0; ky < g.kh; ++ky) {
        for (int64_t kx = 0; kx < g.kw; ++kx) {
          const int64_t phase =
              (ic * phases_y + ky % g.stride) * phases_x + kx % g.stride;
          offsets.push_back((phase * rows + ky / g.stride) * cols +
                            kx / g.stride);
        }
      }
    }
  }

  int64_t floats(const ConvGeom& g) const {
    return g.cin * phases_y * phases_x * rows * cols;
  }

  void Fill(const float* image, const ConvGeom& g, float* buf) const {
    for (int64_t ic = 0; ic < g.cin; ++ic) {
      const float* plane = image + ic * g.h * g.w;
      for (int64_t ry = 0; ry < phases_y; ++ry) {
        for (int64_t rx = 0; rx < phases_x; ++rx) {
          float* dst = buf + ((ic * phases_y + ry) * phases_x + rx) * rows *
                                 cols;
          for (int64_t r = 0; r < rows; ++r) {
            const int64_t iy = r * g.stride + ry - g.pad;
            StridedGather(iy >= 0 && iy < g.h ? plane + iy * g.w : nullptr,
                          g.w, rx - g.pad, g.stride, cols, dst + r * cols);
          }
        }
      }
    }
  }
};

/// The input-gradient conv's B operand: one image of grad_out, zero-
/// dilated by the stride and zero-padded so that
///
///   buf[oc][iy + ky'][ix + kx'] = grad_out[oc][y][x]  where
///   y·s = iy + pad − ky, x·s = ix + pad − kx, ky = kh−1−ky', kx = kw−1−kx'
///
/// (+0 where no output pixel lands). Row (oc, ky', kx') of the GEMM for
/// input row iy is then contiguous along ix at buf + offsets[…] + iy·cols.
struct ShiftedGrad {
  int64_t rows, cols;
  std::vector<int64_t> offsets;  // per (oc, ky', kx'), ascending

  explicit ShiftedGrad(const ConvGeom& g)
      : rows(g.h + g.kh - 1), cols(g.w + g.kw - 1) {
    offsets.reserve(static_cast<size_t>(g.cout * g.kh * g.kw));
    for (int64_t oc = 0; oc < g.cout; ++oc) {
      for (int64_t ky = 0; ky < g.kh; ++ky) {
        for (int64_t kx = 0; kx < g.kw; ++kx) {
          offsets.push_back((oc * rows + ky) * cols + kx);
        }
      }
    }
  }

  int64_t floats(const ConvGeom& g) const { return g.cout * rows * cols; }

  void Fill(const float* grad_image, const ConvGeom& g, float* buf) const {
    // Buffer (r, c) holds output pixel ((r − top) / s, (c − left) / s).
    const int64_t top = g.kh - 1 - g.pad, left = g.kw - 1 - g.pad;
    for (int64_t oc = 0; oc < g.cout; ++oc) {
      const float* plane = grad_image + oc * g.oh * g.ow;
      for (int64_t r = 0; r < rows; ++r) {
        float* dst = buf + (oc * rows + r) * cols;
        const int64_t ny = r - top;
        const bool hit =
            ny >= 0 && ny % g.stride == 0 && ny / g.stride < g.oh;
        const float* src = hit ? plane + ny / g.stride * g.ow : nullptr;
        if (g.stride == 1) {
          StridedGather(src, g.ow, -left, 1, cols, dst);
          continue;
        }
        std::fill(dst, dst + cols, 0.0f);
        if (src == nullptr) continue;
        for (int64_t x = 0; x < g.ow; ++x) {
          const int64_t c = x * g.stride + left;
          // ddplint: allow(raw-elementwise-loop) zero-dilated scatter;
          // the vec layer has no strided stores
          if (c >= 0 && c < cols) dst[c] = src[x];
        }
      }
    }
  }
};

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight,
              const Conv2dArgs& args) {
  CheckFloatContiguous(input, "input");
  CheckFloatContiguous(weight, "weight");
  DDPKIT_CHECK_EQ(input.dim(), 4);
  DDPKIT_CHECK_EQ(weight.dim(), 4);
  const int64_t batch = input.size(0), cin = input.size(1), h = input.size(2),
                w = input.size(3);
  const int64_t cout = weight.size(0), kh = weight.size(2),
                kw = weight.size(3);
  DDPKIT_CHECK_EQ(cin, weight.size(1));
  const int64_t oh = ConvOutSize(h, kh, args.stride, args.padding);
  const int64_t ow = ConvOutSize(w, kw, args.stride, args.padding);
  DDPKIT_CHECK(oh > 0 && ow > 0);
  Tensor out =
      Tensor::Empty({batch, cout, oh, ow}, DType::kFloat32, input.device_id());
  const ConvGeom g{cin, h, w, cout, kh, kw, oh, ow, args.stride, args.padding};
  const ShiftedInput shifted(g);
  const int64_t kdim = cin * kh * kw, plane = oh * ow;
  const float* pi = input.data<float>();
  const float* pw = weight.data<float>();
  float* po = out.data<float>();
  // Per image and output row y: out[n][:, y, :] (cout × ow) = weight
  // (cout × kdim) · B, B's rows the taps (ic, ky, kx) in ascending order.
  ParallelFor(0, batch, GrainFromCost(cout * kdim * plane),
              [&](int64_t nb, int64_t ne) {
    float* buf = ImageBuffer(shifted.floats(g));
    for (int64_t n = nb; n < ne; ++n) {
      shifted.Fill(pi + n * cin * h * w, g, buf);
      for (int64_t y = 0; y < oh; ++y) {
        vec::Gemm(cout, ow, kdim, pw, kdim, 1, buf + y * shifted.cols, 0,
                  po + n * cout * plane + y * ow, plane,
                  /*accumulate=*/false, shifted.offsets.data());
      }
    }
  });
  return out;
}

Tensor Conv2dBackwardInput(const Tensor& grad_out, const Tensor& weight,
                           const std::vector<int64_t>& input_shape,
                           const Conv2dArgs& args) {
  CheckFloatContiguous(grad_out, "grad_out");
  CheckFloatContiguous(weight, "weight");
  const int64_t batch = input_shape[0], cin = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  const int64_t cout = weight.size(0), kh = weight.size(2),
                kw = weight.size(3);
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in =
      Tensor::Empty(input_shape, DType::kFloat32, grad_out.device_id());
  const ConvGeom g{cin, h, w, cout, kh, kw, oh, ow, args.stride, args.padding};
  const ShiftedGrad shifted(g);
  const int64_t kdim = cout * kh * kw, taps = kh * kw, plane = h * w;
  const float* pg = grad_out.data<float>();
  const float* pw = weight.data<float>();
  float* pi = grad_in.data<float>();
  // The weights transposed to (ic) × (oc, ky', kx') and flipped in both
  // taps, so (oc, ky'↑, kx'↑) is (oc, ky↓, kx↓): for a fixed input pixel
  // that is grad_out's (oc, y↑, x↑) order. Weight-sized, built once.
  std::vector<float> flipped(static_cast<size_t>(cin * kdim));
  for (int64_t ic = 0; ic < cin; ++ic) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      const float* src = pw + (oc * cin + ic) * taps;
      float* dst = flipped.data() + ic * kdim + oc * taps;
      for (int64_t tap = 0; tap < taps; ++tap) {
        dst[taps - 1 - tap] = src[tap];
      }
    }
  }
  // Per image and input row iy: grad_in[n][:, iy, :] (cin × w) = flipped
  // (cin × kdim) · B over the dilated, padded grad_out.
  ParallelFor(0, batch, GrainFromCost(cin * kdim * plane),
              [&](int64_t nb, int64_t ne) {
    float* buf = ImageBuffer(shifted.floats(g));
    for (int64_t n = nb; n < ne; ++n) {
      shifted.Fill(pg + n * cout * oh * ow, g, buf);
      for (int64_t iy = 0; iy < h; ++iy) {
        vec::Gemm(cin, w, kdim, flipped.data(), kdim, 1,
                  buf + iy * shifted.cols, 0, pi + n * cin * plane + iy * w,
                  plane, /*accumulate=*/false, shifted.offsets.data());
      }
    }
  });
  return grad_in;
}

Tensor Conv2dBackwardWeight(const Tensor& grad_out, const Tensor& input,
                            const std::vector<int64_t>& weight_shape,
                            const Conv2dArgs& args) {
  CheckFloatContiguous(grad_out, "grad_out");
  CheckFloatContiguous(input, "input");
  const int64_t batch = input.size(0), cin = input.size(1), h = input.size(2),
                w = input.size(3);
  const int64_t cout = weight_shape[0], kh = weight_shape[2],
                kw = weight_shape[3];
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_w =
      Tensor::Zeros(weight_shape, DType::kFloat32, input.device_id());
  const ConvGeom g{cin, h, w, cout, kh, kw, oh, ow, args.stride, args.padding};
  const ShiftedInput shifted(g);
  const int64_t kdim = cin * kh * kw, plane = oh * ow;
  const float* pg = grad_out.data<float>();
  const float* pi = input.data<float>();
  float* pw = grad_w.data<float>();
  // grad_w (cout × kdim) += grad_out[n] (cout × plane) · im2col(input[n])ᵀ
  // for n ascending, one task per 32-wide column panel of grad_w: every
  // weight element sums over (n, y, x) in ascending order.
  DDPKIT_CHECK_LT(shifted.floats(g), int64_t{1} << 31);
  const std::vector<int32_t> taps(shifted.offsets.begin(),
                                  shifted.offsets.end());
  const int64_t panels = (kdim + kPanelCols - 1) / kPanelCols;
  ParallelFor(0, panels, GrainFromCost(batch * plane * cout * kPanelCols),
              [&](int64_t tb, int64_t te) {
    float* buf = ImageBuffer(shifted.floats(g));
    for (int64_t t = tb; t < te; ++t) {
      const int64_t j0 = t * kPanelCols;
      for (int64_t n = 0; n < batch; ++n) {
        shifted.Fill(pi + n * cin * h * w, g, buf);
        GemmPacked(cout, std::min(kPanelCols, kdim - j0), plane,
                   pg + n * cout * plane, plane, 1, pw + j0, kdim,
                   /*accumulate=*/true,
                   [&](int64_t p0, int64_t p1, int64_t jp, int64_t cols,
                       float* dst) {
                     // Panel row q is output pixel (y, x): its taps
                     // j0 + jp + [0, cols) gathered from the shifted image,
                     // one output scanline run of rows per call.
                     for (int64_t q = p0; q < p1;) {
                       const int64_t x = q % ow;
                       const int64_t run = std::min(p1 - q, ow - x);
                       vec::Gather(dst + (q - p0) * kPanelCols, kPanelCols,
                                   buf + q / ow * shifted.cols + x, 1,
                                   taps.data() + j0 + jp, cols, run);
                       q += run;
                     }
                   });
      }
    }
  });
  return grad_w;
}

Tensor MaxPool2x2(const Tensor& input, Tensor* argmax) {
  CheckFloatContiguous(input, "input");
  DDPKIT_CHECK(argmax != nullptr);
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t batch = input.size(0), c = input.size(1), h = input.size(2),
                w = input.size(3);
  DDPKIT_CHECK(h % 2 == 0 && w % 2 == 0);
  const int64_t oh = h / 2, ow = w / 2;
  Tensor out =
      Tensor::Empty({batch, c, oh, ow}, DType::kFloat32, input.device_id());
  *argmax = Tensor::Empty({batch, c, oh, ow}, DType::kInt64,
                          input.device_id());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  int64_t* pa = argmax->data<int64_t>();
  ParallelFor(0, batch * c * oh, GrainFromCost(ow * 4),
              [&](int64_t rb, int64_t re) {
    for (int64_t row = rb; row < re; ++row) {
      const int64_t y = row % oh;
      const int64_t nc = row / oh;  // flattened (n, ch)
      for (int64_t x = 0; x < ow; ++x) {
        const int64_t base = (nc * h + 2 * y) * w + 2 * x;
        const int64_t candidates[4] = {base, base + 1, base + w,
                                       base + w + 1};
        int64_t best = candidates[0];
        for (int k = 1; k < 4; ++k) {
          if (pi[candidates[k]] > pi[best]) best = candidates[k];
        }
        const int64_t out_idx = (nc * oh + y) * ow + x;
        // ddplint: allow(raw-elementwise-loop) per-window argmax gather
        po[out_idx] = pi[best];
        pa[out_idx] = best;
      }
    }
  });
  return out;
}

Tensor MaxPool2x2Backward(const Tensor& grad_out, const Tensor& argmax,
                          const std::vector<int64_t>& input_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  DDPKIT_CHECK(argmax.dtype() == DType::kInt64);
  DDPKIT_CHECK_EQ(argmax.numel(), grad_out.numel());
  Tensor grad_in =
      Tensor::Zeros(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  const int64_t* pa = argmax.data<int64_t>();
  float* pi = grad_in.data<float>();
  const int64_t n = grad_out.numel();
  const int64_t in_numel = grad_in.numel();
  for (int64_t i = 0; i < n; ++i) {
    DDPKIT_CHECK(pa[i] >= 0 && pa[i] < in_numel);
    pi[pa[i]] += pg[i];
  }
  return grad_in;
}

Tensor AvgPool2x2(const Tensor& input) {
  CheckFloatContiguous(input, "input");
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t batch = input.size(0), c = input.size(1), h = input.size(2),
                w = input.size(3);
  DDPKIT_CHECK(h % 2 == 0 && w % 2 == 0);
  const int64_t oh = h / 2, ow = w / 2;
  Tensor out =
      Tensor::Empty({batch, c, oh, ow}, DType::kFloat32, input.device_id());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, batch * c * oh, GrainFromCost(ow * 4),
              [&](int64_t rb, int64_t re) {
    for (int64_t row = rb; row < re; ++row) {
      const int64_t y = row % oh;
      const int64_t nc = row / oh;
      for (int64_t x = 0; x < ow; ++x) {
        const int64_t base = (nc * h + 2 * y) * w + 2 * x;
        po[(nc * oh + y) * ow + x] =
            0.25f * (pi[base] + pi[base + 1] + pi[base + w] +
                     pi[base + w + 1]);
      }
    }
  });
  return out;
}

Tensor AvgPool2x2Backward(const Tensor& grad_out,
                          const std::vector<int64_t>& input_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  const int64_t batch = input_shape[0], c = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  const int64_t oh = h / 2, ow = w / 2;
  Tensor grad_in =
      Tensor::Zeros(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  float* pi = grad_in.data<float>();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float g = 0.25f * pg[((n * c + ch) * oh + y) * ow + x];
          const int64_t base = ((n * c + ch) * h + 2 * y) * w + 2 * x;
          pi[base] += g;
          pi[base + 1] += g;
          pi[base + w] += g;
          pi[base + w + 1] += g;
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool(const Tensor& input) {
  CheckFloatContiguous(input, "input");
  DDPKIT_CHECK_EQ(input.dim(), 4);
  const int64_t batch = input.size(0), c = input.size(1), h = input.size(2),
                w = input.size(3);
  Tensor out = Tensor::Empty({batch, c}, DType::kFloat32, input.device_id());
  const float* pi = input.data<float>();
  float* po = out.data<float>();
  const float inv = 1.0f / static_cast<float>(h * w);
  ParallelFor(0, batch * c, GrainFromCost(h * w),
              [&](int64_t cb, int64_t ce) {
    for (int64_t nc = cb; nc < ce; ++nc) {
      float acc = 0.0f;
      const float* base = pi + nc * h * w;
      for (int64_t i = 0; i < h * w; ++i) acc += base[i];
      po[nc] = acc * inv;
    }
  });
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& grad_out,
                             const std::vector<int64_t>& input_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  const int64_t batch = input_shape[0], c = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  Tensor grad_in =
      Tensor::Empty(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  float* pi = grad_in.data<float>();
  const float inv = 1.0f / static_cast<float>(h * w);
  ParallelFor(0, batch * c, GrainFromCost(h * w),
              [&](int64_t cb, int64_t ce) {
    for (int64_t nc = cb; nc < ce; ++nc) {
      const float g = pg[nc] * inv;
      float* base = pi + nc * h * w;
      for (int64_t i = 0; i < h * w; ++i) base[i] = g;
    }
  });
  return grad_in;
}

// ---- Reductions & softmax ----------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  const float* pa = a.data<float>();
  // Chunked double-precision partial sums combined in chunk-index order:
  // the summation order depends only on numel and the grain, never on the
  // thread count.
  const double acc = ParallelReduce(
      0, a.numel(), kParallelGrain, 0.0,
      [&](int64_t b, int64_t e) {
        double s = 0.0;
        for (int64_t i = b; i < e; ++i) s += pa[i];
        return s;
      },
      [](double x, double y) { return x + y; });
  Tensor out = Tensor::Empty({1}, DType::kFloat32, a.device_id());
  out.data<float>()[0] = static_cast<float>(acc);
  return out;
}

Tensor MeanAll(const Tensor& a) {
  Tensor s = SumAll(a);
  s.data<float>()[0] /= static_cast<float>(a.numel());
  return s;
}

namespace {

/// One row of Softmax: orow = exp(row − max) / Σ, the sum serial in j.
/// orow may be row.
void SoftmaxRow(const float* row, float* orow, int64_t n) {
  float mx = row[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float denom = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    // ddplint: allow(raw-elementwise-loop) fused libm exp + serial
    // row sum; vec.h offers no horizontal sums
    orow[j] = std::exp(row[j] - mx);
    denom += orow[j];
  }
  const float inv = 1.0f / denom;
  vec::ScaleInPlace(orow, inv, n);
}

}  // namespace

Tensor Softmax(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(4 * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) SoftmaxRow(pa + i * n, po + i * n, n);
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(4 * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* row = pa + i * n;
      float* orow = po + i * n;
      float mx = row[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < n; ++j) denom += std::exp(row[j] - mx);
      const float log_denom = std::log(denom) + mx;
      // x - c and x + (-c) round identically in IEEE arithmetic.
      vec::AddScalar(row, -log_denom, orow, n);
    }
  });
  return out;
}

Tensor ArgMaxRows(const Tensor& a) {
  CheckFloatContiguous(a, "a");
  DDPKIT_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Empty({m}, DType::kInt64, a.device_id());
  const float* pa = a.data<float>();
  int64_t* po = out.data<int64_t>();
  ParallelFor(0, m, GrainFromCost(n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* row = pa + i * n;
      int64_t best = 0;
      for (int64_t j = 1; j < n; ++j) {
        if (row[j] > row[best]) best = j;
      }
      po[i] = best;
    }
  });
  return out;
}

// ---- Attention ----------------------------------------------------------------------
//
// One task per (batch, head) block; a block's rows are S rows of Dh columns
// with row stride D inside q, k, v, out and their gradients, which
// vec::Gemm reads and writes in place. Kᵀ and Vᵀ, the GEMM B operands whose
// columns are not contiguous, are packed per block into this thread's
// scratch, as MatMulTransB packs its B. Every output element has one
// writer and keeps the per-element sum order of the 2-D kernels, so the
// result is that of the per-head MatMul/Softmax path at any pool size.

namespace {

struct AttentionGeom {
  int64_t batch, seq, dim, heads, head_dim;
  float scale;  // 1/√Dh, rounded as Scale rounds it

  AttentionGeom(const Tensor& q, const Tensor& k, const Tensor& v,
                int64_t num_heads) {
    CheckFloatContiguous(q, "q");
    CheckFloatContiguous(k, "k");
    CheckFloatContiguous(v, "v");
    DDPKIT_CHECK_EQ(q.dim(), 3);
    CheckSameShape(q, k);
    CheckSameShape(q, v);
    DDPKIT_CHECK_GT(num_heads, 0);
    batch = q.size(0);
    seq = q.size(1);
    dim = q.size(2);
    heads = num_heads;
    DDPKIT_CHECK_EQ(dim % heads, 0) << "num_heads must divide the last dim";
    head_dim = dim / heads;
    scale = static_cast<float>(1.0 / std::sqrt(static_cast<double>(head_dim)));
  }

  int64_t blocks() const { return batch * heads; }
  /// Offset of block t's first element in a [B, S, D] tensor.
  int64_t offset(int64_t t) const {
    return t / heads * seq * dim + t % heads * head_dim;
  }
  /// Per-block cost for the parallel grain: four S×S×Dh GEMMs.
  int64_t cost() const { return 4 * seq * seq * head_dim; }
};

/// This thread's attention scratch, at least `floats` long.
float* AttentionScratch(int64_t floats) {
  thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < floats) {
    scratch.resize(static_cast<size_t>(floats));
  }
  return scratch.data();
}

/// dst[p * rows + j] = src[j * ld + p]: a rows × cols block, transposed.
void PackTransposed(const float* src, int64_t ld, int64_t rows, int64_t cols,
                    float* dst) {
  for (int64_t j = 0; j < rows; ++j) {
    for (int64_t p = 0; p < cols; ++p) dst[p * rows + j] = src[j * ld + p];
  }
}

}  // namespace

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, Tensor* probs) {
  DDPKIT_CHECK(probs != nullptr);
  const AttentionGeom g(q, k, v, num_heads);
  const int64_t s = g.seq, d = g.dim, dh = g.head_dim;
  Tensor out = Tensor::Empty(q.shape(), DType::kFloat32, q.device_id());
  *probs = Tensor::Empty({g.batch, g.heads, s, s}, DType::kFloat32,
                         q.device_id());
  const float* pq = q.data<float>();
  const float* pk = k.data<float>();
  const float* pv = v.data<float>();
  float* po = out.data<float>();
  float* pp = probs->data<float>();
  ParallelFor(0, g.blocks(), GrainFromCost(g.cost()),
              [&](int64_t tb, int64_t te) {
    float* kt = AttentionScratch(dh * s);
    for (int64_t t = tb; t < te; ++t) {
      const int64_t off = g.offset(t);
      float* p = pp + t * s * s;
      // P = Softmax(Scale(Q Kᵀ)), built in place in its probs slot.
      PackTransposed(pk + off, d, s, dh, kt);
      vec::Gemm(s, s, dh, pq + off, d, 1, kt, s, p, s, /*accumulate=*/false);
      vec::ScaleInPlace(p, g.scale, s * s);
      for (int64_t i = 0; i < s; ++i) SoftmaxRow(p + i * s, p + i * s, s);
      // out = P V.
      vec::Gemm(s, dh, s, p, s, 1, pv + off, d, po + off, d,
                /*accumulate=*/false);
    }
  });
  return out;
}

AttentionGrads AttentionBackward(const Tensor& grad_out, const Tensor& q,
                                 const Tensor& k, const Tensor& v,
                                 const Tensor& probs, int64_t num_heads) {
  const AttentionGeom g(q, k, v, num_heads);
  CheckFloatContiguous(grad_out, "grad_out");
  CheckSameShape(grad_out, q);
  CheckFloatContiguous(probs, "probs");
  const int64_t s = g.seq, d = g.dim, dh = g.head_dim;
  DDPKIT_CHECK_EQ(probs.numel(), g.blocks() * s * s);
  AttentionGrads grads{
      Tensor::Empty(q.shape(), DType::kFloat32, q.device_id()),
      Tensor::Empty(q.shape(), DType::kFloat32, q.device_id()),
      Tensor::Empty(q.shape(), DType::kFloat32, q.device_id())};
  const float* pg = grad_out.data<float>();
  const float* pq = q.data<float>();
  const float* pk = k.data<float>();
  const float* pv = v.data<float>();
  const float* pp = probs.data<float>();
  float* gq = grads.q.data<float>();
  float* gk = grads.k.data<float>();
  float* gv = grads.v.data<float>();
  // The softmax backward below runs in double with this double scale.
  const double scale = 1.0 / std::sqrt(static_cast<double>(dh));
  ParallelFor(0, g.blocks(), GrainFromCost(g.cost()),
              [&](int64_t tb, int64_t te) {
    float* vt = AttentionScratch(dh * s + s * s);
    float* ga = vt + dh * s;
    for (int64_t t = tb; t < te; ++t) {
      const int64_t off = g.offset(t);
      const float* p = pp + t * s * s;
      // dV = Pᵀ dO.
      vec::Gemm(s, dh, s, p, 1, s, pg + off, d, gv + off, d,
                /*accumulate=*/false);
      // dP = dO Vᵀ, into ga.
      PackTransposed(pv + off, d, s, dh, vt);
      vec::Gemm(s, s, dh, pg + off, d, 1, vt, s, ga, s, /*accumulate=*/false);
      // dA = P * (dP - rowsum(dP * P)) * scale (the softmax backward, in
      // double), in place over dP.
      for (int64_t i = 0; i < s; ++i) {
        double dot = 0.0;
        for (int64_t j = 0; j < s; ++j) {
          dot += static_cast<double>(ga[i * s + j]) * p[i * s + j];
        }
        for (int64_t j = 0; j < s; ++j) {
          ga[i * s + j] = static_cast<float>(
              p[i * s + j] * (ga[i * s + j] - dot) * scale);
        }
      }
      // dQ = dA K; dK = dAᵀ Q.
      vec::Gemm(s, dh, s, ga, s, 1, pk + off, d, gq + off, d,
                /*accumulate=*/false);
      vec::Gemm(s, dh, s, ga, 1, s, pq + off, d, gk + off, d,
                /*accumulate=*/false);
    }
  });
  return grads;
}

// ---- Embedding ----------------------------------------------------------------------

Tensor EmbeddingLookup(const Tensor& indices, const Tensor& table) {
  DDPKIT_CHECK(indices.dtype() == DType::kInt64);
  CheckFloatContiguous(table, "table");
  DDPKIT_CHECK_EQ(table.dim(), 2);
  const int64_t n = indices.numel();
  const int64_t vocab = table.size(0), dim = table.size(1);
  Tensor out = Tensor::Empty({n, dim}, DType::kFloat32, table.device_id());
  const int64_t* pidx = indices.data<int64_t>();
  const float* pt = table.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, n, GrainFromCost(dim), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      DDPKIT_CHECK(pidx[i] >= 0 && pidx[i] < vocab);
      std::memcpy(po + i * dim, pt + pidx[i] * dim,
                  static_cast<size_t>(dim) * sizeof(float));
    }
  });
  return out;
}

Tensor EmbeddingBackward(const Tensor& grad_out, const Tensor& indices,
                         const std::vector<int64_t>& table_shape) {
  CheckFloatContiguous(grad_out, "grad_out");
  DDPKIT_CHECK(indices.dtype() == DType::kInt64);
  const int64_t n = indices.numel();
  const int64_t dim = table_shape[1];
  Tensor grad_table =
      Tensor::Zeros(table_shape, DType::kFloat32, grad_out.device_id());
  const int64_t* pidx = indices.data<int64_t>();
  const float* pg = grad_out.data<float>();
  float* pt = grad_table.data<float>();
  for (int64_t i = 0; i < n; ++i) {
    float* row = pt + pidx[i] * dim;
    vec::AccumulateAdd(row, pg + i * dim, dim);
  }
  return grad_table;
}

// ---- Comparisons ----------------------------------------------------------------------

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  DDPKIT_CHECK_EQ(a.numel(), b.numel());
  // max is order-insensitive, but the chunked combine keeps the pattern
  // consistent with SumAll.
  return ParallelReduce(
      0, a.numel(), kParallelGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double mx = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          mx = std::max(mx, std::abs(a.FlatAt(i) - b.FlatAt(i)));
        }
        return mx;
      },
      [](double x, double y) { return std::max(x, y); });
}

bool AllClose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (a.numel() != b.numel()) return false;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    const double x = a.FlatAt(i), y = b.FlatAt(i);
    if (std::abs(x - y) > atol + rtol * std::abs(y)) return false;
  }
  return true;
}

}  // namespace ddpkit::kernels
