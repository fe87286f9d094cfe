// Bit-exactness sweep for the GEMM behind MatMul* and Conv2d*: every
// kernel must reproduce, memcmp-equal, the direct loop nests it replaced —
// at every SIMD level the host runs and at pool sizes 1, 2 and 8. The
// Reference* functions below are those loop nests, kept verbatim.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

using kernels::Conv2dArgs;

// ---- The replaced kernels, verbatim ------------------------------------------------

Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(k * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      float* orow = po + i * n;
      std::fill(orow, orow + n, 0.0f);
      const float* arow = pa + i * k;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        // vec::Axpy is explicit mul-then-add at every dispatch level, the
        // same rounding as the scalar `orow[j] += av * brow[j]` it replaces.
        vec::Axpy(av, pb + p * n, orow, n);
      }
    }
  });
  return out;
}

Tensor ReferenceMatMulTransA(const Tensor& a, const Tensor& b) {
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(k * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      float* orow = po + i * n;
      std::fill(orow, orow + n, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        const float av = pa[p * m + i];
        if (av == 0.0f) continue;
        vec::Axpy(av, pb + p * n, orow, n);
      }
    }
  });
  return out;
}

Tensor ReferenceMatMulTransB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  Tensor out = Tensor::Empty({m, n}, DType::kFloat32, a.device_id());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, m, GrainFromCost(k * n), [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* arow = pa + i * k;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        po[i * n + j] = acc;
      }
    }
  });
  return out;
}

int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t stride,
                    int64_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

Tensor ReferenceConv2d(const Tensor& input, const Tensor& weight,
                       const Conv2dArgs& args) {
  const int64_t batch = input.size(0), cin = input.size(1), h = input.size(2),
                w = input.size(3);
  const int64_t cout = weight.size(0), kh = weight.size(2),
                kw = weight.size(3);
  const int64_t oh = ConvOutSize(h, kh, args.stride, args.padding);
  const int64_t ow = ConvOutSize(w, kw, args.stride, args.padding);
  Tensor out =
      Tensor::Empty({batch, cout, oh, ow}, DType::kFloat32, input.device_id());
  const float* pi = input.data<float>();
  const float* pw = weight.data<float>();
  float* po = out.data<float>();
  ParallelFor(0, batch * cout * oh, GrainFromCost(ow * cin * kh * kw),
              [&](int64_t rb, int64_t re) {
    for (int64_t row = rb; row < re; ++row) {
      const int64_t y = row % oh;
      const int64_t oc = (row / oh) % cout;
      const int64_t n = row / (oh * cout);
      for (int64_t x = 0; x < ow; ++x) {
        float acc = 0.0f;
        for (int64_t ic = 0; ic < cin; ++ic) {
          for (int64_t ky = 0; ky < kh; ++ky) {
            const int64_t iy = y * args.stride - args.padding + ky;
            if (iy < 0 || iy >= h) continue;
            for (int64_t kx = 0; kx < kw; ++kx) {
              const int64_t ix = x * args.stride - args.padding + kx;
              if (ix < 0 || ix >= w) continue;
              acc += pi[((n * cin + ic) * h + iy) * w + ix] *
                     pw[((oc * cin + ic) * kh + ky) * kw + kx];
            }
          }
        }
        po[((n * cout + oc) * oh + y) * ow + x] = acc;
      }
    }
  });
  return out;
}

Tensor ReferenceConv2dBackwardInput(const Tensor& grad_out,
                                    const Tensor& weight,
                                    const std::vector<int64_t>& input_shape,
                                    const Conv2dArgs& args) {
  const int64_t batch = input_shape[0], cin = input_shape[1],
                h = input_shape[2], w = input_shape[3];
  const int64_t cout = weight.size(0), kh = weight.size(2),
                kw = weight.size(3);
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in =
      Tensor::Zeros(input_shape, DType::kFloat32, grad_out.device_id());
  const float* pg = grad_out.data<float>();
  const float* pw = weight.data<float>();
  float* pi = grad_in.data<float>();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float g = pg[((n * cout + oc) * oh + y) * ow + x];
          if (g == 0.0f) continue;
          for (int64_t ic = 0; ic < cin; ++ic) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = y * args.stride - args.padding + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = x * args.stride - args.padding + kx;
                if (ix < 0 || ix >= w) continue;
                pi[((n * cin + ic) * h + iy) * w + ix] +=
                    g * pw[((oc * cin + ic) * kh + ky) * kw + kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor ReferenceConv2dBackwardWeight(const Tensor& grad_out,
                                     const Tensor& input,
                                     const std::vector<int64_t>& weight_shape,
                                     const Conv2dArgs& args) {
  const int64_t batch = input.size(0), cin = input.size(1), h = input.size(2),
                w = input.size(3);
  const int64_t cout = weight_shape[0], kh = weight_shape[2],
                kw = weight_shape[3];
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_w =
      Tensor::Zeros(weight_shape, DType::kFloat32, input.device_id());
  const float* pg = grad_out.data<float>();
  const float* pi = input.data<float>();
  float* pw = grad_w.data<float>();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float g = pg[((n * cout + oc) * oh + y) * ow + x];
          if (g == 0.0f) continue;
          for (int64_t ic = 0; ic < cin; ++ic) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = y * args.stride - args.padding + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = x * args.stride - args.padding + kx;
                if (ix < 0 || ix >= w) continue;
                pw[((oc * cin + ic) * kh + ky) * kw + kx] +=
                    g * pi[((n * cin + ic) * h + iy) * w + ix];
              }
            }
          }
        }
      }
    }
  }
  return grad_w;
}

// ---- Sweep harness -----------------------------------------------------------------

class LevelAndPoolGuard {
 public:
  ~LevelAndPoolGuard() {
    vec::SetLevelForTesting(level_);
    ThreadPool::SetNumThreads(threads_);
  }

 private:
  vec::Level level_ = vec::ActiveLevel();
  int threads_ = ThreadPool::Global().num_threads();
};

std::vector<vec::Level> AvailableLevels() {
  std::vector<vec::Level> levels = {vec::Level::kScalar};
  if (vec::DetectedLevel() >= vec::Level::kAvx2) {
    levels.push_back(vec::Level::kAvx2);
  }
  if (vec::DetectedLevel() >= vec::Level::kAvx512) {
    levels.push_back(vec::Level::kAvx512);
  }
  return levels;
}

constexpr int kPoolSizes[] = {1, 2, 8};

/// Runs `fn` at every (level, pool size) and requires each result to be
/// memcmp-equal to `want`.
template <typename Fn>
void ExpectBitExactEverywhere(const Tensor& want, const Fn& fn,
                              const std::string& what) {
  LevelAndPoolGuard guard;
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    for (const int threads : kPoolSizes) {
      ThreadPool::SetNumThreads(threads);
      const Tensor got = fn();
      ASSERT_EQ(want.shape(), got.shape()) << what;
      ASSERT_EQ(0, std::memcmp(want.data<float>(), got.data<float>(),
                               static_cast<size_t>(want.numel()) *
                                   sizeof(float)))
          << what << " differs at level " << vec::LevelName(level) << ", "
          << threads << " threads";
    }
  }
}

/// Random values with the edge cases the old loops skipped or that the
/// new padding terms meet: exact +0 and −0, subnormals, and ReLU-style
/// runs of zeros.
Tensor EdgeValues(std::vector<int64_t> shape, Rng* rng) {
  Tensor t = Tensor::Randn(std::move(shape), rng);
  float* p = t.data<float>();
  const float tiny = std::numeric_limits<float>::denorm_min();
  for (int64_t i = 0; i < t.numel(); ++i) {
    const double u = rng->Uniform(0.0, 1.0);
    if (u < 0.05) {
      p[i] = 0.0f;
    } else if (u < 0.10) {
      p[i] = -0.0f;
    } else if (u < 0.14) {
      p[i] = tiny * static_cast<float>(1 + rng->UniformInt(1000)) *
             (u < 0.12 ? 1.0f : -1.0f);
    } else if (u < 0.16) {
      // A ReLU-style dead run.
      const int64_t run = std::min<int64_t>(t.numel() - i,
                                            1 + rng->UniformInt(40));
      std::fill(p + i, p + i + run, 0.0f);
      i += run - 1;
    }
  }
  return t;
}

struct ConvCase {
  int64_t batch, cin, h, w, cout, k, stride, pad;
};

std::string Describe(const ConvCase& c) {
  return "conv n" + std::to_string(c.batch) + " cin" + std::to_string(c.cin) +
         " " + std::to_string(c.h) + "x" + std::to_string(c.w) + " cout" +
         std::to_string(c.cout) + " k" + std::to_string(c.k) + " s" +
         std::to_string(c.stride) + " p" + std::to_string(c.pad);
}

void CheckConvCase(const ConvCase& c, uint64_t seed) {
  Rng rng(seed);
  const Conv2dArgs args{c.stride, c.pad};
  const Tensor input = EdgeValues({c.batch, c.cin, c.h, c.w}, &rng);
  const Tensor weight = EdgeValues({c.cout, c.cin, c.k, c.k}, &rng);
  const int64_t oh = ConvOutSize(c.h, c.k, c.stride, c.pad);
  const int64_t ow = ConvOutSize(c.w, c.k, c.stride, c.pad);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  const Tensor grad_out = EdgeValues({c.batch, c.cout, oh, ow}, &rng);
  const std::string what = Describe(c);

  ExpectBitExactEverywhere(
      ReferenceConv2d(input, weight, args),
      [&] { return kernels::Conv2d(input, weight, args); }, what + " fwd");
  ExpectBitExactEverywhere(
      ReferenceConv2dBackwardInput(grad_out, weight, input.shape(), args),
      [&] {
        return kernels::Conv2dBackwardInput(grad_out, weight, input.shape(),
                                            args);
      },
      what + " bwd_input");
  ExpectBitExactEverywhere(
      ReferenceConv2dBackwardWeight(grad_out, input, weight.shape(), args),
      [&] {
        return kernels::Conv2dBackwardWeight(grad_out, input, weight.shape(),
                                             args);
      },
      what + " bwd_weight");
}

// ---- Conv sweeps --------------------------------------------------------------------

TEST(TensorGemmTest, ResNetTinyConvShapesBitExact) {
  // ResNetTiny(in 1, width 8, one block per stage) on 28×28 inputs: stem,
  // the stage-1 block's two convs, stage 2's strided conv, its second
  // conv and its 1×1 strided shortcut.
  const int64_t n = 4, c = 8, s = 28;
  const ConvCase cases[] = {
      {n, 1, s, s, c, 3, 1, 1},          {n, c, s, s, c, 3, 1, 1},
      {n, c, s, s, c, 3, 1, 1},          {n, c, s, s, 2 * c, 3, 2, 1},
      {n, 2 * c, s / 2, s / 2, 2 * c, 3, 1, 1},
      {n, c, s, s, 2 * c, 1, 2, 0},
  };
  uint64_t seed = 100;
  for (const ConvCase& cc : cases) {
    CheckConvCase(cc, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(TensorGemmTest, EdgeConvShapesBitExact) {
  // cin × kernel × stride × padding × output width, batch 1, H ≠ W, cout 5
  // (not a multiple of the 4-row tile). Widths 5/16/17/33 straddle the
  // 16- and 32-column tiles; the input width leaves (case % stride)
  // unused trailing columns so non-exact output divisions are covered.
  int64_t index = 0;
  int checked = 0;
  for (const int64_t cin : {1, 3}) {
    for (const int64_t k : {1, 3, 5}) {
      for (const int64_t stride : {1, 2, 3}) {
        for (const int64_t pad : {0, 1, 2}) {
          for (const int64_t ow : {5, 16, 17, 33}) {
            ++index;
            const int64_t w = (ow - 1) * stride + k - 2 * pad + index % stride;
            const int64_t h = 5 * stride + k - 2 * pad + 1;
            if (w < 1 || h < 1 || h == w) continue;
            const ConvCase cc{1, cin, h, w, 5, k, stride, pad};
            ASSERT_EQ(ow, ConvOutSize(w, k, stride, pad)) << Describe(cc);
            CheckConvCase(cc, 1000 + static_cast<uint64_t>(index));
            if (HasFatalFailure()) return;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 150);
}

// ---- MatMul sweep -------------------------------------------------------------------

TEST(TensorGemmTest, MatMulShapesBitExact) {
  const int64_t sizes[] = {1, 3, 8, 17, 33, 128};
  uint64_t seed = 5000;
  for (const int64_t m : sizes) {
    for (const int64_t k : sizes) {
      for (const int64_t n : sizes) {
        Rng rng(seed++);
        const std::string what = "m" + std::to_string(m) + " k" +
                                 std::to_string(k) + " n" + std::to_string(n);
        const Tensor a = EdgeValues({m, k}, &rng);
        const Tensor b = EdgeValues({k, n}, &rng);
        const Tensor at = EdgeValues({k, m}, &rng);
        const Tensor bt = EdgeValues({n, k}, &rng);
        ExpectBitExactEverywhere(
            ReferenceMatMul(a, b), [&] { return kernels::MatMul(a, b); },
            what + " MatMul");
        ExpectBitExactEverywhere(
            ReferenceMatMulTransA(at, b),
            [&] { return kernels::MatMulTransA(at, b); },
            what + " MatMulTransA");
        ExpectBitExactEverywhere(
            ReferenceMatMulTransB(a, bt),
            [&] { return kernels::MatMulTransB(a, bt); },
            what + " MatMulTransB");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(TensorGemmTest, LargeKIsSplitIntoPanelsBitExact) {
  // k beyond one packed panel (256 rows): MatMulTransB and the
  // weight-gradient GEMM accumulate panel after panel.
  Rng rng(77);
  const Tensor a = EdgeValues({9, 1000}, &rng);
  const Tensor bt = EdgeValues({40, 1000}, &rng);
  ExpectBitExactEverywhere(
      ReferenceMatMulTransB(a, bt),
      [&] { return kernels::MatMulTransB(a, bt); }, "MatMulTransB k1000");
  CheckConvCase({2, 2, 23, 29, 6, 3, 1, 1}, 78);
}

// ---- FMA probe ------------------------------------------------------------------------

// The common_vec_test probe through the GEMM path: with α = 1 + 2⁻¹² the
// sum −1 + α·α is 2⁻¹¹ when the product is rounded first and 2⁻¹¹ + 2⁻²⁴
// when fused. Row [1, α] times column [−1, α] reaches exactly that sum.
TEST(TensorGemmTest, GemmIsMulThenAddNotFused) {
  LevelAndPoolGuard guard;
  const float alpha = 1.0f + std::ldexp(1.0f, -12);
  const float prod = alpha * alpha;
  const float want = -1.0f + prod;
  ASSERT_NE(want, std::fma(alpha, alpha, -1.0f));
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    SCOPED_TRACE(vec::LevelName(level));
    for (const int64_t n : {1, 7, 16, 31, 32, 33, 70}) {
      // Direct kernel call, C pre-set to −1 and accumulated (the
      // common_vec_test form), 5 rows so a row tail runs too.
      const int64_t m = 5;
      std::vector<float> a(static_cast<size_t>(m), alpha);
      std::vector<float> b(static_cast<size_t>(n), alpha);
      std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
      vec::Gemm(m, n, 1, a.data(), 1, 1, b.data(), n, c.data(), n,
                /*accumulate=*/true);
      for (const float v : c) ASSERT_EQ(want, v) << "n " << n;

      // Through kernels::MatMul: A rows [1, α], B columns [−1, α].
      Tensor ta = Tensor::Empty({m, 2});
      for (int64_t i = 0; i < m; ++i) {
        ta.data<float>()[2 * i] = 1.0f;
        ta.data<float>()[2 * i + 1] = alpha;
      }
      Tensor tb = Tensor::Empty({2, n});
      std::fill(tb.data<float>(), tb.data<float>() + n, -1.0f);
      std::fill(tb.data<float>() + n, tb.data<float>() + 2 * n, alpha);
      const Tensor out = kernels::MatMul(ta, tb);
      for (int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(want, out.data<float>()[i]) << "n " << n << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ddpkit
