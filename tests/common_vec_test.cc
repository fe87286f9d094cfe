#include "common/vec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace ddpkit {
namespace {

/// Restores whatever dispatch level was active when the test started, so a
/// forced level never leaks into other tests.
class VecLevelGuard {
 public:
  ~VecLevelGuard() { vec::SetLevelForTesting(previous_); }

 private:
  vec::Level previous_ = vec::ActiveLevel();
};

/// All levels the host can actually execute (requests above DetectedLevel
/// clamp down, so higher enumerators are skipped on weaker machines).
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

std::vector<float> RandomFloats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-4.0, 4.0));
  }
  return v;
}

std::vector<double> RandomDoubles(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.Uniform(-4.0, 4.0);
  return v;
}

template <typename T>
void ExpectBitEqual(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)));
}

// Lengths chosen to exercise: empty, sub-lane, one full AVX2 lane, one full
// AVX-512 lane, lane + tail, and a large buffer with every tail residue.
const int64_t kLengths[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 1000, 4097};

TEST(VecDispatchTest, SetLevelClampsToDetected) {
  VecLevelGuard guard;
  const vec::Level detected = vec::DetectedLevel();
  // Asking for more than the hardware supports installs the detected max.
  const vec::Level installed = vec::SetLevelForTesting(vec::Level::kAvx512);
  EXPECT_EQ(detected >= vec::Level::kAvx512 ? vec::Level::kAvx512 : detected,
            installed);
  EXPECT_EQ(installed, vec::ActiveLevel());
  EXPECT_LE(vec::ActiveLevel(), detected);
  // Scalar is always available.
  EXPECT_EQ(vec::Level::kScalar, vec::SetLevelForTesting(vec::Level::kScalar));
  EXPECT_EQ(vec::Level::kScalar, vec::ActiveLevel());
}

TEST(VecDispatchTest, LevelNamesAreStable) {
  EXPECT_STREQ("scalar", vec::LevelName(vec::Level::kScalar));
  EXPECT_STREQ("avx2", vec::LevelName(vec::Level::kAvx2));
  EXPECT_STREQ("avx512", vec::LevelName(vec::Level::kAvx512));
}

// Every batch helper must produce bit-identical output at every dispatch
// level — this is the contract that lets runtime dispatch coexist with
// deterministic training.
TEST(VecBitExactTest, AllFloatKernelsMatchScalarAtEveryLevel) {
  VecLevelGuard guard;
  for (const int64_t n : kLengths) {
    const std::vector<float> a = RandomFloats(n, 0x5eed0 + n);
    const std::vector<float> b = RandomFloats(n, 0x5eed1 + n);
    struct Case {
      const char* name;
      void (*run)(const std::vector<float>&, const std::vector<float>&,
                  std::vector<float>*);
    };
    const Case cases[] = {
        {"Add",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Add(x.data(), y.data(), d->data(), x.size());
         }},
        {"Sub",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Sub(x.data(), y.data(), d->data(), x.size());
         }},
        {"Mul",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Mul(x.data(), y.data(), d->data(), x.size());
         }},
        {"Div",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           vec::Div(x.data(), y.data(), d->data(), x.size());
         }},
        {"Scale",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Scale(x.data(), 1.7f, d->data(), x.size());
         }},
        {"AddScalar",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::AddScalar(x.data(), -0.3f, d->data(), x.size());
         }},
        {"Neg",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Neg(x.data(), d->data(), x.size());
         }},
        {"Relu",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Relu(x.data(), d->data(), x.size());
         }},
        {"ReluBackward",
         [](const std::vector<float>& g, const std::vector<float>& x,
            std::vector<float>* d) {
           vec::ReluBackward(g.data(), x.data(), d->data(), g.size());
         }},
        {"Axpy",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           *d = y;
           vec::Axpy(0.37f, x.data(), d->data(), x.size());
         }},
        {"ScaleInPlace",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           *d = x;
           vec::ScaleInPlace(d->data(), 2.5f, x.size());
         }},
        {"AccumulateAdd",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           *d = y;
           vec::AccumulateAdd(d->data(), x.data(), x.size());
         }},
        {"AccumulateMax",
         [](const std::vector<float>& x, const std::vector<float>& y,
            std::vector<float>* d) {
           *d = y;
           vec::AccumulateMax(d->data(), x.data(), x.size());
         }},
        {"Copy",
         [](const std::vector<float>& x, const std::vector<float>&,
            std::vector<float>* d) {
           vec::Copy(d->data(), x.data(), x.size());
         }},
    };
    for (const Case& c : cases) {
      vec::SetLevelForTesting(vec::Level::kScalar);
      std::vector<float> ref(static_cast<size_t>(n), 99.0f);
      c.run(a, b, &ref);
      for (const vec::Level level : AvailableLevels()) {
        vec::SetLevelForTesting(level);
        std::vector<float> got(static_cast<size_t>(n), 99.0f);
        c.run(a, b, &got);
        SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n) +
                     " level=" + vec::LevelName(level));
        ExpectBitEqual(ref, got);
      }
    }
  }
}

TEST(VecBitExactTest, DoubleAccumulatorsMatchScalarAtEveryLevel) {
  VecLevelGuard guard;
  for (const int64_t n : kLengths) {
    const std::vector<double> src = RandomDoubles(n, 0xd0 + n);
    const std::vector<double> dst0 = RandomDoubles(n, 0xd1 + n);
    for (const bool use_max : {false, true}) {
      vec::SetLevelForTesting(vec::Level::kScalar);
      std::vector<double> ref = dst0;
      if (use_max) {
        vec::AccumulateMax(ref.data(), src.data(), n);
      } else {
        vec::AccumulateAdd(ref.data(), src.data(), n);
      }
      for (const vec::Level level : AvailableLevels()) {
        vec::SetLevelForTesting(level);
        std::vector<double> got = dst0;
        if (use_max) {
          vec::AccumulateMax(got.data(), src.data(), n);
        } else {
          vec::AccumulateAdd(got.data(), src.data(), n);
        }
        SCOPED_TRACE(std::string(use_max ? "max" : "add") +
                     " n=" + std::to_string(n) +
                     " level=" + vec::LevelName(level));
        ExpectBitEqual(ref, got);
      }
    }
  }
}

// The max kernels must reproduce the scalar `dst > src ? dst : src` edge
// semantics exactly: NaN on either side yields src, and max(-0, +0)
// resolves the tie to src too. This pins the maxps operand order.
TEST(VecSemanticsTest, AccumulateMaxNanAndSignedZero) {
  VecLevelGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // 16 lanes so AVX2/AVX-512 take their vector path, not just the tail.
  std::vector<float> dst0(16), src(16);
  for (int i = 0; i < 16; ++i) {
    dst0[static_cast<size_t>(i)] = static_cast<float>(i);
    src[static_cast<size_t>(i)] = static_cast<float>(15 - i);
  }
  dst0[0] = nan;    src[0] = 2.0f;   // NaN dst  -> src
  dst0[1] = 2.0f;   src[1] = nan;    // NaN src  -> src (NaN propagates)
  dst0[2] = -0.0f;  src[2] = 0.0f;   // tie      -> src (+0)
  dst0[3] = 0.0f;   src[3] = -0.0f;  // tie      -> src (-0)
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> got = dst0;
    vec::AccumulateMax(got.data(), src.data(), 16);
    SCOPED_TRACE(vec::LevelName(level));
    for (int i = 0; i < 16; ++i) {
      const float d = dst0[static_cast<size_t>(i)];
      const float s = src[static_cast<size_t>(i)];
      const float want = d > s ? d : s;
      EXPECT_EQ(0, std::memcmp(&want, &got[static_cast<size_t>(i)],
                               sizeof(float)))
          << "lane " << i;
    }
  }
}

TEST(VecSemanticsTest, ReluMapsNegativeZeroAndNanToPositiveZero) {
  VecLevelGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> in(16, 1.0f);
  in[0] = -0.0f;
  in[1] = nan;
  in[2] = -3.5f;
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> out(16, 99.0f);
    vec::Relu(in.data(), out.data(), 16);
    SCOPED_TRACE(vec::LevelName(level));
    const float pz = 0.0f;
    EXPECT_EQ(0, std::memcmp(&pz, &out[0], sizeof(float)));  // -0 -> +0
    EXPECT_EQ(0, std::memcmp(&pz, &out[1], sizeof(float)));  // NaN -> 0
    EXPECT_EQ(0, std::memcmp(&pz, &out[2], sizeof(float)));
    EXPECT_EQ(1.0f, out[3]);
  }
}

// Axpy must never round like an FMA: pick operands where fma(a, x, y)
// and a*x + y differ in the last bit, and require the mul-then-add result.
TEST(VecSemanticsTest, AxpyIsMulThenAddNotFused) {
  VecLevelGuard guard;
  // alpha^2 = 1 + 2^-11 + 2^-24 rounds to 1 + 2^-11 as float; adding -1
  // afterwards gives exactly 2^-11, while fma(alpha, alpha, -1) keeps the
  // 2^-24 term. The two paths provably differ in the last bit.
  const float alpha = 1.0f + std::ldexp(1.0f, -12);  // 1 + 2^-12
  std::vector<float> x(16, alpha);                   // x == alpha
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    std::vector<float> y(16, -1.0f);
    vec::Axpy(alpha, x.data(), y.data(), 16);
    const float prod = alpha * alpha;  // rounded product
    const float want = -1.0f + prod;
    const float fused = std::fma(alpha, alpha, -1.0f);
    SCOPED_TRACE(vec::LevelName(level));
    // The probe is only meaningful if fused and unfused actually differ.
    ASSERT_NE(want, fused);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(want, y[static_cast<size_t>(i)]) << "lane " << i;
    }
  }
}

// ---- Transcendentals ----------------------------------------------------

float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }
uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

/// Distance in representable floats (0 for +0 vs -0).
int64_t UlpDistance(float a, float b) {
  const auto ordered = [](float x) {
    const int64_t i = std::bit_cast<int32_t>(x);
    return i < 0 ? int64_t{INT32_MIN} - i : i;
  };
  return std::llabs(ordered(a) - ordered(b));
}

/// Inputs for the transcendentals: signed zeros, subnormals, infinities,
/// quiet and signalling NaNs of both signs, each branch threshold and its
/// float neighbours (tanh 0.625 and 10, exp -104 and 89, the exp overflow
/// and underflow edges), large |x|, a dense grid over [-120, 120] and
/// random values over the GELU range.
std::vector<float> TranscendentalSweep() {
  std::vector<float> xs = {
      0.0f, -0.0f, FromBits(1), FromBits(0x80000001u), FromBits(0x007fffffu),
      FromBits(0x807fffffu), FromBits(0x00400000u),
      std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), FromBits(0x7fc00000u),
      FromBits(0xffc00000u), FromBits(0x7fa00001u), FromBits(0xff800001u),
      9.02f, -9.02f, 9.5f, 15.0f, -15.0f, 1e6f, -1e6f, 1e20f, -1e20f,
      88.7228f, 88.73f, -87.34f, -103.97f};
  for (const float edge : {0.625f, 10.0f, -104.0f, 89.0f}) {
    for (const float x : {edge, -edge}) {
      float lo = x, hi = x;
      for (int step = 0; step < 3; ++step) {
        lo = std::nextafter(lo, -1e30f);
        hi = std::nextafter(hi, 1e30f);
        xs.push_back(lo);
        xs.push_back(hi);
      }
      xs.push_back(x);
    }
  }
  for (int i = -24000; i <= 24000; ++i) xs.push_back(i * 0.005f);
  const std::vector<float> random = RandomFloats(4097, 0x7a4);
  xs.insert(xs.end(), random.begin(), random.end());
  return xs;
}

using UnaryVecFn = void (*)(const float*, float*, int64_t);

struct UnaryTranscendental {
  const char* name;
  UnaryVecFn fn;
};

const UnaryTranscendental kUnaryTranscendentals[] = {
    {"Exp", vec::Exp},
    {"Tanh", vec::Tanh},
    {"Sigmoid", vec::Sigmoid},
    {"Gelu", vec::Gelu},
};

// Every transcendental is one op sequence at every level, so each output
// must be bit-identical to the scalar level's, over the whole sweep and at
// every tail length.
TEST(VecTranscendentalTest, MatchScalarAtEveryLevel) {
  VecLevelGuard guard;
  const std::vector<float> xs = TranscendentalSweep();
  const int64_t total = static_cast<int64_t>(xs.size());
  // GeluBackward: finite gradients against the sweep, then the sweep's
  // specials as gradients against finite inputs.
  const std::vector<float> g = RandomFloats(total, 0x9e1);
  const std::vector<float> x_finite = RandomFloats(total, 0x9e2);
  std::vector<int64_t> lengths(std::begin(kLengths), std::end(kLengths));
  lengths.push_back(total);
  for (const int64_t n : lengths) {
    if (n > total) continue;
    const auto run_all = [&](std::vector<std::vector<float>>* outs) {
      outs->clear();
      for (const UnaryTranscendental& t : kUnaryTranscendentals) {
        std::vector<float> out(static_cast<size_t>(n), 99.0f);
        t.fn(xs.data(), out.data(), n);
        outs->push_back(out);
      }
      std::vector<float> out(static_cast<size_t>(n), 99.0f);
      vec::GeluBackward(g.data(), xs.data(), out.data(), n);
      outs->push_back(out);
      vec::GeluBackward(xs.data(), x_finite.data(), out.data(), n);
      outs->push_back(out);
    };
    vec::SetLevelForTesting(vec::Level::kScalar);
    std::vector<std::vector<float>> ref;
    run_all(&ref);
    for (const vec::Level level : AvailableLevels()) {
      vec::SetLevelForTesting(level);
      std::vector<std::vector<float>> got;
      run_all(&got);
      for (size_t c = 0; c < ref.size(); ++c) {
        SCOPED_TRACE("case " + std::to_string(c) + " n=" + std::to_string(n) +
                     " level=" + vec::LevelName(level));
        ExpectBitEqual(ref[c], got[c]);
      }
    }
  }
}

// Every 9973rd float in [-10, 10] (tanh) and in [-104, 89] (exp, whose
// results there are finite and, below -87.3, subnormal): within 2 ulp of
// the double-precision reference rounded to float.
TEST(VecTranscendentalTest, TanhAndExpWithinTwoUlpOfDoubleReference) {
  VecLevelGuard guard;
  std::vector<float> tanh_in;
  constexpr uint32_t kStride = 9973;
  for (uint32_t b = 0; b <= Bits(10.0f); b += kStride) {
    tanh_in.push_back(FromBits(b));
    tanh_in.push_back(FromBits(b | 0x80000000u));
  }
  std::vector<float> exp_in;
  for (uint32_t b = 0; b <= Bits(89.0f); b += kStride) {
    exp_in.push_back(FromBits(b));
  }
  for (uint32_t b = 0x80000000u; b <= Bits(-104.0f); b += kStride) {
    exp_in.push_back(FromBits(b));
  }
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    SCOPED_TRACE(vec::LevelName(level));
    std::vector<float> out(tanh_in.size());
    vec::Tanh(tanh_in.data(), out.data(), static_cast<int64_t>(out.size()));
    int64_t worst = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      const float want = static_cast<float>(std::tanh(double{tanh_in[i]}));
      worst = std::max(worst, UlpDistance(out[i], want));
    }
    EXPECT_LE(worst, 2) << "tanh";
    out.resize(exp_in.size());
    vec::Exp(exp_in.data(), out.data(), static_cast<int64_t>(out.size()));
    worst = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      const float want = static_cast<float>(std::exp(double{exp_in[i]}));
      worst = std::max(worst, UlpDistance(out[i], want));
    }
    EXPECT_LE(worst, 2) << "exp";
  }
}

TEST(VecTranscendentalTest, TanhIsOddAndExactAtTheEdges) {
  VecLevelGuard guard;
  const std::vector<float> xs = TranscendentalSweep();
  std::vector<float> neg(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    neg[i] = FromBits(Bits(xs[i]) ^ 0x80000000u);
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> edges = {0.0f, -0.0f, inf, -inf, nan, 1e20f};
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    SCOPED_TRACE(vec::LevelName(level));
    const int64_t n = static_cast<int64_t>(xs.size());
    std::vector<float> pos_out(xs.size()), neg_out(xs.size());
    vec::Tanh(xs.data(), pos_out.data(), n);
    vec::Tanh(neg.data(), neg_out.data(), n);
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(Bits(pos_out[i]) ^ 0x80000000u, Bits(neg_out[i]))
          << "tanh(-x) != -tanh(x) at x=" << xs[i];
    }
    std::vector<float> out(edges.size());
    vec::Tanh(edges.data(), out.data(), static_cast<int64_t>(edges.size()));
    EXPECT_EQ(Bits(0.0f), Bits(out[0]));
    EXPECT_EQ(Bits(-0.0f), Bits(out[1]));
    EXPECT_EQ(1.0f, out[2]);
    EXPECT_EQ(-1.0f, out[3]);
    EXPECT_TRUE(std::isnan(out[4]));
    EXPECT_EQ(1.0f, out[5]);
    const std::vector<float> exp_edges = {0.0f,  -inf,   inf,
                                          nan,   100.0f, -110.0f};
    out.resize(exp_edges.size());
    vec::Exp(exp_edges.data(), out.data(), static_cast<int64_t>(out.size()));
    EXPECT_EQ(1.0f, out[0]);
    EXPECT_EQ(Bits(0.0f), Bits(out[1]));
    EXPECT_EQ(inf, out[2]);
    EXPECT_TRUE(std::isnan(out[3]));
    EXPECT_EQ(inf, out[4]);
    EXPECT_EQ(Bits(0.0f), Bits(out[5]));
  }
}

TEST(VecSemanticsTest, GenericVecLanewiseOps) {
  using V = vec::Vec<float, 8>;
  float a[8], b[8];
  for (int i = 0; i < 8; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = static_cast<float>(8 - i);
  }
  const V va = V::Load(a), vb = V::Load(b);
  float out[8];
  (va + vb).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i] + b[i], out[i]);
  (va * vb).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i] * b[i], out[i]);
  V::Max(va, vb).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(std::max(a[i], b[i]), out[i]);
  V::Broadcast(3.0f).Store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(3.0f, out[i]);
  EXPECT_EQ(8, V::size());
}

}  // namespace
}  // namespace ddpkit
