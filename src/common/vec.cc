#include "common/vec.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define DDPKIT_VEC_X86 1
#include <immintrin.h>
#endif

namespace ddpkit::vec {
namespace {

// Target attributes deliberately request only the base ISA sets (no "fma"):
// the kernels below must emit separate mul and add instructions so their
// rounding matches the scalar fallback bit-for-bit (see the contract in
// vec.h). The x86-64 baseline the scalar path compiles against has no FMA
// instruction, so -ffp-contract cannot fuse it either.
#if defined(DDPKIT_VEC_X86)
#define DDPKIT_TARGET_AVX2 __attribute__((target("avx2")))
#define DDPKIT_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

// ---------------------------------------------------------------------------
// Scalar kernels, written over Vec<T,N> so the fallback exercises the same
// fixed-width shape the intrinsic paths use (N=8 matches one AVX2 float
// register). The compiler is free to auto-vectorize these at the baseline
// ISA; correctness never depends on whether it does.
// ---------------------------------------------------------------------------

template <typename T, typename LaneFn>
void ScalarLanewise2(const T* a, const T* b, T* dst, int64_t n, LaneFn fn) {
  using V = Vec<T, 8>;
  int64_t i = 0;
  for (; i + V::size() <= n; i += V::size()) {
    fn(V::Load(a + i), V::Load(b + i)).Store(dst + i);
  }
  for (; i < n; ++i) {
    V va = V::Broadcast(a[i]);
    V vb = V::Broadcast(b[i]);
    dst[i] = fn(va, vb).lane[0];
  }
}

template <typename T, typename LaneFn>
void ScalarLanewise1(const T* a, T* dst, int64_t n, LaneFn fn) {
  using V = Vec<T, 8>;
  int64_t i = 0;
  for (; i + V::size() <= n; i += V::size()) {
    fn(V::Load(a + i)).Store(dst + i);
  }
  for (; i < n; ++i) {
    dst[i] = fn(V::Broadcast(a[i])).lane[0];
  }
}

void AddScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x + y; });
}
void SubScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x - y; });
}
void MulScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x * y; });
}
void DivScalarImpl(const float* a, const float* b, float* dst, int64_t n) {
  ScalarLanewise2(a, b, dst, n, [](auto x, auto y) { return x / y; });
}

void ScaleScalarImpl(const float* a, float s, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] * s;
}
void AddScalarScalarImpl(const float* a, float s, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] + s;
}
void NegScalarImpl(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = -a[i];
}
void ReluScalarImpl(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void ReluBackwardScalarImpl(const float* g, const float* x, float* dst,
                            int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = x[i] > 0.0f ? g[i] : 0.0f;
}
void SqrtScalarImpl(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = __builtin_sqrtf(a[i]);
}
void AxpyScalarImpl(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}
void ScaleInPlaceScalarImpl(float* y, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = y[i] * s;
}
void AccumAddF32ScalarImpl(float* dst, const float* src, int64_t n) {
  ScalarLanewise2<float>(dst, src, dst, n,
                         [](auto x, auto y) { return x + y; });
}
void AccumMaxF32ScalarImpl(float* dst, const float* src, int64_t n) {
  ScalarLanewise2<float>(dst, src, dst, n, [](auto x, auto y) {
    return decltype(x)::Max(x, y);
  });
}
void AccumAddF64ScalarImpl(double* dst, const double* src, int64_t n) {
  ScalarLanewise2<double>(dst, src, dst, n,
                          [](auto x, auto y) { return x + y; });
}
void AccumMaxF64ScalarImpl(double* dst, const double* src, int64_t n) {
  ScalarLanewise2<double>(dst, src, dst, n, [](auto x, auto y) {
    return decltype(x)::Max(x, y);
  });
}

void GatherScalarImpl(float* dst, const float* src, const int32_t* index,
                      int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[index[i]];
}

// ---------------------------------------------------------------------------
// GEMM tiles (the contract is in vec.h). A tile holds a rows×cols block of
// C in registers — rows <= kGemmRows, cols <= the level's tile width — for
// the whole k range: per p it loads one row of B, broadcasts one A value
// per row, and adds the rounded products. The drivers walk column tiles
// outermost so the k×cols strip of B stays in cache across the row tiles.
// ---------------------------------------------------------------------------

constexpr int kGemmRows = 4;

/// Calls TILE<rows>(args...) for the rows (>= 1) left in a row tile,
/// capped at kGemmRows.
#define DDPKIT_GEMM_ROW_TILE(TILE, rows, ...)                         \
  do {                                                                \
    switch ((rows) < kGemmRows ? (rows) : kGemmRows) {                \
      case 4:                                                         \
        TILE<4>(__VA_ARGS__);                                         \
        break;                                                        \
      case 3:                                                         \
        TILE<3>(__VA_ARGS__);                                         \
        break;                                                        \
      case 2:                                                         \
        TILE<2>(__VA_ARGS__);                                         \
        break;                                                        \
      default:                                                        \
        TILE<1>(__VA_ARGS__);                                         \
        break;                                                        \
    }                                                                 \
  } while (0)

template <int R>
void GemmTileScalar(int64_t k, const float* a, int64_t a_rs, int64_t a_cs,
                    const float* b, int64_t ldb, const int64_t* b_rows,
                    float* c, int64_t ldc, int64_t cols, bool accumulate) {
  constexpr int64_t kW = 8;
  float acc[R][kW];
  for (int r = 0; r < R; ++r) {
    for (int64_t j = 0; j < kW; ++j) {
      acc[r][j] = accumulate && j < cols ? c[r * ldc + j] : 0.0f;
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b_rows != nullptr ? b + b_rows[p] : b + p * ldb;
    for (int r = 0; r < R; ++r) {
      const float av = a[r * a_rs + p * a_cs];
      for (int64_t j = 0; j < cols; ++j) {
        const float prod = av * bp[j];
        acc[r][j] = acc[r][j] + prod;
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int64_t j = 0; j < cols; ++j) c[r * ldc + j] = acc[r][j];
  }
}

void GemmScalarImpl(int64_t m, int64_t n, int64_t k, const float* a,
                    int64_t a_rs, int64_t a_cs, const float* b, int64_t ldb,
                    const int64_t* b_rows, float* c, int64_t ldc,
                    bool accumulate) {
  for (int64_t j0 = 0; j0 < n; j0 += 8) {
    const int64_t cols = n - j0 < 8 ? n - j0 : 8;
    for (int64_t i0 = 0; i0 < m; i0 += kGemmRows) {
      const float* ai = a + i0 * a_rs;
      float* cij = c + i0 * ldc + j0;
      DDPKIT_GEMM_ROW_TILE(GemmTileScalar, m - i0, k, ai, a_rs, a_cs, b + j0,
                           ldb, b_rows, cij, ldc, cols, accumulate);
    }
  }
}

#if defined(DDPKIT_VEC_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 8 float / 4 double lanes per register.
// ---------------------------------------------------------------------------

DDPKIT_TARGET_AVX2 void AddAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}
DDPKIT_TARGET_AVX2 void SubAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}
DDPKIT_TARGET_AVX2 void MulAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}
DDPKIT_TARGET_AVX2 void DivAvx2(const float* a, const float* b, float* dst,
                                int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] / b[i];
}
DDPKIT_TARGET_AVX2 void ScaleAvx2(const float* a, float s, float* dst,
                                  int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) dst[i] = a[i] * s;
}
DDPKIT_TARGET_AVX2 void AddScalarAvx2(const float* a, float s, float* dst,
                                      int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) dst[i] = a[i] + s;
}
DDPKIT_TARGET_AVX2 void NegAvx2(const float* a, float* dst, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
  }
  for (; i < n; ++i) dst[i] = -a[i];
}
DDPKIT_TARGET_AVX2 void ReluAvx2(const float* a, float* dst, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max(a, +0.0) maps -0.0 inputs to +0.0, matching `a > 0 ? a : 0`.
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) dst[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
DDPKIT_TARGET_AVX2 void ReluBackwardAvx2(const float* g, const float* x,
                                         float* dst, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(dst + i, _mm256_and_ps(_mm256_loadu_ps(g + i), mask));
  }
  for (; i < n; ++i) dst[i] = x[i] > 0.0f ? g[i] : 0.0f;
}
DDPKIT_TARGET_AVX2 void SqrtAvx2(const float* a, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sqrt_ps(_mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) dst[i] = __builtin_sqrtf(a[i]);
}
DDPKIT_TARGET_AVX2 void AxpyAvx2(float alpha, const float* x, float* y,
                                 int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}
DDPKIT_TARGET_AVX2 void ScaleInPlaceAvx2(float* y, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  }
  for (; i < n; ++i) y[i] = y[i] * s;
}
DDPKIT_TARGET_AVX2 void AccumAddF32Avx2(float* dst, const float* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX2 void AccumMaxF32Avx2(float* dst, const float* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // maxps returns its second operand on unordered or equal compares, and
    // the scalar `dst > src ? dst : src` yields src in exactly those cases
    // (NaN anywhere, or ±0.0 ties) — so src must be the second operand.
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}
DDPKIT_TARGET_AVX2 void AccumAddF64Avx2(double* dst, const double* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX2 void AccumMaxF64Avx2(double* dst, const double* src,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_max_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}

// ---------------------------------------------------------------------------
// AVX-512 kernels: 16 float / 8 double lanes per register. Only the
// bandwidth-bound accumulate/copy/axpy family gets dedicated 512-bit
// bodies; the rest reuse the AVX2 bodies at this level (same bit-exact
// results, and 256-bit ops avoid license-based downclocking on older
// parts for the short kernels).
// ---------------------------------------------------------------------------

DDPKIT_TARGET_AVX512 void AddAvx512(const float* a, const float* b, float* dst,
                                    int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}
DDPKIT_TARGET_AVX512 void MulAvx512(const float* a, const float* b, float* dst,
                                    int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}
DDPKIT_TARGET_AVX512 void AxpyAvx512(float alpha, const float* x, float* y,
                                     int64_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 prod = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) {
    const float prod = alpha * x[i];
    y[i] = y[i] + prod;
  }
}
DDPKIT_TARGET_AVX512 void AccumAddF32Avx512(float* dst, const float* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX512 void AccumMaxF32Avx512(float* dst, const float* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_max_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}
DDPKIT_TARGET_AVX512 void AccumAddF64Avx512(double* dst, const double* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] + src[i];
}
DDPKIT_TARGET_AVX512 void AccumMaxF64Avx512(double* dst, const double* src,
                                            int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_max_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}

DDPKIT_TARGET_AVX2 void GatherAvx2(float* dst, const float* src,
                                   const int32_t* index, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(index + i));
    _mm256_storeu_ps(dst + i, _mm256_i32gather_ps(src, idx, 4));
  }
  for (; i < n; ++i) dst[i] = src[index[i]];
}

// ---------------------------------------------------------------------------
// GEMM tiles, AVX2: 4×16 (two registers per row; a 4×32 tile would need
// all 16 ymm registers for accumulators alone). Column tails go through
// maskload/maskstore, which never touch the masked-off lanes' memory.
// ---------------------------------------------------------------------------

DDPKIT_TARGET_AVX2 inline __m256i ColMask8(int64_t cols) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const int lim = cols < 0 ? 0 : (cols > 8 ? 8 : static_cast<int>(cols));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(lim), iota);
}

template <int R>
DDPKIT_TARGET_AVX2 void GemmTileAvx2(int64_t k, const float* a, int64_t a_rs,
                                     int64_t a_cs, const float* b,
                                     int64_t ldb, const int64_t* b_rows,
                                     float* c, int64_t ldc, __m256i m0,
                                     __m256i m1,
                                     bool accumulate) {
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    if (accumulate) {
      acc0[r] = _mm256_maskload_ps(c + r * ldc, m0);
      acc1[r] = _mm256_maskload_ps(c + r * ldc + 8, m1);
    } else {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b_rows != nullptr ? b + b_rows[p] : b + p * ldb;
    const __m256 b0 = _mm256_maskload_ps(bp, m0);
    const __m256 b1 = _mm256_maskload_ps(bp + 8, m1);
    const float* ap = a + p * a_cs;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * a_rs);
      acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
      acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    _mm256_maskstore_ps(c + r * ldc, m0, acc0[r]);
    _mm256_maskstore_ps(c + r * ldc + 8, m1, acc1[r]);
  }
}

DDPKIT_TARGET_AVX2 void GemmAvx2(int64_t m, int64_t n, int64_t k,
                                 const float* a, int64_t a_rs, int64_t a_cs,
                                 const float* b, int64_t ldb,
                                 const int64_t* b_rows, float* c,
                                 int64_t ldc, bool accumulate) {
  for (int64_t j0 = 0; j0 < n; j0 += 16) {
    const __m256i m0 = ColMask8(n - j0);
    const __m256i m1 = ColMask8(n - j0 - 8);
    for (int64_t i0 = 0; i0 < m; i0 += kGemmRows) {
      const float* ai = a + i0 * a_rs;
      float* cij = c + i0 * ldc + j0;
      DDPKIT_GEMM_ROW_TILE(GemmTileAvx2, m - i0, k, ai, a_rs, a_cs, b + j0, ldb,
                           b_rows, cij, ldc, m0, m1, accumulate);
    }
  }
}

DDPKIT_TARGET_AVX512 void GatherAvx512(float* dst, const float* src,
                                       const int32_t* index, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i idx = _mm512_loadu_si512(index + i);
    _mm512_storeu_ps(dst + i, _mm512_i32gather_ps(idx, src, 4));
  }
  for (; i < n; ++i) dst[i] = src[index[i]];
}

// ---------------------------------------------------------------------------
// GEMM tiles, AVX-512: the 4×32 register tile (8 accumulators, two B
// registers, one broadcast). Column tails use masked loads/stores.
// ---------------------------------------------------------------------------

inline __mmask16 ColMask16(int64_t cols) {
  if (cols <= 0) return 0;
  if (cols >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << cols) - 1u);
}

template <int R>
DDPKIT_TARGET_AVX512 void GemmTileAvx512(int64_t k, const float* a,
                                         int64_t a_rs, int64_t a_cs,
                                         const float* b, int64_t ldb,
                                         const int64_t* b_rows, float* c,
                                         int64_t ldc, __mmask16 m0,
                                         __mmask16 m1, bool accumulate) {
  __m512 acc0[R], acc1[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    if (accumulate) {
      acc0[r] = _mm512_maskz_loadu_ps(m0, c + r * ldc);
      acc1[r] = _mm512_maskz_loadu_ps(m1, c + r * ldc + 16);
    } else {
      acc0[r] = _mm512_setzero_ps();
      acc1[r] = _mm512_setzero_ps();
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b_rows != nullptr ? b + b_rows[p] : b + p * ldb;
    const __m512 b0 = _mm512_maskz_loadu_ps(m0, bp);
    const __m512 b1 = _mm512_maskz_loadu_ps(m1, bp + 16);
    const float* ap = a + p * a_cs;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r * a_rs]);
      acc0[r] = _mm512_add_ps(acc0[r], _mm512_mul_ps(av, b0));
      acc1[r] = _mm512_add_ps(acc1[r], _mm512_mul_ps(av, b1));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    _mm512_mask_storeu_ps(c + r * ldc, m0, acc0[r]);
    _mm512_mask_storeu_ps(c + r * ldc + 16, m1, acc1[r]);
  }
}

DDPKIT_TARGET_AVX512 void GemmAvx512(int64_t m, int64_t n, int64_t k,
                                     const float* a, int64_t a_rs,
                                     int64_t a_cs, const float* b,
                                     int64_t ldb, const int64_t* b_rows,
                                     float* c, int64_t ldc, bool accumulate) {
  for (int64_t j0 = 0; j0 < n; j0 += kGemmPanelCols) {
    const __mmask16 m0 = ColMask16(n - j0);
    const __mmask16 m1 = ColMask16(n - j0 - 16);
    for (int64_t i0 = 0; i0 < m; i0 += kGemmRows) {
      const float* ai = a + i0 * a_rs;
      float* cij = c + i0 * ldc + j0;
      DDPKIT_GEMM_ROW_TILE(GemmTileAvx512, m - i0, k, ai, a_rs, a_cs, b + j0,
                           ldb, b_rows, cij, ldc, m0, m1, accumulate);
    }
  }
}

#endif  // DDPKIT_VEC_X86

// ---------------------------------------------------------------------------
// Transcendentals: exp, tanh, sigmoid and the fused GELU pair. Each is one
// function template over a lane type F: float at the scalar level, a GCC
// vector of 8 or 16 floats at AVX2 or AVX-512. MapLanes instantiates it
// inside that level's target-attributed loop, so every level runs the same
// source, one fixed sequence of add/sub/mul/div, compare-and-select, and
// integer ops that only build 2^n from exponent bits. Nothing is fused
// (-ffp-contract=off) and nothing calls libm, so each lane's result depends
// on that lane's inputs alone and is bit-identical at every level. The
// polynomials are Cephes' expf and tanhf minimax fits.
// ---------------------------------------------------------------------------

#define DDPKIT_LANES inline __attribute__((always_inline))

/// F: W float lanes; I, U: W signed / unsigned 32-bit integer lanes.
template <int W>
struct Lanes;
template <>
struct Lanes<1> {
  using F = float;
  using I = int32_t;
  using U = uint32_t;
};
#if defined(DDPKIT_VEC_X86)
template <>
struct Lanes<8> {
  typedef float F __attribute__((vector_size(32)));
  typedef int32_t I __attribute__((vector_size(32)));
  typedef uint32_t U __attribute__((vector_size(32)));
};
template <>
struct Lanes<16> {
  typedef float F __attribute__((vector_size(64)));
  typedef int32_t I __attribute__((vector_size(64)));
  typedef uint32_t U __attribute__((vector_size(64)));
};
#endif

constexpr float kExpMin = -104.0f;  // e^x rounds to +0 below this
constexpr float kExpMax = 89.0f;    // and to +inf above this
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: n·kLn2Hi exact
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kRoundMagic = 12582912.0f;  // 1.5·2^23
constexpr uint32_t kRoundMagicBits = 0x4B400000u;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

constexpr float kTanhSmall = 0.625f;  // polynomial below, exp form above
constexpr float kTanhSaturate = 10.0f;  // float tanh is 1 from |x| ≈ 9.02
constexpr float kTanhP0 = -5.70498872745e-3f;
constexpr float kTanhP1 = 2.06390887954e-2f;
constexpr float kTanhP2 = -5.37397155531e-2f;
constexpr float kTanhP3 = 1.33314422036e-1f;
constexpr float kTanhP4 = -3.33332819422e-1f;

constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCubic = 0.044715f;

// The ops MapLanes applies; each maps one block of lanes per input.
struct ExpOp {
  template <typename L>
  static DDPKIT_LANES typename L::F Apply(typename L::F x) {
    using F = typename L::F;
    using I = typename L::I;
    using U = typename L::U;
    // Clamp (a NaN compares false and passes both), then x = n·ln2 + r with
    // n = round(x·log2 e): adding 1.5·2^23 rounds to an integer and leaves n
    // in the sum's low mantissa bits.
    F xc = kExpMax < x ? kExpMax : x;
    xc = kExpMin > xc ? kExpMin : xc;
    const F shifted = xc * kLog2e + kRoundMagic;
    const F n = shifted - kRoundMagic;
    F r = xc - n * kLn2Hi;
    r = r - n * kLn2Lo;
    const F p =
        ((((kExpP0 * r + kExpP1) * r + kExpP2) * r + kExpP3) * r + kExpP4) * r +
        kExpP5;
    const F y = p * (r * r) + r + 1.0f;
    // 2^n as two normal powers of two, so a subnormal or near-overflow
    // result rounds once, in the last multiply.
    const I ni = std::bit_cast<I>(std::bit_cast<U>(shifted) - kRoundMagicBits);
    const I n1 = ni >> 1;
    const I n2 = ni - n1;
    const F s1 = std::bit_cast<F>(std::bit_cast<U>(n1 + 127) << 23);
    const F s2 = std::bit_cast<F>(std::bit_cast<U>(n2 + 127) << 23);
    const F e = y * s1 * s2;
    return x == x ? e : x + x;  // NaN in, the same (quieted) NaN out
  }
};
struct TanhOp {
  template <typename L>
  static DDPKIT_LANES typename L::F Apply(typename L::F x) {
    using F = typename L::F;
    using U = typename L::U;
    // Odd by construction: evaluate at |x|, then put x's sign bit back.
    const U bits = std::bit_cast<U>(x);
    const U sign = bits & 0x80000000u;
    const F ax = std::bit_cast<F>(bits & 0x7fffffffu);
    const F z = ax * ax;
    const F p =
        (((kTanhP0 * z + kTanhP1) * z + kTanhP2) * z + kTanhP3) * z + kTanhP4;
    const F small = p * z * ax + ax;
    const F ac = kTanhSaturate < ax ? kTanhSaturate : ax;
    const F large = 1.0f - 2.0f / (ExpOp::Apply<L>(ac + ac) + 1.0f);
    const F t = ax < kTanhSmall ? small : large;
    return std::bit_cast<F>(std::bit_cast<U>(t) | sign);
  }
};
struct SigmoidOp {
  template <typename L>
  static DDPKIT_LANES typename L::F Apply(typename L::F x) {
    return 1.0f / (1.0f + ExpOp::Apply<L>(-x));
  }
};
/// The tanh approximation of GELU (as in BERT).
struct GeluOp {
  template <typename L>
  static DDPKIT_LANES typename L::F Apply(typename L::F x) {
    const typename L::F inner = kSqrt2OverPi * (x + kGeluCubic * x * x * x);
    return 0.5f * x * (1.0f + TanhOp::Apply<L>(inner));
  }
};
/// g · d GELU(x)/dx.
struct GeluBackwardOp {
  template <typename L>
  static DDPKIT_LANES typename L::F Apply(typename L::F g, typename L::F x) {
    using F = typename L::F;
    const F x3 = x * x * x;
    const F t = TanhOp::Apply<L>(kSqrt2OverPi * (x + kGeluCubic * x3));
    const F sech2 = 1.0f - t * t;
    return g * (0.5f * (1.0f + t) + 0.5f * x * sech2 * kSqrt2OverPi *
                                        (1.0f + 3.0f * kGeluCubic * x * x));
  }
};

template <typename L>
DDPKIT_LANES typename L::F LoadLanes(const float* p, int64_t count) {
  typename L::F v{};
  std::memcpy(&v, p, static_cast<size_t>(count) * sizeof(float));
  return v;
}

/// dst[i] = Op(src[i]...) for i < n, sizeof(F) / 4 lanes at a time; the
/// tail runs the same body on a zero-padded block.
template <typename L, typename Op, typename... Src>
DDPKIT_LANES void MapLanes(float* dst, int64_t n, Src... src) {
  constexpr int64_t kW = sizeof(typename L::F) / sizeof(float);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    const typename L::F y =
        Op::template Apply<L>(LoadLanes<L>(src + i, kW)...);
    std::memcpy(dst + i, &y, sizeof(y));
  }
  if (i < n) {
    const typename L::F y =
        Op::template Apply<L>(LoadLanes<L>(src + i, n - i)...);
    std::memcpy(dst + i, &y, static_cast<size_t>(n - i) * sizeof(float));
  }
}

template <typename Op, typename... Src>
void MapScalar(float* dst, int64_t n, Src... src) {
  MapLanes<Lanes<1>, Op>(dst, n, src...);
}
#if defined(DDPKIT_VEC_X86)
template <typename Op, typename... Src>
DDPKIT_TARGET_AVX2 void MapAvx2(float* dst, int64_t n, Src... src) {
  MapLanes<Lanes<8>, Op>(dst, n, src...);
}
template <typename Op, typename... Src>
DDPKIT_TARGET_AVX512 void MapAvx512(float* dst, int64_t n, Src... src) {
  MapLanes<Lanes<16>, Op>(dst, n, src...);
}
#endif

#undef DDPKIT_LANES

// ---------------------------------------------------------------------------
// Level detection + dispatch state.
// ---------------------------------------------------------------------------

Level DetectHardwareLevel() {
#if defined(DDPKIT_VEC_X86)
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level ClampToEnv(Level hw) {
  // Startup-only env read; the result is a process-wide constant, and every
  // level is bit-exact anyway, so this cannot make a run irreproducible.
  const char* env = std::getenv("DDPKIT_SIMD");
  if (env == nullptr) return hw;
  const std::string_view want(env);
  Level requested = hw;
  if (want == "scalar") {
    requested = Level::kScalar;
  } else if (want == "avx2") {
    requested = Level::kAvx2;
  } else if (want == "avx512") {
    requested = Level::kAvx512;
  }
  return requested <= hw ? requested : hw;
}

std::atomic<Level>& ActiveLevelState() {
  static std::atomic<Level> level{ClampToEnv(DetectHardwareLevel())};
  return level;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level detected = ClampToEnv(DetectHardwareLevel());
  return detected;
}

Level ActiveLevel() {
  return ActiveLevelState().load(std::memory_order_relaxed);
}

Level SetLevelForTesting(Level level) {
  const Level clamped = level <= DetectedLevel() ? level : DetectedLevel();
  ActiveLevelState().store(clamped, std::memory_order_relaxed);
  return clamped;
}

// ---------------------------------------------------------------------------
// Dispatched entry points. The switch costs one predictable branch per
// batch call — negligible against the loops it guards, and it keeps
// SetLevelForTesting effective without a rebindable function table.
// ---------------------------------------------------------------------------

#if defined(DDPKIT_VEC_X86)
#define DDPKIT_VEC_DISPATCH(avx512_call, avx2_call, scalar_call) \
  do {                                                           \
    switch (ActiveLevel()) {                                     \
      case Level::kAvx512:                                       \
        avx512_call;                                             \
        return;                                                  \
      case Level::kAvx2:                                         \
        avx2_call;                                               \
        return;                                                  \
      case Level::kScalar:                                       \
        break;                                                   \
    }                                                            \
    scalar_call;                                                 \
  } while (0)
#else
#define DDPKIT_VEC_DISPATCH(avx512_call, avx2_call, scalar_call) \
  do {                                                           \
    scalar_call;                                                 \
  } while (0)
#endif

void Add(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(AddAvx512(a, b, dst, n), AddAvx2(a, b, dst, n),
                      AddScalarImpl(a, b, dst, n));
}
void Sub(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(SubAvx2(a, b, dst, n), SubAvx2(a, b, dst, n),
                      SubScalarImpl(a, b, dst, n));
}
void Mul(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MulAvx512(a, b, dst, n), MulAvx2(a, b, dst, n),
                      MulScalarImpl(a, b, dst, n));
}
void Div(const float* a, const float* b, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(DivAvx2(a, b, dst, n), DivAvx2(a, b, dst, n),
                      DivScalarImpl(a, b, dst, n));
}
void Scale(const float* a, float s, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(ScaleAvx2(a, s, dst, n), ScaleAvx2(a, s, dst, n),
                      ScaleScalarImpl(a, s, dst, n));
}
void AddScalar(const float* a, float s, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(AddScalarAvx2(a, s, dst, n), AddScalarAvx2(a, s, dst, n),
                      AddScalarScalarImpl(a, s, dst, n));
}
void Neg(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(NegAvx2(a, dst, n), NegAvx2(a, dst, n),
                      NegScalarImpl(a, dst, n));
}
void Relu(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(ReluAvx2(a, dst, n), ReluAvx2(a, dst, n),
                      ReluScalarImpl(a, dst, n));
}
void ReluBackward(const float* g, const float* x, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(ReluBackwardAvx2(g, x, dst, n),
                      ReluBackwardAvx2(g, x, dst, n),
                      ReluBackwardScalarImpl(g, x, dst, n));
}
void Sqrt(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(SqrtAvx2(a, dst, n), SqrtAvx2(a, dst, n),
                      SqrtScalarImpl(a, dst, n));
}
void Axpy(float alpha, const float* x, float* y, int64_t n) {
  DDPKIT_VEC_DISPATCH(AxpyAvx512(alpha, x, y, n), AxpyAvx2(alpha, x, y, n),
                      AxpyScalarImpl(alpha, x, y, n));
}
void ScaleInPlace(float* y, float s, int64_t n) {
  DDPKIT_VEC_DISPATCH(ScaleInPlaceAvx2(y, s, n), ScaleInPlaceAvx2(y, s, n),
                      ScaleInPlaceScalarImpl(y, s, n));
}
void AccumulateAdd(float* dst, const float* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumAddF32Avx512(dst, src, n),
                      AccumAddF32Avx2(dst, src, n),
                      AccumAddF32ScalarImpl(dst, src, n));
}
void AccumulateMax(float* dst, const float* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumMaxF32Avx512(dst, src, n),
                      AccumMaxF32Avx2(dst, src, n),
                      AccumMaxF32ScalarImpl(dst, src, n));
}
void AccumulateAdd(double* dst, const double* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumAddF64Avx512(dst, src, n),
                      AccumAddF64Avx2(dst, src, n),
                      AccumAddF64ScalarImpl(dst, src, n));
}
void AccumulateMax(double* dst, const double* src, int64_t n) {
  DDPKIT_VEC_DISPATCH(AccumMaxF64Avx512(dst, src, n),
                      AccumMaxF64Avx2(dst, src, n),
                      AccumMaxF64ScalarImpl(dst, src, n));
}

void Exp(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MapAvx512<ExpOp>(dst, n, a), MapAvx2<ExpOp>(dst, n, a),
                      MapScalar<ExpOp>(dst, n, a));
}
void Tanh(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MapAvx512<TanhOp>(dst, n, a), MapAvx2<TanhOp>(dst, n, a),
                      MapScalar<TanhOp>(dst, n, a));
}
void Sigmoid(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MapAvx512<SigmoidOp>(dst, n, a),
                      MapAvx2<SigmoidOp>(dst, n, a),
                      MapScalar<SigmoidOp>(dst, n, a));
}
void Gelu(const float* a, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MapAvx512<GeluOp>(dst, n, a), MapAvx2<GeluOp>(dst, n, a),
                      MapScalar<GeluOp>(dst, n, a));
}
void GeluBackward(const float* g, const float* x, float* dst, int64_t n) {
  DDPKIT_VEC_DISPATCH(MapAvx512<GeluBackwardOp>(dst, n, g, x),
                      MapAvx2<GeluBackwardOp>(dst, n, g, x),
                      MapScalar<GeluBackwardOp>(dst, n, g, x));
}

void Copy(float* dst, const float* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}
void Copy(double* dst, const double* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(double));
}

void Gather(float* dst, int64_t dst_stride, const float* src,
            int64_t src_stride, const int32_t* index, int64_t n,
            int64_t rows) {
  // One dispatch per call, not per row: panel rows are short.
  switch (ActiveLevel()) {
#if defined(DDPKIT_VEC_X86)
    case Level::kAvx512:
      for (int64_t r = 0; r < rows; ++r) {
        GatherAvx512(dst + r * dst_stride, src + r * src_stride, index, n);
      }
      return;
    case Level::kAvx2:
      for (int64_t r = 0; r < rows; ++r) {
        GatherAvx2(dst + r * dst_stride, src + r * src_stride, index, n);
      }
      return;
#endif
    default:
      for (int64_t r = 0; r < rows; ++r) {
        GatherScalarImpl(dst + r * dst_stride, src + r * src_stride, index,
                         n);
      }
  }
}

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
          int64_t a_cs, const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate, const int64_t* b_rows) {
  if (m <= 0 || n <= 0) return;
  DDPKIT_VEC_DISPATCH(
      GemmAvx512(m, n, k, a, a_rs, a_cs, b, ldb, b_rows, c, ldc, accumulate),
      GemmAvx2(m, n, k, a, a_rs, a_cs, b, ldb, b_rows, c, ldc, accumulate),
      GemmScalarImpl(m, n, k, a, a_rs, a_cs, b, ldb, b_rows, c, ldc,
                     accumulate));
}

#undef DDPKIT_VEC_DISPATCH
#undef DDPKIT_GEMM_ROW_TILE

}  // namespace ddpkit::vec
