#ifndef DDPKIT_COMMON_VEC_H_
#define DDPKIT_COMMON_VEC_H_

#include <cstdint>
#include <cstring>

namespace ddpkit::vec {

/// Portable SIMD layer for the elementwise hot paths (tensor kernels, the
/// all-reduce combine loops, the Reducer's bucket copies), modeled on
/// ATen's cpu/vec Vectorized<T> idiom: a fixed-width value type `Vec<T,N>`
/// plus batch entry points that runtime-dispatch to AVX-512, AVX2 or a
/// scalar loop depending on what the host CPU supports.
///
/// Bit-exactness contract
/// ----------------------
/// Every batch helper below performs only *lanewise* IEEE-754 operations —
/// add, sub, mul, div, max, sqrt — which are correctly rounded at every
/// vector width, and no implementation ever emits a fused multiply-add
/// (Axpy is an explicit mul-then-add at all levels; the x86-64 baseline has
/// no FMA instruction, so the scalar fallback cannot contract either).
/// Element i of the output therefore has the same bit pattern no matter
/// which Level executes the call. Combined with ParallelFor's thread-count-
/// independent chunking this means the SIMD dispatch can never perturb a
/// deterministic run: results are identical across machines with different
/// ISA extensions, across DDPKIT_SIMD overrides, and across pool sizes.
/// The layer owns exp and tanh on the same terms: Exp, Tanh, Sigmoid, Gelu
/// and GeluBackward are built from those lanewise operations plus
/// compare-and-select and integer exponent-bit ops, one source for every
/// level, never libm. Only log and the softmax family's exp stay on libm,
/// outside this layer, one element at a time.
/// Horizontal reductions (dot products, sums) are deliberately NOT offered
/// here — splitting one sum across lanes would change its accumulation
/// order; use ParallelReduce's chunked combine for those. The one
/// reduction the layer does own is Gemm below, which vectorizes across
/// *independent* output elements and keeps each element's own sum a
/// serial ascending-k chain.

// ---------------------------------------------------------------------------
// Dispatch levels.
// ---------------------------------------------------------------------------

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* LevelName(Level level);

/// Highest level the host CPU supports, clamped by the DDPKIT_SIMD
/// environment variable ("scalar" | "avx2" | "avx512") when set. Computed
/// once per process.
Level DetectedLevel();

/// Level the batch helpers currently dispatch to (DetectedLevel() unless a
/// test overrode it).
Level ActiveLevel();

/// Test/bench escape hatch: force a dispatch level at or below
/// DetectedLevel() (requests above the hardware's capability clamp down).
/// Returns the level actually installed. Not intended for concurrent use
/// with in-flight kernels.
Level SetLevelForTesting(Level level);

// ---------------------------------------------------------------------------
// Vec<T, N>: the fixed-width value type. This generic definition is the
// scalar fallback (an N-lane array with lanewise operators); the AVX2 and
// AVX-512 batch implementations in vec.cc use the intrinsic registers
// directly inside target-attributed functions, with identical lanewise
// semantics. N = 8 floats matches one AVX2 register; N = 16 one AVX-512
// register.
// ---------------------------------------------------------------------------

template <typename T, int N>
struct Vec {
  T lane[N];

  static constexpr int size() { return N; }

  static Vec Load(const T* p) {
    Vec v;
    std::memcpy(v.lane, p, sizeof(v.lane));
    return v;
  }

  static Vec Broadcast(T value) {
    Vec v;
    for (int i = 0; i < N; ++i) v.lane[i] = value;
    return v;
  }

  void Store(T* p) const { std::memcpy(p, lane, sizeof(lane)); }

  Vec operator+(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] + o.lane[i];
    return r;
  }
  Vec operator-(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] - o.lane[i];
    return r;
  }
  Vec operator*(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] * o.lane[i];
    return r;
  }
  Vec operator/(const Vec& o) const {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = lane[i] / o.lane[i];
    return r;
  }

  static Vec Max(const Vec& a, const Vec& b) {
    Vec r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// Batch entry points (runtime-dispatched). Pointers may alias only when the
// scalar loop would tolerate it: dst == a or dst == b is fine (pure
// lanewise), partially-overlapping ranges are not.
// ---------------------------------------------------------------------------

void Add(const float* a, const float* b, float* dst, int64_t n);
void Sub(const float* a, const float* b, float* dst, int64_t n);
void Mul(const float* a, const float* b, float* dst, int64_t n);
void Div(const float* a, const float* b, float* dst, int64_t n);

void Scale(const float* a, float s, float* dst, int64_t n);
void AddScalar(const float* a, float s, float* dst, int64_t n);
void Neg(const float* a, float* dst, int64_t n);
void Relu(const float* a, float* dst, int64_t n);
/// dst[i] = x[i] > 0 ? g[i] : 0 — the ReLU gradient mask.
void ReluBackward(const float* g, const float* x, float* dst, int64_t n);
void Sqrt(const float* a, float* dst, int64_t n);

/// The transcendentals. Each runs one fixed add/sub/mul/div/select
/// sequence (range reduction, a polynomial, a 2^n scale built from exponent
/// bits; see vec.cc), so unlike libm they are bit-identical at every level.
/// Exp and Tanh are within 2 ulp of the correctly rounded result; Tanh is
/// odd bit for bit and keeps the sign of ±0. NaN in gives NaN out.
void Exp(const float* a, float* dst, int64_t n);
void Tanh(const float* a, float* dst, int64_t n);
/// dst[i] = 1 / (1 + exp(-a[i])).
void Sigmoid(const float* a, float* dst, int64_t n);
/// GELU, tanh approximation: 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
void Gelu(const float* a, float* dst, int64_t n);
/// dst[i] = g[i] · GELU'(x[i]).
void GeluBackward(const float* g, const float* x, float* dst, int64_t n);

/// y[i] += alpha * x[i], mul-then-add at every level (never fused).
void Axpy(float alpha, const float* x, float* y, int64_t n);
void ScaleInPlace(float* y, float s, int64_t n);

/// The all-reduce combine primitives: dst[i] = dst[i] (+|max) src[i].
void AccumulateAdd(float* dst, const float* src, int64_t n);
void AccumulateMax(float* dst, const float* src, int64_t n);
void AccumulateAdd(double* dst, const double* src, int64_t n);
void AccumulateMax(double* dst, const double* src, int64_t n);

/// Contiguous copy (the bucket copy-in/copy-out primitive). Semantically
/// memcpy; routed through this layer so the hot copies share one audited
/// entry point with the arithmetic kernels.
void Copy(float* dst, const float* src, int64_t n);
void Copy(double* dst, const double* src, int64_t n);

/// dst[r * dst_stride + i] = src[r * src_stride + index[i]] for r < rows,
/// i < n: the indexed copy that packs GEMM panels, one row per panel row.
void Gather(float* dst, int64_t dst_stride, const float* src,
            int64_t src_stride, const int32_t* index, int64_t n,
            int64_t rows);

// ---------------------------------------------------------------------------
// GEMM micro-kernel: the one dense kernel under MatMul* and Conv2d*.
// ---------------------------------------------------------------------------

/// Widest column tile any level computes per pass (4×32 at AVX-512).
/// Callers that pack B panels make them this wide.
inline constexpr int64_t kGemmPanelCols = 32;

/// C[m×n] = A[m×k]·B[k×n] (accumulate = false) or C += A·B (true).
/// A(i, p) is a[i * a_rs + p * a_cs] (any strides, so transposed A needs
/// no copy). B's columns are contiguous: row p starts at b + p * ldb, or at
/// b + b_rows[p] when a row-offset table is given (an implicit im2col: row
/// (ic, ky, kx) of a convolution is the input shifted by that tap). C is
/// row-major with row stride ldc.
///
/// Every level computes each output element as
///
///   acc = accumulate ? C(i, j) : +0.0f
///   for p = 0 .. k-1:  acc = acc + (A(i, p) * B(p, j))   // rounded mul,
///   C(i, j) = acc                                         // then add
///
/// — an explicit product then sum in ascending p, never fused. Lanes hold
/// different j, never different p, so the result is bit-identical at
/// every dispatch level, and splitting C into disjoint tiles (for threads)
/// or splitting k into consecutive blocks with accumulate = true after the
/// first cannot change it either.
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
          int64_t a_cs, const float* b, int64_t ldb, float* c, int64_t ldc,
          bool accumulate, const int64_t* b_rows = nullptr);

}  // namespace ddpkit::vec

#endif  // DDPKIT_COMMON_VEC_H_
