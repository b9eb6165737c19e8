#include "comm/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

// COMDML_SIMD (default ON) compiles the AVX2 kernels beside the scalar
// ones; defining COMDML_SIMD=0 (CMake option) keeps only the scalar path.
#ifndef COMDML_SIMD
#define COMDML_SIMD 1
#endif
#if COMDML_SIMD && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COMDML_SIMD_X86 1
#include <immintrin.h>
#else
#define COMDML_SIMD_X86 0
#endif

namespace comdml::comm::int8 {

namespace {

/// The delivered value of one element: the scalar reference every kernel,
/// and every vector kernel's tail, computes.
inline double quantize_one(double x, double inv_scale, double scale) {
  const double q = std::nearbyint(x * inv_scale);
  return scale * std::clamp(q, -127.0, 127.0);
}

double max_abs_scalar(const double* v, int64_t n) {
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

double add_max_abs_scalar(double* s, const double* r, int64_t n) {
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    s[i] += r[i];
    m = std::max(m, std::fabs(s[i]));
  }
  return m;
}

void quantize_scalar(const double* src, double* dst, int64_t n, float scale) {
  const auto sc = static_cast<double>(scale);
  const double inv = 1.0 / sc;
  for (int64_t i = 0; i < n; ++i) dst[i] = quantize_one(src[i], inv, sc);
}

void quantize_feedback_scalar(double* s, double* r, int64_t n, float scale) {
  const auto sc = static_cast<double>(scale);
  const double inv = 1.0 / sc;
  for (int64_t i = 0; i < n; ++i) {
    const double q = quantize_one(s[i], inv, sc);
    r[i] = s[i] - q;
    s[i] = q;
  }
}

const Kernels kScalar{"scalar", max_abs_scalar, add_max_abs_scalar,
                      quantize_scalar, quantize_feedback_scalar};

#if COMDML_SIMD_X86
// The vector ops are chosen to match the scalar loop bit for bit:
//   - _mm256_round_pd(., NEAREST_INT | NO_EXC) is nearbyint in the default
//     rounding mode (ties to even, -0.0 kept). The x + 1.5 * 2^52 rounding
//     trick is not: it turns -0.0 into +0.0.
//   - max_pd/min_pd return their second operand when either is NaN, so
//     max_pd(|x|, acc) skips a NaN the way std::max(acc, |x|) does, and
//     min_pd(127, max_pd(-127, q)) passes a NaN q through like std::clamp.
//   - No FMA: the target is avx2 alone, so a product is never fused into
//     the residual's subtraction.

__attribute__((target("avx2"))) inline __m256d abs4(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// Largest lane of accumulators that never hold NaN.
__attribute__((target("avx2"))) inline double max_lane(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
}

__attribute__((target("avx2"))) inline __m256d quantize4(__m256d x,
                                                         __m256d inv,
                                                         __m256d sc) {
  const __m256d q = _mm256_round_pd(_mm256_mul_pd(x, inv),
                                    _MM_FROUND_TO_NEAREST_INT |
                                        _MM_FROUND_NO_EXC);
  const __m256d c = _mm256_min_pd(_mm256_set1_pd(127.0),
                                  _mm256_max_pd(_mm256_set1_pd(-127.0), q));
  return _mm256_mul_pd(sc, c);
}

__attribute__((target("avx2"))) double max_abs_avx2(const double* v,
                                                    int64_t n) {
  // Four accumulators hide the max latency; lanes never see NaN.
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = a0;
  __m256d a2 = a0;
  __m256d a3 = a0;
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    a0 = _mm256_max_pd(abs4(_mm256_loadu_pd(v + i)), a0);
    a1 = _mm256_max_pd(abs4(_mm256_loadu_pd(v + i + 4)), a1);
    a2 = _mm256_max_pd(abs4(_mm256_loadu_pd(v + i + 8)), a2);
    a3 = _mm256_max_pd(abs4(_mm256_loadu_pd(v + i + 12)), a3);
  }
  for (; i + 4 <= n; i += 4)
    a0 = _mm256_max_pd(abs4(_mm256_loadu_pd(v + i)), a0);
  double m = max_lane(
      _mm256_max_pd(_mm256_max_pd(a0, a1), _mm256_max_pd(a2, a3)));
  for (; i < n; ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

__attribute__((target("avx2"))) double add_max_abs_avx2(double* s,
                                                        const double* r,
                                                        int64_t n) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = a0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d s0 =
        _mm256_add_pd(_mm256_loadu_pd(s + i), _mm256_loadu_pd(r + i));
    const __m256d s1 =
        _mm256_add_pd(_mm256_loadu_pd(s + i + 4), _mm256_loadu_pd(r + i + 4));
    _mm256_storeu_pd(s + i, s0);
    _mm256_storeu_pd(s + i + 4, s1);
    a0 = _mm256_max_pd(abs4(s0), a0);
    a1 = _mm256_max_pd(abs4(s1), a1);
  }
  double m = max_lane(_mm256_max_pd(a0, a1));
  for (; i < n; ++i) {
    s[i] += r[i];
    m = std::max(m, std::fabs(s[i]));
  }
  return m;
}

__attribute__((target("avx2"))) void quantize_avx2(const double* src,
                                                   double* dst, int64_t n,
                                                   float scale) {
  const auto sc = static_cast<double>(scale);
  const double inv = 1.0 / sc;
  const __m256d inv4 = _mm256_set1_pd(inv);
  const __m256d sc4 = _mm256_set1_pd(sc);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, quantize4(_mm256_loadu_pd(src + i), inv4, sc4));
  for (; i < n; ++i) dst[i] = quantize_one(src[i], inv, sc);
}

__attribute__((target("avx2"))) void quantize_feedback_avx2(double* s,
                                                            double* r,
                                                            int64_t n,
                                                            float scale) {
  const auto sc = static_cast<double>(scale);
  const double inv = 1.0 / sc;
  const __m256d inv4 = _mm256_set1_pd(inv);
  const __m256d sc4 = _mm256_set1_pd(sc);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(s + i);
    const __m256d q = quantize4(x, inv4, sc4);
    _mm256_storeu_pd(r + i, _mm256_sub_pd(x, q));
    _mm256_storeu_pd(s + i, q);
  }
  for (; i < n; ++i) {
    const double q = quantize_one(s[i], inv, sc);
    r[i] = s[i] - q;
    s[i] = q;
  }
}

const Kernels kAvx2{"avx2", max_abs_avx2, add_max_abs_avx2, quantize_avx2,
                    quantize_feedback_avx2};
#endif  // COMDML_SIMD_X86

const Kernels* resolve_avx2() {
#if COMDML_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return nullptr;
}

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

const Kernels* avx2_kernels() {
  static const Kernels* const selected = resolve_avx2();
  return selected;
}

const Kernels& kernels() {
  static const Kernels& selected =
      avx2_kernels() != nullptr ? *avx2_kernels() : kScalar;
  return selected;
}

float wire_scale(double max_abs) {
  if (max_abs == 0.0) return 0.0f;
  const auto scale = static_cast<float>(max_abs / 127.0);
  if (!std::isfinite(scale) || scale < std::numeric_limits<float>::min())
    return 0.0f;
  return scale;
}

}  // namespace comdml::comm::int8
