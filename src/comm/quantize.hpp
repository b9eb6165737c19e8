// Symmetric int8 quantization kernels behind comm::QuantizingCodec.
//
// A payload v[0, n) travels as one fp32 scale plus one int8 per element:
//   scale = fp32(max|v| / 127)
//   q[i]  = clamp(nearbyint(v[i] * (1 / scale)), -127, 127)
// and the receiver reads scale * q[i]. Encoding takes two passes over the
// payload: a max-|v| scan, then a quantize that reads a source span and
// writes the delivered values into a destination span. The error-feedback
// pair folds the carried residual into the same two passes: the scan adds
// it (s += r) and the quantize keeps the fresh error (r = s - Q(s)).
//
// Every kernel exists twice: a scalar loop, which is the reference and the
// fallback, and an AVX2 one, selected once per process by CPU detection
// (compiled only when COMDML_SIMD is on, as the GEMM micro-kernel is). The
// AVX2 kernels are bit-identical to the scalar ones for every input,
// including -0.0, exact .5 ties, NaN and +-Inf elements.
#pragma once

#include <cstdint>

namespace comdml::comm::int8 {

/// One implementation of the four kernels.
struct Kernels {
  const char* name;  ///< "avx2" or "scalar"
  /// max over i of |v[i]|, ignoring NaN elements; 0 for an empty span.
  double (*max_abs)(const double* v, int64_t n);
  /// s[i] += r[i] for every i, then max_abs of the sums.
  double (*add_max_abs)(double* s, const double* r, int64_t n);
  /// dst[i] = scale * clamp(nearbyint(src[i] * (1 / scale)), -127, 127).
  /// `src == dst` quantizes in place; otherwise the spans must not overlap.
  void (*quantize)(const double* src, double* dst, int64_t n, float scale);
  /// With q = the quantize of s[i]: r[i] = s[i] - q, then s[i] = q.
  void (*quantize_feedback)(double* s, double* r, int64_t n, float scale);
};

/// The scalar reference kernels.
[[nodiscard]] const Kernels& scalar_kernels();
/// The AVX2 kernels, or nullptr when they are not compiled in or this CPU
/// lacks AVX2.
[[nodiscard]] const Kernels* avx2_kernels();
/// The kernels this process uses: AVX2 where available, else scalar.
[[nodiscard]] const Kernels& kernels();

/// The fp32 wire scale for a payload whose max |v| is `max_abs`, or 0 when
/// the payload ships unquantized: all zeros (exact already), or a dynamic
/// range the fp32 scale header cannot carry. An Inf element would turn
/// every finite one into NaN (1 / scale = 0, inf * 0), and a sub-fp32-normal
/// range would map zeros through 0 * inf.
[[nodiscard]] float wire_scale(double max_abs);

}  // namespace comdml::comm::int8
