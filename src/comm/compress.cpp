#include "comm/compress.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace comdml::comm {

namespace {

/// Header: rank + dims + scale; then presence bitmask and value stream.
int64_t wire_bytes_of(size_t rank, size_t mask_bytes, size_t values) {
  return static_cast<int64_t>(sizeof(uint32_t) + rank * sizeof(int64_t) +
                              sizeof(float) + mask_bytes + values);
}

/// Pass 1 of the codec: the max for the quantization scale, plus the
/// positive count that bounds the value stream.
struct ScaleScan {
  float scale = 1.0f;
  size_t positives = 0;
};

ScaleScan scan_scale(std::span<const float> flat) {
  float max_val = 0.0f;
  ScaleScan scan;
  for (const float v : flat) {
    max_val = std::max(max_val, v);
    scan.positives += v > 0.0f ? 1 : 0;
  }
  scan.scale = max_val > 0.0f ? max_val / 255.0f : 1.0f;
  return scan;
}

/// Quantized level of one element; the element is sent iff it is >= 1
/// (which implies the element is > 0).
float quantize(float v, float inv_scale) { return std::round(v * inv_scale); }

}  // namespace

int64_t CompressedActivations::wire_bytes() const {
  return wire_bytes_of(shape.size(), runs.size(), values.size());
}

CompressedActivations compress_activations(const Tensor& t) {
  CompressedActivations out;
  out.shape = t.shape();
  const auto flat = t.flat();

  // Pass 1 sizes the value stream exactly once (no push_back
  // reallocation).
  const ScaleScan scan = scan_scale(flat);
  out.scale = scan.scale;
  const float inv_scale = 1.0f / out.scale;

  // Pass 2, branch-free: presence bitmask (1 bit/element, stored in
  // `runs`) + one int8 per present element. A value is "present" if it
  // quantizes to a non-zero level — sub-resolution positives are dropped
  // like zeros. Each element unconditionally writes its clamped level at
  // the stream cursor and advances the cursor by the presence bit
  // (compaction without a branch); the extra slot absorbs the write of a
  // trailing absent element.
  out.runs.resize((flat.size() + 7) / 8);
  out.values.resize(scan.positives + 1);
  size_t vi = 0;
  for (size_t byte = 0; byte < out.runs.size(); ++byte) {
    const size_t i0 = byte * 8;
    const size_t lanes = std::min<size_t>(8, flat.size() - i0);
    uint8_t mask = 0;
    for (size_t b = 0; b < lanes; ++b) {
      const float q = quantize(flat[i0 + b], inv_scale);
      const bool present = q >= 1.0f;
      mask |= static_cast<uint8_t>(present) << b;
      out.values[vi] = static_cast<uint8_t>(std::clamp(q, 1.0f, 255.0f));
      vi += present;
    }
    out.runs[byte] = mask;
  }
  out.values.resize(vi);  // shrink, never reallocates
  return out;
}

Tensor decompress_activations(const CompressedActivations& c) {
  Tensor out(c.shape);
  auto flat = out.flat();
  COMDML_REQUIRE(c.runs.size() == (flat.size() + 7) / 8,
                 "corrupt activation stream: bitmask size "
                     << c.runs.size() << " for " << flat.size()
                     << " elements");
  size_t vi = 0;
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!(c.runs[i / 8] & (1u << (i % 8)))) continue;
    COMDML_REQUIRE(vi < c.values.size(),
                   "corrupt activation stream: value underrun at " << i);
    flat[i] = c.scale * static_cast<float>(c.values[vi++]);
  }
  COMDML_REQUIRE(vi == c.values.size(),
                 "corrupt activation stream: " << c.values.size() - vi
                                               << " trailing values");
  return out;
}

double compression_ratio(const Tensor& t) {
  // The codec's two passes without their output: the scale scan, then a
  // count of the elements the value stream would carry.
  const auto flat = t.flat();
  const float inv_scale = 1.0f / scan_scale(flat).scale;
  size_t present = 0;
  for (const float v : flat) present += quantize(v, inv_scale) >= 1.0f;
  return static_cast<double>(t.nbytes()) /
         static_cast<double>(
             wire_bytes_of(t.rank(), (flat.size() + 7) / 8, present));
}

double reconstruction_error(const Tensor& t) {
  const Tensor back = decompress_activations(compress_activations(t));
  double worst = 0.0;
  auto a = t.flat();
  auto b = back.flat();
  for (size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst,
                     static_cast<double>(std::fabs(std::max(a[i], 0.0f) -
                                                   b[i])));
  return worst;
}

}  // namespace comdml::comm
