// Activation wire-compression codec tests: lossless structure, bounded
// quantization error, and the achieved ratio on real post-ReLU activations
// (the basis of FleetOptions::comms.activation_compression).
#include <gtest/gtest.h>

#include "comm/compress.hpp"
#include "nn/resnet.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace comdml::comm {
namespace {

using tensor::Rng;
using tensor::Tensor;

TEST(Compress, AllZerosCollapse) {
  const Tensor t({1, 4, 8, 8});
  const auto c = compress_activations(t);
  EXPECT_TRUE(c.values.empty());
  EXPECT_GT(compression_ratio(t), 10.0);  // bitmask + header only
  EXPECT_TRUE(tensor::allclose(decompress_activations(c), t));
}

TEST(Compress, RoundTripPreservesZerosAndBoundsError) {
  Rng rng(1);
  Tensor t = rng.normal_tensor({2, 3, 8, 8}, 0, 1);
  // ReLU it.
  float max_val = 0.0f;
  for (float& v : t.flat()) {
    v = std::max(v, 0.0f);
    max_val = std::max(max_val, v);
  }
  const Tensor back = decompress_activations(compress_activations(t));
  auto a = t.flat();
  auto b = back.flat();
  const float step = max_val / 255.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0.0f) {
      EXPECT_EQ(b[i], 0.0f) << i;  // zeros stay zeros
    }
    EXPECT_NEAR(a[i], b[i], step) << i;  // sub-step positives may drop to 0
  }
}

TEST(Compress, QuantizationErrorBounded) {
  Rng rng(2);
  Tensor t = rng.uniform_tensor({4, 16, 8, 8}, 0.0f, 3.0f);
  for (float& v : t.flat())
    if (v < 1.0f) v = 0.0f;  // sparsify
  // Error bound: half a quantization step = max/255/2.
  EXPECT_LT(reconstruction_error(t), 3.0 / 255.0);
}

TEST(Compress, NegativesQuantizeToZeroLikeRelu) {
  const Tensor t({4}, {-1.0f, 2.0f, -0.5f, 1.0f});
  const Tensor back = decompress_activations(compress_activations(t));
  EXPECT_FLOAT_EQ(back[0], 0.0f);
  EXPECT_FLOAT_EQ(back[2], 0.0f);
  EXPECT_NEAR(back[1], 2.0f, 2.0 / 255.0);
}

TEST(Compress, LongZeroRunsHandled) {
  Tensor t({1000});
  t[999] = 5.0f;  // 999 zeros then one value: multiple 255-length runs
  const Tensor back = decompress_activations(compress_activations(t));
  EXPECT_TRUE(tensor::allclose(back, t, 5.0f / 255.0f));
}

TEST(Compress, DenseWorstCaseStillBeatsFloat) {
  Rng rng(3);
  const Tensor t = rng.uniform_tensor({4096}, 0.1f, 1.0f);  // no zeros
  // Every value is one int8 byte vs four float bytes, plus the 1-bit mask:
  // ratio ~ 4 / 1.125.
  const double ratio = compression_ratio(t);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 4.0);
}

TEST(Compress, RealReluActivationsReachModelledRatio) {
  // The timing model assumes ~8x on post-ReLU activation streams; verify
  // on activations from a real (untrained) ResNet cut.
  Rng rng(4);
  auto net = nn::tiny_resnet(10, rng);
  const Tensor x = rng.normal_tensor({8, 3, 8, 8}, 0, 1);
  const Tensor h = net->forward_range(x, 0, 1, false);  // post-ReLU stem
  const double ratio = compression_ratio(h);
  EXPECT_GT(ratio, 5.0);  // ~6.4x at the ~50% sparsity ReLU produces
}

TEST(Compress, WireBytesAccounting) {
  Rng rng(5);
  Tensor t = rng.normal_tensor({2, 8}, 0, 1);
  for (float& v : t.flat()) v = std::max(v, 0.0f);
  const auto c = compress_activations(t);
  EXPECT_EQ(c.wire_bytes(),
            static_cast<int64_t>(sizeof(uint32_t) + 2 * sizeof(int64_t) +
                                 sizeof(float) + c.runs.size() +
                                 c.values.size()));
}

TEST(Compress, CorruptStreamRejected) {
  Rng rng(6);
  Tensor t = rng.uniform_tensor({16}, 0.1f, 1.0f);
  auto c = compress_activations(t);
  c.runs.push_back(200);  // claims more zeros than the tensor holds
  EXPECT_THROW((void)decompress_activations(c), std::invalid_argument);
}

TEST(Compress, RatioMatchesEncodedWireBytes) {
  // compression_ratio counts what compress_activations would emit without
  // building it; both must agree to the last byte on every input class.
  Rng rng(6);
  std::vector<Tensor> inputs;
  for (const int64_t n : {1, 7, 8, 9, 1000, 4099})
    inputs.push_back(rng.normal_tensor({n}, 0, 1));  // mixed signs
  inputs.push_back(rng.normal_tensor({3, 5, 7}, 0, 1));
  Tensor negative = rng.uniform_tensor({2, 4, 8, 8}, -3.0f, -0.1f);
  inputs.push_back(negative);  // nothing present, scale falls back to 1
  // Sub-resolution: one large value makes every other positive round to
  // level 0, so the positive count overstates the value stream.
  Tensor sub = rng.uniform_tensor({4, 16, 8, 8}, 0.0f, 1e-3f);
  sub[5] = 1000.0f;
  inputs.push_back(sub);
  for (const Tensor& t : inputs) {
    const double expected =
        static_cast<double>(t.nbytes()) /
        static_cast<double>(compress_activations(t).wire_bytes());
    EXPECT_EQ(compression_ratio(t), expected)
        << tensor::shape_str(t.shape());
  }
  EXPECT_EQ(compress_activations(sub).values.size(), 1u);
  EXPECT_TRUE(compress_activations(negative).values.empty());
}

}  // namespace
}  // namespace comdml::comm
