// Layer-level tests: shape contracts, analytic-vs-numeric gradients, cost
// descriptors, and state collection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "core/parallel.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/norm.hpp"
#include "nn/resnet.hpp"
#include "test_util.hpp"

namespace comdml::nn {
namespace {

using comdml::testing::away_from_zero;
using comdml::testing::grads_of;
using comdml::testing::input_grad_error;
using comdml::testing::param_grad_error;
using comdml::testing::same_bits;

constexpr double kGradTol = 5e-2;

// ---- Linear -----------------------------------------------------------------

TEST(Linear, ForwardShape) {
  Rng rng(1);
  Linear fc(8, 3, rng);
  const Tensor y = fc.forward(rng.normal_tensor({5, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({5, 3}));
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear fc(8, 3, rng);
  EXPECT_THROW((void)fc.forward(Tensor({5, 7}), true),
               std::invalid_argument);
}

TEST(Linear, BiasIsApplied) {
  Rng rng(2);
  Linear fc(2, 2, rng);
  // Zero input isolates the bias (initialised to zero).
  const Tensor y = fc.forward(Tensor({1, 2}), true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
}

TEST(Linear, InputGradientMatchesNumeric) {
  Rng rng(3);
  Linear fc(6, 4, rng);
  const Tensor x = rng.normal_tensor({3, 6}, 0, 1);
  const Tensor g = rng.normal_tensor({3, 4}, 0, 1);
  EXPECT_LT(input_grad_error(fc, x, g), kGradTol);
}

TEST(Linear, ParamGradientMatchesNumeric) {
  Rng rng(4);
  Linear fc(5, 3, rng);
  const Tensor x = rng.normal_tensor({4, 5}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 3}, 0, 1);
  EXPECT_LT(param_grad_error(fc, x, g), kGradTol);
}

TEST(Linear, GradAccumulatesAcrossBatches) {
  Rng rng(5);
  Linear fc(2, 2, rng);
  const Tensor x = rng.normal_tensor({1, 2}, 0, 1);
  const Tensor g = rng.normal_tensor({1, 2}, 0, 1);
  (void)fc.forward(x, true);
  (void)fc.backward(g);
  const Tensor once = fc.parameters()[0]->grad;
  (void)fc.forward(x, true);
  (void)fc.backward(g);
  EXPECT_TRUE(tensor::allclose(fc.parameters()[0]->grad, tensor::scale(once, 2.0f), 1e-4f));
}

TEST(Linear, CostCountsMacsAndParams) {
  Rng rng(6);
  Linear fc(10, 4, rng);
  const LayerCost c = fc.cost({10});
  EXPECT_DOUBLE_EQ(c.flops_forward, 2.0 * 10 * 4);
  EXPECT_EQ(c.param_bytes, (10 * 4 + 4) * 4);
  EXPECT_EQ(c.out_shape, Shape({4}));
}

// ---- ReLU -------------------------------------------------------------------

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor::of({-1.f, 0.f, 2.f}), true);
  EXPECT_EQ(y, Tensor::of({0.f, 0.f, 2.f}));
}

TEST(ReLU, GradientMasksNegatives) {
  ReLU relu;
  (void)relu.forward(Tensor::of({-1.f, 2.f}), true);
  const Tensor dx = relu.backward(Tensor::of({5.f, 5.f}));
  EXPECT_EQ(dx, Tensor::of({0.f, 5.f}));
}

TEST(ReLU, InputGradientMatchesNumeric) {
  Rng rng(7);
  ReLU relu;
  const Tensor x = away_from_zero(rng, {2, 6});
  const Tensor g = rng.normal_tensor({2, 6}, 0, 1);
  EXPECT_LT(input_grad_error(relu, x, g), kGradTol);
}

TEST(ReLU, HasNoParameters) {
  ReLU relu;
  EXPECT_TRUE(relu.parameters().empty());
}

TEST(ReLU, BitMaskSelectMatchesBranchyDefinition) {
  // The forward pass selects by bit mask; it must reproduce, bit for bit,
  // y = x > 0 ? x : 0 and the 1/0 mask of the old branchy loop on every
  // class of float, including NaNs with sign and payload.
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  const float fmax = std::numeric_limits<float>::max();
  const std::vector<float> xs = {
      qnan, -qnan, std::bit_cast<float>(uint32_t{0x7fa00001}),
      std::bit_cast<float>(uint32_t{0xffc00123}), 0.0f, -0.0f, inf, -inf,
      den, -den, fmin / 4, -fmin / 4, fmin, -fmin, 1.5f, -1.5f, fmax, -fmax};
  const auto n = static_cast<int64_t>(xs.size());
  Tensor g({n});
  for (int64_t i = 0; i < n; ++i) g[i] = i % 2 == 0 ? -2.5f : 0.75f;

  ReLU relu;
  const Tensor y = relu.forward(Tensor({n}, xs), true);
  const Tensor dx = relu.backward(g);
  Tensor y_old({n});
  Tensor dx_old({n});
  for (int64_t i = 0; i < n; ++i) {
    const float x = xs[static_cast<size_t>(i)];
    y_old[i] = x > 0.0f ? x : 0.0f;
    dx_old[i] = g[i] * (x > 0.0f ? 1.0f : 0.0f);
  }
  EXPECT_TRUE(same_bits(y, y_old));
  EXPECT_TRUE(same_bits(dx, dx_old));
}

// ---- Flatten / GlobalAvgPool ------------------------------------------------

TEST(Flatten, CollapsesTrailingAxes) {
  Flatten f;
  const Tensor y = f.forward(Tensor({2, 3, 4, 4}), true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
}

TEST(Flatten, BackwardRestoresShape) {
  Flatten f;
  (void)f.forward(Tensor({2, 3, 2, 2}), true);
  const Tensor dx = f.backward(Tensor({2, 12}));
  EXPECT_EQ(dx.shape(), Shape({2, 3, 2, 2}));
}

TEST(GlobalAvgPool, AveragesSpatially) {
  GlobalAvgPool2d pool;
  Tensor x({1, 1, 2, 2}, {1.f, 2.f, 3.f, 6.f});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(GlobalAvgPool, InputGradientMatchesNumeric) {
  Rng rng(8);
  GlobalAvgPool2d pool;
  const Tensor x = rng.normal_tensor({2, 3, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 3}, 0, 1);
  EXPECT_LT(input_grad_error(pool, x, g), kGradTol);
}

TEST(GlobalAvgPool, RejectsRank2) {
  GlobalAvgPool2d pool;
  EXPECT_THROW((void)pool.forward(Tensor({2, 3}), true),
               std::invalid_argument);
}

// ---- Conv2d -----------------------------------------------------------------

TEST(Conv2d, OutputGeometryStride1Pad1) {
  Rng rng(9);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor y = conv.forward(rng.normal_tensor({2, 3, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 8, 8}));
}

TEST(Conv2d, OutputGeometryStride2) {
  Rng rng(10);
  Conv2d conv(4, 6, 3, 2, 1, rng);
  const Tensor y = conv.forward(rng.normal_tensor({1, 4, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({1, 6, 4, 4}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Rng rng(11);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value.fill(1.0f);
  const Tensor x = rng.normal_tensor({1, 1, 3, 3}, 0, 1);
  EXPECT_TRUE(tensor::allclose(conv.forward(x, true), x, 1e-6f));
}

TEST(Conv2d, KnownConvolutionValue) {
  Rng rng(12);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.parameters()[0]->value.fill(1.0f);  // box filter
  Tensor x({1, 1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(Conv2d, InputGradientMatchesNumeric) {
  Rng rng(13);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({2, 2, 5, 5}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 3, 5, 5}, 0, 1);
  EXPECT_LT(input_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, StridedInputGradientMatchesNumeric) {
  Rng rng(14);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  const Tensor x = rng.normal_tensor({1, 2, 6, 6}, 0, 1);
  const Tensor g = rng.normal_tensor({1, 2, 3, 3}, 0, 1);
  EXPECT_LT(input_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, ParamGradientMatchesNumeric) {
  Rng rng(15);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  const Tensor x = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  EXPECT_LT(param_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, PointwiseConvGradients) {
  Rng rng(16);
  Conv2d conv(4, 2, 1, 1, 0, rng);
  const Tensor x = rng.normal_tensor({2, 4, 3, 3}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 2, 3, 3}, 0, 1);
  EXPECT_LT(input_grad_error(conv, x, g), kGradTol);
  EXPECT_LT(param_grad_error(conv, x, g), kGradTol);
}

TEST(Conv2d, CostMatchesArithmetic) {
  Rng rng(17);
  Conv2d conv(3, 16, 3, 1, 1, rng);
  const LayerCost c = conv.cost({3, 32, 32});
  EXPECT_DOUBLE_EQ(c.flops_forward, 2.0 * 9 * 3 * 16 * 32 * 32);
  EXPECT_EQ(c.out_shape, Shape({16, 32, 32}));
  EXPECT_EQ(c.param_bytes, 16 * 3 * 9 * 4);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(18);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW((void)conv.forward(Tensor({1, 2, 8, 8}), true),
               std::invalid_argument);
}

// ---- BatchNorm2d -------------------------------------------------------------

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(19);
  BatchNorm2d bn(3);
  const Tensor x = rng.normal_tensor({8, 3, 4, 4}, 5.0f, 2.0f);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  const int64_t hw = 16, n = 8;
  auto yo = y.flat();
  for (int64_t c = 0; c < 3; ++c) {
    double mean = 0, var = 0;
    for (int64_t i = 0; i < n; ++i)
      for (int64_t k = 0; k < hw; ++k) mean += yo[(i * 3 + c) * hw + k];
    mean /= static_cast<double>(n * hw);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t k = 0; k < hw; ++k) {
        const double d = yo[(i * 3 + c) * hw + k] - mean;
        var += d * d;
      }
    var /= static_cast<double>(n * hw);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  Rng rng(20);
  BatchNorm2d bn(2);
  // Run several training passes to move the running stats.
  for (int i = 0; i < 20; ++i)
    (void)bn.forward(rng.normal_tensor({4, 2, 3, 3}, 3.0f, 1.0f), true);
  const Tensor x = rng.normal_tensor({4, 2, 3, 3}, 3.0f, 1.0f);
  const Tensor y = bn.forward(x, false);
  // Eval output should be roughly centred (running mean ~3).
  EXPECT_NEAR(tensor::mean(y), 0.0f, 0.35f);
}

TEST(BatchNorm, InputGradientMatchesNumeric) {
  Rng rng(21);
  BatchNorm2d bn(2);
  const Tensor x = rng.normal_tensor({4, 2, 3, 3}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 2, 3, 3}, 0, 1);
  EXPECT_LT(input_grad_error(bn, x, g), kGradTol);
}

TEST(BatchNorm, ParamGradientMatchesNumeric) {
  Rng rng(22);
  BatchNorm2d bn(3);
  const Tensor x = rng.normal_tensor({4, 3, 2, 2}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 3, 2, 2}, 0, 1);
  EXPECT_LT(param_grad_error(bn, x, g), kGradTol);
}

TEST(BatchNorm, StateIncludesRunningStats) {
  BatchNorm2d bn(4);
  std::vector<Tensor*> state;
  bn.collect_state(state);
  EXPECT_EQ(state.size(), 4u);  // gamma, beta, running mean, running var
  EXPECT_EQ(bn.parameters().size(), 2u);
}

// ---- BasicBlock / Sequential -------------------------------------------------

TEST(BasicBlock, IdentityShortcutShape) {
  Rng rng(23);
  BasicBlock block(8, 8, 1, rng);
  const Tensor y =
      block.forward(rng.normal_tensor({2, 8, 4, 4}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(BasicBlock, DownsampleShortcutShape) {
  Rng rng(24);
  BasicBlock block(8, 16, 2, rng);
  const Tensor y =
      block.forward(rng.normal_tensor({2, 8, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 16, 4, 4}));
}

TEST(BasicBlock, InputGradientMatchesNumeric) {
  Rng rng(25);
  BasicBlock block(2, 2, 1, rng);
  const Tensor x = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({2, 2, 4, 4}, 0, 1);
  EXPECT_LT(input_grad_error(block, x, g), kGradTol);
}

TEST(BasicBlock, DownsampleInputGradientMatchesNumeric) {
  Rng rng(26);
  BasicBlock block(2, 4, 2, rng);
  const Tensor x = rng.normal_tensor({1, 2, 4, 4}, 0, 1);
  const Tensor g = rng.normal_tensor({1, 4, 2, 2}, 0, 1);
  EXPECT_LT(input_grad_error(block, x, g), kGradTol);
}

TEST(BasicBlock, ParameterCounts) {
  Rng rng(27);
  BasicBlock identity(8, 8, 1, rng);
  BasicBlock downsample(8, 16, 2, rng);
  // identity: 2 convs + 2 BN(2 params each) = 2 + 4.
  EXPECT_EQ(identity.parameters().size(), 6u);
  // downsample adds a 1x1 conv + BN.
  EXPECT_EQ(downsample.parameters().size(), 9u);
}

TEST(Sequential, ForwardRangeComposes) {
  Rng rng(28);
  auto net = mlp({4, 8, 8, 3}, rng);
  const Tensor x = rng.normal_tensor({2, 4}, 0, 1);
  const Tensor full = net->forward(x, true);
  const Tensor mid = net->forward_range(x, 0, 1, true);
  const Tensor rest = net->forward_range(mid, 1, net->size(), true);
  EXPECT_TRUE(tensor::allclose(full, rest));
}

TEST(Sequential, BadRangeThrows) {
  Rng rng(29);
  auto net = mlp({4, 3}, rng);
  EXPECT_THROW((void)net->forward_range(Tensor({1, 4}), 0, 5, true),
               std::invalid_argument);
}

TEST(Sequential, CompositeGradientMatchesNumeric) {
  Rng rng(30);
  Sequential net;
  net.push(std::make_unique<Linear>(5, 7, rng));
  net.push(std::make_unique<ReLU>());
  net.push(std::make_unique<Linear>(7, 3, rng));
  const Tensor x = away_from_zero(rng, {2, 5});
  const Tensor g = rng.normal_tensor({2, 3}, 0, 1);
  EXPECT_LT(input_grad_error(net, x, g), kGradTol);
  EXPECT_LT(param_grad_error(net, x, g), kGradTol);
}

TEST(Sequential, UnitCostsChainShapes) {
  Rng rng(31);
  auto net = small_cnn(3, 10, rng);
  const auto costs = net->unit_costs({3, 8, 8});
  ASSERT_EQ(costs.size(), net->size());
  EXPECT_EQ(costs.back().out_shape, Shape({10}));
}

TEST(StateHelpers, SaveLoadRoundTrip) {
  Rng rng(32);
  auto a = mlp({4, 6, 3}, rng);
  auto b = mlp({4, 6, 3}, rng);
  const Tensor x = rng.normal_tensor({2, 4}, 0, 1);
  EXPECT_FALSE(
      tensor::allclose(a->forward(x, false), b->forward(x, false)));
  nn::load_state(*b, nn::state_of(*a));
  EXPECT_TRUE(
      tensor::allclose(a->forward(x, false), b->forward(x, false)));
}

TEST(StateHelpers, LoadRejectsArityMismatch) {
  Rng rng(33);
  auto a = mlp({4, 6, 3}, rng);
  auto b = mlp({4, 3}, rng);
  EXPECT_THROW(nn::load_state(*b, nn::state_of(*a)), std::invalid_argument);
}

TEST(StateHelpers, ParameterCountMlp) {
  Rng rng(34);
  auto net = mlp({4, 6, 3}, rng);
  EXPECT_EQ(nn::parameter_count(*net), 4 * 6 + 6 + 6 * 3 + 3);
}


// ---- backward_params ---------------------------------------------------------

/// Runs forward + backward() and then forward + backward_params() from the
/// same non-zero starting gradients (both accumulate) and expects
/// byte-equal parameter gradients.
void expect_backward_params_matches(Module& m, const Tensor& x,
                                    const Tensor& g) {
  Rng rng(99);
  const std::vector<Parameter*> params = m.parameters();
  ASSERT_FALSE(params.empty());
  for (Parameter* p : params) p->grad = rng.normal_tensor(p->grad.shape(), 0, 1);
  const std::vector<Tensor> start = grads_of(m);

  (void)m.forward(x, true);
  (void)m.backward(g);
  const std::vector<Tensor> want = grads_of(m);

  for (size_t i = 0; i < params.size(); ++i) params[i]->grad = start[i];
  (void)m.forward(x, true);
  m.backward_params(g);
  const std::vector<Tensor> got = grads_of(m);
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(same_bits(got[i], want[i]))
        << m.kind() << " parameter " << params[i]->name;
}

TEST(BackwardParams, ConvMatchesBackwardOnBothForwardPaths) {
  // 4 samples: at 1 thread the forward takes the per-sample loop
  // (n >= threads), at 8 threads the batched GEMM (n < threads).
  struct Restore {
    ~Restore() { core::set_num_threads(0); }
  } restore;
  Rng rng(40);
  Conv2d conv(3, 5, 3, 2, 1, rng);
  const Tensor x = rng.normal_tensor({4, 3, 9, 9}, 0, 1);
  const Tensor g = rng.normal_tensor({4, 5, 5, 5}, 0, 1);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    core::set_num_threads(threads);
    expect_backward_params_matches(conv, x, g);
  }
}

TEST(BackwardParams, LinearMatchesBackward) {
  Rng rng(41);
  Linear fc(6, 4, rng);
  expect_backward_params_matches(fc, rng.normal_tensor({3, 6}, 0, 1),
                                 rng.normal_tensor({3, 4}, 0, 1));
}

TEST(BackwardParams, SequentialMatchesBackward) {
  Rng rng(43);
  auto cnn = small_cnn(3, 10, rng);
  expect_backward_params_matches(*cnn, rng.normal_tensor({3, 3, 8, 8}, 0, 1),
                                 rng.normal_tensor({3, 10}, 0, 1));
  auto net = mlp({5, 7, 3}, rng);
  expect_backward_params_matches(*net, rng.normal_tensor({2, 5}, 0, 1),
                                 rng.normal_tensor({2, 3}, 0, 1));
}

TEST(BackwardParams, RangeLeavesUnitsBeforeItUntouched) {
  // backward_params_range(g, 1, end) matches backward_range(g, 1, end)
  // on units [1, end) and, like it, never reaches unit 0.
  Rng rng(44);
  auto net = small_cnn(3, 10, rng);
  const Tensor x = rng.normal_tensor({3, 3, 8, 8}, 0, 1);
  const Tensor g = rng.normal_tensor({3, 10}, 0, 1);
  const Tensor h = net->forward_range(x, 0, 1, true);
  (void)net->forward_range(h, 1, net->size(), true);
  net->zero_grad();
  (void)net->backward_range(g, 1, net->size());
  const std::vector<Tensor> want = grads_of(*net);
  net->zero_grad();
  net->backward_params_range(g, 1, net->size());
  const std::vector<Tensor> got = grads_of(*net);
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(same_bits(got[i], want[i])) << "parameter " << i;
  for (Parameter* p : net->unit(0).parameters())
    EXPECT_EQ(p->grad, Tensor(p->grad.shape()));
  net->backward_params_range(g, 2, 2);  // empty range: no-op
  EXPECT_THROW(net->backward_params_range(g, 2, 1), std::invalid_argument);
}

}  // namespace
}  // namespace comdml::nn
