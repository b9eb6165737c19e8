// Model-level tests: builders, losses, optimizer behaviour, end-to-end
// learning on toy datasets, split training, and architecture specs.
#include <gtest/gtest.h>

#include <functional>

#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "nn/arch_specs.hpp"
#include "nn/loss.hpp"
#include "nn/split.hpp"
#include "test_util.hpp"

namespace comdml::nn {
namespace {

// ---- loss -------------------------------------------------------------------

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(1);
  const Tensor p = softmax(rng.normal_tensor({4, 7}, 0, 3));
  for (int64_t i = 0; i < 4; ++i) {
    double s = 0;
    for (int64_t j = 0; j < 7; ++j) s += p.at({i, j});
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Loss, UniformLogitsGiveLogC) {
  const Tensor logits({2, 10});
  const std::vector<int64_t> labels{3, 7};
  const auto res = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(res.loss, std::log(10.0), 1e-5);
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3});
  logits.at({0, 2}) = 50.0f;
  const std::vector<int64_t> labels{2};
  const auto res = softmax_cross_entropy(logits, labels);
  EXPECT_LT(res.loss, 1e-4);
  EXPECT_FLOAT_EQ(res.accuracy, 1.0f);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(2);
  const Tensor logits = rng.normal_tensor({3, 5}, 0, 2);
  const std::vector<int64_t> labels{0, 2, 4};
  const auto res = softmax_cross_entropy(logits, labels);
  for (int64_t i = 0; i < 3; ++i) {
    double s = 0;
    for (int64_t j = 0; j < 5; ++j) s += res.grad_logits.at({i, j});
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesNumeric) {
  Rng rng(3);
  Tensor logits = rng.normal_tensor({2, 4}, 0, 1);
  const std::vector<int64_t> labels{1, 3};
  const auto res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-2f;
  for (int64_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + eps;
    const float up = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig - eps;
    const float down = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), res.grad_logits[i], 5e-3);
  }
}

TEST(Loss, RejectsBadLabel) {
  const Tensor logits({1, 3});
  const std::vector<int64_t> labels{3};
  EXPECT_THROW((void)softmax_cross_entropy(logits, labels),
               std::invalid_argument);
}

// ---- optimizer ----------------------------------------------------------------

TEST(SGD, PlainStepDescends) {
  Parameter p("w", Tensor::of({1.0f}));
  p.grad[0] = 2.0f;
  SGD opt({&p}, {0.1f, 0.0f, 0.0f});
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 2.0f, 1e-6);
}

TEST(SGD, MomentumAccumulates) {
  Parameter p("w", Tensor::of({0.0f}));
  SGD opt({&p}, {0.1f, 0.9f, 0.0f});
  p.grad[0] = 1.0f;
  opt.step();  // v = -0.1, w = -0.1
  p.grad[0] = 1.0f;
  opt.step();  // v = -0.19, w = -0.29
  EXPECT_NEAR(p.value[0], -0.29f, 1e-5);
}

TEST(SGD, VelocityMovedIntoANewOptimizerContinuesMomentum) {
  Parameter a("w", Tensor::of({0.5f, -1.0f}));
  Parameter b("w", Tensor::of({0.5f, -1.0f}));
  SGD one({&a}, {0.1f, 0.9f, 0.01f});
  SGD first({&b}, {0.1f, 0.9f, 0.01f});
  for (int i = 0; i < 3; ++i) {
    a.grad[0] = b.grad[0] = 0.3f * static_cast<float>(i + 1);
    a.grad[1] = b.grad[1] = -0.7f;
    one.step();
    if (i < 2) first.step();
  }
  // The third step runs on a rebuilt optimizer that took the momentum.
  SGD second({&b}, {0.1f, 0.9f, 0.01f}, first.take_velocity());
  second.step();
  EXPECT_EQ(a.value, b.value);
  EXPECT_THROW(SGD({&b}, {0.1f, 0.9f, 0.0f}, {Tensor({3}, 0.0f)}),
               std::invalid_argument);
}

TEST(SGD, WeightDecayShrinksWeights) {
  Parameter p("w", Tensor::of({10.0f}));
  p.grad[0] = 0.0f;
  SGD opt({&p}, {0.1f, 0.0f, 0.5f});
  opt.step();
  EXPECT_LT(p.value[0], 10.0f);
}

TEST(SGD, MinimizesQuadratic) {
  // f(w) = (w - 3)^2; grad = 2(w-3).
  Parameter p("w", Tensor::of({0.0f}));
  SGD opt({&p}, {0.05f, 0.9f, 0.0f});
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2);
}

TEST(SGD, InvalidOptionsThrow) {
  Parameter p("w", Tensor::of({0.0f}));
  EXPECT_THROW(SGD({&p}, {-0.1f, 0.9f, 0.0f}), std::invalid_argument);
  EXPECT_THROW(SGD({&p}, {0.1f, 1.0f, 0.0f}), std::invalid_argument);
}

TEST(PlateauScheduler, DecaysAfterPatience) {
  PlateauScheduler sched(0.2f, 3);
  EXPECT_FLOAT_EQ(sched.observe(0.5f), 1.0f);  // new best
  EXPECT_FLOAT_EQ(sched.observe(0.5f), 1.0f);  // stale 1
  EXPECT_FLOAT_EQ(sched.observe(0.5f), 1.0f);  // stale 2
  EXPECT_FLOAT_EQ(sched.observe(0.5f), 0.2f);  // stale 3 -> decay
}

TEST(PlateauScheduler, ImprovementResetsPatience) {
  PlateauScheduler sched(0.5f, 2);
  (void)sched.observe(0.1f);
  (void)sched.observe(0.1f);     // stale 1
  (void)sched.observe(0.3f);     // improvement resets
  EXPECT_FLOAT_EQ(sched.observe(0.3f), 1.0f);  // stale 1 again
}

// ---- builders -----------------------------------------------------------------

TEST(Builders, Resnet56UnitCount) {
  Rng rng(4);
  auto net = resnet56(10, rng);
  EXPECT_EQ(net->size(), 29u);  // stem + 27 blocks + head
}

TEST(Builders, Resnet110UnitCount) {
  Rng rng(5);
  auto net = resnet110(10, rng);
  EXPECT_EQ(net->size(), 56u);  // stem + 54 blocks + head
}

TEST(Builders, Resnet56ParameterCount) {
  Rng rng(6);
  auto net = resnet56(10, rng);
  // The canonical CIFAR ResNet-56 has ~0.85M parameters.
  const int64_t params = parameter_count(*net);
  EXPECT_GT(params, 800'000);
  EXPECT_LT(params, 900'000);
}

TEST(Builders, TinyResnetForwardShape) {
  Rng rng(7);
  auto net = tiny_resnet(4, rng);
  const Tensor y =
      net->forward(rng.normal_tensor({2, 3, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 4}));
}

TEST(Builders, SmallCnnForwardShape) {
  Rng rng(8);
  auto net = small_cnn(3, 5, rng);
  const Tensor y =
      net->forward(rng.normal_tensor({3, 3, 8, 8}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({3, 5}));
}

TEST(Builders, MlpNeedsTwoWidths) {
  Rng rng(9);
  EXPECT_THROW((void)mlp({4}, rng), std::invalid_argument);
}

// ---- end-to-end learning -------------------------------------------------------

TEST(Learning, MlpLearnsBlobs) {
  Rng rng(10);
  auto ds = data::make_blobs(256, 3, 8, 0.3f, rng);
  auto net = mlp({8, 16, 3}, rng);
  SGD opt(net->parameters(), {0.1f, 0.9f, 0.0f});
  for (int epoch = 0; epoch < 30; ++epoch)
    (void)train_batch_full(*net, opt, ds.images, ds.labels);
  EXPECT_GT(evaluate_accuracy(*net, ds.images, ds.labels), 0.95f);
}

TEST(Learning, MlpLearnsSpiralsNonConvex) {
  Rng rng(11);
  auto ds = data::make_spirals(120, 2, 0.02f, rng);
  auto net = mlp({2, 48, 48, 2}, rng);
  SGD opt(net->parameters(), {0.1f, 0.9f, 0.0f});
  float first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const auto res = train_batch_full(*net, opt, ds.images, ds.labels);
    if (epoch == 0) first_loss = res.loss;
    last_loss = res.loss;
  }
  EXPECT_LT(last_loss, 0.5f * first_loss);
  EXPECT_GT(evaluate_accuracy(*net, ds.images, ds.labels), 0.85f);
}

TEST(Learning, SmallCnnLearnsSyntheticImages) {
  Rng rng(12);
  auto ds = data::make_synthetic_images(96, 4, {3, 8, 8}, 0.4f, rng);
  auto net = small_cnn(3, 4, rng);
  SGD opt(net->parameters(), {0.05f, 0.9f, 0.0f});
  for (int epoch = 0; epoch < 40; ++epoch)
    (void)train_batch_full(*net, opt, ds.images, ds.labels);
  EXPECT_GT(evaluate_accuracy(*net, ds.images, ds.labels), 0.9f);
}

// ---- split training -------------------------------------------------------------

TEST(SplitTraining, AuxHeadShapesForConvFeatures) {
  Rng rng(13);
  auto head = make_aux_head({16, 4, 4}, 10, rng);
  const Tensor y =
      head->forward(rng.normal_tensor({2, 16, 4, 4}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(SplitTraining, AuxHeadShapesForFlatFeatures) {
  Rng rng(14);
  auto head = make_aux_head({32}, 5, rng);
  const Tensor y = head->forward(rng.normal_tensor({3, 32}, 0, 1), true);
  EXPECT_EQ(y.shape(), Shape({3, 5}));
}

TEST(SplitTraining, RejectsDegenerateCuts) {
  Rng rng(15);
  auto net = mlp({4, 8, 8, 2}, rng);
  EXPECT_THROW(
      LocalLossSplitTrainer(*net, 0, {4}, 2, rng, {0.05f, 0.9f, 0.0f}),
      std::invalid_argument);
  EXPECT_THROW(LocalLossSplitTrainer(*net, net->size(), {4}, 2, rng,
                                     {0.05f, 0.9f, 0.0f}),
               std::invalid_argument);
}

TEST(SplitTraining, BothSidesLearn) {
  Rng rng(16);
  auto ds = data::make_blobs(200, 3, 8, 0.3f, rng);
  auto net = mlp({8, 16, 16, 3}, rng);
  LocalLossSplitTrainer split(*net, 1, {8}, 3, rng, {0.1f, 0.9f, 0.0f});
  float first_slow = 0, first_fast = 0, last_slow = 0, last_fast = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const auto s = split.train_batch(ds.images, ds.labels);
    if (epoch == 0) {
      first_slow = s.slow_loss;
      first_fast = s.fast_loss;
    }
    last_slow = s.slow_loss;
    last_fast = s.fast_loss;
  }
  EXPECT_LT(last_slow, 0.7f * first_slow);
  EXPECT_LT(last_fast, 0.7f * first_fast);
  EXPECT_GT(evaluate_accuracy(*net, ds.images, ds.labels), 0.9f);
}

TEST(SplitTraining, IntermediateBytesMatchCutWidth) {
  Rng rng(17);
  auto net = mlp({8, 16, 3}, rng);
  LocalLossSplitTrainer split(*net, 1, {8}, 3, rng, {0.1f, 0.9f, 0.0f});
  Rng drng(18);
  auto ds = data::make_blobs(32, 3, 8, 0.3f, drng);
  const auto stats = split.train_batch(ds.images, ds.labels);
  EXPECT_EQ(stats.intermediate_bytes, 32 * 16 * 4);
}

TEST(SplitTraining, SplitCnnLearns) {
  Rng rng(19);
  auto ds = data::make_synthetic_images(96, 3, {3, 8, 8}, 0.4f, rng);
  auto net = small_cnn(3, 3, rng);
  LocalLossSplitTrainer split(*net, 1, {3, 8, 8}, 3, rng,
                              {0.05f, 0.9f, 0.0f});
  for (int epoch = 0; epoch < 40; ++epoch)
    (void)split.train_batch(ds.images, ds.labels);
  EXPECT_GT(evaluate_accuracy(*net, ds.images, ds.labels), 0.85f);
}

// ---- training steps that skip dropped input gradients ------------------------
//
// train_batch_full* and the split trainer route the unit whose input
// gradient nobody reads through Module::backward_params(). These tests pin
// them to hand-written reference steps that call backward() everywhere, bit
// for bit, over 5 steps at 1 and 4 threads.

struct StepCase {
  const char* name;
  std::function<std::unique_ptr<Sequential>(Rng&)> make;
  Shape in_shape;  // per sample
  size_t cut;
};

std::vector<StepCase> step_cases() {
  // Cuts put a conv stack, a BasicBlock (default backward_params) and a
  // Linear first on the fast side. Batches of 3 take the batched conv
  // forward at 4 threads and the per-sample loop at 1.
  return {
      {"small_cnn", [](Rng& r) { return small_cnn(3, 4, r); }, {3, 8, 8}, 1},
      {"tiny_resnet", [](Rng& r) { return tiny_resnet(4, r); }, {3, 8, 8},
       2},
      {"mlp", [](Rng& r) { return mlp({6, 10, 8, 4}, r); }, {6}, 1},
  };
}

constexpr SGD::Options kStepSgd{0.05f, 0.9f, 1e-4f};
constexpr int kSteps = 5;

struct StepData {
  Tensor x;
  std::vector<int64_t> labels;
};

StepData step_data(const StepCase& c) {
  Rng rng(50);
  Shape shape = c.in_shape;
  shape.insert(shape.begin(), 3);
  return {rng.normal_tensor(shape, 0, 1), {0, 3, 1}};
}

std::vector<size_t> unit_param_counts(Sequential& model) {
  std::vector<size_t> out;
  for (size_t u = 0; u < model.size(); ++u)
    out.push_back(model.unit(u).parameters().size());
  return out;
}

bool same_states(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!comdml::testing::same_bits(a[i], b[i])) return false;
  return true;
}

struct ThreadRestore {
  ~ThreadRestore() { core::set_num_threads(0); }
};

/// Final state of a full-model run: `mode` 0 is the reference loop that
/// computes every input gradient, 1 train_batch_full, 2 its notify twin.
std::vector<Tensor> run_full(const StepCase& c, int mode) {
  Rng rng(51);
  auto model = c.make(rng);
  SGD opt(model->parameters(), kStepSgd);
  const StepData d = step_data(c);
  const std::vector<size_t> counts = unit_param_counts(*model);
  for (int s = 0; s < kSteps; ++s) {
    if (mode == 0) {
      opt.zero_grad();
      const LossResult res =
          softmax_cross_entropy(model->forward(d.x, true), d.labels);
      (void)model->backward(res.grad_logits);
      opt.step();
    } else if (mode == 1) {
      (void)train_batch_full(*model, opt, d.x, d.labels);
    } else {
      (void)train_batch_full_notify(*model, opt, d.x, d.labels, counts,
                                    nullptr);
    }
  }
  return state_of(*model);
}

/// Final state (model, then aux head) of a split run: `mode` 0 is the
/// reference loop, 1 train_batch, 2 train_batch_notify.
std::vector<Tensor> run_split(const StepCase& c, int mode) {
  Rng rng(52);
  auto model = c.make(rng);
  LocalLossSplitTrainer split(*model, c.cut, c.in_shape, 4, rng, kStepSgd);
  const StepData d = step_data(c);
  const std::vector<size_t> counts = unit_param_counts(*model);
  const size_t end = model->size();
  for (int s = 0; s < kSteps; ++s) {
    if (mode == 0) {
      split.slow_optimizer().zero_grad();
      const Tensor h = model->forward_range(d.x, 0, c.cut, true);
      const LossResult slow = softmax_cross_entropy(
          split.aux_head().forward(h, true), d.labels);
      (void)model->backward_range(split.aux_head().backward(slow.grad_logits),
                                  0, c.cut);
      split.slow_optimizer().step();
      split.fast_optimizer().zero_grad();
      const LossResult fast = softmax_cross_entropy(
          model->forward_range(h, c.cut, end, true), d.labels);
      (void)model->backward_range(fast.grad_logits, c.cut, end);
      split.fast_optimizer().step();
    } else if (mode == 1) {
      (void)split.train_batch(d.x, d.labels);
    } else {
      (void)split.train_batch_notify(d.x, d.labels, counts, nullptr);
    }
  }
  std::vector<Tensor> out = state_of(*model);
  for (Tensor& t : state_of(split.aux_head())) out.push_back(std::move(t));
  return out;
}

TEST(BackwardParamsSteps, FullStepsMatchReferenceAtAnyThreadCount) {
  ThreadRestore restore;
  for (const StepCase& c : step_cases()) {
    core::set_num_threads(1);
    const std::vector<Tensor> want = run_full(c, 0);
    for (const int threads : {1, 4}) {
      core::set_num_threads(threads);
      for (const int mode : {0, 1, 2})
        EXPECT_TRUE(same_states(run_full(c, mode), want))
            << c.name << " mode " << mode << " at " << threads << " threads";
    }
  }
}

TEST(BackwardParamsSteps, SplitStepsMatchReferenceAtAnyThreadCount) {
  ThreadRestore restore;
  for (const StepCase& c : step_cases()) {
    core::set_num_threads(1);
    const std::vector<Tensor> want = run_split(c, 0);
    for (const int threads : {1, 4}) {
      core::set_num_threads(threads);
      for (const int mode : {0, 1, 2})
        EXPECT_TRUE(same_states(run_split(c, mode), want))
            << c.name << " mode " << mode << " at " << threads << " threads";
    }
  }
}

// ---- architecture specs ----------------------------------------------------------

TEST(ArchSpec, Resnet56HasDepthUnits) {
  const auto spec = resnet56_spec();
  EXPECT_EQ(spec.size(), 56u);
}

TEST(ArchSpec, Resnet110HasDepthUnits) {
  const auto spec = resnet110_spec();
  EXPECT_EQ(spec.size(), 110u);
}

TEST(ArchSpec, RejectsNonResnetDepth) {
  EXPECT_THROW((void)resnet_cifar_spec(57, 10), std::invalid_argument);
}

TEST(ArchSpec, ParamBytesCloseToLiveModel) {
  Rng rng(20);
  auto net = resnet56(10, rng);
  const auto spec = resnet56_spec(10);
  // Spec counts conv+BN(4/channel incl. running stats) + head; the live
  // model's state_bytes counts the same tensors.
  const double live = static_cast<double>(state_bytes(*net));
  const double specb = static_cast<double>(spec.total_param_bytes());
  EXPECT_NEAR(specb / live, 1.0, 0.02);
}

TEST(ArchSpec, FlopsGrowWithDepth) {
  EXPECT_GT(resnet110_spec().total_flops(), 1.8 * resnet56_spec().total_flops());
}

TEST(ArchSpec, ActivationBytesShrinkAcrossStages) {
  const auto spec = resnet56_spec();
  // Stage 1 activations (16x32x32) are 2x stage 2 (32x16x16) and 4x stage 3.
  EXPECT_EQ(spec.units[1].act_bytes, 16 * 32 * 32 * 4);
  EXPECT_EQ(spec.units[30].act_bytes, 32 * 16 * 16 * 4);
  EXPECT_EQ(spec.units[50].act_bytes, 64 * 8 * 8 * 4);
}

TEST(ArchSpec, MidBlockCutsCarrySkipBytes) {
  const auto spec = resnet56_spec();
  // Unit 1 is s1b1.conv1: cutting after it keeps the skip input alive.
  EXPECT_GT(spec.units[1].cut_extra_bytes, 0);
  // Unit 2 closes the block: no extra skip payload.
  EXPECT_EQ(spec.units[2].cut_extra_bytes, 0);
}

TEST(ArchSpec, PrefixFlopsMonotone) {
  const auto spec = resnet56_spec();
  for (size_t c = 1; c < spec.size(); ++c)
    EXPECT_GT(spec.prefix_flops(c), spec.prefix_flops(c - 1));
}

TEST(ArchSpec, SuffixParamBytesMonotoneDecreasing) {
  const auto spec = resnet56_spec();
  for (size_t c = 1; c < spec.size(); ++c)
    EXPECT_LE(spec.suffix_param_bytes(c), spec.suffix_param_bytes(c - 1));
}

TEST(ArchSpec, CutActivationBytesIncludesLabels) {
  const auto spec = resnet56_spec();
  EXPECT_EQ(spec.cut_activation_bytes(1),
            spec.units[0].act_bytes + spec.units[0].cut_extra_bytes + 8);
}

TEST(ArchSpec, SpecFromModelMatchesLiveCosts) {
  Rng rng(21);
  auto net = small_cnn(3, 10, rng);
  const auto spec = spec_from_model(*net, {3, 8, 8}, "small_cnn", 10);
  EXPECT_EQ(spec.size(), net->size());
  const auto costs = net->unit_costs({3, 8, 8});
  for (size_t i = 0; i < spec.size(); ++i) {
    EXPECT_DOUBLE_EQ(spec.units[i].flops_forward, costs[i].flops_forward);
    EXPECT_EQ(spec.units[i].act_bytes, costs[i].out_bytes);
  }
}

}  // namespace
}  // namespace comdml::nn
