// Shared helpers for the ComDML test suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/module.hpp"

namespace comdml::testing {

using nn::Module;
using tensor::Rng;
using tensor::Tensor;

/// Scalar probe L(x) = sum(forward(x) .* G) used for gradient checks.
inline float probe_loss(Module& m, const Tensor& x, const Tensor& g) {
  const Tensor y = m.forward(x, /*train=*/true);
  EXPECT_EQ(y.shape(), g.shape());
  double acc = 0.0;
  auto yo = y.flat();
  auto go = g.flat();
  for (size_t i = 0; i < yo.size(); ++i)
    acc += static_cast<double>(yo[i]) * go[i];
  return static_cast<float>(acc);
}

/// Max relative error between the analytic input gradient and central
/// finite differences. `g` is the upstream gradient (same shape as output).
inline double input_grad_error(Module& m, Tensor x, const Tensor& g,
                               float eps = 1e-2f) {
  (void)m.forward(x, true);
  const Tensor analytic = m.backward(g);
  double worst = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float up = probe_loss(m, x, g);
    x[i] = orig - eps;
    const float down = probe_loss(m, x, g);
    x[i] = orig;
    const double numeric = (static_cast<double>(up) - down) / (2.0 * eps);
    const double denom = std::max(1.0, std::fabs(numeric));
    worst = std::max(worst, std::fabs(numeric - analytic[i]) / denom);
  }
  return worst;
}

/// Max relative error between analytic parameter gradients and central
/// finite differences (samples at most `max_checks` coordinates/parameter).
inline double param_grad_error(Module& m, const Tensor& x, const Tensor& g,
                               float eps = 1e-2f, int64_t max_checks = 24) {
  m.zero_grad();
  (void)m.forward(x, true);
  (void)m.backward(g);
  double worst = 0.0;
  for (nn::Parameter* p : m.parameters()) {
    const int64_t stride =
        std::max<int64_t>(1, p->value.size() / max_checks);
    for (int64_t i = 0; i < p->value.size(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const float up = probe_loss(m, x, g);
      p->value[i] = orig - eps;
      const float down = probe_loss(m, x, g);
      p->value[i] = orig;
      const double numeric = (static_cast<double>(up) - down) / (2.0 * eps);
      const double denom = std::max(1.0, std::fabs(numeric));
      worst = std::max(worst, std::fabs(numeric - p->grad[i]) / denom);
    }
  }
  return worst;
}

/// True when a and b have the same shape and the same bytes (so NaN
/// payloads and the sign of zero count, unlike operator==).
inline bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size_bytes()) == 0;
}

/// Deep copy of every parameter gradient of `m`, in collection order.
inline std::vector<Tensor> grads_of(Module& m) {
  std::vector<Tensor> out;
  for (nn::Parameter* p : m.parameters()) out.push_back(p->grad);
  return out;
}

/// Random tensor whose entries stay away from ReLU's kink at zero.
inline Tensor away_from_zero(Rng& rng, tensor::Shape shape,
                             float margin = 0.15f) {
  Tensor t = rng.normal_tensor(std::move(shape), 0.0f, 1.0f);
  for (float& v : t.flat()) {
    if (std::fabs(v) < margin) v = v < 0 ? v - margin : v + margin;
  }
  return t;
}

}  // namespace comdml::testing
