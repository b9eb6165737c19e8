#include "nn/optimizer.hpp"

namespace comdml::nn {

SGD::SGD(std::vector<Parameter*> params, Options options,
         std::vector<Tensor> velocity)
    : params_(std::move(params)),
      velocity_(std::move(velocity)),
      options_(options) {
  COMDML_CHECK(options_.lr > 0.0f);
  COMDML_CHECK(options_.momentum >= 0.0f && options_.momentum < 1.0f);
  COMDML_CHECK(options_.weight_decay >= 0.0f);
  for (auto* p : params_) COMDML_CHECK(p != nullptr);
  if (!velocity_.empty()) {
    COMDML_REQUIRE(velocity_.size() == params_.size(),
                   "velocity list size mismatch: got "
                       << velocity_.size() << ", optimizer holds "
                       << params_.size());
    for (size_t i = 0; i < params_.size(); ++i)
      COMDML_REQUIRE(velocity_[i].shape() == params_[i]->value.shape(),
                     "velocity shape mismatch at parameter " << i);
    return;
  }
  velocity_.reserve(params_.size());
  for (auto* p : params_) velocity_.emplace_back(p->value.shape());
}

void SGD::step() { step_range(0, params_.size()); }

void SGD::step_range(size_t first, size_t count) {
  COMDML_CHECK(first + count <= params_.size());
  for (size_t i = first; i < first + count; ++i) {
    Parameter& p = *params_[i];
    tensor::sgd_momentum_update(p.value, velocity_[i], p.grad, options_.lr,
                                options_.momentum, options_.weight_decay);
  }
}

void SGD::zero_grad() {
  for (auto* p : params_) p->grad.fill(0.0f);
}

void SGD::set_lr(float lr) {
  COMDML_CHECK(lr > 0.0f);
  options_.lr = lr;
}

PlateauScheduler::PlateauScheduler(float factor, int patience, float min_delta)
    : factor_(factor), patience_(patience), min_delta_(min_delta) {
  COMDML_CHECK(factor > 0.0f && factor < 1.0f);
  COMDML_CHECK(patience > 0);
}

float PlateauScheduler::observe(float metric) {
  if (metric > best_ + min_delta_) {
    best_ = metric;
    stale_ = 0;
    return 1.0f;
  }
  if (++stale_ >= patience_) {
    stale_ = 0;
    return factor_;
  }
  return 1.0f;
}

}  // namespace comdml::nn
