// Basic layers: Linear, ReLU, Flatten, GlobalAvgPool2d and Sequential.
#pragma once

#include "nn/module.hpp"

namespace comdml::nn {

/// Fully connected layer: y = x W^T + b, x:[N,in], W:[out,in], b:[out].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "linear"; }

  [[nodiscard]] int64_t in_features() const noexcept { return in_; }
  [[nodiscard]] int64_t out_features() const noexcept { return out_; }

 private:
  int64_t in_;
  int64_t out_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

/// Elementwise rectifier.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "relu"; }

 private:
  Tensor cached_mask_;
};

/// [N,C,H,W] -> [N, C*H*W].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "flatten"; }

 private:
  Shape cached_in_shape_;
};

/// Global average pool: [N,C,H,W] -> [N,C].
class GlobalAvgPool2d : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "gavgpool"; }

 private:
  Shape cached_in_shape_;
};

/// Ordered container of units; the unit boundary is ComDML's split
/// granularity. Supports running a sub-range so a slow agent can execute
/// units [0, s) while its fast partner executes [s, end).
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> units) : units_(std::move(units)) {}

  void push(ModulePtr unit) {
    COMDML_CHECK(unit != nullptr);
    units_.push_back(std::move(unit));
  }

  [[nodiscard]] size_t size() const noexcept { return units_.size(); }
  [[nodiscard]] Module& unit(size_t i) {
    COMDML_CHECK(i < units_.size());
    return *units_[i];
  }

  Tensor forward(const Tensor& x, bool train) override {
    return forward_range(x, 0, units_.size(), train);
  }
  Tensor backward(const Tensor& grad_out) override {
    return backward_range(grad_out, 0, units_.size());
  }
  void backward_params(const Tensor& grad_out) override {
    backward_params_range(grad_out, 0, units_.size());
  }

  /// Forward through units [begin, end).
  Tensor forward_range(const Tensor& x, size_t begin, size_t end, bool train);

  /// Backward through units [begin, end), applied in reverse order.
  Tensor backward_range(const Tensor& grad_out, size_t begin, size_t end);

  /// backward_range for a caller that discards the gradient w.r.t. unit
  /// `begin`'s input: units (begin, end) run backward(), unit `begin`
  /// runs backward_params(). An empty range is a no-op.
  void backward_params_range(const Tensor& grad_out, size_t begin,
                             size_t end);

  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_state(std::vector<Tensor*>& out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override { return "sequential"; }

  /// Per-unit cost chain starting from a per-sample input shape.
  [[nodiscard]] std::vector<LayerCost> unit_costs(const Shape& in_shape) const;

 private:
  std::vector<ModulePtr> units_;
};

}  // namespace comdml::nn
