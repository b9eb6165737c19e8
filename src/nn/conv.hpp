// 2-D convolution (NCHW, square kernel, zero padding, no bias — ResNet style).
//
// Forward and backward run as im2col + GEMM so convolution rides the
// cache-blocked, thread-parallel matmul kernels; samples are additionally
// processed in parallel. im2col re-unrolls the input in backward rather
// than keeping the forward's slab alive between the passes. Backward
// accumulates dW with one GEMM per sample in sample order (each dW element
// runs the ascending-k chain of one reduction over the whole batch), and
// backward_params() skips the dx half — the dcol GEMM and col2im — for a
// caller that drops the input gradient. The direct naive kernels are kept
// as conv2d_reference_* for parity tests and benchmark baselines.
#pragma once

#include "nn/module.hpp"

namespace comdml::nn {

/// Direct (non-im2col) convolution: x [N,cin,H,W] * w [cout,cin,k,k].
[[nodiscard]] Tensor conv2d_reference_forward(const Tensor& x,
                                              const Tensor& w, int64_t stride,
                                              int64_t padding);

/// Direct backward pass. Returns dx; accumulates into `dw` (shape of w).
[[nodiscard]] Tensor conv2d_reference_backward(const Tensor& x,
                                               const Tensor& w,
                                               const Tensor& grad_out,
                                               int64_t stride, int64_t padding,
                                               Tensor& dw);

class Conv2d : public Module {
 public:
  /// kernel k x k, stride s, symmetric zero padding p.
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  [[nodiscard]] LayerCost cost(const Shape& in_shape) const override;
  [[nodiscard]] std::string kind() const override;

  [[nodiscard]] int64_t in_channels() const noexcept { return cin_; }
  [[nodiscard]] int64_t out_channels() const noexcept { return cout_; }

  /// Output spatial extent for an input extent under this conv's geometry.
  [[nodiscard]] int64_t out_extent(int64_t in) const {
    return (in + 2 * pad_ - k_) / stride_ + 1;
  }

 private:
  /// Accumulates dW; returns dx when `input_grad`, else an empty tensor.
  Tensor backward_impl(const Tensor& grad_out, bool input_grad);

  int64_t cin_, cout_, k_, stride_, pad_;
  Parameter weight_;  ///< [cout, cin, k, k]
  Tensor cached_input_;
};

}  // namespace comdml::nn
