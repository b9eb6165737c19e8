#include "nn/layers.hpp"

#include <bit>
#include <cstdint>

#include "tensor/gemm.hpp"

namespace comdml::nn {

using tensor::matmul;
using tensor::matmul_nt;
using tensor::matmul_tn;

// ---- state helpers ----------------------------------------------------------

std::vector<Tensor> state_of(Module& m) {
  std::vector<Tensor*> ptrs;
  m.collect_state(ptrs);
  std::vector<Tensor> out;
  out.reserve(ptrs.size());
  for (auto* t : ptrs) out.push_back(*t);
  return out;
}

void load_state(Module& m, const std::vector<Tensor>& state) {
  std::vector<Tensor*> ptrs;
  m.collect_state(ptrs);
  COMDML_REQUIRE(ptrs.size() == state.size(),
                 "load_state: model has " << ptrs.size()
                                          << " state tensors, snapshot has "
                                          << state.size());
  for (size_t i = 0; i < ptrs.size(); ++i) {
    COMDML_REQUIRE(ptrs[i]->shape() == state[i].shape(),
                   "load_state: shape mismatch at tensor " << i);
    *ptrs[i] = state[i];
  }
}

void copy_state_into(Module& m, std::vector<Tensor>& out) {
  // The pointer scratch keeps its capacity across calls so the round loop
  // stays allocation-free, matching the Tensor-storage reuse below.
  thread_local std::vector<Tensor*> ptrs;
  ptrs.clear();
  m.collect_state(ptrs);
  out.resize(ptrs.size());
  // Tensor copy-assignment reuses the destination's storage when the
  // element count fits, so a shape-stable fleet stops allocating here
  // after the first round.
  for (size_t i = 0; i < ptrs.size(); ++i) out[i] = *ptrs[i];
}

int64_t parameter_count(Module& m) {
  int64_t n = 0;
  for (auto* p : m.parameters()) n += p->value.size();
  return n;
}

int64_t state_bytes(Module& m) {
  std::vector<Tensor*> ptrs;
  m.collect_state(ptrs);
  int64_t n = 0;
  for (auto* t : ptrs) n += t->nbytes();
  return n;
}

// ---- Linear -----------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("linear.weight", rng.he_normal({out_features, in_features},
                                             in_features)),
      bias_("linear.bias", Tensor({out_features})) {
  COMDML_CHECK(in_features > 0 && out_features > 0);
}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  COMDML_REQUIRE(x.rank() == 2 && x.dim(1) == in_,
                 "linear: expected [N," << in_ << "], got "
                                        << tensor::shape_str(x.shape()));
  cached_input_ = x;
  Tensor y = matmul_nt(x, weight_.value);  // [N,out]
  const int64_t n = y.dim(0);
  auto yo = y.flat();
  const auto bo = bias_.value.flat();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < out_; ++j) yo[i * out_ + j] += bo[j];
  return y;
}

void Linear::backward_params(const Tensor& grad_out) {
  COMDML_REQUIRE(grad_out.rank() == 2 && grad_out.dim(1) == out_,
                 "linear backward: bad grad shape "
                     << tensor::shape_str(grad_out.shape()));
  COMDML_CHECK(!cached_input_.empty());
  // dW = dY^T X accumulated straight into the grad tensor (no [out,in]
  // temporary + axpy pass), db = colsum(dY).
  tensor::gemm_tn(grad_out.flat().data(), cached_input_.flat().data(),
                  weight_.grad.flat().data(), out_, grad_out.dim(0), in_,
                  /*accumulate=*/true);
  const int64_t n = grad_out.dim(0);
  auto go = grad_out.flat();
  auto bg = bias_.grad.flat();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < out_; ++j) bg[j] += go[i * out_ + j];
}

Tensor Linear::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  return matmul(grad_out, weight_.value);  // dX = dY W, [N,in]
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

LayerCost Linear::cost(const Shape& in_shape) const {
  COMDML_REQUIRE(in_shape.size() == 1 && in_shape[0] == in_,
                 "linear cost: expected [" << in_ << "]");
  LayerCost c;
  c.flops_forward = 2.0 * static_cast<double>(in_) * static_cast<double>(out_);
  c.flops_backward = 2.0 * c.flops_forward;
  c.param_bytes = (in_ * out_ + out_) * static_cast<int64_t>(sizeof(float));
  c.out_bytes = out_ * static_cast<int64_t>(sizeof(float));
  c.out_shape = {out_};
  return c;
}

// ---- ReLU -------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  Tensor y(x.shape());
  Tensor mask(x.shape());
  auto xi = x.flat();
  auto yo = y.flat();
  auto mo = mask.flat();
  // Bit-mask select instead of a branch: the sign of BN output is a coin
  // flip the branch predictor cannot learn. `keep` is all-ones exactly
  // where x > 0 (false for NaN, +-0 and negatives), so y keeps x's bits
  // there and is +0 elsewhere, and the mask is 1.0f or +0 — the same bits
  // as the select `x > 0 ? x : 0`.
  constexpr uint32_t kOneBits = std::bit_cast<uint32_t>(1.0f);
  for (size_t i = 0; i < xi.size(); ++i) {
    const uint32_t keep = 0u - static_cast<uint32_t>(xi[i] > 0.0f);
    yo[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(xi[i]) & keep);
    mo[i] = std::bit_cast<float>(kOneBits & keep);
  }
  cached_mask_ = std::move(mask);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  COMDML_CHECK(!cached_mask_.empty());
  return tensor::mul(grad_out, cached_mask_);
}

LayerCost ReLU::cost(const Shape& in_shape) const {
  LayerCost c;
  const auto n = static_cast<double>(tensor::shape_size(in_shape));
  c.flops_forward = n;
  c.flops_backward = n;
  c.out_bytes = tensor::shape_size(in_shape) *
                static_cast<int64_t>(sizeof(float));
  c.out_shape = in_shape;
  return c;
}

// ---- Flatten ----------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  COMDML_CHECK(x.rank() >= 2);
  cached_in_shape_ = x.shape();
  int64_t features = 1;
  for (size_t a = 1; a < x.rank(); ++a) features *= x.dim(a);
  return x.reshaped({x.dim(0), features});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  COMDML_CHECK(!cached_in_shape_.empty());
  return grad_out.reshaped(cached_in_shape_);
}

LayerCost Flatten::cost(const Shape& in_shape) const {
  LayerCost c;
  c.out_bytes =
      tensor::shape_size(in_shape) * static_cast<int64_t>(sizeof(float));
  c.out_shape = {tensor::shape_size(in_shape)};
  return c;
}

// ---- GlobalAvgPool2d --------------------------------------------------------

Tensor GlobalAvgPool2d::forward(const Tensor& x, bool /*train*/) {
  COMDML_REQUIRE(x.rank() == 4, "gavgpool expects [N,C,H,W], got "
                                    << tensor::shape_str(x.shape()));
  cached_in_shape_ = x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  auto xi = x.flat();
  auto yo = y.flat();
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      const float* p = xi.data() + (i * c + j) * hw;
      double acc = 0.0;
      for (int64_t k = 0; k < hw; ++k) acc += p[k];
      yo[i * c + j] = static_cast<float>(acc) * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_out) {
  COMDML_CHECK(!cached_in_shape_.empty());
  const int64_t n = cached_in_shape_[0], c = cached_in_shape_[1],
                hw = cached_in_shape_[2] * cached_in_shape_[3];
  COMDML_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == n &&
               grad_out.dim(1) == c);
  Tensor dx(cached_in_shape_);
  auto go = grad_out.flat();
  auto dxo = dx.flat();
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < c; ++j) {
      const float g = go[i * c + j] * inv;
      float* p = dxo.data() + (i * c + j) * hw;
      for (int64_t k = 0; k < hw; ++k) p[k] = g;
    }
  return dx;
}

LayerCost GlobalAvgPool2d::cost(const Shape& in_shape) const {
  COMDML_REQUIRE(in_shape.size() == 3, "gavgpool cost expects [C,H,W]");
  LayerCost c;
  c.flops_forward = static_cast<double>(tensor::shape_size(in_shape));
  c.flops_backward = c.flops_forward;
  c.out_bytes = in_shape[0] * static_cast<int64_t>(sizeof(float));
  c.out_shape = {in_shape[0]};
  return c;
}

// ---- Sequential -------------------------------------------------------------

Tensor Sequential::forward_range(const Tensor& x, size_t begin, size_t end,
                                 bool train) {
  COMDML_REQUIRE(begin <= end && end <= units_.size(),
                 "forward_range [" << begin << "," << end << ") of "
                                   << units_.size());
  Tensor cur = x;
  for (size_t i = begin; i < end; ++i) cur = units_[i]->forward(cur, train);
  return cur;
}

Tensor Sequential::backward_range(const Tensor& grad_out, size_t begin,
                                  size_t end) {
  COMDML_REQUIRE(begin <= end && end <= units_.size(),
                 "backward_range [" << begin << "," << end << ") of "
                                    << units_.size());
  Tensor cur = grad_out;
  for (size_t i = end; i > begin; --i) cur = units_[i - 1]->backward(cur);
  return cur;
}

void Sequential::backward_params_range(const Tensor& grad_out, size_t begin,
                                       size_t end) {
  COMDML_REQUIRE(begin <= end && end <= units_.size(),
                 "backward_params_range [" << begin << "," << end << ") of "
                                           << units_.size());
  if (begin == end) return;
  const Tensor grad = backward_range(grad_out, begin + 1, end);
  units_[begin]->backward_params(grad);
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& u : units_) u->collect_parameters(out);
}

void Sequential::collect_state(std::vector<Tensor*>& out) {
  for (auto& u : units_) u->collect_state(out);
}

LayerCost Sequential::cost(const Shape& in_shape) const {
  LayerCost total;
  total.out_shape = in_shape;
  for (const auto& u : units_) {
    const LayerCost c = u->cost(total.out_shape);
    total.flops_forward += c.flops_forward;
    total.flops_backward += c.flops_backward;
    total.param_bytes += c.param_bytes;
    total.out_bytes = c.out_bytes;
    total.out_shape = c.out_shape;
  }
  return total;
}

std::vector<LayerCost> Sequential::unit_costs(const Shape& in_shape) const {
  std::vector<LayerCost> out;
  out.reserve(units_.size());
  Shape cur = in_shape;
  for (const auto& u : units_) {
    out.push_back(u->cost(cur));
    cur = out.back().out_shape;
  }
  return out;
}

}  // namespace comdml::nn
