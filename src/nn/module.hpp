// Layer/module abstraction with explicit forward/backward passes.
//
// ComDML needs three things from its NN substrate that off-the-shelf
// frameworks hide: (1) models must be splittable at unit boundaries into a
// slow-agent prefix and fast-agent suffix, (2) every unit must report a cost
// descriptor (FLOPs, parameter bytes, activation bytes) for split-model
// profiling, and (3) parameter state must be exportable as flat tensors for
// decentralized aggregation. The Module interface makes all three explicit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace comdml::nn {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// Per-sample cost descriptor of one unit, used by split-model profiling.
struct LayerCost {
  double flops_forward = 0.0;   ///< multiply-accumulates counted as 2 FLOPs
  double flops_backward = 0.0;  ///< grad wrt input + grad wrt params
  int64_t param_bytes = 0;      ///< learnable parameter payload
  int64_t out_bytes = 0;        ///< activation bytes leaving this unit
  Shape out_shape;              ///< per-sample output shape (no batch dim)
};

/// Base class of all layers/blocks. Units cache whatever they need during
/// forward() and consume it in backward(); callers must keep the usual
/// forward-then-backward discipline.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Run the unit on a batched input. `train` enables training-time
  /// behaviour (e.g. batch-norm batch statistics).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Propagate `grad_out` (same shape as the last forward output) back to
  /// the input, accumulating parameter gradients.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward() for a caller that discards the input gradient: it
  /// accumulates exactly the parameter gradients backward() would, bit
  /// for bit, and leaves whatever backward() leaves cached. A unit may skip
  /// the input-gradient work (Conv2d drops its dcol GEMM and col2im,
  /// Linear its dX matmul). The default runs backward() and drops the
  /// result, so every unit honours the contract without overriding.
  virtual void backward_params(const Tensor& grad_out) {
    (void)backward(grad_out);
  }

  /// Append raw pointers to this unit's learnable parameters.
  virtual void collect_parameters(std::vector<Parameter*>& /*out*/) {}

  /// Append pointers to all state tensors (parameters plus persistent
  /// buffers such as batch-norm running statistics). This is what gets
  /// averaged during decentralized aggregation.
  virtual void collect_state(std::vector<Tensor*>& out) {
    std::vector<Parameter*> params;
    collect_parameters(params);
    for (auto* p : params) out.push_back(&p->value);
  }

  /// Cost descriptor for a per-sample input of `in_shape`.
  [[nodiscard]] virtual LayerCost cost(const Shape& in_shape) const = 0;

  /// Short layer-kind tag for diagnostics ("conv3x3", "linear", ...).
  [[nodiscard]] virtual std::string kind() const = 0;

  [[nodiscard]] std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  /// Zero all parameter gradients.
  void zero_grad() {
    for (auto* p : parameters()) p->grad.fill(0.0f);
  }
};

using ModulePtr = std::unique_ptr<Module>;

// ---- whole-model state helpers ---------------------------------------------

/// Snapshot of all state tensors (deep copy), aggregation/exchange unit.
[[nodiscard]] std::vector<Tensor> state_of(Module& m);

/// Load a snapshot produced by state_of() from a structurally identical
/// model. Throws on shape mismatch.
void load_state(Module& m, const std::vector<Tensor>& state);

/// Snapshot m's state into `out`, reusing the existing tensor storage when
/// shapes already match — the zero-steady-state-allocation variant of
/// state_of() for per-round merge buffers.
void copy_state_into(Module& m, std::vector<Tensor>& out);

/// Total learnable-parameter count.
[[nodiscard]] int64_t parameter_count(Module& m);

/// Total state payload in bytes (what aggregation moves per model).
[[nodiscard]] int64_t state_bytes(Module& m);

}  // namespace comdml::nn
