// Per-agent model-state layout for the aggregation collectives (§IV-B).
//
// The protocols themselves (ring and recursive halving/doubling AllReduce,
// gossip, the parameter-server round) live in comm/collective.hpp and move
// fp64 buffers of fp32 wire elements. Fleets hold each agent's state as a
// list of fp32 tensors; these helpers convert between the two layouts and
// compute the traffic-free reference means.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace comdml::comm {

using tensor::Tensor;

/// Plain arithmetic mean across agents (reference for tests; no traffic).
[[nodiscard]] std::vector<Tensor> mean_state(
    const std::vector<std::vector<Tensor>>& agent_states);

/// Weighted mean with per-agent weights (FedAvg-style N_i/N weighting).
[[nodiscard]] std::vector<Tensor> weighted_mean_state(
    const std::vector<std::vector<Tensor>>& agent_states,
    const std::vector<double>& weights);

/// Total fp32 elements across one agent's state tensors.
[[nodiscard]] int64_t state_elems(const std::vector<Tensor>& state);

/// Flatten a state list into `out` (fp64 accumulator layout) and back.
void flatten_state(const std::vector<Tensor>& state, double* out);
void unflatten_state(const double* flat, std::vector<Tensor>& state);

}  // namespace comdml::comm
