// Paper-scale timing simulation of the comparison methods (Table II/III,
// Fig. 3): FedAvg, FedProx, Gossip Learning, BrainTorrent, and plain
// decentralized AllReduce. Every method trains the *full* model locally
// (none of them balances workload); they differ in how updates move.
#pragma once

#include "core/trainer.hpp"

namespace comdml::baselines {

using core::FleetOptions;
using core::RoundRecord;
using core::RunSummary;
using learncurve::Method;

class BaselineFleet {
 public:
  BaselineFleet(Method method, const nn::ArchitectureSpec& spec,
                FleetOptions options, sim::Topology topology,
                std::vector<int64_t> shard_sizes);

  RoundRecord step();
  RunSummary run(int64_t rounds);

  [[nodiscard]] Method method() const noexcept { return method_; }
  [[nodiscard]] int64_t model_bytes() const noexcept { return model_bytes_; }

 private:
  Method method_;
  FleetOptions options_;
  sim::Topology topology_;
  std::vector<int64_t> shard_sizes_;
  double flops_per_sample_;
  int64_t model_bytes_;
  tensor::Rng rng_;
  int64_t round_ = 0;

  [[nodiscard]] std::vector<double> solo_times(
      const std::vector<int64_t>& participants) const;
};

/// Proximal-term compute overhead used for FedProx (extra gradient term).
inline constexpr double kFedProxComputeOverhead = 1.05;

/// Star grid for one parameter-server round (FedAvg / FedProx): endpoints
/// 0..K-1 are the agents, endpoint K the server. Each selected agent's
/// edge runs at min(link_i, server_mbps / #selected): the server's
/// aggregate bandwidth is shared across concurrent transfers, which is the
/// central-bottleneck effect the paper attributes to server-based FL
/// (§V-B-2). Throws if a selected agent has no uplink.
[[nodiscard]] comm::LinkGrid param_server_grid(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, double server_mbps,
    double latency_sec = comm::kDefaultLatencySec);

}  // namespace comdml::baselines
