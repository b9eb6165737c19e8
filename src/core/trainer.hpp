// Paper-scale ComDML fleet simulator.
//
// Drives the full per-round workflow of Algorithm 1 on the discrete-event
// simulator: broadcast -> decentralized pairing -> batch-level pair/solo
// execution -> AllReduce aggregation, with participation sampling and
// dynamic resource-profile reshuffling. Produces RoundRecords that the
// benches combine with the learning-curve model into time-to-accuracy
// tables (Tables II, III; Fig. 3).
#pragma once

#include <functional>

#include "core/config.hpp"
#include "core/execution.hpp"
#include "core/optimizer_exact.hpp"
#include "core/round_stats.hpp"
#include "sim/event_queue.hpp"

namespace comdml::core {

/// Scheduler variants (ablation A1; kComDML is the paper's Algorithm 1).
enum class Scheduler {
  kComDML,
  kNoOffloading,  ///< AllReduce-DML: everyone trains the full model
  kRandom,
  kStatic,
  kExact,  ///< reference integer-program optimum (small fleets only)
};

class SimulatedFleet {
 public:
  /// `shard_sizes[i]` = samples held by agent i.
  SimulatedFleet(const nn::ArchitectureSpec& spec, FleetOptions options,
                 sim::Topology topology, std::vector<int64_t> shard_sizes,
                 Scheduler scheduler = Scheduler::kComDML);

  /// Execute one round; advances the fleet's simulated clock.
  RoundRecord step();

  /// Execute `rounds` rounds.
  RunSummary run(int64_t rounds);

  [[nodiscard]] const SplitProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const sim::Topology& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] const FleetOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] int64_t rounds_executed() const noexcept { return round_; }

  /// Broadcast infos for the current profiles (visible for tests/benches).
  [[nodiscard]] std::vector<AgentInfo> agent_infos() const;

 private:
  FleetOptions options_;
  SplitProfile profile_;
  sim::Topology topology_;
  std::vector<int64_t> shard_sizes_;
  Scheduler scheduler_;
  tensor::Rng rng_;
  StaticPairing static_pairing_;
  int64_t round_ = 0;

  [[nodiscard]] PairingResult schedule(const std::vector<AgentInfo>& infos,
                                       const std::vector<int64_t>& parts);
};

/// One round's participants: every agent when `participation` >= 1,
/// else a sorted random sample of max(2, participation * agents) of them
/// drawn from `rng`. Both simulated fleets sample through this.
[[nodiscard]] std::vector<int64_t> sample_participants(int64_t agents,
                                                       double participation,
                                                       tensor::Rng& rng);

/// Samples-per-agent for a paper dataset under a partition scheme
/// (IID: equal shards; Dirichlet: proportions ~ Dirichlet(alpha) with a
/// one-batch minimum).
[[nodiscard]] std::vector<int64_t> shard_sizes_for(
    const data::DatasetSpec& dataset, int64_t agents,
    learncurve::PartitionKind partition, tensor::Rng& rng,
    double alpha = 0.5);

}  // namespace comdml::core
