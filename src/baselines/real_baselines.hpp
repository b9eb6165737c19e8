// Real-training implementations of the baselines on small models: every
// agent holds a replica + shard; one round = local full-model training
// followed by the method's aggregation pattern. Used by integration tests
// and examples to compare learning behaviour against ComDML's RealFleet.
#pragma once

#include <optional>

#include "core/real_fleet.hpp"
#include "core/round_pipeline.hpp"

namespace comdml::baselines {

class RealBaselineFleet {
 public:
  /// `options.train.prox_mu` holds the FedProx proximal coefficient,
  /// `options.comms.server_mbps` the FedAvg/FedProx server bandwidth.
  RealBaselineFleet(learncurve::Method method,
                    const core::ModelFactory& factory, int64_t classes,
                    std::vector<data::Dataset> shards,
                    sim::Topology topology, core::FleetOptions options);

  struct RoundStats {
    float mean_loss = 0.0f;
    /// Executed traffic of the aggregation pattern when it runs through a
    /// comm::Transport collective (gossip, AllReduce, param-server);
    /// 0 for the local BrainTorrent mean.
    double aggregation_seconds = 0.0;
    int64_t aggregation_bytes = 0;  ///< max bytes any endpoint sent
  };

  RoundStats step();

  /// Accuracy of agent 0's model on a held-out set (post-aggregation all
  /// replicas agree for FedAvg/BrainTorrent/AllReduce; gossip replicas may
  /// differ, agent 0 is the reporting convention).
  [[nodiscard]] float evaluate(const data::Dataset& test);

  [[nodiscard]] int64_t agents() const noexcept {
    return static_cast<int64_t>(models_.size());
  }
  [[nodiscard]] nn::Sequential& model(int64_t agent);

 private:
  learncurve::Method method_;
  core::FleetOptions options_;
  std::vector<data::Dataset> shards_;
  sim::Topology topology_;
  tensor::Rng rng_;
  std::vector<std::unique_ptr<nn::Sequential>> models_;
  std::vector<std::unique_ptr<data::Batcher>> batchers_;
  /// Per-round aggregation merge buffers, reused across rounds.
  std::vector<std::vector<tensor::Tensor>> state_scratch_;
  /// Bucketed AllReduce-DML aggregation (comms.bucket_bytes > 0): agents
  /// publish their buckets as their local training finishes, and idle pool
  /// workers reduce ready buckets concurrently (comms.overlap).
  std::optional<nn::BucketPlan> bucket_plan_;
  std::unique_ptr<core::RoundPipeline> pipeline_;

  float train_locally(size_t agent,
                      const std::vector<tensor::Tensor>* global);
  void aggregate(RoundStats& stats);
};

}  // namespace comdml::baselines
