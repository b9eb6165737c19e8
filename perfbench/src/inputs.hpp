// Seeded workload inputs: the data, the resource profiles and the model
// init of each benchmark workload come from `--seed` alone, and the
// library only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/real_fleet.hpp"
#include "daemon/protocol.hpp"
#include "sim/resources.hpp"

namespace perfbench {

namespace core = comdml::core;
namespace data = comdml::data;
namespace sim = comdml::sim;

/// The four workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Everything one workload's fleet is built from. For `fleetd_2w` these
/// mirror the daemon's spec fleet (same model, data geometry, profiles and
/// options); the daemons build their own fleet from `spec`.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  core::ModelFactory factory;
  int64_t classes = 0;
  std::vector<data::Dataset> shards;
  std::vector<sim::ResourceProfile> profiles;
  core::FleetOptions options;
  /// Rounds 0..horizon-1 give the deterministic metrics (modeled round
  /// time, wire bytes, final loss); every run steps at least this many.
  int64_t horizon = 0;
  /// final_loss is the mean training loss over the horizon's last rounds.
  static constexpr int64_t kFinalLossRounds = 10;
  bool daemon = false;            ///< true for fleetd_2w
  comdml::daemon::FleetSpec spec;  ///< fleetd_2w only

  [[nodiscard]] int64_t agents() const {
    return static_cast<int64_t>(profiles.size());
  }
  /// Training samples of one round with every agent live.
  [[nodiscard]] int64_t samples_per_round() const {
    return agents() * options.train.batches_per_round *
           options.train.batch_size;
  }
};

/// Generate one workload's inputs from `seed`. `checkpoint_dir` receives
/// the auto-checkpoints of workloads that write them.
[[nodiscard]] Inputs make_inputs(const std::string& workload, uint64_t seed,
                                 const std::string& checkpoint_dir);

/// A fresh in-process fleet over copies of the inputs.
[[nodiscard]] std::unique_ptr<core::RealFleet> build_fleet(
    const Inputs& in);
/// Same, with different options (the no-drop twin, the restore target).
[[nodiscard]] std::unique_ptr<core::RealFleet> build_fleet(
    const Inputs& in, const core::FleetOptions& options);

}  // namespace perfbench
