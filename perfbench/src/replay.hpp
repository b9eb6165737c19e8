// The traced run's layer replay. After each RealFleet::step (or
// FleetClient::round) the benchmark repeats that round's calls into each
// layer's public functions at the workload's exact shapes — pairing,
// batching, full and split training, the flat halving/doubling collective
// on InProcTransport and SimTransport, and the bucket codec where the
// workload uses one — each inside a span whose parent is the step's span,
// and reads the layers' own counters at the same boundaries.
//
// The replay trains its own replicas on its own batchers, so it never
// touches the measured fleet: deterministic fleet metrics are the same
// traced or untraced.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/profile.hpp"
#include "data/batcher.hpp"
#include "inputs.hpp"
#include "sim/topology.hpp"
#include "trace.hpp"

namespace perfbench {

/// Span names the replay records (the per-layer metrics aggregate them).
namespace span {
inline constexpr const char* kPairing = "core.pairing.pair_agents";
inline constexpr const char* kTraining = "core.parallel.local_training";
inline constexpr const char* kNextBatch = "data.next_batch";
inline constexpr const char* kTrainFull = "nn.train_batch_full";
inline constexpr const char* kTrainSplit = "nn.split_train_batch";
inline constexpr const char* kCollectiveRun = "comm.collective.run";
inline constexpr const char* kCollectiveModel = "comm.collective.modeled";
inline constexpr const char* kCodecEncode = "comm.codec.encode";
}  // namespace span

class Replay {
 public:
  /// `in` and `tracer` must outlive the replay.
  Replay(const Inputs& in, Tracer& tracer);

  /// Replay one round's layer calls as children of span `parent`.
  void round(int64_t parent, int64_t round);

  /// Per replayed round: the collective's transport counters.
  struct CollectiveRound {
    double modeled_s = 0.0;  ///< SimTransport clock of the schedule
    int64_t messages = 0;
    int64_t steps = 0;
    int64_t wire_bytes = 0;  ///< total bytes on the wire, all agents
    int64_t goodput_bytes = 0;
    int64_t dropped = 0;
    int64_t retransmit_bytes = 0;
  };
  struct PairingRound {
    int64_t pairs = 0;
    /// Share of the round's training FLOPs run on a helper agent.
    double offloaded_fraction = 0.0;
  };

  [[nodiscard]] const std::vector<CollectiveRound>& collectives() const {
    return collectives_;
  }
  [[nodiscard]] const std::vector<PairingRound>& pairings() const {
    return pairings_;
  }
  /// Profiled FLOPs of every replayed training call so far.
  [[nodiscard]] double nn_flops() const noexcept { return nn_flops_; }

 private:
  const Inputs& in_;
  Tracer& tracer_;
  sim::Topology topology_;
  core::SplitProfile profile_;
  comdml::tensor::Shape in_shape_;
  comdml::tensor::Rng rng_;
  std::vector<std::unique_ptr<comdml::nn::Sequential>> replicas_;
  std::vector<std::unique_ptr<data::Batcher>> batchers_;
  std::vector<std::vector<double>> buffers_;  // per agent flat state
  int64_t elems_ = 0;
  double flops_per_sample_ = 0.0;
  double nn_flops_ = 0.0;
  std::vector<CollectiveRound> collectives_;
  std::vector<PairingRound> pairings_;
};

/// Encode throughput of the int8 bucket codec on one 64 KiB (fp32-wire)
/// bucket: median over `reps` encodes, in fp32-wire GB/s. Each encode is
/// a `comm.codec.encode` span when `tracer` is set.
[[nodiscard]] double codec_encode_gbps(int reps, uint64_t seed,
                                       Tracer* tracer);

}  // namespace perfbench
