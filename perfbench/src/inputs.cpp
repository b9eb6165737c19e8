#include "inputs.hpp"

#include <cmath>
#include <stdexcept>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "sim/topology.hpp"

namespace perfbench {

namespace {

using comdml::tensor::Rng;

constexpr int64_t kAgents = 16;
/// The four compute classes of every workload's fleet (4 agents each).
constexpr double kCpuClasses[] = {4.0, 2.0, 0.5, 0.2};
constexpr double kMbps = 100.0;
/// Per-agent multiplicative jitter on cpu and link speed: small enough to
/// keep the class structure (and so the offload pairs), large enough that
/// every modeled time differs between seeds.
constexpr float kJitter = 0.01f;
/// fleetd_2w's spec seed (the FleetSpec default).
constexpr uint64_t kSpecSeed = 42;

/// Agent a is in compute class a % 4, so fleetd_2w's round-robin worker
/// split puts the same classes on the same worker for every seed (and with
/// them the same cross-worker offload pairs); the seed jitters each
/// agent's cpu and link speed.
std::vector<sim::ResourceProfile> make_profiles(Rng& rng) {
  std::vector<sim::ResourceProfile> profiles(kAgents);
  for (int64_t a = 0; a < kAgents; ++a) {
    auto& p = profiles[static_cast<size_t>(a)];
    p.cpu = kCpuClasses[a % 4] * (1.0 + rng.uniform(-kJitter, kJitter));
    p.mbps = kMbps * (1.0 + rng.uniform(-kJitter, kJitter));
  }
  return profiles;
}

std::vector<data::Dataset> split_iid(const data::Dataset& ds, Rng& rng) {
  std::vector<data::Dataset> shards;
  for (const auto& idx : data::iid_partition(ds.size(), kAgents, rng))
    shards.push_back(ds.subset(idx));
  return shards;
}

/// Bucketed, overlapped, fp32 aggregation on a clean network.
core::FleetOptions bucket_options(uint64_t fleet_seed) {
  core::FleetOptions o;
  o.seed = fleet_seed;
  o.comms.bucket_bytes = 64 * 1024;
  o.comms.overlap = true;
  return o;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cnn_compute", "mlp_wire",
                                                 "mlp_lossy", "fleetd_2w"};
  return names;
}

Inputs make_inputs(const std::string& workload, uint64_t seed,
                   const std::string& checkpoint_dir) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  Rng rng(seed);
  Rng profile_rng = rng.fork();
  Rng data_rng = rng.fork();
  const uint64_t fleet_seed = rng.engine()();
  in.profiles = make_profiles(profile_rng);

  if (workload == "cnn_compute") {
    // 3x16x16 class prototypes under heavy pixel noise: the conv body and
    // pooled head need many rounds to separate them.
    constexpr int64_t kClasses = 10;
    const auto ds = data::make_synthetic_images(
        kAgents * 256, kClasses, {3, 16, 16}, 2.0f, data_rng);
    in.shards = split_iid(ds, data_rng);
    in.classes = kClasses;
    in.factory = [](Rng& r) { return comdml::nn::small_cnn(3, kClasses, r); };
    in.options = bucket_options(fleet_seed);
    in.options.train.batch_size = 16;
    in.options.train.batches_per_round = 4;
    in.horizon = 30;
  } else if (workload == "mlp_wire" || workload == "mlp_lossy") {
    // Heavily overlapping 64-feature blobs scaled to unit variance: one
    // batch of 8 per agent and round leaves the loss falling for the whole
    // horizon.
    constexpr int64_t kClasses = 10;
    constexpr float kSpread = 4.5f;
    auto ds =
        data::make_blobs(kAgents * 256, kClasses, 64, kSpread, data_rng);
    for (float& v : ds.images.flat())
      v /= std::sqrt(1.0f + kSpread * kSpread);
    in.shards = split_iid(ds, data_rng);
    in.classes = kClasses;
    in.factory = [](Rng& r) {
      return comdml::nn::mlp({64, 512, 512, 10}, r);
    };
    in.options = bucket_options(fleet_seed);
    in.options.train.batch_size = 8;
    in.options.train.batches_per_round = 1;
    in.options.train.sgd.lr = 0.005f;
    in.horizon = 40;
    if (workload == "mlp_lossy") {
      using Codec = core::FleetOptions::CommOptions::Codec;
      in.options.comms.codec = Codec::kInt8Quantized;
      in.options.comms.error_feedback = true;
      in.options.faults.message_drop_prob = 0.05;
      in.options.faults.checkpoint_every = 10;
      in.options.faults.checkpoint_dir = checkpoint_dir;
    }
  } else if (workload == "fleetd_2w") {
    // The daemons build the spec fleet themselves: its data and model init
    // come from the spec seed, over daemon::build_spec_fleet's fixed easy
    // blobs. Across data seeds that fleet's loss ranges over an order of
    // magnitude, so the spec seed stays fixed and `seed` draws the
    // resource profiles (compute scales and link speed). 24 batches per
    // round (the spec default is 6) keep ~3 ms of training in each round:
    // at 6 the round is almost all socket wake-ups, and its rate swung by
    // up to 2x from run to run. The small learning rate keeps the loss
    // falling through the horizon.
    in.daemon = true;
    auto& spec = in.spec;
    spec.agents = kAgents;
    spec.seed = kSpecSeed;
    spec.lr = 0.0002f;
    spec.batches_per_round = 24;
    spec.mbps = in.profiles.front().mbps;
    for (auto& p : in.profiles) p.mbps = spec.mbps;  // one spec-wide rate
    for (const auto& p : in.profiles) spec.compute_scales.push_back(p.cpu);
    // Mirror of daemon::build_spec_fleet's geometry for the layer replay
    // (same model, data and options; the daemons build their own fleet).
    constexpr int64_t kClasses = 3, kFeatures = 6, kPerAgent = 60;
    Rng spec_rng(spec.seed + 1);
    const auto ds = data::make_blobs(kAgents * kPerAgent, kClasses,
                                     kFeatures, 0.3f, spec_rng);
    in.shards = split_iid(ds, spec_rng);
    in.classes = kClasses;
    in.factory = [](Rng& r) {
      return comdml::nn::mlp({kFeatures, 24, 24, kClasses}, r);
    };
    in.options.seed = spec.seed;
    in.options.train.batch_size = spec.batch_size;
    in.options.train.batches_per_round = spec.batches_per_round;
    in.options.train.sgd.lr = spec.lr;
    in.options.train.sgd.momentum = spec.momentum;
    in.options.comms.latency_sec = spec.latency_sec;
    in.horizon = 100;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return in;
}

std::unique_ptr<core::RealFleet> build_fleet(const Inputs& in) {
  return build_fleet(in, in.options);
}

std::unique_ptr<core::RealFleet> build_fleet(
    const Inputs& in, const core::FleetOptions& options) {
  return std::make_unique<core::RealFleet>(
      in.factory, in.classes, in.shards,
      sim::Topology::full_mesh(in.profiles), options);
}

}  // namespace perfbench
