// Fleet-level simulation tests: the ComDML SimulatedFleet, the baseline
// fleets, dynamic profile reshuffling, participation sampling, and the
// relative timing behaviour the paper's tables rest on.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/baseline_fleet.hpp"
#include "core/fleet_runtime.hpp"
#include "core/trainer.hpp"

namespace comdml::core {
namespace {

using baselines::BaselineFleet;
using learncurve::Method;
using learncurve::PartitionKind;
using sim::Topology;
using tensor::Rng;

FleetOptions small_options() {
  FleetOptions o = FleetOptions::paper_defaults();
  o.scale.reshuffle_period = 0;
  return o;
}

Topology mesh(int64_t agents, uint64_t seed = 1) {
  Rng rng(seed);
  return Topology::full_mesh(sim::assign_profiles(agents, rng));
}

std::vector<int64_t> iid_sizes(int64_t agents) {
  Rng rng(2);
  return shard_sizes_for(data::cifar10_spec(), agents, PartitionKind::kIID,
                         rng);
}

TEST(SimulatedFleet, RoundRecordsAreConsistent) {
  SimulatedFleet fleet(nn::resnet56_spec(), small_options(), mesh(10),
                       iid_sizes(10));
  const auto rec = fleet.step();
  EXPECT_GT(rec.round_time, 0.0);
  EXPECT_GE(rec.round_time, rec.aggregation_time);
  EXPECT_GE(rec.idle_time, 0.0);
  EXPECT_GE(rec.unbalanced_time, rec.round_time * 0.99);
}

TEST(SimulatedFleet, BalancesHeterogeneousFleet) {
  SimulatedFleet fleet(nn::resnet56_spec(), small_options(), mesh(10),
                       iid_sizes(10));
  const auto rec = fleet.step();
  EXPECT_GT(rec.num_pairs, 0);
  EXPECT_LT(rec.round_time, 0.85 * rec.unbalanced_time);
}

TEST(SimulatedFleet, RunAccumulatesRounds) {
  SimulatedFleet fleet(nn::resnet56_spec(), small_options(), mesh(10),
                       iid_sizes(10));
  const auto summary = fleet.run(5);
  EXPECT_EQ(summary.rounds().size(), 5u);
  EXPECT_EQ(fleet.rounds_executed(), 5);
  EXPECT_GT(summary.total_time(), 0.0);
}

TEST(SimulatedFleet, TimeForRoundsInterpolates) {
  SimulatedFleet fleet(nn::resnet56_spec(), small_options(), mesh(10),
                       iid_sizes(10));
  const auto summary = fleet.run(4);
  const double t2 = summary.time_for_rounds(2.0);
  const double t25 = summary.time_for_rounds(2.5);
  const double t3 = summary.time_for_rounds(3.0);
  EXPECT_LT(t2, t25);
  EXPECT_LT(t25, t3);
  // Extrapolation beyond the horizon keeps growing.
  EXPECT_GT(summary.time_for_rounds(10.0), summary.total_time());
}

TEST(SimulatedFleet, ReshufflePeriodChangesProfiles) {
  auto cfg = small_options();
  cfg.scale.reshuffle_period = 3;
  cfg.scale.reshuffle_fraction = 1.0;  // redraw everyone for a visible effect
  SimulatedFleet fleet(nn::resnet56_spec(), cfg, mesh(10), iid_sizes(10));
  const auto before = fleet.agent_infos();
  (void)fleet.run(4);  // crosses the reshuffle boundary at round 3
  const auto after = fleet.agent_infos();
  int changed = 0;
  for (size_t i = 0; i < before.size(); ++i)
    if (before[i].proc_speed != after[i].proc_speed) ++changed;
  EXPECT_GT(changed, 0);
}

TEST(SimulatedFleet, ParticipationSamplingShrinksRound) {
  auto cfg = small_options();
  cfg.scale.participation = 0.2;
  SimulatedFleet fleet(nn::resnet56_spec(), cfg, mesh(50), iid_sizes(50));
  // With 20% sampling the expected straggler is no slower than the full
  // fleet's; mostly this exercises the sampling path end-to-end.
  const auto rec = fleet.step();
  EXPECT_GT(rec.round_time, 0.0);
}

TEST(SimulatedFleet, SchedulerVariantsOrdering) {
  // Both workload-balancing schedulers must beat the no-offloading round;
  // the greedy-vs-exact *estimate* ordering is covered in core_test.
  const auto spec = nn::resnet56_spec();
  const auto sizes = iid_sizes(10);
  double greedy_t = 0, none_t = 0, exact_t = 0;
  {
    SimulatedFleet f(spec, small_options(), mesh(10), sizes,
                     Scheduler::kComDML);
    greedy_t = f.step().round_time;
  }
  {
    SimulatedFleet f(spec, small_options(), mesh(10), sizes,
                     Scheduler::kNoOffloading);
    none_t = f.step().round_time;
  }
  {
    auto cfg = small_options();
    cfg.scale.max_split_points = 10;  // keep the exact solver fast
    SimulatedFleet f(spec, cfg, mesh(10), sizes, Scheduler::kExact);
    exact_t = f.step().round_time;
  }
  EXPECT_LT(greedy_t, none_t);
  EXPECT_LT(exact_t, none_t);
}

TEST(SimulatedFleet, RejectsShardSizeMismatch) {
  EXPECT_THROW(SimulatedFleet(nn::resnet56_spec(), small_options(),
                              mesh(10), iid_sizes(9)),
               std::invalid_argument);
}

TEST(SimulatedFleet, PrivacyOverheadSlowsCompute) {
  // Compare under kNoOffloading so the compute overhead is not partially
  // absorbed by re-balanced pairing decisions.
  auto cfg = small_options();
  auto cfg_dp = cfg;
  cfg_dp.privacy.technique = learncurve::PrivacyTechnique::kDistanceCorrelation;
  SimulatedFleet plain(nn::resnet56_spec(), cfg, mesh(10), iid_sizes(10),
                       Scheduler::kNoOffloading);
  SimulatedFleet dp(nn::resnet56_spec(), cfg_dp, mesh(10), iid_sizes(10),
                    Scheduler::kNoOffloading);
  EXPECT_GT(dp.step().round_time, plain.step().round_time);
}

// ---- baselines --------------------------------------------------------------------

class BaselineP : public ::testing::TestWithParam<Method> {};

TEST_P(BaselineP, ProducesPositiveRoundTimes) {
  BaselineFleet fleet(GetParam(), nn::resnet56_spec(), small_options(),
                      mesh(10), iid_sizes(10));
  const auto rec = fleet.step();
  EXPECT_GT(rec.round_time, 0.0);
  if (GetParam() == Method::kGossip) {
    // Gossip is asynchronous: its effective round (mean over agents) sits
    // below the synchronous straggler bound but above the fastest agent.
    EXPECT_LE(rec.round_time, rec.compute_time);
  } else {
    EXPECT_GE(rec.round_time, rec.compute_time);
  }
  EXPECT_GE(rec.idle_time, 0.0);
}

TEST_P(BaselineP, StragglerDominatesRound) {
  BaselineFleet fleet(GetParam(), nn::resnet56_spec(), small_options(),
                      mesh(10), iid_sizes(10));
  const auto rec = fleet.step();
  // All baselines train the full model: the straggler's full-model time
  // exceeds ComDML's balanced round. Synchronous baselines expose the
  // straggler in round_time; asynchronous gossip (whose "round" is a mean
  // over agents) only in compute_time.
  SimulatedFleet comdml(nn::resnet56_spec(), small_options(), mesh(10),
                        iid_sizes(10));
  const double comdml_round = comdml.step().round_time;
  if (GetParam() == Method::kGossip)
    EXPECT_GT(rec.compute_time, comdml_round);
  else
    EXPECT_GT(rec.round_time, comdml_round);
}

INSTANTIATE_TEST_SUITE_P(Methods, BaselineP,
                         ::testing::Values(Method::kFedAvg, Method::kFedProx,
                                           Method::kGossip,
                                           Method::kBrainTorrent,
                                           Method::kAllReduceDML));

TEST(Baselines, RejectsComDML) {
  EXPECT_THROW(BaselineFleet(Method::kComDML, nn::resnet56_spec(),
                             small_options(), mesh(10), iid_sizes(10)),
               std::invalid_argument);
}

TEST(Baselines, BrainTorrentAggregationScalesWithFleet) {
  auto t = [&](int64_t k) {
    BaselineFleet fleet(Method::kBrainTorrent, nn::resnet56_spec(),
                        small_options(), mesh(k, 7), iid_sizes(k));
    return fleet.step().aggregation_time;
  };
  EXPECT_GT(t(20), t(10));
}

TEST(Baselines, GossipCommCheaperThanBrainTorrent) {
  BaselineFleet gossip(Method::kGossip, nn::resnet56_spec(),
                       small_options(), mesh(20, 9), iid_sizes(20));
  BaselineFleet bt(Method::kBrainTorrent, nn::resnet56_spec(),
                   small_options(), mesh(20, 9), iid_sizes(20));
  EXPECT_LT(gossip.step().aggregation_time, bt.step().aggregation_time);
}

TEST(Baselines, FedProxSlowerComputeThanFedAvg) {
  BaselineFleet prox(Method::kFedProx, nn::resnet56_spec(),
                     small_options(), mesh(10, 11), iid_sizes(10));
  BaselineFleet avg(Method::kFedAvg, nn::resnet56_spec(), small_options(),
                    mesh(10, 11), iid_sizes(10));
  // Same seed, same participants: FedProx's proximal term scales every
  // solo time, so the round's compute time, by exactly its overhead. The
  // overhead itself is pinned because no paper bench runs FedProx.
  EXPECT_EQ(baselines::kFedProxComputeOverhead, 1.05);
  EXPECT_NEAR(prox.step().compute_time / avg.step().compute_time,
              baselines::kFedProxComputeOverhead, 1e-12);
}

// ---- parameter-server star grid --------------------------------------------

/// Per-agent upload + download seconds of one timing-only server round
/// moving a 1.25 MB model.
std::vector<double> server_times(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, double server_mbps) {
  comm::SimTransport t(
      baselines::param_server_grid(profiles, selected, server_mbps));
  comm::CollectiveRequest req;
  req.elems = comm::fp32_wire_elems(1'250'000);
  req.participants = selected;
  (void)comm::collective(comm::Protocol::kParamServer).run(t, req);
  std::vector<double> times;
  for (const int64_t id : selected)
    times.push_back(t.stats().send_seconds[static_cast<size_t>(id)] +
                    t.stats().recv_seconds[static_cast<size_t>(id)]);
  return times;
}

TEST(ParamServer, SharesServerBandwidth) {
  std::vector<sim::ResourceProfile> profiles(10, {1.0, 100.0});
  std::vector<int64_t> selected(10);
  std::iota(selected.begin(), selected.end(), 0);
  // 10 agents share 100 Mbps -> 10 Mbps each; 1.25 MB each way.
  for (const double t : server_times(profiles, selected, 100.0))
    EXPECT_NEAR(t, 2.0 * 1.005, 1e-6);
}

TEST(ParamServer, AgentLinkCanBeBottleneck) {
  std::vector<sim::ResourceProfile> profiles{{1.0, 10.0}};
  const auto times = server_times(profiles, {0}, 1000.0);
  EXPECT_NEAR(times[0], 2.0 * 1.005, 1e-6);  // limited by the 10 Mbps uplink
}

TEST(ParamServer, DisconnectedAgentThrows) {
  std::vector<sim::ResourceProfile> profiles{{1.0, 0.0}};
  EXPECT_THROW((void)baselines::param_server_grid(profiles, {0}, 1000.0),
               std::invalid_argument);
}

// ---- FleetRuntime facade (simulation engines) -------------------------------

TEST(FleetRuntimeSim, DrivesComDMLSimulation) {
  auto fleet = FleetBuilder()
                   .method(Method::kComDML)
                   .topology(mesh(10))
                   .architecture(nn::resnet56_spec())
                   .shard_sizes(iid_sizes(10))
                   .build();
  EXPECT_FALSE(fleet.real());
  EXPECT_EQ(fleet.agents(), 10);
  const auto rep = fleet.step();
  EXPECT_GT(rep.round_seconds, 0.0);
  EXPECT_GT(rep.num_pairs, 0);
  EXPECT_LT(rep.round_seconds, rep.unbalanced_seconds);
}

TEST(FleetRuntimeSim, DrivesEveryBaselineSimulation) {
  for (const Method m : {Method::kFedAvg, Method::kFedProx, Method::kGossip,
                         Method::kBrainTorrent, Method::kAllReduceDML}) {
    auto fleet = FleetBuilder()
                     .method(m)
                     .topology(mesh(10))
                     .architecture(nn::resnet56_spec())
                     .shard_sizes(iid_sizes(10))
                     .build();
    const auto rep = fleet.step();
    EXPECT_GT(rep.round_seconds, 0.0) << learncurve::method_name(m);
    EXPECT_EQ(rep.num_pairs, 0) << learncurve::method_name(m);
  }
}

TEST(FleetRuntimeSim, RunAccumulatesAndInterpolates) {
  auto fleet = FleetBuilder()
                   .method(Method::kComDML)
                   .topology(mesh(10))
                   .architecture(nn::resnet56_spec())
                   .shard_sizes(iid_sizes(10))
                   .build();
  const auto report = fleet.run(4);
  EXPECT_EQ(report.rounds.size(), 4u);
  EXPECT_EQ(fleet.rounds_executed(), 4);
  EXPECT_GT(report.total_seconds(), 0.0);
  EXPECT_LT(report.time_for_rounds(2.0), report.time_for_rounds(2.5));
  EXPECT_GT(report.time_for_rounds(10.0), report.total_seconds());
}

TEST(FleetRuntimeSim, AggregationProtocolReachesSimulatedRound) {
  // The simulators read FleetOptions directly: the same fleet aggregating
  // by ring instead of halving/doubling trains identically and pays the
  // ring's 2(K-1) latency-bound steps instead of 2 log2 K.
  FleetOptions ring = small_options();
  ring.comms.aggregation = comm::Protocol::kRingAllReduce;
  SimulatedFleet hd(nn::resnet56_spec(), small_options(), mesh(8),
                    iid_sizes(8), Scheduler::kNoOffloading);
  SimulatedFleet rg(nn::resnet56_spec(), ring, mesh(8), iid_sizes(8),
                    Scheduler::kNoOffloading);
  EXPECT_EQ(hd.options().train.batch_size, 100);  // paper preset
  EXPECT_EQ(hd.options().seed, 42u);
  const auto a = hd.step();
  const auto b = rg.step();
  EXPECT_EQ(a.compute_time, b.compute_time);
  EXPECT_LT(a.aggregation_time, b.aggregation_time);
}

TEST(FleetRuntimeSim, SchedulerAblationRunsThroughFacade) {
  auto none = FleetBuilder()
                  .method(Method::kComDML)
                  .scheduler(Scheduler::kNoOffloading)
                  .topology(mesh(10))
                  .architecture(nn::resnet56_spec())
                  .shard_sizes(iid_sizes(10))
                  .build();
  auto comdml = FleetBuilder()
                    .method(Method::kComDML)
                    .topology(mesh(10))
                    .architecture(nn::resnet56_spec())
                    .shard_sizes(iid_sizes(10))
                    .build();
  EXPECT_LT(comdml.step().round_seconds, none.step().round_seconds);
}

TEST(FleetRuntimeSim, ServerBandwidthOptionReachesSimulatedFedAvg) {
  // comms.server_mbps must flow through FleetOptions into the simulated
  // param-server round, not just the real-execution path.
  auto slow_opt = FleetOptions::paper_defaults();
  slow_opt.comms.server_mbps = 10.0;  // congested server: 1 Mbps/agent
  auto fast = FleetBuilder()
                  .method(Method::kFedAvg)
                  .topology(mesh(10))
                  .architecture(nn::resnet56_spec())
                  .shard_sizes(iid_sizes(10))
                  .build();
  auto slow = FleetBuilder()
                  .method(Method::kFedAvg)
                  .options(slow_opt)
                  .topology(mesh(10))
                  .architecture(nn::resnet56_spec())
                  .shard_sizes(iid_sizes(10))
                  .build();
  EXPECT_GT(slow.step().aggregation_seconds,
            fast.step().aggregation_seconds);
}

TEST(FleetRuntimeSim, BuilderRefusesReuseAfterBuild) {
  FleetBuilder builder;
  builder.method(Method::kComDML)
      .topology(mesh(4))
      .architecture(nn::resnet56_spec())
      .shard_sizes(iid_sizes(4));
  (void)builder.build();
  // build() moved the inputs out; a second build must fail loudly instead
  // of constructing a fleet over moved-from state.
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(FleetRuntimeSim, BuilderRejectsInvalidCombinations) {
  // Mixed real + simulated inputs.
  EXPECT_THROW((void)FleetBuilder()
                   .topology(mesh(4))
                   .architecture(nn::resnet56_spec())
                   .shard_sizes(iid_sizes(4))
                   .shards({})
                   .build(),
               std::invalid_argument);
  // Missing topology.
  EXPECT_THROW((void)FleetBuilder()
                   .architecture(nn::resnet56_spec())
                   .shard_sizes(iid_sizes(4))
                   .build(),
               std::invalid_argument);
  // Scheduler ablations are ComDML-only.
  EXPECT_THROW((void)FleetBuilder()
                   .method(Method::kFedAvg)
                   .scheduler(Scheduler::kRandom)
                   .topology(mesh(4))
                   .architecture(nn::resnet56_spec())
                   .shard_sizes(iid_sizes(4))
                   .build(),
               std::invalid_argument);
}

}  // namespace
}  // namespace comdml::core
