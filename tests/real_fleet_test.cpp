// End-to-end real-training tests: the full ComDML round (pairing +
// local-loss split training + message-level AllReduce) on actual tensors,
// and the real baseline fleets.
#include <gtest/gtest.h>

#include "baselines/real_baselines.hpp"
#include "core/fleet_runtime.hpp"
#include "core/real_fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "tensor/ops.hpp"

namespace comdml::core {
namespace {

using baselines::RealBaselineFleet;
using learncurve::Method;
using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;

ModelFactory mlp_factory(int64_t in, int64_t classes) {
  return [in, classes](Rng& rng) { return nn::mlp({in, 24, 24, classes}, rng); };
}

std::vector<data::Dataset> blob_shards(int64_t agents, int64_t per_agent,
                                       int64_t classes, int64_t features,
                                       uint64_t seed) {
  Rng rng(seed);
  const auto ds =
      data::make_blobs(agents * per_agent, classes, features, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), agents, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : parts) shards.push_back(ds.subset(idx));
  return shards;
}

Topology hetero_mesh(int64_t agents) {
  std::vector<ResourceProfile> profiles;
  const std::vector<double> cpus{4.0, 0.2, 2.0, 0.5};
  for (int64_t i = 0; i < agents; ++i)
    profiles.push_back({cpus[static_cast<size_t>(i) % cpus.size()], 100.0});
  return Topology::full_mesh(profiles);
}

TEST(RealFleet, ReplicasStartIdentical) {
  FleetOptions opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 1),
                  hetero_mesh(4), opt);
  Rng rng(2);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(tensor::allclose(fleet.model(a).forward(x, false), y0));
}

TEST(RealFleet, HeterogeneousFleetFormsPairs) {
  FleetOptions opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 3),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  EXPECT_GT(stats.num_pairs, 0);
  EXPECT_GT(stats.sim_time, 0.0);
}

TEST(RealFleet, AggregationRestoresConsensus) {
  FleetOptions opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 4),
                  hetero_mesh(4), opt);
  (void)fleet.step();
  Rng rng(5);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
}

TEST(RealFleet, TrainingImprovesAccuracy) {
  FleetOptions opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  auto shards = blob_shards(4, 60, 3, 6, 6);
  Rng rng(7);
  const auto test = data::make_blobs(120, 3, 6, 0.3f, rng);
  // NOTE: blobs are class-center + noise with centers drawn from the seed;
  // train and test must share centers, so evaluate on the training shards'
  // pooled data instead of an independent draw.
  data::Dataset pooled = shards[0];
  RealFleet fleet(mlp_factory(6, 3), 3, std::move(shards), hetero_mesh(4),
                  opt);
  const float before = fleet.evaluate(pooled);
  for (int r = 0; r < 15; ++r) (void)fleet.step();
  const float after = fleet.evaluate(pooled);
  EXPECT_GT(after, before + 0.2f);
  EXPECT_GT(after, 0.8f);
  (void)test;
}

TEST(RealFleet, ReportsDcorForPairs) {
  FleetOptions opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 8),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  if (stats.num_pairs > 0) {
    EXPECT_GT(stats.mean_dcor, 0.0);
    EXPECT_LE(stats.mean_dcor, 1.0);
  }
}

TEST(RealFleet, DifferentialPrivacyStillLearns) {
  FleetOptions opt;
  opt.privacy.technique = learncurve::PrivacyTechnique::kDifferentialPrivacy;
  opt.privacy.dp_epsilon = 2.0;
  opt.privacy.dp_sensitivity = 1e-4;
  opt.train.batches_per_round = 6;
  auto shards = blob_shards(4, 60, 3, 6, 9);
  data::Dataset pooled = shards[0];
  RealFleet fleet(mlp_factory(6, 3), 3, std::move(shards), hetero_mesh(4),
                  opt);
  for (int r = 0; r < 15; ++r) (void)fleet.step();
  EXPECT_GT(fleet.evaluate(pooled), 0.7f);
}

TEST(RealFleet, PatchShufflePathRunsOnImages) {
  FleetOptions opt;
  opt.privacy.technique = learncurve::PrivacyTechnique::kPatchShuffle;
  opt.privacy.shuffle_patch = 2;
  opt.train.batch_size = 8;
  opt.train.batches_per_round = 2;
  Rng rng(10);
  const auto ds = data::make_synthetic_images(64, 3, {3, 8, 8}, 0.3f, rng);
  const auto parts = data::iid_partition(ds.size(), 2, rng);
  std::vector<data::Dataset> shards{ds.subset(parts[0]),
                                    ds.subset(parts[1])};
  std::vector<ResourceProfile> profiles{{4.0, 100.0}, {0.2, 100.0}};
  ModelFactory factory = [](Rng& r) { return nn::small_cnn(3, 3, r); };
  RealFleet fleet(factory, 3, std::move(shards),
                  Topology::full_mesh(profiles), opt);
  const auto stats = fleet.step();
  EXPECT_GE(stats.mean_loss, 0.0f);
}

TEST(RealFleet, PlateauScheduleDecaysLearningRate) {
  FleetOptions opt;
  opt.train.plateau_factor = 0.5f;
  opt.train.plateau_patience = 2;
  // An LR this small cannot move the loss, so the metric plateaus from
  // round one and the schedule must fire after `patience` rounds.
  opt.train.sgd.lr = 1e-6f;
  opt.train.batches_per_round = 2;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 12, 3, 6, 19),
                  hetero_mesh(4), opt);
  EXPECT_FLOAT_EQ(fleet.current_lr(), 1e-6f);
  for (int r = 0; r < 10; ++r) (void)fleet.step();
  EXPECT_LT(fleet.current_lr(), 1e-6f);
}

TEST(RealFleet, OverlappedRoundsLearnAndKeepConsensus) {
  // Overlapped bucketed aggregation must behave exactly like a normal
  // round from the outside: replicas agree after step() and training
  // still converges.
  FleetOptions opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  auto shards = blob_shards(4, 60, 3, 6, 27);
  data::Dataset pooled = shards[0];
  RealFleet fleet(mlp_factory(6, 3), 3, std::move(shards), hetero_mesh(4),
                  opt);
  for (int r = 0; r < 15; ++r) {
    const auto stats = fleet.step();
    EXPECT_GT(stats.buckets, 1);
    EXPECT_GT(stats.aggregation_bytes, 0);
  }
  Rng rng(28);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
  EXPECT_GT(fleet.evaluate(pooled), 0.8f);
}

TEST(RealFleet, RejectsShardTopologyMismatch) {
  FleetOptions opt;
  EXPECT_THROW(RealFleet(mlp_factory(6, 3), 3, blob_shards(3, 20, 3, 6, 11),
                         hetero_mesh(4), opt),
               std::invalid_argument);
}

TEST(RealFleet, DistContextNeedsExchangeAndCollectiveSync) {
  // The coordinator-arbitrated retry is the only multi-process recovery
  // loop, so a context that could not reach it is refused up front.
  FleetOptions opt;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 1),
                  hetero_mesh(4), opt);
  comm::InProcTransport transport(comm::LinkGrid::from_topology(hetero_mesh(4)));
  RealFleet::DistContext ctx;
  ctx.shard = 0;
  ctx.shards = 2;
  ctx.owner = {0, 1, 0, 1};
  ctx.transport = &transport;
  ctx.exchange = [](RealFleet::ExchangeIO&) {};
  try {
    fleet.set_dist_context(ctx);
    ADD_FAILURE() << "a context without collective_sync must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("collective sync"), std::string::npos)
        << e.what();
  }
}

// ---- real baselines ---------------------------------------------------------------

class RealBaselineP : public ::testing::TestWithParam<Method> {};

TEST_P(RealBaselineP, LearnsBlobs) {
  FleetOptions opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  auto shards = blob_shards(4, 60, 3, 6, 12);
  data::Dataset pooled = shards[0];
  RealBaselineFleet fleet(GetParam(), mlp_factory(6, 3), 3,
                          std::move(shards), hetero_mesh(4), opt);
  for (int r = 0; r < 15; ++r) (void)fleet.step();
  EXPECT_GT(fleet.evaluate(pooled), 0.75f);
}

INSTANTIATE_TEST_SUITE_P(Methods, RealBaselineP,
                         ::testing::Values(Method::kFedAvg, Method::kFedProx,
                                           Method::kGossip,
                                           Method::kBrainTorrent,
                                           Method::kAllReduceDML));

TEST(RealBaselines, FedAvgReachesConsensus) {
  FleetOptions opt;
  RealBaselineFleet fleet(Method::kFedAvg, mlp_factory(6, 3), 3,
                          blob_shards(4, 40, 3, 6, 13), hetero_mesh(4), opt);
  (void)fleet.step();
  Rng rng(14);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
}

TEST(RealBaselines, GossipReplicasMayDiverge) {
  FleetOptions opt;
  RealBaselineFleet fleet(Method::kGossip, mlp_factory(6, 3), 3,
                          blob_shards(4, 40, 3, 6, 15), hetero_mesh(4), opt);
  (void)fleet.step();
  Rng rng(16);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  // After one gossip round the fleet need not agree (single-peer mixing).
  int diverged = 0;
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    if (!tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-6f))
      ++diverged;
  EXPECT_GT(diverged, 0);
}

TEST(RealBaselines, GossipChargesTheConfiguredLatency) {
  // Each gossip push costs latency + bytes / bandwidth, so raising the
  // configured link latency moves the round's aggregation time by exactly
  // the difference (training and the partner draw do not depend on it).
  const auto aggregation_seconds = [](double latency) {
    FleetOptions opt;
    opt.comms.latency_sec = latency;
    RealBaselineFleet fleet(Method::kGossip, mlp_factory(6, 3), 3,
                            blob_shards(4, 40, 3, 6, 15), hetero_mesh(4),
                            opt);
    return fleet.step().aggregation_seconds;
  };
  const double base = aggregation_seconds(comm::kDefaultLatencySec);
  EXPECT_NEAR(aggregation_seconds(0.05) - base,
              0.05 - comm::kDefaultLatencySec, 1e-12);
}

TEST(RealBaselines, FedAvgToleratesDisconnectedAgent) {
  // An offline agent cannot reach the param-server star; aggregation must
  // fall back to the historical local weighted mean instead of throwing.
  std::vector<ResourceProfile> profiles{
      {4.0, 100.0}, {0.2, 100.0}, {2.0, 0.0}};
  FleetOptions opt;
  RealBaselineFleet fleet(Method::kFedAvg, mlp_factory(6, 3), 3,
                          blob_shards(3, 20, 3, 6, 25),
                          Topology::full_mesh(profiles), opt);
  const auto stats = fleet.step();
  EXPECT_EQ(stats.aggregation_bytes, 0);  // no transport traffic accounted
  Rng rng(26);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 3; ++a)
    EXPECT_TRUE(
        tensor::allclose(fleet.model(a).forward(x, false), y0, 1e-4f));
}

TEST(RealBaselines, RejectsComDML) {
  FleetOptions opt;
  EXPECT_THROW(RealBaselineFleet(Method::kComDML, mlp_factory(6, 3), 3,
                                 blob_shards(2, 20, 3, 6, 17),
                                 hetero_mesh(2), opt),
               std::invalid_argument);
}

// ---- FleetRuntime facade (real-execution engines) ---------------------------

TEST(FleetRuntimeReal, ComDMLTrainsAndEvaluatesThroughFacade) {
  auto shards = blob_shards(4, 60, 3, 6, 21);
  data::Dataset pooled = shards[0];
  FleetOptions opt;
  opt.train.batches_per_round = 6;
  opt.train.sgd.lr = 0.08f;
  auto fleet = FleetBuilder()
                   .method(Method::kComDML)
                   .options(opt)
                   .topology(hetero_mesh(4))
                   .model(mlp_factory(6, 3), 3)
                   .shards(std::move(shards))
                   .build();
  EXPECT_TRUE(fleet.real());
  EXPECT_EQ(fleet.agents(), 4);
  for (int r = 0; r < 15; ++r) {
    const auto rep = fleet.step();
    EXPECT_GT(rep.round_seconds, 0.0);
    // The collective executed for real: traffic was accounted.
    EXPECT_GT(rep.aggregation_bytes, 0);
    EXPECT_GT(rep.aggregation_seconds, 0.0);
  }
  EXPECT_GT(fleet.evaluate(pooled), 0.8f);
}

TEST(FleetRuntimeReal, BaselineReportsExecutedCollectiveTraffic) {
  auto shards = blob_shards(4, 40, 3, 6, 22);
  auto fleet = FleetBuilder()
                   .method(Method::kFedAvg)
                   .topology(hetero_mesh(4))
                   .model(mlp_factory(6, 3), 3)
                   .shards(std::move(shards))
                   .build();
  const auto rep = fleet.step();
  EXPECT_GT(rep.aggregation_bytes, 0);
  EXPECT_GT(rep.aggregation_seconds, 0.0);
  EXPECT_GT(rep.mean_loss, 0.0f);
  // Param-server aggregation leaves all replicas in consensus.
  Rng rng(23);
  const auto x = rng.normal_tensor({5, 6}, 0, 1);
  const auto y0 = fleet.model(0).forward(x, false);
  for (int64_t a = 1; a < 4; ++a)
    EXPECT_TRUE(tensor::allclose(fleet.model(a).forward(x, false), y0));
}

TEST(FleetRuntimeReal, EvaluateRejectsSimulatedFleets) {
  Rng rng(24);
  auto sim = FleetBuilder()
                 .method(Method::kComDML)
                 .topology(hetero_mesh(4))
                 .architecture(nn::resnet56_spec())
                 .shard_sizes({100, 100, 100, 100})
                 .build();
  const auto test = data::make_blobs(12, 3, 6, 0.3f, rng);
  EXPECT_THROW((void)sim.evaluate(test), std::invalid_argument);
  EXPECT_THROW((void)sim.model(0), std::invalid_argument);
}

}  // namespace
}  // namespace comdml::core
