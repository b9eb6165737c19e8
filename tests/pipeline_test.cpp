// Overlapped round pipeline tests: the bucket registry (partition /
// flatten / unit-readiness), the non-blocking stepped collectives
// (AsyncCollective poll/wait vs the blocking run), bucket determinism
// (bit-identical model state across bucket sizes, thread counts, and
// overlapped-vs-sequential mode), predicted-vs-executed overlap parity,
// the timeline composer, and FleetOptions validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "baselines/real_baselines.hpp"
#include "comm/collective.hpp"
#include "core/fleet_runtime.hpp"
#include "core/parallel.hpp"
#include "core/real_fleet.hpp"
#include "core/round_pipeline.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/bucket.hpp"
#include "nn/resnet.hpp"

namespace comdml {
namespace {

using core::FleetOptions;
using core::RealFleet;
using core::compose_overlap_timeline;
using core::set_num_threads;
using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_num_threads(0); }  // restore env default
};

// ---- shared fixtures --------------------------------------------------------

core::ModelFactory mlp_factory(int64_t in, int64_t classes) {
  return [in, classes](Rng& rng) {
    return nn::mlp({in, 24, 24, classes}, rng);
  };
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

/// Concatenated state of every agent replica after `rounds` fleet rounds.
std::vector<Tensor> fleet_state(const FleetOptions& opt, int64_t agents,
                                int rounds, uint64_t data_seed = 55) {
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(agents, 30, 3, 6, data_seed),
                  hetero_mesh(agents), opt);
  for (int r = 0; r < rounds; ++r) (void)fleet.step();
  std::vector<Tensor> all;
  for (int64_t a = 0; a < fleet.agents(); ++a) {
    auto s = nn::state_of(fleet.model(a));
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

void expect_states_equal(const std::vector<Tensor>& a,
                         const std::vector<Tensor>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << ": state tensor " << i << " differs";
}

// ---- BucketPlan -------------------------------------------------------------

TEST(BucketPlan, PartitionCoversStateInOrder) {
  Rng rng(1);
  const auto model = nn::small_cnn(3, 4, rng);
  const auto plan = nn::BucketPlan::build(*model, 1024);
  std::vector<Tensor*> state;
  model->collect_state(state);
  int64_t total = 0;
  for (const Tensor* t : state) total += t->size();
  EXPECT_EQ(plan.total_elems(), total);
  ASSERT_GT(plan.buckets(), 1);
  int64_t offset = 0;
  size_t tensor = 0;
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    const nn::Bucket& bk = plan.bucket(b);
    EXPECT_EQ(bk.offset_elems, offset) << "bucket " << b;
    EXPECT_EQ(bk.first_tensor, tensor) << "bucket " << b;
    EXPECT_GT(bk.tensor_count, 0u);
    EXPECT_LE(bk.first_unit, bk.last_unit);
    offset += bk.elems;
    tensor += bk.tensor_count;
  }
  EXPECT_EQ(offset, total);
  EXPECT_EQ(tensor, state.size());
}

TEST(BucketPlan, RespectsByteCapExceptForOversizedTensors) {
  Rng rng(2);
  const auto model = nn::mlp({8, 64, 4}, rng);  // 8x64 weight > 1 KiB
  const int64_t cap_bytes = 1024;
  const auto plan = nn::BucketPlan::build(*model, cap_bytes);
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    const nn::Bucket& bk = plan.bucket(b);
    if (bk.elems * 4 > cap_bytes) {
      // Oversized buckets are single whole tensors.
      EXPECT_EQ(bk.tensor_count, 1u) << "bucket " << b;
    }
  }
}

TEST(BucketPlan, ZeroBucketBytesYieldsOneFlatBucket) {
  Rng rng(3);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 0);
  EXPECT_EQ(plan.buckets(), 1);
  EXPECT_EQ(plan.bucket(0).elems, plan.total_elems());
}

TEST(BucketPlan, FlattenUnflattenRoundTrips) {
  Rng rng(4);
  const auto model = nn::mlp({6, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 128);
  const auto before = nn::state_of(*model);
  std::vector<double> flat(static_cast<size_t>(plan.total_elems()));
  std::vector<Tensor*> ptrs;
  model->collect_state(ptrs);
  for (int64_t b = 0; b < plan.buckets(); ++b)
    plan.flatten_bucket(ptrs, b, flat.data() + plan.bucket(b).offset_elems);
  // Perturb, restore through unflatten, expect the original bits.
  for (Tensor* t : ptrs) t->fill(0.0f);
  for (int64_t b = 0; b < plan.buckets(); ++b)
    plan.unflatten_bucket(flat.data() + plan.bucket(b).offset_elems, b,
                          ptrs);
  const auto after = nn::state_of(*model);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

TEST(BucketPlan, UnitParamCountsMatchModel) {
  Rng rng(5);
  const auto model = nn::small_cnn(3, 4, rng);
  const auto plan = nn::BucketPlan::build(*model, 4096);
  ASSERT_EQ(plan.unit_param_counts().size(), model->size());
  size_t total = 0;
  for (size_t u = 0; u < model->size(); ++u) {
    EXPECT_EQ(plan.unit_param_counts()[u],
              model->unit(u).parameters().size());
    total += plan.unit_param_counts()[u];
  }
  EXPECT_EQ(total, model->parameters().size());
}

// ---- BucketReadyTracker -----------------------------------------------------

TEST(BucketReadyTracker, ReverseUnitWalkFiresOutputSideBucketsFirst) {
  Rng rng(6);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 64);
  ASSERT_GT(plan.buckets(), 2);
  nn::BucketReadyTracker tracker(plan);
  std::vector<int64_t> order;
  for (size_t u = model->size(); u-- > 0;)
    tracker.unit_done(u, [&](int64_t b) { order.push_back(b); });
  // Every bucket fires exactly once...
  EXPECT_EQ(tracker.fired(), plan.buckets());
  ASSERT_EQ(order.size(), static_cast<size_t>(plan.buckets()));
  // ...grouped output-side first: a bucket owned by a deeper unit always
  // fires before any bucket of a shallower unit.
  for (size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(plan.bucket(order[i - 1]).last_unit,
              plan.bucket(order[i]).last_unit);
  // finish() after a full walk has nothing left to fire.
  tracker.finish([&](int64_t) { FAIL() << "finish() re-fired a bucket"; });
}

TEST(BucketReadyTracker, BucketSpanningTwoUnitsWaitsForBoth) {
  Rng rng(7);
  const auto model = nn::mlp({4, 6, 3}, rng);  // several tensors per unit
  const auto plan = nn::BucketPlan::build(*model, 0);  // one flat bucket
  nn::BucketReadyTracker tracker(plan);
  int fired = 0;
  // Walk all units but the first: the flat bucket spans every
  // state-owning unit, so it must not fire yet.
  for (size_t u = model->size(); u-- > 1;)
    tracker.unit_done(u, [&](int64_t) { ++fired; });
  EXPECT_EQ(fired, 0);
  tracker.unit_done(0, [&](int64_t) { ++fired; });
  EXPECT_EQ(fired, 1);
}

// ---- AsyncCollective --------------------------------------------------------

class AsyncParityP
    : public ::testing::TestWithParam<std::tuple<int, comm::Protocol>> {};

TEST_P(AsyncParityP, PollDrivenRunMatchesBlockingRun) {
  const auto [k, protocol] = GetParam();
  const int64_t elems = 103;
  Rng rng(100 + static_cast<uint64_t>(k));
  std::vector<std::vector<double>> blocking_bufs(static_cast<size_t>(k)),
      async_bufs(static_cast<size_t>(k));
  for (int64_t a = 0; a < k; ++a) {
    auto& b = blocking_bufs[static_cast<size_t>(a)];
    b.resize(static_cast<size_t>(elems));
    for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
    async_bufs[static_cast<size_t>(a)] = b;
  }

  comm::InProcTransport blocking_t(comm::LinkGrid::uniform(k, 100.0));
  comm::CollectiveRequest blocking_req;
  blocking_req.elems = elems;
  for (auto& b : blocking_bufs) blocking_req.buffers.push_back(b.data());
  (void)comm::collective(protocol).run(blocking_t, blocking_req);

  comm::InProcTransport async_t(comm::LinkGrid::uniform(k, 100.0));
  comm::CollectiveRequest async_req;
  async_req.elems = elems;
  for (auto& b : async_bufs) async_req.buffers.push_back(b.data());
  comm::AsyncCollective op(protocol, async_t, std::move(async_req));
  int64_t polls = 0;
  while (!op.done()) {
    (void)op.poll();
    ++polls;
  }

  // Same schedule: one transport step per poll, identical accounting,
  // bitwise identical results.
  EXPECT_EQ(polls, op.total_steps());
  EXPECT_EQ(async_t.stats().steps, blocking_t.stats().steps);
  EXPECT_EQ(async_t.stats().messages, blocking_t.stats().messages);
  EXPECT_EQ(async_t.stats().total_wire_bytes,
            blocking_t.stats().total_wire_bytes);
  EXPECT_DOUBLE_EQ(async_t.stats().seconds, blocking_t.stats().seconds);
  for (int64_t a = 0; a < k; ++a)
    EXPECT_EQ(async_bufs[static_cast<size_t>(a)],
              blocking_bufs[static_cast<size_t>(a)])
        << "agent " << a;
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, AsyncParityP,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 12),
        ::testing::Values(comm::Protocol::kRingAllReduce,
                          comm::Protocol::kHalvingDoublingAllReduce)));

TEST(AsyncCollective, SingleAgentIsImmediatelyDone) {
  comm::InProcTransport t(comm::LinkGrid::uniform(1, 100.0));
  std::vector<double> buf{1.0, 2.0};
  comm::CollectiveRequest req;
  req.elems = 2;
  req.buffers = {buf.data()};
  comm::AsyncCollective op(comm::Protocol::kHalvingDoublingAllReduce, t,
                           std::move(req));
  EXPECT_TRUE(op.done());
  op.wait();
  EXPECT_EQ(buf[0], 1.0);  // untouched
}

TEST(AsyncCollective, RejectsProtocolsWithoutSteppedSchedule) {
  EXPECT_THROW((void)comm::allreduce_schedule(comm::Protocol::kGossip, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(
      (void)comm::allreduce_schedule(comm::Protocol::kParamServer, 4, 8),
      std::invalid_argument);
  // The non-blocking driver only runs stepped schedules: gossip and the
  // param-server round go through collective(protocol).run().
  comm::InProcTransport t(comm::LinkGrid::uniform(4, 100.0));
  for (const auto protocol :
       {comm::Protocol::kGossip, comm::Protocol::kParamServer}) {
    comm::CollectiveRequest req;
    req.elems = 8;
    EXPECT_THROW(comm::AsyncCollective(protocol, t, req),
                 std::invalid_argument);
  }
  EXPECT_EQ(t.stats().messages, 0);
}

// ---- bucketed determinism at the collective layer ---------------------------

TEST(BucketDeterminism, HalvingDoublingBucketedMatchesFlatBitwise) {
  // Halving/doubling reduces every element through the same balanced
  // binary agent tree regardless of segmentation, so bucketing must not
  // change a single bit of the result.
  for (const int64_t k : {4, 7}) {
    const int64_t elems = 257;
    Rng rng(200 + static_cast<uint64_t>(k));
    std::vector<std::vector<double>> base(static_cast<size_t>(k));
    for (auto& b : base) {
      b.resize(static_cast<size_t>(elems));
      for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
    }

    auto flat = base;
    comm::InProcTransport flat_t(comm::LinkGrid::uniform(k, 100.0));
    comm::CollectiveRequest flat_req;
    flat_req.elems = elems;
    for (auto& b : flat) flat_req.buffers.push_back(b.data());
    (void)comm::collective(comm::Protocol::kHalvingDoublingAllReduce)
        .run(flat_t, flat_req);

    for (const int64_t bucket_elems : {32, 100, 257}) {
      auto bucketed = base;
      for (int64_t begin = 0; begin < elems; begin += bucket_elems) {
        const int64_t len = std::min(bucket_elems, elems - begin);
        comm::InProcTransport t(comm::LinkGrid::uniform(k, 100.0));
        comm::CollectiveRequest req;
        req.elems = len;
        for (auto& b : bucketed) req.buffers.push_back(b.data() + begin);
        (void)comm::collective(comm::Protocol::kHalvingDoublingAllReduce)
            .run(t, req);
      }
      for (int64_t a = 0; a < k; ++a)
        EXPECT_EQ(bucketed[static_cast<size_t>(a)],
                  flat[static_cast<size_t>(a)])
            << "k=" << k << " bucket_elems=" << bucket_elems << " agent "
            << a;
    }
  }
}

// ---- timeline composer ------------------------------------------------------

TEST(OverlapTimeline, SerializesBucketsOnTheLink) {
  // All ready at t=10: pure pipeline after the barrier.
  const auto tl = compose_overlap_timeline({10, 10, 10}, {2, 3, 1});
  EXPECT_DOUBLE_EQ(tl.start[0], 10.0);
  EXPECT_DOUBLE_EQ(tl.finish[0], 12.0);
  EXPECT_DOUBLE_EQ(tl.start[1], 12.0);
  EXPECT_DOUBLE_EQ(tl.finish[1], 15.0);
  EXPECT_DOUBLE_EQ(tl.finish[2], 16.0);
  EXPECT_DOUBLE_EQ(tl.span, 16.0);
}

TEST(OverlapTimeline, EarlyBucketsHideBehindCompute) {
  // Bucket 2 ready first (output side), bucket 0 last: comm starts at 4
  // and overlaps the remaining compute; only the tail is exposed.
  const auto tl = compose_overlap_timeline({10, 7, 4}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(tl.start[2], 4.0);
  EXPECT_DOUBLE_EQ(tl.start[1], 7.0);
  EXPECT_DOUBLE_EQ(tl.start[0], 10.0);
  EXPECT_DOUBLE_EQ(tl.span, 12.0);  // vs 10 + 6 = 16 sequential
}

TEST(OverlapTimeline, LinkContentionQueuesReadyBuckets) {
  const auto tl = compose_overlap_timeline({0, 1, 2}, {5, 5, 5});
  EXPECT_DOUBLE_EQ(tl.start[1], 5.0);
  EXPECT_DOUBLE_EQ(tl.start[2], 10.0);
  EXPECT_DOUBLE_EQ(tl.span, 15.0);
}

// ---- RoundPipeline ----------------------------------------------------------

TEST(RoundPipeline, ConcurrentProducersAndCollectorsReduceEveryBucket) {
  Rng rng(8);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 128);
  const int64_t k = 6;
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kHalvingDoublingAllReduce);

  // Expected mean of the synthetic per-agent payloads.
  const int64_t n = plan.total_elems();
  std::vector<double> expected(static_cast<size_t>(n), 0.0);
  const auto value_of = [&](int64_t agent, int64_t i) {
    return static_cast<double>(agent + 1) * 0.5 +
           static_cast<double>(i % 17) * 0.25;
  };
  for (int64_t a = 0; a < k; ++a)
    for (int64_t i = 0; i < n; ++i)
      expected[static_cast<size_t>(i)] += value_of(a, i);
  for (auto& v : expected) v /= static_cast<double>(k);

  // Producers contribute from their own threads while two collectors
  // drain concurrently.
  std::vector<std::thread> threads;
  for (int64_t a = 0; a < k; ++a) {
    threads.emplace_back([&, a] {
      for (int64_t b = plan.buckets(); b-- > 0;) {
        const nn::Bucket& bk = plan.bucket(b);
        double* slot = pipeline.slot(a, b);
        for (int64_t i = 0; i < bk.elems; ++i)
          slot[i] = value_of(a, bk.offset_elems + i);
        pipeline.contribute(a, b);
      }
    });
  }
  for (int c = 0; c < 2; ++c)
    threads.emplace_back([&] { pipeline.drain(); });
  for (auto& t : threads) t.join();

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.buckets, plan.buckets());
  EXPECT_GT(stats.comm_seconds, 0.0);
  EXPECT_GT(stats.max_bytes_sent, 0);
  for (int64_t a = 0; a < k; ++a)
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      const nn::Bucket& bk = plan.bucket(b);
      const double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < bk.elems; ++i)
        EXPECT_NEAR(slot[i],
                    expected[static_cast<size_t>(bk.offset_elems + i)],
                    1e-12)
            << "agent " << a << " bucket " << b << " elem " << i;
    }
}

TEST(RoundPipeline, BeginRoundResetsForReuse) {
  Rng rng(9);
  const auto model = nn::mlp({4, 8, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 64);
  const int64_t k = 3;
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kRingAllReduce);
  for (int round = 0; round < 3; ++round) {
    pipeline.begin_round();
    for (int64_t a = 0; a < k; ++a) {
      for (int64_t b = 0; b < plan.buckets(); ++b) {
        double* slot = pipeline.slot(a, b);
        for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
          slot[i] = static_cast<double>(a);
      }
      pipeline.contribute_all(a);
    }
    pipeline.drain();
    const auto stats = pipeline.stats();
    EXPECT_EQ(stats.buckets, plan.buckets());
    // Stats are per round, not cumulative.
    EXPECT_EQ(stats.steps, plan.buckets() * 2 * (k - 1));  // ring steps
    for (int64_t a = 0; a < k; ++a)
      EXPECT_NEAR(pipeline.slot(a, 0)[0], 1.0, 1e-12);  // mean of 0,1,2
  }
}

// ---- predicted vs executed overlap parity -----------------------------------

class OverlapParityP : public ::testing::TestWithParam<comm::Protocol> {};

TEST_P(OverlapParityP, SimPredictsExecutedBucketScheduleExactly) {
  const comm::Protocol protocol = GetParam();
  Rng rng(11);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  const int64_t k = 5;
  const auto grid = comm::LinkGrid::uniform(k, 40.0);

  // Predicted: timing-only SimTransport run of each bucket's schedule.
  std::vector<double> predicted_seconds;
  std::vector<int64_t> predicted_steps;
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    comm::SimTransport sim(grid);
    comm::CollectiveRequest req;
    req.elems = plan.bucket(b).elems;
    comm::AsyncCollective op(protocol, sim, std::move(req));
    op.wait();
    predicted_seconds.push_back(sim.stats().seconds);
    predicted_steps.push_back(sim.stats().steps);
  }

  // Executed: the concurrent pipeline with real payloads.
  core::RoundPipeline pipeline(k, plan, grid, protocol);
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
        slot[i] = static_cast<double>(a + i % 7);
      pipeline.contribute(a, b);
    }
  }
  pipeline.drain();
  const auto stats = pipeline.stats();

  // Per-bucket predicted clock == executed clock, so any timeline composed
  // from ready times is identical for the predicted and executed schedule.
  ASSERT_EQ(stats.bucket_seconds.size(), predicted_seconds.size());
  int64_t executed_steps = 0;
  for (size_t b = 0; b < predicted_seconds.size(); ++b)
    EXPECT_DOUBLE_EQ(stats.bucket_seconds[b], predicted_seconds[b])
        << "bucket " << b;
  for (const int64_t s : predicted_steps) executed_steps += s;
  EXPECT_EQ(stats.steps, executed_steps);

  const std::vector<double> ready(predicted_seconds.size(), 1.0);
  const auto predicted_tl = compose_overlap_timeline(ready, predicted_seconds);
  const auto executed_tl =
      compose_overlap_timeline(ready, stats.bucket_seconds);
  EXPECT_DOUBLE_EQ(predicted_tl.span, executed_tl.span);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, OverlapParityP,
    ::testing::Values(comm::Protocol::kRingAllReduce,
                      comm::Protocol::kHalvingDoublingAllReduce));

// ---- compressed bucket collectives ------------------------------------------

/// Reference fixture for codec tests: one pipeline round over synthetic
/// per-agent payloads; returns executed max bytes sent by any agent.
int64_t pipeline_round_bytes(const nn::BucketPlan& plan, int64_t k,
                             const comm::Codec* codec, bool error_feedback) {
  core::RoundPipeline pipeline(k, plan, comm::LinkGrid::uniform(k, 100.0),
                               comm::Protocol::kHalvingDoublingAllReduce, codec,
                               error_feedback);
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
        slot[i] = static_cast<double>(a + 1) * 0.25 +
                  static_cast<double>(i % 13) * 0.125;
    }
    pipeline.contribute_all(a);
  }
  pipeline.drain();
  return pipeline.stats().max_bytes_sent;
}

TEST(CompressedBuckets, QuantizedBytesPerRoundAtLeast3xUnderFp32) {
  // The CI regression guard: executed allreduce bytes_per_round of the
  // quantized bucket collectives must stay under 30 % of (i.e. >= 3.3x
  // below) the fp32 wire, at realistic bucket sizes.
  Rng rng(12);
  const auto model = nn::mlp({32, 128, 128, 10}, rng);
  const auto plan = nn::BucketPlan::build(*model, 16 * 1024);
  ASSERT_GT(plan.buckets(), 1);
  for (const int64_t k : {4, 8}) {
    const int64_t fp32_bytes = pipeline_round_bytes(plan, k, nullptr, false);
    const int64_t int8_bytes =
        pipeline_round_bytes(plan, k, &comm::quantized_codec(), true);
    EXPECT_GT(fp32_bytes, 0);
    EXPECT_LE(10 * int8_bytes, 3 * fp32_bytes)
        << "k=" << k << ": quantized wire " << int8_bytes
        << " B exceeds 30% of fp32 " << fp32_bytes << " B";
  }
}

TEST(CompressedBuckets, SimPredictsExecutedQuantizedBucketsExactly) {
  // Per-bucket SimTransport predictions (timing-only, quantized codec)
  // equal the InProc pipeline's executed bytes and modeled clock.
  Rng rng(13);
  const auto model = nn::mlp({6, 16, 12, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 256);
  const int64_t k = 5;
  const auto grid = comm::LinkGrid::uniform(k, 40.0);

  std::vector<double> predicted_seconds;
  std::vector<int64_t> predicted_bytes;
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    comm::SimTransport sim(grid, &comm::quantized_codec());
    comm::CollectiveRequest req;
    req.elems = plan.bucket(b).elems;
    comm::AsyncCollective op(comm::Protocol::kHalvingDoublingAllReduce, sim,
                             std::move(req));
    op.wait();
    predicted_seconds.push_back(sim.stats().seconds);
    predicted_bytes.push_back(sim.stats().max_bytes_sent());
  }

  core::RoundPipeline pipeline(k, plan, grid,
                               comm::Protocol::kHalvingDoublingAllReduce,
                               &comm::quantized_codec(), true);
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = 0; b < plan.buckets(); ++b) {
      double* slot = pipeline.slot(a, b);
      for (int64_t i = 0; i < plan.bucket(b).elems; ++i)
        slot[i] = static_cast<double>(a) - 0.3 * static_cast<double>(i % 5);
      pipeline.contribute(a, b);
    }
  }
  pipeline.drain();
  const auto stats = pipeline.stats();
  ASSERT_EQ(stats.bucket_seconds.size(), predicted_seconds.size());
  int64_t predicted_max_sent = 0;
  for (size_t b = 0; b < predicted_seconds.size(); ++b) {
    EXPECT_DOUBLE_EQ(stats.bucket_seconds[b], predicted_seconds[b])
        << "bucket " << b;
    predicted_max_sent += predicted_bytes[b];
  }
  // Every agent sends the same bytes on a uniform grid, so the pipeline's
  // per-agent sum equals the summed per-bucket prediction.
  EXPECT_EQ(stats.max_bytes_sent, predicted_max_sent);
}

TEST(CompressedBuckets, ErrorFeedbackDrivesRepeatedRoundsToTheMean) {
  // k=1 isolates the publish-time quantization: each round the pipeline
  // quantizes the published payload once and carries the error. With
  // error feedback the time-average of the delivered payloads converges
  // to the true value well below one-shot int8 resolution; without it the
  // one-shot bias persists forever.
  Rng rng(14);
  const auto model = nn::mlp({4, 8, 3}, rng);
  const auto plan = nn::BucketPlan::build(*model, 0);  // one bucket
  const int64_t n = plan.total_elems();
  std::vector<double> truth(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    truth[static_cast<size_t>(i)] =
        0.731 * std::sin(0.37 * static_cast<double>(i)) + 0.113;

  for (const bool ef : {true, false}) {
    core::RoundPipeline pipeline(1, plan, comm::LinkGrid::uniform(1, 100.0),
                                 comm::Protocol::kHalvingDoublingAllReduce,
                                 &comm::quantized_codec(), ef);
    constexpr int kRounds = 64;
    std::vector<double> mean(static_cast<size_t>(n), 0.0);
    for (int r = 0; r < kRounds; ++r) {
      pipeline.begin_round();
      std::copy(truth.begin(), truth.end(), pipeline.slot(0, 0));
      pipeline.contribute_all(0);
      pipeline.drain();
      const double* out = pipeline.slot(0, 0);
      for (int64_t i = 0; i < n; ++i)
        mean[static_cast<size_t>(i)] += out[i] / kRounds;
    }
    double worst = 0.0;
    for (int64_t i = 0; i < n; ++i)
      worst = std::max(worst, std::fabs(mean[static_cast<size_t>(i)] -
                                        truth[static_cast<size_t>(i)]));
    const double one_shot = 0.85 / 127.0;  // int8 step of the range
    if (ef) {
      EXPECT_LT(worst, one_shot / 4) << "error feedback should average out";
    } else {
      EXPECT_GT(worst, 1e-9) << "without EF the quantization bias persists";
    }
  }
}

TEST(CompressedBuckets, FusedErrorFeedbackMatchesUnfusedComposition) {
  // encode_feedback folds s += r into the max scan and r = s - Q(s) into
  // the quantize: two passes, bit-identical to the five-pass composition
  // it replaced, Inf and NaN sums included.
  const double inf = std::numeric_limits<double>::infinity();
  for (const comm::Codec* codec :
       {&comm::quantized_codec(), &comm::identity_codec()})
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{301066}})
      for (const bool with_inf : {false, true}) {
        Rng rng(70 + n);
        std::vector<double> s(n), r(n);
        for (size_t i = 0; i < n; ++i) {
          s[i] = rng.normal(0.0f, 1.0f);
          r[i] = 0.01 * rng.normal(0.0f, 1.0f);
        }
        if (with_inf && n > 0) {
          s[n / 2] = inf;
          r[0] = -inf;  // inf + -inf at n == 1: a NaN sum
        }
        std::vector<double> s_ref = s, r_ref = r;
        for (size_t i = 0; i < n; ++i) {
          s_ref[i] += r_ref[i];
          r_ref[i] = s_ref[i];
        }
        const int64_t elems = static_cast<int64_t>(n);
        const int64_t wire = codec->encode(s_ref.data(), elems);
        for (size_t i = 0; i < n; ++i) r_ref[i] -= s_ref[i];

        EXPECT_EQ(codec->encode_feedback(s.data(), r.data(), elems), wire);
        if (n == 0) continue;  // memcmp takes no null (empty) pointers
        const size_t bytes = n * sizeof(double);
        EXPECT_EQ(std::memcmp(s.data(), s_ref.data(), bytes), 0)
            << codec->name() << " n=" << n << " inf=" << with_inf;
        EXPECT_EQ(std::memcmp(r.data(), r_ref.data(), bytes), 0)
            << codec->name() << " n=" << n << " inf=" << with_inf;
      }
}

TEST(CompressedBuckets, QuantizedFleetTracksFp32Accuracy) {
  // Tier-1 convergence: a quantized+error-feedback fleet must land within
  // tolerance of the fp32 fleet's accuracy on the blob workload.
  const auto run = [&](FleetOptions::CommOptions::Codec codec) {
    FleetOptions opt;
    opt.seed = 17;
    opt.comms.bucket_bytes = 512;
    opt.comms.overlap = true;
    opt.comms.codec = codec;
    opt.comms.error_feedback = true;
    RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 40, 3, 6, 91),
                    hetero_mesh(4), opt);
    for (int r = 0; r < 12; ++r) (void)fleet.step();
    return fleet.evaluate(blob_shards(4, 40, 3, 6, 91)[0]);
  };
  const float fp32_acc = run(FleetOptions::CommOptions::Codec::kFp32);
  const float int8_acc = run(FleetOptions::CommOptions::Codec::kInt8Quantized);
  EXPECT_GT(fp32_acc, 0.6f);  // the workload itself converges
  EXPECT_NEAR(int8_acc, fp32_acc, 0.15f);
}

TEST(CompressedBuckets, IdentityCodecStaysBitIdenticalRegardlessOfEf) {
  // codec = kFp32 must be bit-identical to the pre-codec rounds whatever
  // the error_feedback knob says (EF is a no-op for a lossless codec).
  FleetOptions base;
  base.seed = 99;
  base.comms.bucket_bytes = 512;
  const auto reference = fleet_state(base, 4, 2);
  for (const bool ef : {false, true}) {
    FleetOptions opt = base;
    opt.comms.codec = FleetOptions::CommOptions::Codec::kFp32;
    opt.comms.error_feedback = ef;
    expect_states_equal(reference, fleet_state(opt, 4, 2),
                        "identity codec with/without error feedback");
  }
}

TEST(CompressedBuckets, ValidateRejectsLossyCodecWithoutBuckets) {
  FleetOptions opt;
  opt.comms.codec = FleetOptions::CommOptions::Codec::kInt8Quantized;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt.comms.bucket_bytes = 4096;
  EXPECT_NO_THROW(opt.validate());
}

// ---- split-trainer layerwise readiness --------------------------------------

std::vector<int64_t> batch_labels(int64_t samples, int64_t classes,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> labels(static_cast<size_t>(samples));
  for (auto& l : labels) l = rng.below(classes);
  return labels;
}

TEST(SplitNotify, MatchesTrainBatchBitwise) {
  // Per-unit stepping during both backwards is bit-identical to the plain
  // two-phase split step: per-parameter SGD math is order-independent.
  const tensor::Shape in_shape{6};
  const int64_t classes = 3, samples = 10;
  Rng data_rng(21);
  const Tensor x = data_rng.normal_tensor({samples, 6}, 0, 1);
  const auto labels = batch_labels(samples, classes, 22);

  Rng m1(5), m2(5), t1(6), t2(6);
  const auto model_a = nn::mlp({6, 16, 12, classes}, m1);
  const auto model_b = nn::mlp({6, 16, 12, classes}, m2);
  const auto plan = nn::BucketPlan::build(*model_b, 64);
  const size_t cut = 2;
  nn::SGD::Options sgd{0.05f, 0.9f, 0.0f};
  nn::LocalLossSplitTrainer plain(*model_a, cut, in_shape, classes, t1, sgd);
  nn::LocalLossSplitTrainer notify(*model_b, cut, in_shape, classes, t2,
                                   sgd);

  for (int b = 0; b < 3; ++b) {
    const auto sa = plain.train_batch(x, labels);
    const auto sb = notify.train_batch_notify(
        x, labels, plan.unit_param_counts(), nullptr);
    EXPECT_EQ(sa.slow_loss, sb.slow_loss) << "batch " << b;
    EXPECT_EQ(sa.fast_loss, sb.fast_loss) << "batch " << b;
  }
  const auto state_a = nn::state_of(*model_a);
  const auto state_b = nn::state_of(*model_b);
  expect_states_equal(state_a, state_b, "split notify vs plain");
}

TEST(SplitNotify, ReusedMomentumBuffersStartFromZero) {
  // A split trainer handed an earlier trainer's momentum buffers reuses
  // them zero-filled: its updates are bit-identical to a fresh trainer's,
  // so the momentum stays transient per round.
  const tensor::Shape in_shape{6};
  const int64_t classes = 3, samples = 10;
  Rng data_rng(31);
  const Tensor x = data_rng.normal_tensor({samples, 6}, 0, 1);
  const auto labels = batch_labels(samples, classes, 32);
  nn::SGD::Options sgd{0.05f, 0.9f, 0.0f};
  const size_t cut = 2;

  Rng m1(5), m2(5), m3(8), t1(6), t2(6), t3(9);
  const auto fresh_model = nn::mlp({6, 16, 12, classes}, m1);
  const auto reused_model = nn::mlp({6, 16, 12, classes}, m2);
  const auto warmup_model = nn::mlp({6, 16, 12, classes}, m3);

  // Leave non-zero momentum in the buffers that get reused.
  nn::LocalLossSplitTrainer warmup(*warmup_model, cut, in_shape, classes,
                                   t3, sgd);
  for (int b = 0; b < 2; ++b) (void)warmup.train_batch(x, labels);
  std::vector<Tensor> spare = warmup.take_velocity();
  std::vector<const float*> spare_data;
  for (const Tensor& v : spare) spare_data.push_back(v.flat().data());

  nn::LocalLossSplitTrainer fresh(*fresh_model, cut, in_shape, classes, t1,
                                  sgd);
  nn::LocalLossSplitTrainer reused(*reused_model, cut, in_shape, classes, t2,
                                   sgd, std::move(spare));
  for (int b = 0; b < 3; ++b) {
    const auto sa = fresh.train_batch(x, labels);
    const auto sb = reused.train_batch(x, labels);
    EXPECT_EQ(sa.slow_loss, sb.slow_loss) << "batch " << b;
    EXPECT_EQ(sa.fast_loss, sb.fast_loss) << "batch " << b;
  }
  expect_states_equal(nn::state_of(*fresh_model),
                      nn::state_of(*reused_model), "reused vs fresh momentum");
  const std::vector<Tensor> handed_back = reused.take_velocity();
  ASSERT_EQ(handed_back.size(), spare_data.size());
  for (size_t i = 0; i < handed_back.size(); ++i)
    EXPECT_EQ(handed_back[i].flat().data(), spare_data[i])
        << "buffer " << i << " was reallocated";
}

TEST(SplitNotify, PrefixUnitsFinalizeBeforeSuffixBackward) {
  // The layerwise window: slow prefix units finalize (reverse order)
  // during the slow-side backward, before any fast suffix unit — so
  // prefix-owned buckets can ship while the split tail still computes.
  const tensor::Shape in_shape{6};
  const int64_t classes = 3;
  Rng data_rng(23), mrng(7), trng(8);
  const auto model = nn::mlp({6, 16, 12, classes}, mrng);
  const auto plan = nn::BucketPlan::build(*model, 64);
  const size_t cut = 2;
  nn::LocalLossSplitTrainer split(*model, cut, in_shape, classes, trng,
                                  nn::SGD::Options{0.05f, 0.9f, 0.0f});
  const Tensor x = data_rng.normal_tensor({8, 6}, 0, 1);
  const auto labels = batch_labels(8, classes, 24);

  std::vector<size_t> order;
  nn::BucketReadyTracker tracker(plan);
  int64_t fired_before_suffix = 0;
  bool suffix_started = false;
  (void)split.train_batch_notify(
      x, labels, plan.unit_param_counts(), [&](size_t u) {
        if (u >= cut) suffix_started = true;
        order.push_back(u);
        tracker.unit_done(u, [&](int64_t) {
          if (!suffix_started) ++fired_before_suffix;
        });
      });

  ASSERT_EQ(order.size(), model->size());
  std::vector<size_t> expected;
  for (size_t u = cut; u-- > 0;) expected.push_back(u);
  for (size_t u = model->size(); u-- > cut;) expected.push_back(u);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(tracker.fired(), plan.buckets());
  EXPECT_GE(fired_before_suffix, 1)
      << "no bucket published during the slow-side backward";
}

TEST(SplitLayerwise, SlowReplicasPublishBucketsBeforeTaskEnd) {
  // Fleet-level acceptance: under overlap, split-trained slow replicas
  // publish at least one bucket while their split backward still runs
  // (instead of everything at task end, which collapsed the window).
  FleetOptions opt;
  opt.seed = 3;
  opt.comms.bucket_bytes = 256;
  opt.comms.overlap = true;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 30, 3, 6, 21),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  ASSERT_GT(stats.num_pairs, 0) << "fixture must produce split pairs";
  EXPECT_GE(stats.split_early_buckets, 1);
}

// ---- fleet-level bucket determinism -----------------------------------------

TEST(FleetBucketDeterminism, BucketedSequentialMatchesFlatBitwise) {
  // Default halving/doubling aggregation: bucketing must not change a bit.
  FleetOptions flat;
  flat.seed = 99;
  const auto base = fleet_state(flat, 4, 2);
  for (const int64_t bucket_bytes : {256, 1024, 1 << 20}) {
    FleetOptions opt;
    opt.seed = 99;
    opt.comms.bucket_bytes = bucket_bytes;
    expect_states_equal(base, fleet_state(opt, 4, 2), "bucket_bytes sweep");
  }
}

TEST(FleetBucketDeterminism, OverlappedMatchesSequentialBitwise) {
  for (const auto protocol : {comm::Protocol::kHalvingDoublingAllReduce,
                              comm::Protocol::kRingAllReduce}) {
    FleetOptions seq;
    seq.seed = 99;
    seq.comms.aggregation = protocol;
    seq.comms.bucket_bytes = 512;
    FleetOptions ovl = seq;
    ovl.comms.overlap = true;
    expect_states_equal(fleet_state(seq, 4, 2), fleet_state(ovl, 4, 2),
                        "overlap vs sequential");
  }
}

TEST(FleetBucketDeterminism, OverlappedBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  FleetOptions opt;
  opt.seed = 99;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  set_num_threads(1);
  const auto s1 = fleet_state(opt, 4, 2);
  set_num_threads(8);
  const auto s8 = fleet_state(opt, 4, 2);
  expect_states_equal(s1, s8, "1 vs 8 threads");
}

TEST(FleetBucketDeterminism, DifferentialPrivacyBucketedMatchesFlat) {
  FleetOptions flat;
  flat.seed = 7;
  flat.privacy.technique = learncurve::PrivacyTechnique::kDifferentialPrivacy;
  flat.privacy.dp_epsilon = 2.0;
  flat.privacy.dp_sensitivity = 1e-4;
  FleetOptions bucketed = flat;
  bucketed.comms.bucket_bytes = 512;
  bucketed.comms.overlap = true;  // DP narrows to post-noise publication
  expect_states_equal(fleet_state(flat, 4, 2), fleet_state(bucketed, 4, 2),
                      "DP bucketed vs flat");
}

TEST(FleetBucketDeterminism, OverlappedRoundReportsPipelineShape) {
  FleetOptions opt;
  opt.seed = 3;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  RealFleet fleet(mlp_factory(6, 3), 3, blob_shards(4, 30, 3, 6, 21),
                  hetero_mesh(4), opt);
  const auto stats = fleet.step();
  EXPECT_GT(stats.buckets, 1);
  EXPECT_GT(stats.aggregation_seconds, 0.0);
  EXPECT_GT(stats.aggregation_bytes, 0);
  // Overlap can only hide aggregation time, never add to it...
  EXPECT_LE(stats.exposed_comm_seconds, stats.aggregation_seconds + 1e-12);
  EXPECT_GE(stats.exposed_comm_seconds, 0.0);
  // ...and the modeled round is never shorter than its parts allow.
  EXPECT_GE(stats.sim_time, stats.exposed_comm_seconds);
}

TEST(FleetBucketDeterminism, BaselineAllReduceBucketedMatchesFlat) {
  using baselines::RealBaselineFleet;
  const auto run = [&](int64_t bucket_bytes, bool overlap) {
    FleetOptions opt;
    opt.seed = 31;
    opt.comms.bucket_bytes = bucket_bytes;
    opt.comms.overlap = overlap;
    RealBaselineFleet fleet(learncurve::Method::kAllReduceDML,
                            mlp_factory(6, 3), 3,
                            blob_shards(4, 30, 3, 6, 41), hetero_mesh(4),
                            opt);
    for (int r = 0; r < 2; ++r) (void)fleet.step();
    std::vector<Tensor> all;
    for (int64_t a = 0; a < fleet.agents(); ++a) {
      auto s = nn::state_of(fleet.model(a));
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  };
  const auto flat = run(0, false);
  expect_states_equal(flat, run(512, false), "baseline bucketed");
  expect_states_equal(flat, run(512, true), "baseline overlapped");
}

TEST(FleetRuntimeOverlap, FacadeReportsBucketsAndExposedComm) {
  FleetOptions opt;
  opt.comms.bucket_bytes = 512;
  opt.comms.overlap = true;
  auto fleet = core::FleetBuilder()
                   .method(learncurve::Method::kComDML)
                   .options(opt)
                   .topology(hetero_mesh(4))
                   .model(mlp_factory(6, 3), 3)
                   .shards(blob_shards(4, 30, 3, 6, 61))
                   .build();
  const auto rep = fleet.step();
  EXPECT_GT(rep.buckets, 1);
  EXPECT_GT(rep.aggregation_seconds, 0.0);
  EXPECT_LE(rep.exposed_comm_seconds, rep.aggregation_seconds + 1e-12);
  EXPECT_GT(rep.round_seconds, 0.0);
}

// ---- FleetOptions validation ------------------------------------------------

TEST(FleetOptionsValidate, DefaultsPass) {
  FleetOptions opt;
  EXPECT_NO_THROW(opt.validate());
  EXPECT_NO_THROW(FleetOptions::paper_defaults().validate());
}

TEST(FleetOptionsValidate, RejectsBadTrainingGeometry) {
  FleetOptions opt;
  opt.train.batch_size = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.train.batches_per_round = -1;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.train.sgd.lr = 0.0f;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.train.reference_flops = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FleetOptionsValidate, RejectsBadCommKnobs) {
  FleetOptions opt;
  opt.comms.server_mbps = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.comms.latency_sec = -1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.comms.bucket_bytes = -4;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.comms.overlap = true;  // overlap without bucketing
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FleetOptionsValidate, RejectsAggregationWithoutSteppedSchedule) {
  FleetOptions opt;
  opt.comms.aggregation = comm::Protocol::kRingAllReduce;
  EXPECT_NO_THROW(opt.validate());
  for (const auto protocol :
       {comm::Protocol::kGossip, comm::Protocol::kParamServer}) {
    opt.comms.aggregation = protocol;
    try {
      opt.validate();
      ADD_FAILURE() << "accepted " << comm::collective(protocol).name();
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(comm::collective(protocol).name())),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("no stepped schedule"), std::string::npos) << what;
    }
  }
}

TEST(FleetOptionsValidate, RejectsBadScaleAndPrivacyKnobs) {
  FleetOptions opt;
  opt.scale.participation = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.scale.agent_dropout = 1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.privacy.dp_epsilon = -0.5;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = FleetOptions{};
  opt.privacy.shuffle_patch = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(FleetOptionsValidate, FleetsRejectInvalidOptionsAtConstruction) {
  FleetOptions opt;
  opt.train.batch_size = -8;
  EXPECT_THROW(RealFleet(mlp_factory(6, 3), 3, blob_shards(2, 20, 3, 6, 71),
                         hetero_mesh(2), opt),
               std::invalid_argument);
  EXPECT_THROW(baselines::RealBaselineFleet(
                   learncurve::Method::kFedAvg, mlp_factory(6, 3), 3,
                   blob_shards(2, 20, 3, 6, 72), hetero_mesh(2), opt),
               std::invalid_argument);
  EXPECT_THROW(core::SimulatedFleet(nn::resnet56_spec(), opt, hetero_mesh(2),
                                    {100, 100}),
               std::invalid_argument);
  EXPECT_THROW(baselines::BaselineFleet(learncurve::Method::kFedAvg,
                                        nn::resnet56_spec(), opt,
                                        hetero_mesh(2), {100, 100}),
               std::invalid_argument);
  EXPECT_THROW(core::FleetBuilder()
                   .method(learncurve::Method::kComDML)
                   .options(opt)
                   .topology(hetero_mesh(2))
                   .architecture(nn::resnet56_spec())
                   .shard_sizes({100, 100})
                   .build(),
               std::invalid_argument);
}

}  // namespace
}  // namespace comdml
