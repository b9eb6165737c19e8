// Communication substrate tests: transfer-time model, the registry
// AllReduce cost model vs real message-level execution on tensor states
// (ring and halving/doubling, including non-power-of-two fleets), and
// gossip exchange.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "comm/allreduce.hpp"
#include "comm/collective.hpp"
#include "sim/topology.hpp"
#include "tensor/ops.hpp"

namespace comdml::comm {
namespace {

using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;
using tensor::Tensor;

// ---- link -----------------------------------------------------------------------

TEST(Link, TransferTimeIsLatencyPlusPayload) {
  // 1 MB over 8 Mbps = 1 second + latency.
  EXPECT_NEAR(transfer_seconds(1'000'000, 8.0, 0.005), 1.005, 1e-9);
}

TEST(Link, ZeroBytesStillPaysLatency) {
  EXPECT_DOUBLE_EQ(transfer_seconds(0, 10.0, 0.005), 0.005);
}

TEST(Link, UnusableLinkThrows) {
  EXPECT_THROW((void)transfer_seconds(100, 0.0), std::invalid_argument);
  EXPECT_THROW((void)bytes_per_sec(-5.0), std::invalid_argument);
}

TEST(Link, MultiGigabytePayloadIsOverflowSafe) {
  // 8 GB over 1 Gbps: 64 s of payload time, computed entirely in double.
  EXPECT_NEAR(transfer_seconds(8'000'000'000, 1000.0, 0.0), 64.0, 1e-9);
  // Payloads near INT64_MAX stay finite and monotone.
  const double t1 =
      transfer_seconds(std::numeric_limits<int64_t>::max() / 2, 100.0);
  const double t2 =
      transfer_seconds(std::numeric_limits<int64_t>::max(), 100.0);
  EXPECT_TRUE(std::isfinite(t1));
  EXPECT_TRUE(std::isfinite(t2));
  EXPECT_LT(t1, t2);
  EXPECT_THROW((void)transfer_seconds(-1, 100.0), std::invalid_argument);
}

TEST(Link, Fp32WireConversionsGuardOverflow) {
  EXPECT_EQ(fp32_wire_bytes(10), 40);
  EXPECT_EQ(fp32_wire_elems(10), 3);  // rounds up to whole fp32 values
  EXPECT_EQ(fp32_wire_elems(8), 2);
  EXPECT_EQ(fp32_wire_elems(0), 0);
  EXPECT_THROW(
      (void)fp32_wire_bytes(std::numeric_limits<int64_t>::max() / 2),
      std::invalid_argument);
  EXPECT_THROW((void)fp32_wire_bytes(-1), std::invalid_argument);
}

// ---- allreduce cost model ----------------------------------------------------------

/// Accounting of one timing-only `protocol` run over K agents at `mbps`.
TransportStats modeled(Protocol protocol, int64_t agents, int64_t bytes,
                       double mbps = 100.0) {
  SimTransport t(LinkGrid::uniform(agents, mbps));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(bytes);
  (void)collective(protocol).run(t, req);
  return t.stats();
}

constexpr Protocol kRing = Protocol::kRingAllReduce;
constexpr Protocol kHD = Protocol::kHalvingDoublingAllReduce;

TEST(AllReduceCost, SingleAgentIsFree) {
  const auto c = modeled(kHD, 1, 1'000'000);
  EXPECT_DOUBLE_EQ(c.seconds, 0.0);
  EXPECT_EQ(c.steps, 0);
}

TEST(AllReduceCost, BothAlgorithmsBandwidthOptimal) {
  const int64_t b = 4'000'000;
  const auto ring = modeled(kRing, 8, b);
  const auto hd = modeled(kHD, 8, b);
  EXPECT_EQ(ring.max_bytes_sent(), hd.max_bytes_sent());
  EXPECT_EQ(ring.max_bytes_sent(), 2 * (8 - 1) * b / 8);
}

TEST(AllReduceCost, HalvingDoublingFewerStepsAtScale) {
  const auto ring = modeled(kRing, 64, 1'000);
  const auto hd = modeled(kHD, 64, 1'000);
  EXPECT_EQ(ring.steps, 2 * 63);
  EXPECT_EQ(hd.steps, 2 * 6);
  EXPECT_LT(hd.seconds, ring.seconds);  // latency dominates for tiny models
}

TEST(AllReduceCost, MultiGigabyteModelIsFinite) {
  const auto c = modeled(kHD, 16, 10'000'000'000);  // 10 GB model
  EXPECT_TRUE(std::isfinite(c.seconds));
  EXPECT_GT(c.seconds, 0.0);
  EXPECT_GT(c.max_bytes_sent(), 10'000'000'000 / 16 * 15);
}

TEST(AllReduceCost, NonPowerOfTwoPaysExtra) {
  const auto p2 = modeled(kHD, 8, 1'000'000);
  const auto np2 = modeled(kHD, 9, 1'000'000);
  EXPECT_GT(np2.max_bytes_sent(), p2.max_bytes_sent());
  EXPECT_EQ(np2.steps, 2 * 3 + 2);
}

// ---- allreduce execution on tensor states ----------------------------------

std::vector<std::vector<Tensor>> random_states(size_t k, Rng& rng) {
  std::vector<std::vector<Tensor>> states;
  for (size_t a = 0; a < k; ++a) {
    std::vector<Tensor> s;
    s.push_back(rng.normal_tensor({3, 4}, 0, 1));
    s.push_back(rng.normal_tensor({7}, 0, 1));
    states.push_back(std::move(s));
  }
  return states;
}

class AllReduceExecP
    : public ::testing::TestWithParam<std::tuple<int, Protocol>> {};

TEST_P(AllReduceExecP, ComputesExactMean) {
  const auto [k, protocol] = GetParam();
  Rng rng(1000 + k);
  auto states = random_states(static_cast<size_t>(k), rng);
  const auto expected = mean_state(states);
  InProcTransport t(LinkGrid::uniform(k, 100.0));
  (void)run_on_states(protocol, t, states);
  for (int a = 0; a < k; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_TRUE(tensor::allclose(states[static_cast<size_t>(a)][i],
                                   expected[i], 1e-5f))
          << "agent " << a << " tensor " << i;
}

TEST_P(AllReduceExecP, TrafficMatchesCostModel) {
  const auto [k, protocol] = GetParam();
  Rng rng(2000 + k);
  auto states = random_states(static_cast<size_t>(k), rng);
  int64_t payload = 0;
  for (const auto& t : states[0]) payload += t.nbytes();
  InProcTransport t(LinkGrid::uniform(k, 100.0));
  (void)run_on_states(protocol, t, states);
  const TransportStats& trace = t.stats();
  const auto cost = modeled(protocol, k, payload);
  // Mean per-agent traffic equals the model's 2(K-1)/K * b (+ fold-in for
  // non-power-of-two halving/doubling; the model charges that to every
  // agent, the execution splits it between extras and partners).
  const double mean_sent =
      std::accumulate(trace.bytes_sent.begin(), trace.bytes_sent.end(),
                      0.0) /
      static_cast<double>(k);
  const double expected =
      2.0 * static_cast<double>(k - 1) / k * static_cast<double>(payload);
  EXPECT_NEAR(mean_sent, expected, static_cast<double>(payload))
      << "k=" << k;
  EXPECT_EQ(trace.steps, cost.steps);
  EXPECT_EQ(trace.max_bytes_sent(), cost.max_bytes_sent());
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, AllReduceExecP,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16),
                       ::testing::Values(kRing, kHD)));

TEST(AllReduceExec, RejectsMismatchedStates) {
  Rng rng(1);
  InProcTransport t(LinkGrid::uniform(3, 100.0));
  auto states = random_states(3, rng);
  states[1].pop_back();
  EXPECT_THROW((void)run_on_states(kHD, t, states), std::invalid_argument);
  states = random_states(3, rng);
  states[2][1] = rng.normal_tensor({8}, 0, 1);
  EXPECT_THROW((void)run_on_states(kHD, t, states), std::invalid_argument);
  EXPECT_EQ(t.stats().messages, 0);
}

TEST(MeanState, WeightedMeanMatchesManual) {
  std::vector<std::vector<Tensor>> states{{Tensor::of({1.f})},
                                          {Tensor::of({5.f})}};
  const auto avg = weighted_mean_state(states, {3.0, 1.0});
  EXPECT_NEAR(avg[0][0], 2.0f, 1e-6);
}

TEST(MeanState, ZeroWeightsThrow) {
  std::vector<std::vector<Tensor>> states{{Tensor::of({1.f})}};
  EXPECT_THROW((void)weighted_mean_state(states, {0.0}),
               std::invalid_argument);
}

// ---- gossip --------------------------------------------------------------------------

/// Partner draw of one timing-only gossip round over `topo`.
std::vector<std::optional<int64_t>> draw_partners(const Topology& topo,
                                                    Rng& rng) {
  SimTransport t(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.rng = &rng;
  return collective(Protocol::kGossip).run(t, req).partners;
}

/// One executed gossip round on tensor states over `topo`'s links.
void gossip_round(std::vector<std::vector<Tensor>>& states,
                  const Topology& topo, Rng& rng) {
  InProcTransport t(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.rng = &rng;
  (void)run_on_states(Protocol::kGossip, t, states, std::move(req));
}

TEST(Gossip, PartnersAreNeighbors) {
  Rng rng(2);
  std::vector<ResourceProfile> profiles(6, {1.0, 100.0});
  const auto topo = Topology::ring(profiles);
  const auto partners = draw_partners(topo, rng);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(partners[static_cast<size_t>(i)].has_value());
    EXPECT_TRUE(topo.linked(i, *partners[static_cast<size_t>(i)]));
  }
}

TEST(Gossip, IsolatedAgentHasNoPartner) {
  Rng rng(3);
  std::vector<ResourceProfile> profiles{{1, 100}, {1, 100}, {1, 0}};
  const auto topo = Topology::full_mesh(profiles);
  const auto partners = draw_partners(topo, rng);
  EXPECT_FALSE(partners[2].has_value());
}

TEST(Gossip, ExchangeMovesStatesToward) {
  Rng rng(4);
  std::vector<ResourceProfile> profiles(2, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  std::vector<std::vector<Tensor>> states{{Tensor::of({0.f})},
                                          {Tensor::of({10.f})}};
  gossip_round(states, topo, rng);
  // Both agents push to each other (2-agent full mesh), so both average.
  EXPECT_NEAR(states[0][0][0], 5.0f, 1e-5);
  EXPECT_NEAR(states[1][0][0], 5.0f, 1e-5);
}

TEST(Gossip, RepeatedExchangeConverges) {
  Rng rng(5);
  std::vector<ResourceProfile> profiles(8, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  std::vector<std::vector<Tensor>> states;
  for (int a = 0; a < 8; ++a)
    states.push_back({Tensor::of({static_cast<float>(a)})});
  for (int round = 0; round < 60; ++round) gossip_round(states, topo, rng);
  for (int a = 0; a < 8; ++a)
    EXPECT_NEAR(states[static_cast<size_t>(a)][0][0], 3.5f, 0.8f);
}

TEST(Gossip, CostUsesChosenLink) {
  Rng rng(6);
  std::vector<ResourceProfile> profiles(2, {1.0, 10.0});
  SimTransport t(LinkGrid::from_topology(Topology::full_mesh(profiles)));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(1'250'000);
  req.rng = &rng;
  (void)collective(Protocol::kGossip).run(t, req);
  // 1.25 MB over 10 Mbps = 1 s (+5 ms latency).
  EXPECT_NEAR(t.stats().send_seconds[0], 1.005, 1e-6);
}

}  // namespace
}  // namespace comdml::comm
