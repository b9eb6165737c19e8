// comm::Transport substrate tests: link grids, message accounting, the
// per-protocol parity guarantee (SimTransport predicted seconds/bytes ==
// InProcTransport executed traffic, one check per registered collective),
// degenerate topologies, codec hooks, fault injection, and thread safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "comm/allreduce.hpp"
#include "comm/collective.hpp"
#include "comm/quantize.hpp"
#include "comm/reliable.hpp"
#include "comm/transport.hpp"

namespace comdml::comm {
namespace {

using sim::ResourceProfile;
using sim::Topology;
using tensor::Rng;

std::vector<std::vector<double>> random_buffers(int64_t k, int64_t elems,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> bufs(static_cast<size_t>(k));
  for (auto& b : bufs) {
    b.resize(static_cast<size_t>(elems));
    for (auto& v : b) v = static_cast<double>(rng.uniform(-1.0f, 1.0f));
  }
  return bufs;
}

std::vector<double*> pointers(std::vector<std::vector<double>>& bufs) {
  std::vector<double*> ptrs;
  ptrs.reserve(bufs.size());
  for (auto& b : bufs) ptrs.push_back(b.data());
  return ptrs;
}

std::vector<double> mean_of(const std::vector<std::vector<double>>& bufs) {
  std::vector<double> mean(bufs[0].size(), 0.0);
  for (const auto& b : bufs)
    for (size_t i = 0; i < b.size(); ++i) mean[i] += b[i];
  for (auto& v : mean) v /= static_cast<double>(bufs.size());
  return mean;
}

// ---- link grid -------------------------------------------------------------

TEST(LinkGrid, UniformHasNoSelfLinks) {
  const auto grid = LinkGrid::uniform(4, 100.0);
  EXPECT_EQ(grid.endpoints(), 4);
  EXPECT_FALSE(grid.link(2, 2).usable());
  EXPECT_TRUE(grid.link(0, 3).usable());
  EXPECT_DOUBLE_EQ(grid.link(0, 3).mbps, 100.0);
}

TEST(LinkGrid, FromTopologyRespectsAdjacency) {
  std::vector<ResourceProfile> profiles(4, {1.0, 50.0});
  const auto topo = Topology::ring(profiles);
  const auto grid = LinkGrid::from_topology(topo);
  EXPECT_TRUE(grid.link(0, 1).usable());
  EXPECT_FALSE(grid.link(0, 2).usable());  // not a ring edge
  EXPECT_DOUBLE_EQ(grid.link(0, 1).mbps, 50.0);
}

TEST(LinkGrid, StarLinksAgentsToServerOnly) {
  const auto grid = LinkGrid::star({10.0, 20.0});
  EXPECT_EQ(grid.endpoints(), 3);
  EXPECT_EQ(grid.server_rank(), 2);
  EXPECT_TRUE(grid.link(0, 2).usable());
  EXPECT_TRUE(grid.link(2, 1).usable());
  EXPECT_FALSE(grid.link(0, 1).usable());  // peers only talk via the server
}

// ---- transport accounting --------------------------------------------------

TEST(Transport, ZeroByteMessageStillPaysLatency) {
  SimTransport t(LinkGrid::uniform(2, 10.0, 0.005));
  t.send(0, 1, 0);
  t.end_step();
  EXPECT_EQ(t.stats().steps, 1);
  EXPECT_EQ(t.stats().total_wire_bytes, 0);
  EXPECT_DOUBLE_EQ(t.stats().seconds, 0.005);
}

TEST(Transport, StepSpanIsSlowestConcurrentMessage) {
  // 1 MB and 2 MB over 8 Mbps in one step: the span is the 2 MB transfer.
  SimTransport t(LinkGrid::uniform(3, 8.0, 0.0));
  t.send(0, 1, 250'000);  // 1 MB wire
  t.send(1, 2, 500'000);  // 2 MB wire
  t.end_step();
  EXPECT_DOUBLE_EQ(t.stats().seconds, 2.0);
  EXPECT_EQ(t.stats().bytes_sent[0], 1'000'000);
  EXPECT_EQ(t.stats().bytes_sent[1], 2'000'000);
  EXPECT_EQ(t.stats().bytes_received[2], 2'000'000);
}

TEST(Transport, SendOverUnusableLinkThrows) {
  std::vector<ResourceProfile> profiles(3, {1.0, 100.0});
  const auto topo = Topology::ring(profiles);
  InProcTransport t(LinkGrid::from_topology(topo));
  EXPECT_THROW(t.send(0, 0, 1), std::invalid_argument);
  // Ring of 3 is fully linked; build a 4-ring to get a missing chord.
  std::vector<ResourceProfile> p4(4, {1.0, 100.0});
  InProcTransport t4(LinkGrid::from_topology(Topology::ring(p4)));
  EXPECT_THROW(t4.send(0, 2, 1), std::invalid_argument);
}

TEST(Transport, MatchedRecvIsFifoPerSource) {
  InProcTransport t(LinkGrid::uniform(3, 100.0));
  const double a = 1.0, b = 2.0, c = 3.0;
  t.send(0, 2, 1, &a);
  t.send(1, 2, 1, &b);
  t.send(0, 2, 1, &c);
  EXPECT_DOUBLE_EQ(t.recv(2, 0).payload[0], 1.0);
  EXPECT_DOUBLE_EQ(t.recv(2, 1).payload[0], 2.0);
  EXPECT_DOUBLE_EQ(t.recv(2, 0).payload[0], 3.0);
  EXPECT_THROW((void)t.recv(2, 0), std::invalid_argument);
}

TEST(Transport, ResetClearsStatsAndMailboxes) {
  InProcTransport t(LinkGrid::uniform(2, 100.0));
  const double v = 4.0;
  t.send(0, 1, 1, &v);
  t.end_step();
  t.reset();
  EXPECT_EQ(t.stats().messages, 0);
  EXPECT_EQ(t.stats().steps, 0);
  EXPECT_FALSE(t.try_recv(1).has_value());
}

// ---- per-protocol parity: predicted == executed ----------------------------

/// The acceptance invariant of the Transport API: for every registered
/// collective, a timing-only SimTransport run predicts exactly the
/// seconds/steps/bytes the InProcTransport execution produces, because
/// both are the same schedule.
void expect_stats_equal(const TransportStats& sim,
                        const TransportStats& real) {
  EXPECT_EQ(sim.steps, real.steps);
  EXPECT_EQ(sim.messages, real.messages);
  EXPECT_EQ(sim.total_wire_bytes, real.total_wire_bytes);
  EXPECT_DOUBLE_EQ(sim.seconds, real.seconds);
  ASSERT_EQ(sim.bytes_sent.size(), real.bytes_sent.size());
  for (size_t i = 0; i < sim.bytes_sent.size(); ++i) {
    EXPECT_EQ(sim.bytes_sent[i], real.bytes_sent[i]) << "agent " << i;
    EXPECT_EQ(sim.bytes_received[i], real.bytes_received[i]) << "agent "
                                                             << i;
  }
}

class AllReduceParityP
    : public ::testing::TestWithParam<std::tuple<int, Protocol>> {};

TEST_P(AllReduceParityP, SimPredictsExecutedTrafficExactly) {
  const auto [k, protocol] = GetParam();
  const int64_t elems = 103;  // deliberately not divisible by k

  SimTransport sim(LinkGrid::uniform(k, 100.0));
  CollectiveRequest predict;
  predict.elems = elems;
  (void)collective(protocol).run(sim, predict);

  auto bufs = random_buffers(k, elems, 1000 + static_cast<uint64_t>(k));
  const auto expected = mean_of(bufs);
  InProcTransport real(LinkGrid::uniform(k, 100.0));
  CollectiveRequest execute;
  execute.elems = elems;
  execute.buffers = pointers(bufs);
  (void)collective(protocol).run(real, execute);

  expect_stats_equal(sim.stats(), real.stats());
  for (int a = 0; a < k; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_NEAR(bufs[static_cast<size_t>(a)][i], expected[i], 1e-12)
          << "agent " << a << " elem " << i;
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, AllReduceParityP,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16),
        ::testing::Values(Protocol::kRingAllReduce,
                          Protocol::kHalvingDoublingAllReduce)));

TEST(GossipParity, SimPredictsExecutedTrafficExactly) {
  Rng topo_rng(7);
  std::vector<ResourceProfile> profiles(9, {1.0, 40.0});
  const auto topo = Topology::random_graph(profiles, 0.5, topo_rng);
  const int64_t elems = 17;

  Rng sim_rng(21), real_rng(21);  // identical partner draws
  SimTransport sim(LinkGrid::from_topology(topo));
  CollectiveRequest predict;
  predict.elems = elems;
  predict.rng = &sim_rng;
  const auto sim_rep = collective(Protocol::kGossip).run(sim, predict);

  auto bufs = random_buffers(9, elems, 77);
  InProcTransport real(LinkGrid::from_topology(topo));
  CollectiveRequest execute;
  execute.elems = elems;
  execute.buffers = pointers(bufs);
  execute.rng = &real_rng;
  const auto real_rep = collective(Protocol::kGossip).run(real, execute);

  ASSERT_EQ(sim_rep.partners.size(), real_rep.partners.size());
  for (size_t i = 0; i < sim_rep.partners.size(); ++i)
    EXPECT_EQ(sim_rep.partners[i], real_rep.partners[i]);
  expect_stats_equal(sim.stats(), real.stats());
}

TEST(ParamServerParity, SimPredictsExecutedTrafficExactly) {
  const auto grid = LinkGrid::star({10.0, 20.0, 50.0});
  const int64_t elems = 31;

  SimTransport sim(grid);
  CollectiveRequest predict;
  predict.elems = elems;
  predict.weights = {1.0, 2.0, 3.0};
  (void)collective(Protocol::kParamServer).run(sim, predict);

  auto bufs = random_buffers(3, elems, 5);
  std::vector<double> expected(static_cast<size_t>(elems), 0.0);
  for (size_t a = 0; a < 3; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      expected[i] += (a + 1) / 6.0 * bufs[a][i];
  InProcTransport real(grid);
  CollectiveRequest execute;
  execute.elems = elems;
  execute.weights = {1.0, 2.0, 3.0};
  execute.buffers = pointers(bufs);
  (void)collective(Protocol::kParamServer).run(real, execute);

  expect_stats_equal(sim.stats(), real.stats());
  for (size_t a = 0; a < 3; ++a)
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_NEAR(bufs[a][i], expected[i], 1e-12);
  // Every agent uploads once and downloads once over its own link.
  EXPECT_EQ(real.stats().bytes_sent[0], elems * 4);
  EXPECT_EQ(real.stats().bytes_received[0], elems * 4);
  EXPECT_EQ(real.stats().bytes_sent[3], 3 * elems * 4);  // server drain
}

// ---- degenerate topologies -------------------------------------------------

TEST(Degenerate, SingleAgentCollectivesAreFree) {
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    InProcTransport t(LinkGrid::uniform(1, 100.0));
    auto bufs = random_buffers(1, 11, 3);
    const auto before = bufs[0];
    CollectiveRequest req;
    req.elems = 11;
    req.buffers = pointers(bufs);
    (void)collective(p).run(t, req);
    EXPECT_EQ(t.stats().messages, 0);
    EXPECT_EQ(t.stats().steps, 0);
    EXPECT_DOUBLE_EQ(t.stats().seconds, 0.0);
    EXPECT_EQ(bufs[0], before);
  }
}

TEST(Degenerate, GossipOnDisconnectedComponentsStaysLocal) {
  // Two 2-cliques with no cross link: averages must not leak across.
  std::vector<ResourceProfile> profiles(4, {1.0, 100.0});
  Rng rng(2);
  auto topo = Topology::random_graph(profiles, 0.0, rng);  // no links at all
  auto grid = LinkGrid::from_topology(topo);
  grid.link(0, 1) = grid.link(1, 0) = LinkModel{100.0};
  grid.link(2, 3) = grid.link(3, 2) = LinkModel{100.0};

  std::vector<std::vector<double>> bufs{{0.0}, {10.0}, {100.0}, {200.0}};
  InProcTransport t(std::move(grid));
  CollectiveRequest req;
  req.elems = 1;
  req.buffers = pointers(bufs);
  Rng grng(5);
  req.rng = &grng;
  (void)collective(Protocol::kGossip).run(t, req);
  // Both members of each clique push to each other: exact pairwise means.
  EXPECT_DOUBLE_EQ(bufs[0][0], 5.0);
  EXPECT_DOUBLE_EQ(bufs[1][0], 5.0);
  EXPECT_DOUBLE_EQ(bufs[2][0], 150.0);
  EXPECT_DOUBLE_EQ(bufs[3][0], 150.0);
}

TEST(Degenerate, GossipIsolatedAgentSitsOut) {
  std::vector<ResourceProfile> profiles{{1, 100}, {1, 100}, {1, 0}};
  const auto topo = Topology::full_mesh(profiles);
  std::vector<std::vector<double>> bufs{{1.0}, {3.0}, {42.0}};
  InProcTransport t(LinkGrid::from_topology(topo));
  CollectiveRequest req;
  req.elems = 1;
  req.buffers = pointers(bufs);
  Rng rng(6);
  req.rng = &rng;
  const auto rep = collective(Protocol::kGossip).run(t, req);
  EXPECT_FALSE(rep.partners[2].has_value());
  EXPECT_DOUBLE_EQ(bufs[2][0], 42.0);  // untouched
  EXPECT_DOUBLE_EQ(bufs[0][0], 2.0);
  EXPECT_DOUBLE_EQ(bufs[1][0], 2.0);
}

// ---- codec hooks -----------------------------------------------------------

TEST(Codecs, IdentityChargesFourBytesPerElement) {
  EXPECT_EQ(identity_codec().wire_bytes(10, nullptr), 40);
}

TEST(Codecs, QuantizedWireBytesAreDataIndependent) {
  // The dense int8 wire format (4-byte scale + 1 byte/element) never
  // depends on the payload, so a timing-only SimTransport charges the
  // exact bytes an InProcTransport executes — no assumed ratio anywhere.
  std::vector<double> data(256);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2 == 0) ? 0.0 : static_cast<double>(i) / 256.0;
  QuantizingCodec codec;
  const int64_t elems = static_cast<int64_t>(data.size());
  EXPECT_EQ(codec.wire_bytes(elems, data.data()),
            QuantizingCodec::quantized_wire_bytes(elems));
  EXPECT_EQ(codec.wire_bytes(elems, nullptr),
            QuantizingCodec::quantized_wire_bytes(elems));
  EXPECT_EQ(QuantizingCodec::quantized_wire_bytes(elems), 4 + elems);
  EXPECT_EQ(QuantizingCodec::quantized_wire_bytes(0), 0);
  // >= 3x smaller than the fp32 wire for bucket-sized payloads.
  EXPECT_LE(4 * QuantizingCodec::quantized_wire_bytes(elems),
            identity_codec().wire_bytes(elems, nullptr) * 4 / 3);
}

TEST(Codecs, QuantizingCodecRoundTripIsBoundedLossy) {
  // Signed payloads survive (gradients/parameters are signed); error is
  // bounded by the int8 resolution of the dynamic range.
  std::vector<double> data(64);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(i) / 64.0;
  const auto original = data;
  QuantizingCodec codec;
  (void)codec.encode(data.data(), static_cast<int64_t>(data.size()));
  double max_abs = 0.0;
  for (const double v : original) max_abs = std::max(max_abs, std::fabs(v));
  for (size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(data[i], original[i], max_abs / 127.0);
  // All-zero payloads round-trip exactly.
  std::vector<double> zeros(8, 0.0);
  (void)codec.encode(zeros.data(), 8);
  for (const double v : zeros) EXPECT_EQ(v, 0.0);
  // Degenerate dynamic ranges (non-finite or fp32-underflowing scale)
  // ship unquantized instead of NaN-poisoning the finite elements.
  std::vector<double> inf_payload{1.0, std::numeric_limits<double>::infinity(),
                                  -2.0, 0.0};
  (void)codec.encode(inf_payload.data(), 4);
  EXPECT_EQ(inf_payload[0], 1.0);
  EXPECT_EQ(inf_payload[2], -2.0);
  EXPECT_EQ(inf_payload[3], 0.0);
  std::vector<double> tiny(4, 1e-60);  // below the fp32 normal range
  (void)codec.encode(tiny.data(), 4);
  for (const double v : tiny) EXPECT_EQ(v, 1e-60);
}

TEST(Codecs, TransportAppliesCodecToDeliveredPayload) {
  QuantizingCodec codec;
  InProcTransport t(LinkGrid::uniform(2, 100.0), &codec);
  std::vector<double> data(32);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<double>(i) / 32.0 - 0.5;
  t.send(0, 1, static_cast<int64_t>(data.size()), data.data());
  const auto msg = t.recv(1, 0);
  ASSERT_TRUE(msg.has_payload());
  EXPECT_EQ(msg.wire_bytes, QuantizingCodec::quantized_wire_bytes(32));
  EXPECT_LT(msg.wire_bytes, 32 * 4);
  for (size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(msg.payload[i], data[i], 0.5 / 127.0);
}

// ---- int8 codec kernels ------------------------------------------------------

/// The int8 round trip as a plain scalar loop, written out independently of
/// the library: what every kernel and encode path must reproduce bit for
/// bit.
void reference_transform(double* data, int64_t elems) {
  double max_abs = 0.0;
  for (int64_t i = 0; i < elems; ++i)
    max_abs = std::max(max_abs, std::fabs(data[i]));
  if (max_abs == 0.0) return;
  const float scale = static_cast<float>(max_abs / 127.0);
  if (!std::isfinite(scale) || scale < std::numeric_limits<float>::min())
    return;
  const double inv_scale = 1.0 / static_cast<double>(scale);
  for (int64_t i = 0; i < elems; ++i) {
    const double q = std::nearbyint(data[i] * inv_scale);
    data[i] = static_cast<double>(scale) * std::clamp(q, -127.0, 127.0);
  }
}

bool same_bits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return same_bits(&a, &b, 1); }

/// Values that probe each kernel's edge cases at scale 1 (the quantize
/// input is then the value itself): signed zeros, exact .5 ties, values
/// that round to just past +-127, NaN (with a payload, and negative) and
/// +-Inf.
std::vector<double> edge_values() {
  uint64_t nan_bits = 0x7ff80000deadbeefull;
  double payload_nan = 0.0;
  std::memcpy(&payload_nan, &nan_bits, sizeof(payload_nan));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {-0.0,   0.0,    0.5,    -0.5,    1.5,    -2.5,         3.5,
          126.5,  -126.5, 127.5,  -127.5,  127.49, -127.51,      128.0,
          -130.0, 1e-310, -0.49,  payload_nan, -nan, inf,        -inf};
}

/// One kernel input of `n` values starting `offset` elements into its
/// buffer (offset 1 breaks every 32-byte vector alignment).
struct KernelInput {
  std::vector<double> storage;
  double* data() { return storage.data() + offset; }
  const double* data() const { return storage.data() + offset; }
  size_t n = 0;
  size_t offset = 0;
};

enum class Fill { kWide, kEdges, kZeros, kTiny };

KernelInput kernel_input(size_t n, size_t offset, Fill fill, uint64_t seed) {
  KernelInput in;
  in.n = n;
  in.offset = offset;
  in.storage.assign(n + offset, 0.0);
  Rng rng(seed);
  const auto edges = edge_values();
  for (size_t i = 0; i < n; ++i) {
    double& v = in.storage[offset + i];
    switch (fill) {
      case Fill::kWide:
        v = static_cast<double>(rng.uniform(-130.0f, 130.0f));
        break;
      case Fill::kEdges:
        v = (i % 3 == 0) ? edges[(i / 3) % edges.size()]
                         : static_cast<double>(rng.uniform(-130.0f, 130.0f));
        break;
      case Fill::kZeros:
        v = (i % 2 == 0) ? 0.0 : -0.0;
        break;
      case Fill::kTiny:  // a range below the fp32 normal minimum
        v = static_cast<double>(rng.uniform(-1.0f, 1.0f)) * 1e-45;
        break;
    }
  }
  return in;
}

/// Runs every kernel of `a` and `b` on the same input and requires
/// bit-identical outputs.
void expect_kernels_agree(const int8::Kernels& a, const int8::Kernels& b,
                          KernelInput in, float scale) {
  const size_t n = in.n;
  const auto elems = static_cast<int64_t>(n);
  SCOPED_TRACE(::testing::Message() << "n=" << n << " offset=" << in.offset
                                    << " scale=" << scale);
  EXPECT_TRUE(same_bits(a.max_abs(in.data(), elems),
                        b.max_abs(in.data(), elems)));

  // Out of place into unaligned destinations, and in place.
  std::vector<double> out_a(n + 1, 7.0);
  std::vector<double> out_b(n + 1, 7.0);
  a.quantize(in.data(), out_a.data() + 1, elems, scale);
  b.quantize(in.data(), out_b.data() + 1, elems, scale);
  EXPECT_TRUE(same_bits(out_a.data(), out_b.data(), n + 1));
  KernelInput in_a = in;
  KernelInput in_b = in;
  a.quantize(in_a.data(), in_a.data(), elems, scale);
  b.quantize(in_b.data(), in_b.data(), elems, scale);
  EXPECT_TRUE(same_bits(in_a.data(), in_b.data(), n));
  EXPECT_TRUE(same_bits(in_a.data(), out_a.data() + 1, n));

  // The error-feedback pair, with the input doubling as the residual.
  KernelInput s_a = kernel_input(n, in.offset, Fill::kWide, 99 + n);
  KernelInput s_b = s_a;
  KernelInput r_a = in;
  KernelInput r_b = in;
  EXPECT_TRUE(same_bits(a.add_max_abs(s_a.data(), r_a.data(), elems),
                        b.add_max_abs(s_b.data(), r_b.data(), elems)));
  EXPECT_TRUE(same_bits(s_a.data(), s_b.data(), n));
  a.quantize_feedback(s_a.data(), r_a.data(), elems, scale);
  b.quantize_feedback(s_b.data(), r_b.data(), elems, scale);
  EXPECT_TRUE(same_bits(s_a.data(), s_b.data(), n));
  EXPECT_TRUE(same_bits(r_a.data(), r_b.data(), n));
}

TEST(Int8Kernels, Avx2MatchesScalarBitForBit) {
  const int8::Kernels* avx2 = int8::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 kernels on this build/CPU";
  const int8::Kernels& scalar = int8::scalar_kernels();
  std::vector<size_t> lengths(18);
  std::iota(lengths.begin(), lengths.end(), size_t{0});
  lengths.push_back(301066);
  for (const size_t n : lengths)
    for (const size_t offset : {size_t{0}, size_t{1}})
      for (const Fill fill : {Fill::kWide, Fill::kEdges, Fill::kZeros}) {
        const KernelInput in = kernel_input(n, offset, fill, 7 + n);
        expect_kernels_agree(scalar, *avx2, in, 1.0f);
        expect_kernels_agree(scalar, *avx2, in, 0.37f);
        const float wire = int8::wire_scale(
            scalar.max_abs(in.data(), static_cast<int64_t>(n)));
        if (wire != 0.0f) expect_kernels_agree(scalar, *avx2, in, wire);
        expect_kernels_agree(scalar, *avx2,
                             kernel_input(n, offset, Fill::kTiny, 3 + n),
                             std::numeric_limits<float>::min());
      }
}

TEST(Int8Kernels, ScalarKernelsMatchTheReferenceLoop) {
  // Whichever kernels this process selected, the codec's in-place encode
  // is the reference int8 round trip.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{17},
                         size_t{4096}})
    for (const Fill fill :
         {Fill::kWide, Fill::kEdges, Fill::kZeros, Fill::kTiny}) {
      KernelInput expected = kernel_input(n, 1, fill, 40 + n);
      KernelInput got = expected;
      reference_transform(expected.data(), static_cast<int64_t>(n));
      EXPECT_EQ(quantized_codec().encode(got.data(), static_cast<int64_t>(n)),
                QuantizingCodec::quantized_wire_bytes(static_cast<int64_t>(n)));
      EXPECT_TRUE(same_bits(expected.data(), got.data(), n))
          << "n=" << n << " kernels=" << int8::kernels().name;
    }
}

TEST(Codecs, EncodeIntoMatchesCopyThenEncodeAndKeepsTheSource) {
  for (const Codec* codec : {&identity_codec(), &quantized_codec()})
    for (const size_t n : {size_t{0}, size_t{3}, size_t{301066}}) {
      KernelInput src = kernel_input(n, 1, Fill::kEdges, 50 + n);
      const std::vector<double> before(src.data(), src.data() + n);
      std::vector<double> expected = before;
      const int64_t wire_in_place =
          codec->encode(expected.data(), static_cast<int64_t>(n));
      std::vector<double> out(n + 1, -1.0);
      EXPECT_EQ(codec->encode_into(src.data(), out.data() + 1,
                                   static_cast<int64_t>(n)),
                wire_in_place);
      EXPECT_TRUE(same_bits(out.data() + 1, expected.data(), n))
          << codec->name() << " n=" << n;
      EXPECT_TRUE(same_bits(src.data(), before.data(), n));
    }
}

TEST(Codecs, FusedSendMatchesCopyThenEncode) {
  // The send encodes from the sender's span straight into the message's
  // buffer; the delivered bits equal a copy encoded in place, for both
  // codecs and for copies from the payload pool.
  for (const Codec* codec : {&identity_codec(), &quantized_codec()}) {
    InProcTransport t(LinkGrid::uniform(2, 100.0), codec);
    for (const size_t n : {size_t{1}, size_t{17}, size_t{301066},
                           size_t{1000}}) {
      KernelInput src = kernel_input(n, 1, Fill::kEdges, 60 + n);
      std::vector<double> expected(src.data(), src.data() + n);
      const int64_t wire =
          codec->encode(expected.data(), static_cast<int64_t>(n));
      t.send(0, 1, static_cast<int64_t>(n), src.data());
      t.end_step();
      Message msg = t.recv(1, 0);
      EXPECT_EQ(msg.wire_bytes, wire);
      ASSERT_EQ(msg.payload.size(), n);
      EXPECT_TRUE(same_bits(msg.payload.data(), expected.data(), n))
          << codec->name() << " n=" << n;
      t.recycle(std::move(msg));
    }
  }
}

// The tentpole parity invariant for compressed collectives: with the
// quantized codec on both transports, a timing-only SimTransport run of an
// allreduce predicts exactly the wire bytes (and modeled clock) the
// InProcTransport execution produces, because the dense wire format is a
// pure function of the schedule.
class QuantizedParityP
    : public ::testing::TestWithParam<std::tuple<int, Protocol>> {};

TEST_P(QuantizedParityP, SimPredictsExecutedQuantizedBytesExactly) {
  const auto [k, protocol] = GetParam();
  const int64_t elems = 103;  // deliberately not divisible by k

  SimTransport sim(LinkGrid::uniform(k, 100.0), &quantized_codec());
  CollectiveRequest predict;
  predict.elems = elems;
  (void)collective(protocol).run(sim, predict);

  auto bufs = random_buffers(k, elems, 3000 + static_cast<uint64_t>(k));
  InProcTransport real(LinkGrid::uniform(k, 100.0), &quantized_codec());
  CollectiveRequest execute;
  execute.elems = elems;
  execute.buffers = pointers(bufs);
  (void)collective(protocol).run(real, execute);

  expect_stats_equal(sim.stats(), real.stats());
  if (k > 1) {
    // The quantized schedule really is cheaper on the wire than fp32.
    SimTransport fp32(LinkGrid::uniform(k, 100.0));
    CollectiveRequest raw;
    raw.elems = elems;
    (void)collective(protocol).run(fp32, raw);
    EXPECT_LT(real.stats().total_wire_bytes,
              fp32.stats().total_wire_bytes / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FleetSizes, QuantizedParityP,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 12),
        ::testing::Values(Protocol::kRingAllReduce,
                          Protocol::kHalvingDoublingAllReduce)));

// ---- fault injection -------------------------------------------------------

TEST(Faults, DroppedMessagesNeverArriveButStillPayTheLink) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  InProcTransport t(LinkGrid::uniform(2, 100.0), nullptr, plan);
  const double v = 1.0;
  t.send(0, 1, 1, &v);
  t.end_step();
  EXPECT_EQ(t.stats().dropped_messages, 1);
  EXPECT_EQ(t.stats().bytes_sent[0], 4);      // transmitted
  EXPECT_EQ(t.stats().bytes_received[1], 0);  // never delivered
  EXPECT_FALSE(t.try_recv(1).has_value());
}

TEST(Faults, TotallyLossyGossipTimesOutWithStatesUntouched) {
  // Message faults route gossip through ReliableChannel; when every copy
  // (original and all retransmissions) is dropped, the receive exhausts its
  // retry budget and surfaces a typed timeout instead of silently averaging
  // fewer pushes. No buffer is mutated before the failure.
  std::vector<ResourceProfile> profiles(4, {1.0, 100.0});
  const auto topo = Topology::full_mesh(profiles);
  FaultPlan plan;
  plan.drop_prob = 1.0;
  InProcTransport t(LinkGrid::from_topology(topo), nullptr, plan);
  auto bufs = random_buffers(4, 5, 9);
  const auto before = bufs;
  CollectiveRequest req;
  req.elems = 5;
  req.buffers = pointers(bufs);
  Rng rng(11);
  req.rng = &rng;
  EXPECT_THROW((void)collective(Protocol::kGossip).run(t, req),
               DeliveryTimeoutError);
  // 4 dropped originals plus one full retry budget on the first edge.
  EXPECT_EQ(t.stats().dropped_messages, 4 + RetryPolicy{}.max_retries);
  for (size_t a = 0; a < 4; ++a) EXPECT_EQ(bufs[a], before[a]);
}

TEST(Faults, DeterministicDropScheduleMatchesAcrossTransports) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  plan.seed = 123;
  SimTransport sim(LinkGrid::uniform(2, 100.0), nullptr, plan);
  InProcTransport real(LinkGrid::uniform(2, 100.0), nullptr, plan);
  for (int i = 0; i < 64; ++i) {
    sim.send(0, 1, 1);
    real.send(0, 1, 1);
  }
  EXPECT_GT(sim.stats().dropped_messages, 0);
  EXPECT_LT(sim.stats().dropped_messages, 64);
  EXPECT_EQ(sim.stats().dropped_messages, real.stats().dropped_messages);
}

// ---- thread safety ---------------------------------------------------------

TEST(Threading, ConcurrentSendsAndRecvsStayConsistent) {
  // Four disjoint (src, dst) flows hammer one transport concurrently; the
  // per-flow FIFO and the aggregate accounting must both survive.
  InProcTransport t(LinkGrid::uniform(8, 100.0));
  constexpr int kMessages = 200;
  std::vector<std::thread> threads;
  for (int f = 0; f < 4; ++f) {
    threads.emplace_back([&t, f] {
      const int64_t src = 2 * f, dst = 2 * f + 1;
      for (int m = 0; m < kMessages; ++m) {
        const double v = static_cast<double>(m);
        t.send(src, dst, 1, &v);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.stats().messages, 4 * kMessages);
  EXPECT_EQ(t.stats().total_wire_bytes, 4 * kMessages * 4);
  for (int f = 0; f < 4; ++f) {
    const int64_t src = 2 * f, dst = 2 * f + 1;
    for (int m = 0; m < kMessages; ++m)
      EXPECT_DOUBLE_EQ(t.recv(dst, src).payload[0],
                       static_cast<double>(m));
  }
}

// ---- registry --------------------------------------------------------------

TEST(Registry, EveryProtocolResolvesByEnumAndName) {
  const auto names = collective_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto name : names) {
    const Collective* c = find_collective(name);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->name(), name);
  }
  EXPECT_EQ(find_collective("carrier-pigeon"), nullptr);
  EXPECT_EQ(collective(Protocol::kRingAllReduce).name(), "ring_allreduce");
  EXPECT_EQ(collective(Protocol::kHalvingDoublingAllReduce).name(),
            "halving_doubling_allreduce");
  EXPECT_EQ(collective(Protocol::kGossip).name(), "gossip");
  EXPECT_EQ(collective(Protocol::kParamServer).name(), "param_server");
}

// ---- stepped schedules -----------------------------------------------------

TEST(SteppedSchedule, BlockingRunExecutesExactlyTheScheduleSteps) {
  // The stepped schedule is the single source of truth for ring and
  // halving/doubling: the registry's blocking run must produce one
  // transport step (and one message per scheduled send) per schedule step.
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    for (const int k : {2, 5, 8}) {
      const int64_t elems = 97;
      const auto sched = allreduce_schedule(p, k, elems);
      int64_t scheduled_messages = 0;
      for (const auto& step : sched.steps) {
        scheduled_messages += static_cast<int64_t>(step.sends.size());
        EXPECT_EQ(step.sends.size(), step.recvs.size());
      }
      SimTransport t(LinkGrid::uniform(k, 100.0));
      CollectiveRequest req;
      req.elems = elems;
      (void)collective(p).run(t, req);
      EXPECT_EQ(t.stats().steps,
                static_cast<int64_t>(sched.steps.size()))
          << collective(p).name() << " k=" << k;
      EXPECT_EQ(t.stats().messages, scheduled_messages)
          << collective(p).name() << " k=" << k;
    }
  }
}

// ---- borrowed sends ---------------------------------------------------------

/// Every TransportStats field, compared exactly (doubles included).
void expect_stats_identical(const TransportStats& a, const TransportStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.send_seconds, b.send_seconds);
  EXPECT_EQ(a.recv_seconds, b.recv_seconds);
  EXPECT_EQ(a.dropped_per_edge, b.dropped_per_edge);
  EXPECT_EQ(a.retransmit_messages, b.retransmit_messages);
  EXPECT_EQ(a.retransmit_wire_bytes, b.retransmit_wire_bytes);
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages);
  EXPECT_EQ(a.duplicated_wire_bytes, b.duplicated_wire_bytes);
  EXPECT_EQ(a.corrupt_messages, b.corrupt_messages);
  EXPECT_EQ(a.delayed_messages, b.delayed_messages);
  EXPECT_EQ(a.reordered_messages, b.reordered_messages);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.step_spans, b.step_spans);
  EXPECT_EQ(a.step_message_counts, b.step_message_counts);
}

/// Drive `sched` through plain copying send/recv and a hand-written merge,
/// then scale to the mean exactly like the collective executors do.
void run_copying(const SteppedSchedule& sched, Transport& t,
                 std::vector<std::vector<double>>& bufs) {
  for (const ScheduleStep& step : sched.steps) {
    for (const auto& s : step.sends)
      t.send(s.src, s.dst, s.span.size(),
             bufs[static_cast<size_t>(s.src)].data() + s.span.begin);
    t.end_step();
    for (const auto& r : step.recvs) {
      const Message msg = t.recv(r.dst, r.src);
      EXPECT_EQ(msg.borrowed, nullptr);
      double* out = bufs[static_cast<size_t>(r.dst)].data() + r.span.begin;
      for (int64_t i = 0; i < r.span.size(); ++i) {
        const double v = msg.payload[static_cast<size_t>(i)];
        out[i] = r.accumulate ? out[i] + v : v;
      }
    }
  }
  if (!sched.scale_to_mean) return;
  std::vector<int64_t> parts = sched.participants;
  if (parts.empty())
    for (int64_t a = 0; a < t.endpoints(); ++a) parts.push_back(a);
  const double inv_k = 1.0 / static_cast<double>(parts.size());
  for (const int64_t a : parts)
    for (double& v : bufs[static_cast<size_t>(a)]) v *= inv_k;
}

void expect_bits_equal(const std::vector<std::vector<double>>& a,
                       const std::vector<std::vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                          a[i].size() * sizeof(double)),
              0)
        << "buffer " << i;
  }
}

TEST(BorrowedSends, CollectivesMatchTheCopyingPathBitForBit) {
  for (const Protocol p :
       {Protocol::kRingAllReduce, Protocol::kHalvingDoublingAllReduce}) {
    for (const int k : {5, 16}) {
      for (const int64_t elems : {int64_t{7}, int64_t{1001}}) {
        SCOPED_TRACE(std::string(collective(p).name()) +
                     " k=" + std::to_string(k) +
                     " elems=" + std::to_string(elems));
        const auto inputs =
            random_buffers(k, elems, 7000 + static_cast<uint64_t>(k + elems));
        auto borrowed = inputs;
        InProcTransport fast(LinkGrid::uniform(k, 100.0));
        CollectiveRequest req;
        req.elems = elems;
        req.buffers = pointers(borrowed);
        (void)collective(p).run(fast, req);

        auto copied = inputs;
        InProcTransport slow(LinkGrid::uniform(k, 100.0));
        run_copying(allreduce_schedule(p, k, elems), slow, copied);

        expect_bits_equal(borrowed, copied);
        expect_stats_identical(fast.stats(), slow.stats());
      }
    }
  }
}

TEST(BorrowedSends, SurvivorScheduleMatchesTheCopyingPathBitForBit) {
  // Halving/doubling re-formed over 7 of 10 endpoints: a non-power-of-two
  // survivor set, so the pre/post phases run on remapped ids.
  const int64_t k = 10, elems = 333;
  const std::vector<int64_t> live{0, 2, 3, 5, 6, 7, 9};
  const auto sched = allreduce_schedule_over(
      Protocol::kHalvingDoublingAllReduce, live, elems);
  const auto inputs = random_buffers(k, elems, 7100);

  auto borrowed = inputs;
  InProcTransport fast(LinkGrid::uniform(k, 100.0));
  CollectiveRequest req;
  req.elems = elems;
  req.buffers = pointers(borrowed);
  AsyncCollective(sched, fast, req).wait();

  auto copied = inputs;
  InProcTransport slow(LinkGrid::uniform(k, 100.0));
  run_copying(sched, slow, copied);

  expect_bits_equal(borrowed, copied);
  expect_stats_identical(fast.stats(), slow.stats());
  EXPECT_EQ(borrowed[1], inputs[1]) << "a non-participant's buffer moved";
}

TEST(BorrowedSends, OnlyLosslessFaultFreeLocalSendsKeepAView) {
  const std::vector<double> data{1.5, -2.25, 3.0, 0.5, 8.0};
  const auto n = static_cast<int64_t>(data.size());
  Transport::SendOptions borrow;
  borrow.borrow = true;

  // Borrowed, fp32, fault-free, local: a view of the sender's buffer, with
  // the accounting of a copying send.
  InProcTransport viewing(LinkGrid::uniform(2, 100.0));
  EXPECT_EQ(viewing.send(0, 1, n, data.data(), borrow), 0);
  viewing.end_step();
  const Message view = viewing.recv(1, 0);
  EXPECT_TRUE(view.payload.empty());
  EXPECT_EQ(view.data(), data.data());
  EXPECT_TRUE(view.has_payload());
  EXPECT_FALSE(view.checksummed);
  EXPECT_TRUE(view.intact());

  // Without the flag the same send copies.
  InProcTransport copying(LinkGrid::uniform(2, 100.0));
  EXPECT_EQ(copying.send(0, 1, n, data.data()), 0);
  copying.end_step();
  const Message copy = copying.recv(1, 0);
  EXPECT_EQ(copy.borrowed, nullptr);
  EXPECT_EQ(copy.payload, data);
  EXPECT_EQ(copy.data(), copy.payload.data());
  expect_stats_identical(viewing.stats(), copying.stats());

  // The int8 codec rewrites the values, so it needs its own copy.
  InProcTransport quantized(LinkGrid::uniform(2, 100.0), &quantized_codec());
  quantized.send(0, 1, n, data.data(), borrow);
  quantized.end_step();
  const Message q = quantized.recv(1, 0);
  EXPECT_EQ(q.borrowed, nullptr);
  ASSERT_EQ(q.payload.size(), data.size());
  EXPECT_EQ(q.data(), q.payload.data());
  EXPECT_EQ(q.wire_bytes, QuantizingCodec::quantized_wire_bytes(n));

  // A lossy fault plan checksums and may retransmit: copies, verifiable.
  FaultPlan lossy;
  lossy.seed = 21;
  lossy.drop_prob = 0.5;
  InProcTransport dropping(LinkGrid::uniform(2, 100.0), nullptr, lossy);
  for (int i = 0; i < 16; ++i) dropping.send(0, 1, n, data.data(), borrow);
  dropping.end_step();
  int64_t delivered = 0;
  while (auto m = dropping.try_recv_from(1, 0)) {
    ++delivered;
    EXPECT_EQ(m->borrowed, nullptr);
    EXPECT_EQ(m->payload, data);
    EXPECT_TRUE(m->checksummed);
    EXPECT_TRUE(m->intact());
    Message tampered = *m;
    tampered.payload[4] += 1.0;
    EXPECT_FALSE(tampered.intact());
  }
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(delivered + dropping.stats().dropped_messages, 16);

  // Corruption flips a bit in the message's own copy, never in the
  // sender's buffer.
  FaultPlan corrupting;
  FaultPlan::MessageFault mf;
  mf.corrupt_prob = 1.0;
  corrupting.message_faults.push_back(mf);
  const std::vector<double> pristine = data;
  InProcTransport flipping(LinkGrid::uniform(2, 100.0), nullptr, corrupting);
  flipping.send(0, 1, n, data.data(), borrow);
  flipping.end_step();
  const Message bad = flipping.recv(1, 0);
  EXPECT_EQ(bad.borrowed, nullptr);
  EXPECT_TRUE(bad.corrupted);
  EXPECT_FALSE(bad.intact());
  EXPECT_NE(bad.payload, data);
  EXPECT_EQ(data, pristine);

  // Timing-only transports carry no payload either way.
  SimTransport sim(LinkGrid::uniform(2, 100.0));
  sim.send(0, 1, n, data.data(), borrow);
  sim.end_step();
  EXPECT_FALSE(sim.recv(1, 0).has_payload());
}

TEST(BorrowedSends, ScheduleReceivingIntoItsOwnSentSpanIsRejected) {
  // Endpoint 0 sends [0, 4) and receives into [2, 6) in the same step: a
  // borrowed message would read values the merge already overwrote.
  SteppedSchedule bad;
  ScheduleStep step;
  step.sends = {{0, 1, Span{0, 4}}, {1, 0, Span{2, 6}}};
  step.recvs = {{1, 0, Span{0, 4}, true}, {0, 1, Span{2, 6}, true}};
  bad.steps.push_back(step);

  auto bufs = random_buffers(2, 8, 7200);
  const auto inputs = bufs;
  InProcTransport t(LinkGrid::uniform(2, 100.0));
  CollectiveRequest req;
  req.elems = 8;
  req.buffers = pointers(bufs);
  EXPECT_THROW(AsyncCollective(bad, t, req), std::invalid_argument);
  EXPECT_THROW(execute_schedule_owned(bad, t, req, {1, 1}),
               std::invalid_argument);
  EXPECT_EQ(t.stats().messages, 0);
  EXPECT_EQ(bufs, inputs);

  // Adjacent spans do not overlap: [0, 4) out, [4, 8) in is fine.
  SteppedSchedule good;
  step.sends = {{0, 1, Span{0, 4}}, {1, 0, Span{4, 8}}};
  step.recvs = {{1, 0, Span{0, 4}, true}, {0, 1, Span{4, 8}, true}};
  good.steps.push_back(step);
  AsyncCollective(good, t, req).wait();
  EXPECT_EQ(bufs[0][4], inputs[0][4] + inputs[1][4]);
  EXPECT_EQ(bufs[1][0], inputs[1][0] + inputs[0][0]);
}

// ---- shim equivalence ------------------------------------------------------

TEST(Shims, AllReduceCostMatchesTransportRun) {
  // The historical allreduce_cost() is now literally a SimTransport run;
  // spot-check it against a hand-built transport.
  const int64_t k = 8, bytes = 4'000'000;
  const auto cost = allreduce_cost(k, bytes, 100.0, AllReduceAlgo::kRing);
  SimTransport t(LinkGrid::uniform(k, 100.0));
  CollectiveRequest req;
  req.elems = fp32_wire_elems(bytes);
  (void)collective(Protocol::kRingAllReduce).run(t, req);
  EXPECT_EQ(cost.steps, t.stats().steps);
  EXPECT_EQ(cost.bytes_per_agent, t.stats().max_bytes_sent());
  EXPECT_DOUBLE_EQ(cost.seconds, t.stats().seconds);
}

}  // namespace
}  // namespace comdml::comm
