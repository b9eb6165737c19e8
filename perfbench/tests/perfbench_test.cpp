// Tests of the benchmark's own pieces: the tail-percentile rule, seed
// plumbing, and span nesting / self-time arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <unordered_map>

#include "inputs.hpp"
#include "stats.hpp"
#include "tensor/serialize.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(n));
  return v;
}

TEST(TailRule, LeavesExactlyTenRoundsBeyond) {
  const Tail t = tail(one_to(100));
  EXPECT_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100);
  EXPECT_EQ(t.beyond, 10);

  const Tail big = tail(one_to(1000));
  EXPECT_EQ(big.value, 990.0);
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
  EXPECT_EQ(big.samples, 1000);
}

TEST(TailRule, IsTheNearestRankPercentileItReports) {
  for (const int n : {11, 37, 50, 213}) {
    const auto v = one_to(n);
    const Tail t = tail(v);
    EXPECT_EQ(percentile(v, t.percentile), t.value) << "n=" << n;
    const auto above = std::count_if(v.begin(), v.end(),
                                     [&](double x) { return x > t.value; });
    EXPECT_EQ(above, 10) << "n=" << n;
    EXPECT_EQ(t.samples, n);
  }
}

TEST(TailRule, NeedsMoreThanTenSamples) {
  EXPECT_THROW((void)tail(one_to(10)), std::invalid_argument);
  const Tail t = tail(one_to(11));
  EXPECT_EQ(t.value, 1.0);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(TailRule, BlockTailIgnoresABurstInOneBlock) {
  std::vector<double> v;
  for (int b = 0; b < 10; ++b)
    for (int i = 1; i <= 100; ++i) v.push_back(b == 3 ? 1000.0 + i : i);
  v.push_back(5000.0);  // remainder past the last full block: dropped
  const BlockTail t = block_tail(v, 10);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.block_samples, 100);
  EXPECT_EQ(t.blocks, 10);
  // One block is the plain tail rule.
  EXPECT_EQ(block_tail(one_to(100), 1).value, tail(one_to(100)).value);
  EXPECT_THROW((void)block_tail(one_to(100), 10), std::invalid_argument);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

std::vector<std::vector<uint8_t>> shard_bytes(const Inputs& in) {
  std::vector<std::vector<uint8_t>> out;
  for (const auto& s : in.shards)
    out.push_back(comdml::tensor::pack_tensors({s.images}));
  return out;
}

std::vector<double> cpus(const Inputs& in) {
  std::vector<double> out;
  for (const auto& p : in.profiles) out.push_back(p.cpu);
  return out;
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherData) {
  for (const auto& w : workload_names()) {
    const Inputs a = make_inputs(w, 11, "ck");
    const Inputs b = make_inputs(w, 11, "ck");
    const Inputs c = make_inputs(w, 12, "ck");
    EXPECT_EQ(shard_bytes(a), shard_bytes(b)) << w;
    EXPECT_EQ(cpus(a), cpus(b)) << w;
    EXPECT_EQ(a.options.seed, b.options.seed) << w;
    EXPECT_NE(cpus(a), cpus(c)) << w;
    EXPECT_EQ(a.agents(), 16) << w;
    if (a.daemon) continue;
    EXPECT_NE(shard_bytes(a), shard_bytes(c)) << w;
    EXPECT_NE(a.options.seed, c.options.seed) << w;
  }
  // fleetd_2w: the spec seed (data, init) is fixed; the seed draws the
  // compute scales and the link speed the daemons receive.
  const Inputs d = make_inputs("fleetd_2w", 11, "ck");
  const Inputs e = make_inputs("fleetd_2w", 11, "ck");
  const Inputs f = make_inputs("fleetd_2w", 12, "ck");
  EXPECT_EQ(d.spec.compute_scales, e.spec.compute_scales);
  EXPECT_EQ(d.spec.mbps, e.spec.mbps);
  EXPECT_EQ(d.spec.compute_scales, cpus(d));
  EXPECT_NE(d.spec.compute_scales, f.spec.compute_scales);
  EXPECT_NE(d.spec.mbps, f.spec.mbps);
  EXPECT_EQ(d.spec.seed, f.spec.seed);
}

TEST(Seeds, FourComputeClassesOfFourAgents) {
  const double classes[4] = {4.0, 2.0, 0.5, 0.2};
  for (const uint64_t seed : {3, 4}) {
    const Inputs in = make_inputs("mlp_wire", seed, "ck");
    for (int64_t a = 0; a < in.agents(); ++a) {
      const auto& p = in.profiles[static_cast<size_t>(a)];
      EXPECT_NEAR(p.cpu / classes[a % 4], 1.0, 0.0101) << "agent " << a;
      EXPECT_NEAR(p.mbps / 100.0, 1.0, 0.0101) << "agent " << a;
    }
  }
}

TEST(Seeds, SameSeedSameDeterministicMetrics) {
  const auto rounds = [](uint64_t seed) {
    const Inputs in = make_inputs("cnn_compute", seed, "ck");
    auto fleet = build_fleet(in);
    std::vector<std::tuple<float, double, int64_t, int64_t>> out;
    for (int r = 0; r < 2; ++r) {
      const auto st = fleet->step();
      out.emplace_back(st.mean_loss, st.sim_time, st.aggregation_bytes,
                       st.num_pairs);
    }
    return out;
  };
  const auto a = rounds(5), b = rounds(5), c = rounds(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(std::get<0>(a[1]), std::get<0>(c[1]));  // other data, loss
  EXPECT_NE(std::get<1>(a[1]), std::get<1>(c[1]));  // other profiles
  EXPECT_EQ(std::get<2>(a[1]), std::get<2>(c[1]));  // same model bytes
  EXPECT_EQ(std::get<3>(a[0]), 8);  // the four classes pair up
}

/// Depth of a span in its parent chain (root = 0); throws on a dangling
/// parent id or a cycle.
int depth_of(const std::vector<Span>& spans, const Span& span) {
  std::unordered_map<int64_t, int64_t> parent;
  for (const Span& s : spans) parent[s.id] = s.parent;
  int depth = 0;
  for (int64_t p = span.parent; p >= 0; ++depth) {
    const auto it = parent.find(p);
    if (it == parent.end())
      throw std::runtime_error("span " + std::to_string(span.id) +
                               " has a dangling parent " + std::to_string(p));
    if (depth > static_cast<int>(spans.size()))
      throw std::runtime_error("span parent chain has a cycle");
    p = it->second;
  }
  return depth;
}

Span make_span(int64_t id, int64_t parent, double start, double end,
               int thread = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.thread = thread;
  s.name = "s" + std::to_string(id);
  return s;
}

TEST(Spans, ScopedSpansNestThroughExplicitParents) {
  Tracer tracer;
  int64_t root_id = -1, child_id = -1;
  {
    const ScopedSpan root(&tracer, "core.real_fleet.step", -1, 4);
    root_id = root.id();
    {
      const ScopedSpan child(&tracer, "core.parallel.local_training", root.id(), 4);
      child_id = child.id();
      const ScopedSpan leaf(&tracer, "nn.train_batch_full", child.id(), 4);
    }
    const ScopedSpan sibling(&tracer, "comm.collective.run", root.id(), 4);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const Span& s : spans) {
    EXPECT_EQ(s.round, 4);
    EXPECT_LE(s.start, s.end);
    if (s.name == "core.real_fleet.step") EXPECT_EQ(depth_of(spans, s), 0);
    if (s.name == "core.parallel.local_training") EXPECT_EQ(depth_of(spans, s), 1);
    if (s.name == "nn.train_batch_full") {
      EXPECT_EQ(s.parent, child_id);
      EXPECT_EQ(depth_of(spans, s), 2);
    }
    if (s.name == "comm.collective.run") EXPECT_EQ(s.parent, root_id);
  }
  EXPECT_EQ(children_of(spans, root_id).size(), 2u);
  // Children are recorded before (inside) their parent closes.
  const auto root = std::find_if(spans.begin(), spans.end(), [&](auto& s) {
    return s.id == root_id;
  });
  for (const Span& c : children_of(spans, root_id)) {
    EXPECT_GE(c.start, root->start);
    EXPECT_LE(c.end, root->end);
  }
  // A null tracer records nothing and hands out no ids.
  const ScopedSpan off(nullptr, "x");
  EXPECT_EQ(off.id(), -1);
}

TEST(Spans, CoveredSecondsIsTheUnionLength) {
  EXPECT_DOUBLE_EQ(covered_seconds({}), 0.0);
  EXPECT_DOUBLE_EQ(covered_seconds({{1, 3}, {2, 4}, {6, 7}}), 4.0);
  EXPECT_DOUBLE_EQ(covered_seconds({{0, 10}, {2, 3}}), 10.0);
  EXPECT_DOUBLE_EQ(covered_seconds({{5, 6}, {1, 2}, {2, 3}}), 3.0);
  EXPECT_DOUBLE_EQ(covered_seconds({{3, 3}, {4, 2}}), 0.0);  // empty
}

TEST(Spans, SelfTimeSubtractsWhatChildrenCover) {
  // Sequential children: self = 10 - (2 + 2 + 1).
  std::vector<Span> seq = {make_span(0, -1, 0, 10), make_span(1, 0, 1, 3),
                           make_span(2, 0, 3, 5), make_span(3, 0, 6, 7),
                           make_span(4, 1, 1, 2)};  // grandchild: ignored
  EXPECT_DOUBLE_EQ(self_seconds(seq, seq[0]), 5.0);
  EXPECT_DOUBLE_EQ(self_seconds(seq, seq[1]), 1.0);
  // Concurrent children on two threads count their union once.
  std::vector<Span> par = {make_span(0, -1, 0, 10),
                           make_span(1, 0, 1, 5, 1),
                           make_span(2, 0, 2, 6, 2)};
  EXPECT_DOUBLE_EQ(self_seconds(par, par[0]), 5.0);
  // A replayed round: children follow their parent in time; the
  // unattributed share is (parent - covered) / parent.
  std::vector<Span> replay = {make_span(0, -1, 0, 4), make_span(1, 0, 4, 5),
                              make_span(2, 0, 5, 7)};
  EXPECT_DOUBLE_EQ(self_seconds(replay, replay[0]), 1.0);
  EXPECT_DOUBLE_EQ(self_seconds(replay, replay[0]) / replay[0].seconds(),
                   0.25);
}

TEST(Spans, ChromeTraceKeepsEverySpan) {
  Tracer tracer;
  {
    const ScopedSpan a(&tracer, "core.real_fleet.step", -1, 0);
    const ScopedSpan b(&tracer, "nn.train_batch_full", a.id(), 0);
  }
  const std::filesystem::path path = "perfbench_test_trace.json";
  tracer.write_chrome_json(path.string());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  const std::string s = text.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"core.real_fleet.step\""), std::string::npos);
  EXPECT_NE(s.find("\"parent\":0"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
