// perfbench — the repeatable ComDML round benchmark.
//
//   perfbench --workload cnn_compute --seed 1 --seconds 10 --trace 0
//             --fleetd <path to fleetd> --workdir <scratch directory>
//             --trace-dir <directory for the traced run's spans>
//
// Builds one seeded workload, drives rounds in a closed loop (the next
// round is issued only after the previous one returns: a ComDML round is a
// synchronous barrier), checks the outputs, prints every metric by name
// with its unit, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `--trace 0` reports the end-to-end metrics; `--trace 1` runs an untraced
// and a traced phase and reports the per-layer metrics. Exit status 1 when
// a correctness check fails, 2 on a usage or set-up error.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/fleet_runtime.hpp"
#include "core/parallel.hpp"
#include "core/workspace.hpp"
#include "daemons.hpp"
#include "inputs.hpp"
#include "nn/module.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "tensor/serialize.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Untimed rounds before the timed window (lazy set-up, arena warm-up).
constexpr int64_t kWarmupRounds = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kInProcSetups = 5;
constexpr int kDaemonSetups = 5;
/// Post-loop repetitions of the checkpoint / RPC probes.
constexpr int kProbeReps = 3;
/// samples_per_s is the median throughput of this many blocks of rounds.
constexpr size_t kThroughputBlocks = 10;
/// round_tail_s is the median tail of blocks of this many rounds (one
/// block when fewer rounds ran): ten rounds beyond make it the p80 of each
/// block, whatever the run's length. Higher percentiles of fleetd_2w's
/// socket wake-ups moved by a quarter between runs.
constexpr int64_t kTailBlockRounds = 50;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string fleetd;
  std::string workdir = ".bench_build/perfbench/run";
  std::string trace_dir = ".bench_build/perfbench/traces";
};

/// Metrics in print order, with the one-line note printed beside them.
/// Rows added with `in_json` false are printed but left out of the result
/// line (the result line's own `attempted`/`failed` carry the failure
/// ratio, which is 0 on a healthy run).
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_json = true) {
    rows_.push_back({name, value, unit, note, in_json});
  }
  void print() const {
    for (const Row& r : rows_)
      std::printf("  %-44s %16.6g %-10s %s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), r.note.c_str());
  }
  [[nodiscard]] bool all_finite() const {
    for (const Row& r : rows_)
      if (!std::isfinite(r.value)) return false;
    return true;
  }
  [[nodiscard]] std::string json() const {
    std::string out;
    char buf[96];
    for (const Row& r : rows_) {
      if (!r.in_json) continue;
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(r.value) ? r.value : 0.0);
      out += (out.empty() ? "" : ", ") + std::string("\"") + r.name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + r.unit + "\"}";
    }
    return "{" + out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_json;
  };
  std::vector<Row> rows_;
};

/// Correctness checks and failure accounting of one run.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  void check(bool ok, const std::string& what) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct = correct && ok;
  }
  /// Run one round or RPC; a throw is counted, reported and survived.
  bool attempt(const char* what, const std::function<void()>& fn) {
    ++attempted;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what, e.what());
      return false;
    }
  }
};

/// One round's outputs, whichever engine ran it.
struct RoundOut {
  double modeled_s = 0.0;
  double wire_bytes = 0.0;
  double retransmit_bytes = 0.0;
  double loss = 0.0;
  int64_t samples = 0;
};

/// Closed-loop rounds: the timed window opens after the warm-up rounds and
/// closes once `seconds` have elapsed and `horizon` rounds succeeded.
struct Loop {
  std::vector<double> walls;       ///< timed rounds that succeeded
  std::vector<int64_t> samples;    ///< their training samples
  std::vector<RoundOut> horizon;   ///< the first `horizon` that succeeded
  int64_t rounds_ok = 0;
};

/// A run of this many failed rounds in a row ends the loop: the fleet is
/// gone, and the run reports what it has.
constexpr int kMaxConsecutiveFailures = 20;

Loop run_loop(Outcome& outcome, double seconds, int64_t horizon,
              int64_t warmup, const std::function<RoundOut()>& step) {
  Loop loop;
  Clock::time_point window = Clock::now();
  const double hard_stop = 3.0 * seconds + 60.0;
  const auto started = Clock::now();
  int failures_in_a_row = 0;
  for (int64_t r = 0; failures_in_a_row < kMaxConsecutiveFailures; ++r) {
    if (r == warmup) window = Clock::now();
    const bool timed = r >= warmup;
    if (timed && since(window) >= seconds &&
        static_cast<int64_t>(loop.horizon.size()) >= horizon)
      break;
    if (since(started) > hard_stop) break;
    RoundOut out;
    const auto t0 = Clock::now();
    const bool ok = outcome.attempt("round", [&] { out = step(); });
    const double wall = since(t0);
    failures_in_a_row = ok ? 0 : failures_in_a_row + 1;
    if (!ok) continue;
    ++loop.rounds_ok;
    if (static_cast<int64_t>(loop.horizon.size()) < horizon)
      loop.horizon.push_back(out);
    if (timed) {
      loop.walls.push_back(wall);
      loop.samples.push_back(out.samples);
    }
  }
  return loop;
}

double peak_rss_self_mb() {
  rusage ru{};
  (void)::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean training loss over the last rounds of the deterministic horizon
/// (one round's loss of a few small batches is too noisy to compare).
double final_loss(const Loop& loop) {
  const auto n = static_cast<int64_t>(loop.horizon.size());
  const int64_t k = std::min(n, Inputs::kFinalLossRounds);
  double sum = 0.0;
  for (int64_t r = n - k; r < n; ++r)
    sum += loop.horizon[static_cast<size_t>(r)].loss;
  return sum / static_cast<double>(k);
}

/// Samples per second over the timed rounds, as the median over
/// kThroughputBlocks consecutive blocks of rounds: a burst of interference
/// from outside the benchmark moves one block, not the figure.
double samples_per_second(const Loop& loop) {
  const size_t n = loop.walls.size();
  const size_t blocks = std::min<size_t>(kThroughputBlocks, n);
  std::vector<double> rates;
  for (size_t b = 0; b < blocks; ++b) {
    double wall = 0.0, samples = 0.0;
    for (size_t r = b * n / blocks; r < (b + 1) * n / blocks; ++r) {
      wall += loop.walls[r];
      samples += static_cast<double>(loop.samples[r]);
    }
    rates.push_back(samples / wall);
  }
  return median(rates);
}

/// The end-to-end metrics of the untraced loops. Wall metrics are the
/// median over the loops (one per fleet instance); the deterministic ones
/// come from the first loop's horizon.
void report_end_to_end(Report& rep, Outcome& outcome,
                       const std::vector<Loop>& loops,
                       const std::vector<double>& setups,
                       double peak_rss_mb) {
  std::vector<double> sps, p50, tails;
  int64_t n = 0;
  BlockTail t;
  for (const Loop& l : loops) {
    const auto rounds = static_cast<int64_t>(l.walls.size());
    n += rounds;
    sps.push_back(samples_per_second(l));
    p50.push_back(median(l.walls));
    t = block_tail(l.walls, std::max<int64_t>(1, rounds / kTailBlockRounds));
    tails.push_back(t.value);
  }
  std::string count = "n=" + std::to_string(n) + " rounds";
  if (loops.size() > 1)
    count += ", median of " + std::to_string(loops.size()) + " fleets";
  rep.add("samples_per_s", median(sps), "samples/s",
          count + ", median of " + std::to_string(kThroughputBlocks) +
              " blocks each");
  rep.add("round_p50_s", median(p50), "s", count);
  char note[160];
  std::snprintf(note, sizeof note,
                "p%.2f (10 rounds beyond) of %lld-round blocks, median of "
                "%lld blocks, %s",
                t.percentile, static_cast<long long>(t.block_samples),
                static_cast<long long>(t.blocks), count.c_str());
  rep.add("round_tail_s", median(tails), "s", note);
  const Loop& loop = loops.front();
  double modeled = 0.0, bytes = 0.0;
  for (const RoundOut& r : loop.horizon) {
    modeled += r.modeled_s;
    bytes += r.wire_bytes;
  }
  const auto k = static_cast<double>(loop.horizon.size());
  const std::string first_k =
      "rounds 0.." + std::to_string(loop.horizon.size() - 1);
  rep.add("modeled_round_s", modeled / k, "s", "mean over " + first_k);
  rep.add("wire_bytes_per_round", bytes / k, "B",
          "max sent by any agent, mean over " + first_k);
  rep.add("final_loss", final_loss(loop), "1",
          "mean training loss over rounds " +
              std::to_string(loop.horizon.size() - Inputs::kFinalLossRounds) +
              ".." + std::to_string(loop.horizon.size() - 1));
  rep.add("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) + " set-ups");
  rep.add("peak_rss_mb", peak_rss_mb, "MiB");
  rep.add("failed_round_ratio",
          static_cast<double>(outcome.failed) /
              static_cast<double>(std::max<int64_t>(1, outcome.attempted)),
          "1",
          std::to_string(outcome.failed) + " of " +
              std::to_string(outcome.attempted) + " rounds/RPCs",
          /*in_json=*/false);
}

void check_loss(Outcome& outcome, const Loop& loop) {
  if (loop.horizon.empty()) {
    outcome.check(false, "no round of the deterministic horizon completed");
    return;
  }
  const double first = loop.horizon.front().loss;
  const double last = final_loss(loop);
  char what[160];
  std::snprintf(what, sizeof what,
                "final_loss %.6g is finite and below round 0's %.6g", last,
                first);
  outcome.check(std::isfinite(last) && last < first, what);
}

// ---- per-layer aggregation over the recorded spans -------------------------

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.seconds());
  return out;
}

double p50_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (const double x : v) t += x;
  return t;
}

/// Median over rounds of the length covered by spans whose name starts
/// with `prefix`.
double per_round_coverage(const std::vector<Span>& spans,
                          const std::string& prefix) {
  std::map<int64_t, std::vector<std::pair<double, double>>> by_round;
  for (const Span& s : spans)
    if (s.round >= 0 && s.name.rfind(prefix, 0) == 0)
      by_round[s.round].emplace_back(s.start, s.end);
  std::vector<double> covered;
  for (auto& [round, iv] : by_round) covered.push_back(covered_seconds(iv));
  return p50_or_zero(covered);
}

/// Median over `parent_name` spans of self time / duration.
double unattributed_share(const std::vector<Span>& spans,
                          const char* parent_name) {
  std::vector<double> shares;
  for (const Span& s : spans)
    if (s.name == parent_name && s.seconds() > 0.0)
      shares.push_back(self_seconds(spans, s) / s.seconds());
  return p50_or_zero(shares);
}

/// Layer metrics every workload reports from the replay.
void report_replay_layers(Report& rep, const std::vector<Span>& spans,
                          const Replay& replay) {
  rep.add("data.next_batch_s",
          p50_or_zero(durations(spans, span::kNextBatch)), "s",
          "Batcher::next, p50 per call");
  const auto full = durations(spans, span::kTrainFull);
  const auto split = durations(spans, span::kTrainSplit);
  rep.add("nn.train_batch_s", p50_or_zero(full), "s",
          "nn::train_batch_full, p50 per call, n=" +
              std::to_string(full.size()));
  rep.add("nn.split_train_batch_s", p50_or_zero(split), "s",
          "LocalLossSplitTrainer::train_batch, p50 per call, n=" +
              std::to_string(split.size()));
  rep.add("nn.gflops", replay.nn_flops() / (sum(full) + sum(split)) / 1e9,
          "GFLOP/s", "profiled FLOPs / time of those calls");
  const auto pair_s = durations(spans, span::kPairing);
  rep.add("core.pairing.pair_agents_s", p50_or_zero(pair_s), "s",
          "p50 per call");
  double pairs = 0.0, offloaded = 0.0;
  for (const auto& p : replay.pairings()) {
    pairs += static_cast<double>(p.pairs);
    offloaded += p.offloaded_fraction;
  }
  const auto np = static_cast<double>(replay.pairings().size());
  rep.add("core.pairing.pairs", pairs / np, "count", "per round");
  rep.add("core.pairing.offloaded_fraction", offloaded / np, "1",
          "share of training FLOPs run on a helper");
  rep.add("comm.collective.run_s",
          p50_or_zero(durations(spans, span::kCollectiveRun)), "s",
          "flat halving/doubling on InProcTransport, p50");
  Replay::CollectiveRound mean;
  for (const auto& c : replay.collectives()) {
    mean.modeled_s += c.modeled_s;
    mean.messages += c.messages;
    mean.steps += c.steps;
    mean.wire_bytes += c.wire_bytes;
    mean.goodput_bytes += c.goodput_bytes;
    mean.dropped += c.dropped;
    mean.retransmit_bytes += c.retransmit_bytes;
  }
  const auto nc = static_cast<double>(replay.collectives().size());
  rep.add("comm.collective.modeled_s", mean.modeled_s / nc, "s",
          "same schedule on SimTransport");
  rep.add("comm.transport.messages_per_round",
          static_cast<double>(mean.messages) / nc, "count");
  rep.add("comm.transport.steps_per_round",
          static_cast<double>(mean.steps) / nc, "count");
  rep.add("comm.transport.wire_bytes_per_round",
          static_cast<double>(mean.wire_bytes) / nc, "B",
          "all agents, retransmits included");
  rep.add("comm.reliable.retransmit_bytes_per_round",
          static_cast<double>(mean.retransmit_bytes) / nc, "B");
  rep.add("comm.reliable.dropped_messages_per_round",
          static_cast<double>(mean.dropped) / nc, "count");
  rep.add("comm.reliable.retransmit_ratio",
          static_cast<double>(mean.retransmit_bytes) /
              static_cast<double>(std::max<int64_t>(1, mean.goodput_bytes)),
          "1", "base: goodput bytes");
}

struct PipelineMeans {
  double buckets = 0.0, split_early = 0.0, aggregation_s = 0.0,
         exposed_s = 0.0;
  int64_t rounds = 0;

  void add(double b, double se, double agg, double exposed) {
    buckets += b;
    split_early += se;
    aggregation_s += agg;
    exposed_s += exposed;
    ++rounds;
  }
  void report(Report& rep) const {
    const auto n = static_cast<double>(std::max<int64_t>(1, rounds));
    rep.add("core.round_pipeline.buckets", buckets / n, "count");
    rep.add("core.round_pipeline.split_early_buckets", split_early / n,
            "count");
    rep.add("core.round_pipeline.aggregation_s", aggregation_s / n, "s",
            "modeled");
    rep.add("core.round_pipeline.exposed_comm_s", exposed_s / n, "s",
            "modeled, after overlap");
  }
};

/// Checkpoint and restore of an in-process fleet, median of kProbeReps.
void report_checkpoint_probe(Report& rep, Tracer& tracer,
                             core::RealFleet& fleet,
                             core::RealFleet& target) {
  std::vector<double> ck_s, rs_s;
  std::vector<uint8_t> blob;
  for (int i = 0; i < kProbeReps; ++i) {
    {
      const ScopedSpan s(&tracer, "core.real_fleet.checkpoint");
      const auto t0 = Clock::now();
      blob = fleet.checkpoint();
      ck_s.push_back(since(t0));
    }
    const ScopedSpan s(&tracer, "core.real_fleet.restore");
    const auto t0 = Clock::now();
    target.restore(blob);
    rs_s.push_back(since(t0));
  }
  rep.add("core.real_fleet.checkpoint_s", median(ck_s), "s",
          "RealFleet::checkpoint, p50");
  rep.add("core.real_fleet.restore_s", median(rs_s), "s",
          "RealFleet::restore into a fresh fleet, p50");
  rep.add("core.real_fleet.checkpoint_bytes",
          static_cast<double>(blob.size()), "B");
}

void report_no_daemon(Report& rep) {
  const char* none = "not on this workload's path";
  rep.add("daemon.connect_s", 0.0, "s", none);
  rep.add("daemon.stats_rpc_s", 0.0, "s", none);
  rep.add("daemon.weights_rpc_s", 0.0, "s", none);
  rep.add("daemon.checkpoint_rpc_s", 0.0, "s", none);
  rep.add("daemon.checkpoint_bytes", 0.0, "B", none);
  rep.add("comm.socket.wire_bytes_per_round", 0.0, "B", none);
  rep.add("comm.socket.messages_per_round", 0.0, "count", none);
}

void report_trace_shares(Report& rep, const std::vector<Span>& spans,
                         const char* step_name, double traced_sps,
                         double untraced_sps) {
  rep.add("trace.unattributed_share", unattributed_share(spans, step_name),
          "1", std::string("(") + step_name +
                   " wall - replayed layer spans) / wall, p50 over rounds");
  rep.add("trace.overhead_ratio", traced_sps / untraced_sps, "1",
          "traced / untraced samples_per_s (the replay runs inside the "
          "traced loop)");
}

std::string trace_path(const Args& a) {
  return a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
         ".trace.json";
}

/// Dominant-layer check: the layer's replayed time per round must be at
/// least half of round_p50_s, or the workload is mis-sized.
void check_dominant_layer(Outcome& outcome, const std::string& workload,
                          const std::vector<Span>& spans, double round_p50) {
  std::string prefix;
  if (workload == "cnn_compute") prefix = "nn.";
  if (workload == "mlp_wire") prefix = span::kCollectiveRun;
  if (prefix.empty()) return;
  const double layer = per_round_coverage(spans, prefix);
  char what[200];
  std::snprintf(what, sizeof what,
                "dominant layer %s*: %.4g s per round >= half of "
                "round_p50_s %.4g s",
                prefix.c_str(), layer, round_p50);
  outcome.check(layer >= 0.5 * round_p50, what);
}

// ---- in-process workloads ----------------------------------------------------

RoundOut fleet_round(core::RealFleet& fleet, const Inputs& in,
                     core::RealFleet::RoundStats* stats_out = nullptr) {
  const core::RealFleet::RoundStats st = fleet.step();
  if (stats_out != nullptr) *stats_out = st;
  RoundOut out;
  out.modeled_s = st.sim_time;
  out.wire_bytes = static_cast<double>(st.aggregation_bytes);
  out.retransmit_bytes = static_cast<double>(st.retransmit_bytes);
  out.loss = st.mean_loss;
  out.samples = static_cast<int64_t>(fleet.live_agents().size()) *
                in.options.train.batches_per_round *
                in.options.train.batch_size;
  return out;
}

/// mlp_lossy: the aggregation traffic beyond the no-drop fleet's is all
/// retransmission, and a checkpoint restored into a fresh fleet continues
/// exactly like the original.
///
/// RoundStats::aggregation_bytes is the most any agent sent, retransmits
/// included, and the fleet reports retransmits only as a fleet-wide sum,
/// so a per-agent goodput is not observable: the check bounds the excess
/// over the no-drop value by the retransmitted bytes instead of asking for
/// equality.
void check_lossy(Outcome& outcome, const Inputs& in, core::RealFleet& fleet,
                 const Loop& loop) {
  core::FleetOptions clean = in.options;
  clean.faults.message_drop_prob = 0.0;
  clean.faults.checkpoint_every = 0;
  auto twin = build_fleet(in, clean);
  for (size_t r = 0; r < 2 && r < loop.horizon.size(); ++r) {
    const auto st = twin->step();
    const double base = static_cast<double>(st.aggregation_bytes);
    const RoundOut& lossy = loop.horizon[r];
    char what[240];
    std::snprintf(what, sizeof what,
                  "round %zu: no-drop bytes %.0f <= lossy bytes %.0f <= "
                  "no-drop + retransmitted %.0f",
                  r, base, lossy.wire_bytes, base + lossy.retransmit_bytes);
    outcome.check(base <= lossy.wire_bytes &&
                      lossy.wire_bytes <= base + lossy.retransmit_bytes,
                  what);
  }

  std::vector<uint8_t> blob;
  bool same_loss = false;
  outcome.attempt("checkpoint/restore", [&] {
    blob = fleet.checkpoint();
    core::FleetOptions fresh_opt = in.options;
    fresh_opt.faults.checkpoint_every = 0;
    auto fresh = build_fleet(in, fresh_opt);
    fresh->restore(blob);
    const float cont = fleet.step().mean_loss;
    const float resumed = fresh->step().mean_loss;
    same_loss = cont == resumed;
  });
  outcome.check(same_loss, "restore(checkpoint()) into a fresh fleet gives "
                           "the same next-round loss as continuing");
}

/// Set-up starts from the seed: generating the inputs is part of it.
Inputs workload_inputs(const Args& a) {
  return make_inputs(a.workload, a.seed, a.workdir + "/checkpoints");
}

void run_inprocess(const Args& a, Report& rep, Outcome& outcome) {
  std::vector<double> setups;
  Inputs in;
  std::unique_ptr<core::RealFleet> fleet;
  for (int i = 0; i < kInProcSetups; ++i) {
    fleet.reset();
    const auto t0 = Clock::now();
    in = workload_inputs(a);
    fleet = build_fleet(in);
    setups.push_back(since(t0));
  }
  const double phase = a.trace ? a.seconds / 2.0 : a.seconds;
  const Loop loop = run_loop(outcome, phase, in.horizon, kWarmupRounds,
                             [&] { return fleet_round(*fleet, in); });
  if (loop.walls.size() <= 10 || loop.horizon.size() <
                                     static_cast<size_t>(in.horizon))
    throw std::runtime_error("too few rounds completed to report");
  const double rss = peak_rss_self_mb();
  Report e2e;
  report_end_to_end(e2e, outcome, {loop}, setups, rss);
  if (!a.trace) rep = e2e;
  if (a.trace) {
    std::printf("untraced phase:\n");
    e2e.print();
    Tracer tracer;
    Replay replay(in, tracer);
    PipelineMeans pipe;
    std::vector<double> heap_allocs;
    int64_t round = static_cast<int64_t>(loop.rounds_ok);
    const Loop traced = run_loop(outcome, phase, 0, 0, [&] {
      core::RealFleet::RoundStats st;
      RoundOut out;
      const int64_t r = round++;
      int64_t parent = -1;
      {
        const auto before = core::Workspace::aggregate_stats();
        const ScopedSpan s(&tracer, "core.real_fleet.step", -1, r);
        parent = s.id();
        out = fleet_round(*fleet, in, &st);
        heap_allocs.push_back(static_cast<double>(
            core::Workspace::aggregate_stats().heap_allocs -
            before.heap_allocs));
      }
      pipe.add(static_cast<double>(st.buckets),
               static_cast<double>(st.split_early_buckets),
               st.aggregation_seconds, st.exposed_comm_seconds);
      replay.round(parent, r);
      return out;
    });
    const auto ws = core::Workspace::aggregate_stats();
    const double gbps = codec_encode_gbps(200, a.seed, &tracer);
    const auto spans = tracer.spans();
    report_replay_layers(rep, spans, replay);
    rep.add("core.workspace.heap_allocs_per_round", sum(heap_allocs) /
                static_cast<double>(heap_allocs.size()),
            "count", "Workspace::aggregate_stats delta across step()");
    rep.add("core.workspace.high_water_kib",
            static_cast<double>(ws.high_water_bytes) / 1024.0, "KiB",
            "summed over thread arenas");
    rep.add("comm.codec.encode_gbps", gbps, "GB/s",
            "int8 encode of one 64 KiB bucket, p50");
    pipe.report(rep);
    auto target = build_fleet(in);
    report_checkpoint_probe(rep, tracer, *fleet, *target);
    report_no_daemon(rep);
    report_trace_shares(rep, spans, "core.real_fleet.step",
                        samples_per_second(traced), samples_per_second(loop));
    check_dominant_layer(outcome, in.workload, spans, median(loop.walls));
    tracer.write_chrome_json(trace_path(a));
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                trace_path(a).c_str());
  }
  check_loss(outcome, loop);
  if (in.options.faults.message_drop_prob > 0.0)
    check_lossy(outcome, in, *fleet, loop);
}

// ---- fleetd_2w ---------------------------------------------------------------

void run_daemon(const Args& a, Report& rep, Outcome& outcome) {
  const std::string dir = a.workdir + "/fleet";
  std::vector<double> setups;
  Inputs in;
  std::unique_ptr<DaemonFleet> fleet;
  const auto round_out = [&](const core::RoundReport& rr) {
    RoundOut out;
    out.modeled_s = rr.round_seconds;
    out.wire_bytes = static_cast<double>(rr.aggregation_bytes);
    out.retransmit_bytes = static_cast<double>(rr.retransmit_bytes);
    out.loss = rr.mean_loss;
    out.samples = in.samples_per_round() -
                  rr.dropped_agents * in.options.train.batches_per_round *
                      in.options.train.batch_size;
    return out;
  };
  // The untraced phase runs on kDaemonSetups fleets in turn, each for a
  // share of the time: how the daemons' threads land on the cores is
  // settled at spawn, and one unlucky fleet ran at under half the round
  // rate of the others for its whole life. Every fleet's consensus
  // weights are checked against the spec fleet stepped in-process.
  const double phase = a.trace ? a.seconds / 2.0 : a.seconds;
  std::vector<Loop> loops;
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> weights_at;
  double rss = 0.0;
  for (int i = 0; i < kDaemonSetups; ++i) {
    if (fleet) {
      outcome.attempt("weights RPC", [&] {
        weights_at.emplace_back(loops.back().rounds_ok,
                                fleet->client().weights());
      });
      outcome.check(fleet->shutdown(), "daemons exit cleanly on shutdown");
      fleet.reset();
    }
    const auto t0 = Clock::now();
    in = workload_inputs(a);
    fleet = std::make_unique<DaemonFleet>(a.fleetd, dir, in.spec, 2, 2);
    setups.push_back(since(t0));
    auto& client = fleet->client();
    loops.push_back(run_loop(outcome, phase / kDaemonSetups, in.horizon,
                             kWarmupRounds,
                             [&] { return round_out(client.round()); }));
    const Loop& loop = loops.back();
    if (loop.walls.size() <= 10 || loop.horizon.size() <
                                       static_cast<size_t>(in.horizon))
      throw std::runtime_error("too few rounds completed to report");
    rss = std::max(rss, fleet->peak_rss_mb());
  }
  const Loop& loop = loops.back();
  auto& client = fleet->client();
  Report e2e;
  report_end_to_end(e2e, outcome, loops, setups, rss);
  if (!a.trace) rep = e2e;
  int64_t rounds_ok = loop.rounds_ok;

  std::vector<uint8_t> weights;
  if (a.trace) {
    std::printf("untraced phase:\n");
    e2e.print();
    Tracer tracer;
    Replay replay(in, tracer);
    PipelineMeans pipe;
    std::vector<double> socket_bytes, socket_msgs;
    int64_t round = rounds_ok;
    const Loop traced = run_loop(outcome, phase, 0, 0, [&] {
      const int64_t r = round++;
      core::RoundReport rr;
      int64_t parent = -1;
      {
        const ScopedSpan s(&tracer, "daemon.client.round", -1, r);
        parent = s.id();
        rr = client.round();
      }
      pipe.add(static_cast<double>(rr.buckets),
               static_cast<double>(rr.split_early_buckets),
               rr.aggregation_seconds, rr.exposed_comm_seconds);
      {
        const ScopedSpan s(&tracer, "daemon.stats_rpc", -1, r);
        const auto st = client.stats();
        socket_bytes.push_back(static_cast<double>(st.total_wire_bytes));
        socket_msgs.push_back(static_cast<double>(st.messages));
      }
      replay.round(parent, r);
      return round_out(rr);
    });
    rounds_ok += traced.rounds_ok;
    std::vector<double> weights_s, ck_s;
    std::vector<uint8_t> ck;
    for (int i = 0; i < kProbeReps; ++i) {
      outcome.attempt("weights RPC", [&] {
        const ScopedSpan s(&tracer, "daemon.weights_rpc");
        const auto t0 = Clock::now();
        weights = client.weights();
        weights_s.push_back(since(t0));
      });
      outcome.attempt("checkpoint RPC", [&] {
        const ScopedSpan s(&tracer, "daemon.checkpoint_rpc");
        const auto t0 = Clock::now();
        ck = client.checkpoint();
        ck_s.push_back(since(t0));
      });
    }
    const double gbps = codec_encode_gbps(200, a.seed, &tracer);
    const auto spans = tracer.spans();
    report_replay_layers(rep, spans, replay);
    rep.add("core.workspace.heap_allocs_per_round", 0.0, "count",
            "the round runs in the daemons");
    rep.add("core.workspace.high_water_kib",
            static_cast<double>(
                core::Workspace::aggregate_stats().high_water_bytes) /
                1024.0,
            "KiB", "the replay's thread arenas");
    rep.add("comm.codec.encode_gbps", gbps, "GB/s",
            "int8 encode of one 64 KiB bucket, p50");
    pipe.report(rep);
    rep.add("daemon.connect_s", fleet->connect_seconds(), "s",
            "FleetClient connect + hello");
    rep.add("daemon.stats_rpc_s",
            p50_or_zero(durations(spans, "daemon.stats_rpc")), "s", "p50");
    rep.add("daemon.weights_rpc_s", p50_or_zero(weights_s), "s", "p50");
    rep.add("daemon.checkpoint_rpc_s", p50_or_zero(ck_s), "s", "p50");
    rep.add("daemon.checkpoint_bytes", static_cast<double>(ck.size()), "B");
    rep.add("comm.socket.wire_bytes_per_round", median(socket_bytes), "B",
            "merged FleetClient::stats()");
    rep.add("comm.socket.messages_per_round", median(socket_msgs), "count",
            "merged FleetClient::stats()");
    report_trace_shares(rep, spans, "daemon.client.round",
                        samples_per_second(traced), samples_per_second(loop));
    tracer.write_chrome_json(trace_path(a));
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                trace_path(a).c_str());
  } else {
    outcome.attempt("weights RPC", [&] { weights = client.weights(); });
  }
  weights_at.emplace_back(rounds_ok, std::move(weights));
  outcome.check(fleet->shutdown(), "daemons exit cleanly on shutdown");
  std::sort(weights_at.begin(), weights_at.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  auto ref = comdml::daemon::build_spec_fleet(in.spec);
  int64_t stepped = 0;
  for (const auto& [rounds, w] : weights_at) {
    for (; stepped < rounds; ++stepped) (void)ref.step();
    outcome.check(!w.empty() &&
                      w == comdml::tensor::pack_tensors(comdml::nn::state_of(
                               ref.model(ref.live_agents().front()))),
                  "FleetClient::weights() is byte-identical to the spec "
                  "fleet stepped in-process for " +
                      std::to_string(rounds) + " rounds");
  }
  for (const Loop& l : loops)
    check_loss(outcome, l);
  bool same = true;
  for (const Loop& l : loops)
    for (size_t r = 0; r < l.horizon.size(); ++r)
      same = same && l.horizon[r].loss == loop.horizon[r].loss &&
             l.horizon[r].modeled_s == loop.horizon[r].modeled_s &&
             l.horizon[r].wire_bytes == loop.horizon[r].wire_bytes;
  outcome.check(same, "every fleet instance reports the same losses, "
                      "modeled times and bytes over the horizon");
  if (a.trace) {
    // The daemons offer no restore; probe the spec fleet in-process.
    auto target = comdml::daemon::build_spec_fleet(in.spec);
    Tracer probe_tracer;
    report_checkpoint_probe(rep, probe_tracer, *ref.real_comdml(),
                            *target.real_comdml());
  }
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
    } else if (arg == "--fleetd") {
      a.fleetd = v;
    } else if (arg == "--workdir") {
      a.workdir = v;
    } else if (arg == "--trace-dir") {
      a.trace_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // End with the process that started us (run.py); the daemons we spawn
  // end with us the same way.
  const pid_t starter = ::getppid();
  (void)::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() != starter) return 2;
  Args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <%s|%s|%s|%s> "
                 "--seed N [--seconds S] [--trace 0|1] [--fleetd PATH] "
                 "[--workdir DIR] [--trace-dir DIR]\n",
                 e.what(), workload_names()[0].c_str(),
                 workload_names()[1].c_str(), workload_names()[2].c_str(),
                 workload_names()[3].c_str());
    return 2;
  }
  Outcome outcome;
  Report rep;
  try {
    std::filesystem::create_directories(a.workdir);
    if (a.trace) std::filesystem::create_directories(a.trace_dir);
    core::set_num_threads(std::min(4, core::hardware_threads()));
    if (workload_inputs(a).daemon) {
      if (a.fleetd.empty())
        throw std::invalid_argument("fleetd_2w needs --fleetd <path>");
      run_daemon(a, rep, outcome);
    } else {
      run_inprocess(a, rep, outcome);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(a.workdir + "/checkpoints", ec);
  std::printf("%s metrics (%s):\n", a.workload.c_str(),
              a.trace ? "per layer, traced run" : "end to end");
  rep.print();
  outcome.check(rep.all_finite(), "every metric is finite");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), rep.json().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
