// Real execution mode: the full ComDML round — decentralized pairing,
// local-loss split training on actual tensors, and a real message-level
// AllReduce — on small models and synthetic data. The scheduling code is
// the same pair_agents()/SplitProfile used at paper scale, so nothing about
// the algorithm is mocked; only the model/dataset sizes shrink.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "core/pairing.hpp"
#include "core/round_pipeline.hpp"
#include "data/batcher.hpp"
#include "nn/split.hpp"

namespace comdml::tensor {
class ByteReader;
class ByteWriter;
}  // namespace comdml::tensor

namespace comdml::core {

/// Builds one model replica; must be deterministic given the Rng.
using ModelFactory =
    std::function<std::unique_ptr<nn::Sequential>(tensor::Rng&)>;

/// A fleet checkpoint blob failed validation: wrong magic, unsupported
/// version, checksum mismatch (bit rot / partial write), truncation, or a
/// geometry the restoring fleet cannot host. Typed so callers (fleet_cli)
/// can report a clear "checkpoint is unusable" instead of a generic
/// precondition failure.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

class RealFleet {
 public:
  /// One shard per agent; all shards must share classes and sample shape.
  RealFleet(const ModelFactory& factory, int64_t classes,
            std::vector<data::Dataset> shards, sim::Topology topology,
            FleetOptions options);

  struct RoundStats {
    double sim_time = 0.0;       ///< simulated wall-clock of the round
    float mean_slow_loss = 0.0;  ///< mean aux-head loss across pairs
    float mean_loss = 0.0;       ///< mean full/fast loss across agents
    int64_t num_pairs = 0;
    double mean_dcor = 0.0;  ///< input-vs-cut-activation distance correlation
    /// Measured wire compression of the real activations crossing the cut
    /// (bitmask + int8 codec; see comm/compress.hpp). 0 when no pairs.
    double mean_wire_compression = 0.0;
    /// Executed traffic of the aggregation collective (InProcTransport).
    double aggregation_seconds = 0.0;  ///< modeled clock of the collective
    int64_t aggregation_bytes = 0;     ///< max bytes any agent sent
    /// Bucketed aggregation (comms.bucket_bytes > 0): bucket count and the
    /// aggregation time left on the round's critical path after overlap
    /// (== aggregation_seconds when nothing is hidden; sequential and flat
    /// rounds expose everything).
    int64_t buckets = 0;
    double exposed_comm_seconds = 0.0;
    /// Buckets that split-trained slow replicas published while their
    /// split backward still had units pending (layerwise readiness inside
    /// LocalLossSplitTrainer; 0 without pairs or without in-task
    /// publication). Before this existed, split replicas published
    /// everything at task end and the overlap window collapsed there.
    int64_t split_early_buckets = 0;
    /// Agents that died during this round (injected faults).
    int64_t dropped_agents = 0;
    /// Solo agents deferred past the straggler deadline this round: they
    /// trained but the on-time set aggregated without them; their late
    /// update rides the error-feedback residual into the next round.
    int64_t late_agents = 0;
    /// Retransmission traffic of the bucket collectives (reliable delivery
    /// under message faults; excluded from goodput).
    int64_t retransmit_bytes = 0;
  };

  /// Per-task training result, folded into the round's mean losses in
  /// fixed task order. Public because a multi-process fleet gathers owned
  /// tasks' results and broadcasts the merged vector to every worker (the
  /// fold itself stays one code path).
  struct TaskResult {
    float slow_loss_sum = 0.0f;
    float loss_sum = 0.0f;
    int64_t loss_count = 0;
    double dcor = 0.0;
    double wire_compression = 0.0;
    int64_t dcor_count = 0;
    int64_t split_early_buckets = 0;
  };

  /// One agent's exported round state in transit between workers.
  using AgentBlob = std::pair<int64_t, std::vector<uint8_t>>;

  /// The cross-worker round barrier's payload. A worker fills `state_out`
  /// with the agents it trained but does not own (an offload pair borrows
  /// the fast agent's replica onto the slow agent's owner); the exchange
  /// returns every worker's borrowed state in `state_in` plus `died` — the
  /// agents of workers that crashed mid-training, which the step kills
  /// before forming the aggregation collective.
  struct ExchangeIO {
    /// Task -> primary agent id: the solo agent, or a pair's slow agent.
    /// The owner of the primary runs the task.
    const std::vector<int64_t>* task_agent = nullptr;
    /// In: this worker's results for owned tasks. Out: results merged
    /// across all workers, every surviving worker's slot filled.
    std::vector<TaskResult>* results = nullptr;
    std::vector<AgentBlob> state_out;  ///< borrowed agents, trained here
    std::vector<AgentBlob> state_in;   ///< all workers' borrowed agents
    std::vector<int64_t> died;         ///< agents of crashed workers
  };

  /// Multi-process execution: this process is shard `shard` of `shards`,
  /// hosting the agents whose owner[] entry names it. Every worker runs
  /// the same deterministic fleet (same seeds -> identical replicas) but
  /// trains only the tasks whose primary agent it owns; `exchange` merges
  /// TaskResults and borrowed agent state across workers, and the flat
  /// aggregation executes rank-partitioned over `transport` (endpoints ==
  /// agents) — same schedule, same arithmetic, so the consensus mean is
  /// bit-identical to the single-process collective.
  struct DistContext {
    int64_t shard = 0;
    int64_t shards = 1;
    std::vector<int64_t> owner;  ///< agent -> shard
    comm::Transport* transport = nullptr;
    std::function<void(ExchangeIO&)> exchange;
    /// Crash barrier after every collective attempt. In: this worker's
    /// view of the live set (the attempted participants minus endpoints
    /// the transport declared dead) and whether the attempted schedule ran
    /// to completion. Out: the agreed live set, plus a fresh transport
    /// (never null when the set must be retried — rebuilding the data mesh
    /// guarantees no stale frame from the aborted schedule leaks into the
    /// survivor schedule) or nullptr when every worker agrees and the
    /// collective is settled. Both callbacks are required.
    std::function<std::pair<std::vector<int64_t>, comm::Transport*>(
        const std::vector<int64_t>&, bool)>
        collective_sync;
  };

  /// Enable multi-process mode. Requires a flat (non-bucketed,
  /// non-pipelined) fleet, leave-mode-only fault plans, no straggler
  /// deadline, and no message loss; throws otherwise. Call before the
  /// first step() (a rejoining worker calls it before restore()).
  void set_dist_context(DistContext ctx);
  /// Swap the data-mesh transport between rounds (a remesh after worker
  /// churn). The previous transport is the caller's to destroy.
  void set_dist_transport(comm::Transport* transport);

  /// Serialize one agent's mutable round state (liveness, weights,
  /// momentum, batcher position) so ownership can move between processes
  /// — the checkpoint path gathers remote agents through this.
  [[nodiscard]] std::vector<uint8_t> export_agent(int64_t agent);
  /// Inverse of export_agent (geometry must match).
  void import_agent(int64_t agent, const std::vector<uint8_t>& bytes);

  /// One complete ComDML round (pair -> train -> aggregate) over the live
  /// agents. Injected faults (options.faults) kill their agent at the
  /// configured point; the round still completes over the survivors.
  RoundStats step();

  /// Accuracy of the (post-aggregation) shared model on a held-out set.
  [[nodiscard]] float evaluate(const data::Dataset& test);

  [[nodiscard]] nn::Sequential& model(int64_t agent);

  /// Learning rate currently in force (moves under the plateau schedule).
  [[nodiscard]] float current_lr() const noexcept { return current_lr_; }

  [[nodiscard]] int64_t agents() const noexcept {
    return static_cast<int64_t>(shards_.size());
  }
  [[nodiscard]] const SplitProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] int64_t round() const noexcept { return round_; }

  // ---- elastic membership ---------------------------------------------------

  /// Remove `agent` from the fleet between rounds. Idempotent; at least
  /// one agent must stay live for the next step().
  void leave(int64_t agent);
  /// Re-admit `agent` between rounds: its replica is initialized from the
  /// current consensus state (a live agent's post-aggregation model), its
  /// momentum is cleared, and its error-feedback residuals are zeroed.
  void rejoin(int64_t agent);
  [[nodiscard]] bool agent_alive(int64_t agent) const;
  [[nodiscard]] std::vector<int64_t> live_agents() const;

  // ---- durable state --------------------------------------------------------

  /// Serialize the full fleet state between rounds: every agent's model,
  /// momentum, batcher position, liveness, the fleet rng / LR / plateau
  /// controller, and the pipeline's error-feedback residuals. The blob is
  /// framed [magic "CMDL" | version 3 | checksum(body) | body] with
  /// tensor::checksum, so restore() detects truncation and bit rot before
  /// touching fleet state. It is written in one pass into one presized
  /// buffer, straight from the live models. Restoring into a structurally
  /// identical fleet resumes bit-identically to never having stopped.
  [[nodiscard]] std::vector<uint8_t> checkpoint();
  /// Validates and loads a checkpoint. Throws CheckpointError for an
  /// unusable blob (bad magic/version, checksum mismatch, truncation) and
  /// for a checkpoint of *more* agents than this fleet. A checkpoint of
  /// fewer agents restores into the wider fleet: the extra agents come up
  /// as left (rejoinable from consensus), so a crashed fleet can resume
  /// into different live-set geometry.
  void restore(const std::vector<uint8_t>& bytes);

  /// Quorum checkpointing: one worker's shard of the fleet state — the
  /// fleet-level fields (round, rng, LR, plateau) plus only the listed
  /// agents' exported state. Every worker writes its own shard locally, so
  /// a checkpoint survives any coordinator or worker crash that leaves a
  /// quorum of shards readable. Framed like checkpoint() (magic "CMDS",
  /// version 2).
  [[nodiscard]] std::vector<uint8_t> checkpoint_shard(
      int64_t shard, int64_t shards,
      const std::vector<int64_t>& owned_agents);
  /// Assemble a fleet from per-worker shards, in any order and from any
  /// subset of the original workers: agents covered by a present shard
  /// come up live with their exact state, the rest come up as left
  /// (rejoinable from consensus). Throws CheckpointError for unusable or
  /// mutually inconsistent shards. Flat fleets only.
  void restore_shards(const std::vector<std::vector<uint8_t>>& shards);

  /// Rounds completed since the last auto-checkpoint write (0 right after
  /// one; tests and dashboards). Auto-checkpointing itself is configured
  /// via options.faults.checkpoint_every / checkpoint_retain /
  /// checkpoint_dir and runs inside step().
  [[nodiscard]] int64_t rounds_since_checkpoint() const noexcept {
    return rounds_since_checkpoint_;
  }

 private:
  struct AgentState {
    std::unique_ptr<nn::Sequential> model;
    std::unique_ptr<data::Batcher> batcher;
    bool alive = true;
    /// Momentum carried across rounds (full-model training); cleared on
    /// rejoin. Split-trained slow replicas keep per-round transient unit
    /// optimizers (their auxiliary heads are themselves transient).
    std::vector<tensor::Tensor> velocity;
    /// The split trainer's momentum buffers, kept between rounds only so
    /// the next split trainer reuses them (zero-filled) instead of
    /// allocating; never checkpointed.
    std::vector<tensor::Tensor> split_velocity;
  };

  FleetOptions options_;
  std::vector<data::Dataset> shards_;
  sim::Topology topology_;
  tensor::Rng rng_;
  int64_t classes_;
  tensor::Shape in_shape_;
  SplitProfile profile_;
  std::vector<AgentState> agents_;
  /// Per-round aggregation merge buffers, reused across rounds so the
  /// collective stops heap-allocating after the first round.
  std::vector<std::vector<tensor::Tensor>> state_scratch_;
  /// Bucketed aggregation (comms.bucket_bytes > 0): the shared state
  /// partition, the concurrent collective engine, and the modeled
  /// backward-tail fraction per bucket (for the overlapped clock).
  std::optional<nn::BucketPlan> bucket_plan_;
  std::unique_ptr<RoundPipeline> pipeline_;
  std::vector<double> bucket_back_frac_;
  int64_t round_ = 0;
  int64_t rounds_since_checkpoint_ = 0;
  float current_lr_ = 0.0f;
  std::optional<nn::PlateauScheduler> plateau_;
  /// Multi-process execution context; nullopt = ordinary single-process.
  std::optional<DistContext> dist_;

  [[nodiscard]] std::vector<AgentInfo> build_infos() const;
  /// Draws from the agent's own batcher; `rng` drives any privacy
  /// transform so concurrent tasks never share a generator.
  [[nodiscard]] data::Batch next_batch(int64_t agent, tensor::Rng& rng);
  /// Mid-round death: mark the agent dead and drop its pending bucket
  /// contributions. Safe from the agent's own training task.
  void kill_agent(int64_t agent);
  [[nodiscard]] int64_t first_live() const;
  /// Write `<checkpoint_dir>/fleet_r<round>.cmdl` and prune beyond the
  /// retention count.
  void auto_checkpoint();
  /// One agent's durable record, shared by checkpoint() and export_agent():
  /// liveness, model state (straight from the live tensors), momentum and
  /// the batcher position `bs` (saved by the caller).
  void write_agent(tensor::ByteWriter& w, int64_t agent,
                   const data::Batcher::State& bs);
  /// Inverse of write_agent(), shared by restore() and import_agent().
  void read_agent(tensor::ByteReader& r, int64_t agent);
};

}  // namespace comdml::core
