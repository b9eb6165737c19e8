// fleetd control-plane protocol: the versioned binary wire format between
// the coordinator, its worker processes, and fleet clients.
//
// Everything rides the framed socket layer in comm/socket_io.hpp (magic +
// version + type + length); this header pins the message types and the
// body formats. Bodies are tensor::ByteWriter streams — the same
// native-endian, same-machine wire the checkpoint format uses — so every
// structured payload (fleet spec, transport stats, task results, round
// reports) has exactly one serializer each way.
//
// Round protocol (coordinator-driven, one kClientRound at a time):
//   client  -> coord   kClientRound
//   coord   -> workers kRound            (all workers, round index)
//   workers -> coord   kTaskResults      (owned task slots + borrowed state)
//   coord   -> workers kMergedResults    (every slot filled, borrowed state
//                                         from all workers, agents of
//                                         workers that crashed mid-training)
//   workers -> coord   kCollectiveSync   (post-collective live view; loops
//                                         with kCollectiveAgree until every
//                                         survivor ran the agreed schedule)
//   coord   -> workers kCollectiveAgree  (agreed live set [+ MeshLayout])
//   workers -> coord   kRoundDone        (RoundReport + transport snapshot)
//   coord   -> client  kRoundReport      (merged stats folded in)
// The kTaskResults/kMergedResults exchange doubles as the round barrier:
// no worker reaches the aggregation collective until every worker has
// finished training, so data-mesh resets can never race inbound frames.
// The kCollectiveSync/kCollectiveAgree exchange is the crash barrier: a
// worker SIGKILLed mid-round surfaces as its agents dying, the survivors
// re-run the collective over the agreed survivor set (on a fresh data
// mesh, so no stale frame from the aborted schedule can pollute it), and
// the round completes with RoundStats::dropped_agents populated.
//
// Fan-out rule: every coordinator request to several workers sends one
// frame to each live worker, then reads exactly one reply from each worker
// it reached, so no reply is ever left unread for a later exchange. A
// worker is marked dead only when it is unreachable, disconnects, or sends
// a frame outside the protocol; the agents of workers lost in a fan-out
// are announced (kAgentsDied) only after its last reply is read. Between
// rounds a worker's kError is its own failure: it is raised to the client
// once the other replies are drained, and the worker stays. Round phases
// have no error reply, so there a kError means the worker left the round.
//
// Every data-mesh layout (kStart, kRejoinState, kRemesh, kCollectiveAgree)
// is one MeshLayout record: the live workers and every worker's mesh
// address. The mesh generation that keeps those addresses unique is the
// coordinator's own counter, folded into the addresses by
// mesh_addresses(); it is not on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/socket_io.hpp"
#include "comm/transport.hpp"
#include "core/fleet_runtime.hpp"
#include "tensor/serialize.hpp"

namespace comdml::daemon {

/// Frame types of the fleetd control plane. Worker-facing types start at
/// 1, client-facing types at 64; the numeric values are wire format — add
/// at the end, never renumber.
enum class Msg : uint16_t {
  // coordinator <-> worker
  kJoin = 1,         ///< worker -> coord: i64 worker index
  kStart,            ///< coord -> worker: spec, workers, owner map, mesh
  kReady,            ///< worker -> coord: data mesh connected
  kRound,            ///< coord -> worker: i64 round index
  kTaskResults,      ///< worker -> coord: owned (task, TaskResult) slots
  kMergedResults,    ///< coord -> worker: the full TaskResult vector
  kRoundDone,        ///< worker -> coord: RoundReport + TransportStats
  kStatsReq,         ///< coord -> worker: (empty)
  kStatsResp,        ///< worker -> coord: TransportStats snapshot
  kAgentStateReq,    ///< coord -> worker: i64 agent
  kAgentState,       ///< worker -> coord: i64 agent + state blob
  kLoadAgentState,   ///< coord -> worker: i64 agent + state blob
  kAck,              ///< (empty)
  kCheckpointReq,    ///< coord -> worker 0: (empty)
  kCheckpointBlob,   ///< worker 0 -> coord: raw checkpoint bytes
  kWeightsReq,       ///< coord -> worker 0: (empty)
  kWeights,          ///< worker 0 -> coord: raw pack_tensors bytes
  kLeave,            ///< coord -> worker: i64 agent
  kShutdown,         ///< coord -> worker: (empty)
  kError,            ///< raw error text
  kPing,             ///< coord -> worker: (empty); reply kPong
  kPong,             ///< worker -> coord: (empty)
  kAgentsDied,       ///< coord -> worker: i64s agents; reply kAck
  kCollectiveSync,   ///< worker -> coord: u8 attempt-ok + i64s live view
  kCollectiveAgree,  ///< coord -> worker: u8 done + i64s agreed live set
                     ///< [+ mesh when not done]
  kRejoin,           ///< respawned worker -> coord: i64 worker index
  kRejoinState,      ///< coord -> rejoiner: kStart's body + full checkpoint
  kRemesh,           ///< coord -> worker: mesh; reply kReady once the new
                     ///< mesh formed
  kRejoinAgents,     ///< coord -> worker: i64s agents to rejoin; reply kAck
  kShardCheckpoint,  ///< coord -> worker: str dir; reply kShardDone
  kShardDone,        ///< worker -> coord: str shard path
  // client <-> coordinator
  kClientHello = 64, ///< client -> coord: (empty); reply: i64 agents, workers
  kClientRound,      ///< client -> coord: (empty)
  kRoundReport,      ///< coord -> client: RoundReport
  kClientStats,      ///< client -> coord: (empty)
  kClientStatsResp,  ///< coord -> client: merged TransportStats
  kClientWeights,    ///< client -> coord: (empty); reply kWeights
  kClientCheckpoint, ///< client -> coord: (empty); reply kCheckpointBlob
  kClientLeave,      ///< client -> coord: i64 agent; reply kAck
  kClientShutdown,   ///< client -> coord: (empty); reply kAck
  kClientShardCheckpoint, ///< client -> coord: str dir; reply kShardPaths
  kShardPaths,       ///< coord -> client: u32 count + str shard paths
};

/// Everything a worker needs to rebuild the coordinator's fleet
/// deterministically. All workers construct the identical fleet from this
/// (same seeds -> identical replicas); the owner map then decides which
/// agents each worker actually trains.
struct FleetSpec {
  int64_t agents = 4;
  uint64_t seed = 42;
  int64_t batch_size = 16;
  int64_t batches_per_round = 6;
  float lr = 0.08f;
  float momentum = 0.9f;
  std::string protocol = "hd";  ///< "hd" | "ring"
  double mbps = 100.0;
  double latency_sec = comm::kDefaultLatencySec;
  /// Per-agent compute speed multipliers (<1 is slower). Empty means
  /// uniform 1.0, which keeps every round solo-only; a heterogeneous
  /// profile gives the pairing pass a real speed gap, so multi-process
  /// rounds exercise the offload path too.
  std::vector<double> compute_scales;
};

void write_spec(tensor::ByteWriter& w, const FleetSpec& spec);
[[nodiscard]] FleetSpec read_spec(tensor::ByteReader& r);

void write_stats(tensor::ByteWriter& w, const comm::TransportStats& s);
[[nodiscard]] comm::TransportStats read_stats(tensor::ByteReader& r);

void write_report(tensor::ByteWriter& w, const core::RoundReport& rep);
[[nodiscard]] core::RoundReport read_report(tensor::ByteReader& r);

void write_task_result(tensor::ByteWriter& w,
                       const core::RealFleet::TaskResult& t);
[[nodiscard]] core::RealFleet::TaskResult read_task_result(
    tensor::ByteReader& r);

/// The data mesh a worker connects its SocketTransport over.
struct MeshLayout {
  std::vector<int64_t> live;       ///< live worker indices, ascending
  std::vector<std::string> addrs;  ///< one mesh address per worker slot
};

void write_mesh(tensor::ByteWriter& w, const MeshLayout& mesh);
[[nodiscard]] MeshLayout read_mesh(tensor::ByteReader& r);

/// agent -> worker, round-robin (agent % workers): every worker owns at
/// least one agent whenever workers <= agents.
[[nodiscard]] std::vector<int64_t> owner_map(int64_t agents,
                                             int64_t workers);

/// Per-worker data-mesh addresses derived from the control address: unix
/// control sockets get sibling "<path>.peer<i>" paths, tcp gets
/// consecutive ports above the control port. `generation` > 0 (crash
/// recovery / rejoin remesh) suffixes unix paths with ".g<gen>" and moves
/// tcp ports up by `workers * generation`, so a rebuilt mesh can never
/// collide with sockets left behind by the one it replaces.
[[nodiscard]] std::vector<std::string> mesh_addresses(
    const std::string& control_addr, int64_t workers, int64_t generation);

/// Aggregation protocol a spec names ("hd" | "ring"); any other name
/// throws std::invalid_argument.
[[nodiscard]] comm::Protocol spec_algo(const std::string& name);

/// The deterministic fleet a spec describes: synthetic blobs partitioned
/// iid, resource profiles over a full mesh (uniform when the spec carries
/// no compute scales, keeping those rounds solo-only; per-agent scales
/// make the pairing pass produce offload pairs), and the fleet_cli MLP
/// geometry. Every
/// process — coordinator-side verification, each worker, and a
/// single-process reference run — builds bit-identical fleets from the
/// same spec. `eval_out`, when non-null, receives shard 0 (fleet_cli's
/// evaluation convention).
[[nodiscard]] core::FleetRuntime build_spec_fleet(
    const FleetSpec& spec, data::Dataset* eval_out = nullptr);

// ---- framed message helpers -------------------------------------------------

/// Send one control frame; false when the peer is gone.
[[nodiscard]] bool send_msg(int fd, Msg type,
                            const std::vector<uint8_t>& body);
inline bool send_msg(int fd, Msg type, const tensor::ByteWriter& w) {
  return send_msg(fd, type, w.bytes());
}
inline bool send_msg(int fd, Msg type) {
  return send_msg(fd, type, std::vector<uint8_t>{});
}

/// Blocking receive of the next control frame. Throws std::runtime_error
/// on EOF (`who` names the dead peer in the message) and surfaces a
/// kError frame as an exception carrying the peer's error text.
[[nodiscard]] comm::WireFrame recv_msg(int fd, const std::string& who);

/// recv_msg + type check: anything but `want` throws.
[[nodiscard]] comm::WireFrame expect_msg(int fd, Msg want,
                                         const std::string& who);

}  // namespace comdml::daemon
