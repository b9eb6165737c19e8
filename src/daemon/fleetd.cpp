#include "daemon/fleetd.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/socket_io.hpp"
#include "comm/socket_transport.hpp"
#include "nn/module.hpp"
#include "tensor/check.hpp"

namespace comdml::daemon {

namespace {

std::string blob_to_str(const std::vector<uint8_t>& blob) {
  return std::string(blob.begin(), blob.end());
}

std::vector<uint8_t> str_to_blob(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// One worker's control connection, from the coordinator's side. A dead
/// worker keeps its slot (indices are wire format) with alive == false;
/// a rejoin revives the slot with a fresh fd.
struct WorkerLink {
  int fd = -1;
  bool alive = false;
};

/// Deterministic crash injection for the fault-tolerance tests: the
/// worker _exit(137)s — indistinguishable from SIGKILL to every peer — at
/// a protocol point chosen via environment variables.
///   COMDML_TEST_CRASH_AT_ROUND  round index the hook arms at
///   COMDML_TEST_CRASH_POINT     "train" | "collective" | "gather"
struct CrashHook {
  int64_t round = -1;
  std::string point;
  CrashHook() {
    if (const char* r = std::getenv("COMDML_TEST_CRASH_AT_ROUND"))
      round = std::atoll(r);
    if (const char* p = std::getenv("COMDML_TEST_CRASH_POINT")) point = p;
  }
  [[nodiscard]] bool fires(int64_t r, const char* p) const {
    return round >= 0 && r == round && point == p;
  }
};

[[noreturn]] void crash_now(int64_t index, const char* where) {
  std::fprintf(stderr, "fleetd worker %lld: test crash hook firing at %s\n",
               (long long)index, where);
  std::fflush(stderr);
  ::_exit(137);
}

/// One worker's answer in a fan-in.
struct Reply {
  int64_t worker = 0;
  comm::WireFrame frame;
};

/// The coordinator: owns the worker links and drives the round protocol.
/// Worker death is survivable everywhere after the join phase: a fan-out
/// that loses a worker marks its agents dead, tells the survivors once
/// every reply is in, and completes over what is left.
class Coordinator {
 public:
  explicit Coordinator(const CoordinatorOptions& options)
      : options_(options) {}

  ~Coordinator() {
    for (WorkerLink& w : workers_)
      if (w.fd >= 0) comm::close_fd(w.fd);
    for (const int fd : pending_clients_) comm::close_fd(fd);
    if (listen_fd_ >= 0) comm::close_fd(listen_fd_);
  }

  int run() {
    const comm::SocketAddress addr = comm::parse_address(options_.listen);
    listen_fd_ = comm::listen_on(addr);

    // Phase 1: every worker joins (kJoin names its index), then all get
    // the same kStart — spec, fleet partition, and the data-mesh layout
    // their SocketTransports will form a full mesh over. A client that
    // connects during this phase gets its hello answered and is parked
    // until the fleet is up.
    workers_.resize(static_cast<size_t>(options_.workers));
    for (int64_t joined = 0; joined < options_.workers;) {
      const int fd = comm::accept_on(listen_fd_);
      COMDML_REQUIRE(fd >= 0, "fleetd accept failed while waiting for "
                              "workers to join");
      try {
        const comm::WireFrame frame = recv_msg(fd, "joining peer");
        if (frame.type == static_cast<uint16_t>(Msg::kClientHello)) {
          park_client(fd);
          continue;
        }
        COMDML_REQUIRE(frame.type == static_cast<uint16_t>(Msg::kJoin),
                       "joining peer sent frame type " << frame.type
                                                       << ", not kJoin");
        tensor::ByteReader r(frame.body);
        const int64_t index = r.i64();
        r.expect_done();
        COMDML_REQUIRE(index >= 0 && index < options_.workers,
                       "worker joined with out-of-range index " << index);
        COMDML_REQUIRE(workers_[static_cast<size_t>(index)].fd < 0,
                       "two workers joined with index " << index);
        workers_[static_cast<size_t>(index)].fd = fd;
        workers_[static_cast<size_t>(index)].alive = true;
        ++joined;
      } catch (const std::exception& e) {
        comm::close_fd(fd);
        std::fprintf(stderr, "fleetd: rejected a joining peer: %s\n",
                     e.what());
      }
    }
    owner_ = owner_map(options_.spec.agents, options_.workers);
    agent_live_.assign(static_cast<size_t>(options_.spec.agents), 1);
    agent_left_.assign(static_cast<size_t>(options_.spec.agents), 0);
    const tensor::ByteWriter start = start_body(next_mesh(live_worker_ids()));
    std::vector<int64_t> died;
    (void)recv_all(
        send_all(live_worker_ids(), Msg::kStart, start.bytes(), died),
        Msg::kReady, died, nullptr);
    COMDML_REQUIRE(died.empty(), "a worker was lost before the fleet came up");
    std::printf("fleetd: %lld workers ready, %lld agents, serving on %s\n",
                (long long)options_.workers,
                (long long)options_.spec.agents, options_.listen.c_str());
    std::fflush(stdout);

    // Phase 2: serve clients, one connection at a time (a fleet has one
    // driver). While a client is connected the listen fd stays polled, so
    // a re-spawned worker can rejoin mid-session; other clients queue.
    for (;;) {
      while (!pending_clients_.empty()) {
        const int client = pending_clients_.front();
        pending_clients_.pop_front();
        const bool shutdown = serve_client(client);
        comm::close_fd(client);
        if (shutdown) return 0;
      }
      accept_peer();
    }
  }

 private:
  /// Serve one client until it disconnects; true when it asked the whole
  /// fleet to shut down. The listen fd is polled alongside the client so
  /// rejoining workers (and queueing clients) are admitted between RPCs.
  bool serve_client(int client) {
    for (;;) {
      struct pollfd fds[2];
      fds[0] = {client, POLLIN, 0};
      fds[1] = {listen_fd_, POLLIN, 0};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if ((fds[1].revents & POLLIN) != 0) accept_peer();
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto frame = comm::recv_frame(client);
      if (!frame.has_value()) return false;  // client went away
      try {
        if (handle_client(client, *frame)) return true;
      } catch (const std::exception& e) {
        // Surface the failure to the client instead of dying; a request
        // the degraded fleet cannot serve keeps erroring, which is the
        // honest signal.
        const std::string what = e.what();
        (void)send_msg(client, Msg::kError, str_to_blob(what));
      }
    }
  }

  /// Admit one connection from the listen backlog: a client's hello is
  /// answered and the fd parked until its turn; a kRejoin runs the rejoin
  /// protocol inline (the fleet is idle between client RPCs).
  void accept_peer() {
    const int fd = comm::accept_on(listen_fd_);
    if (fd < 0) return;
    int64_t rejoin_index = -1;
    try {
      const comm::WireFrame frame = recv_msg(fd, "connecting peer");
      if (frame.type == static_cast<uint16_t>(Msg::kClientHello)) {
        park_client(fd);
        return;
      }
      if (frame.type == static_cast<uint16_t>(Msg::kRejoin)) {
        tensor::ByteReader r(frame.body);
        rejoin_index = r.i64();
        r.expect_done();
        handle_rejoin(fd, rejoin_index);
        return;
      }
      (void)send_msg(fd, Msg::kError,
                     str_to_blob("unexpected first frame type " +
                                 std::to_string(frame.type)));
      comm::close_fd(fd);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetd: rejected a connecting peer: %s\n",
                   e.what());
      const bool adopted =
          rejoin_index >= 0 &&
          workers_[static_cast<size_t>(rejoin_index)].alive &&
          workers_[static_cast<size_t>(rejoin_index)].fd == fd;
      if (!adopted) {
        (void)send_msg(fd, Msg::kError, str_to_blob(e.what()));
        comm::close_fd(fd);
      }
    }
  }

  /// Answer a client's hello with the fleet shape.
  void hello(int fd) {
    tensor::ByteWriter w;
    w.i64(options_.spec.agents);
    w.i64(options_.workers);
    reply(fd, Msg::kClientHello, w.bytes());
  }

  void park_client(int fd) {
    hello(fd);
    pending_clients_.push_back(fd);
  }

  bool handle_client(int client, const comm::WireFrame& frame) {
    switch (static_cast<Msg>(frame.type)) {
      case Msg::kClientHello:
        hello(client);
        return false;
      case Msg::kClientRound: {
        const core::RoundReport rep = run_round();
        tensor::ByteWriter w;
        write_report(w, rep);
        reply(client, Msg::kRoundReport, w.bytes());
        return false;
      }
      case Msg::kClientStats: {
        std::vector<comm::TransportStats> parts;
        for (const Reply& rep :
             call(live_worker_ids(), Msg::kStatsReq, {}, Msg::kStatsResp)) {
          tensor::ByteReader r(rep.frame.body);
          parts.push_back(read_stats(r));
          r.expect_done();
        }
        COMDML_REQUIRE(!parts.empty(), "every fleetd worker has crashed");
        tensor::ByteWriter w;
        write_stats(w, comm::merge_transport_stats(parts));
        reply(client, Msg::kClientStatsResp, w.bytes());
        return false;
      }
      case Msg::kClientWeights: {
        // Any live worker holds the consensus model; walk past crashes.
        for (;;) {
          const std::vector<Reply> got = call(
              {first_alive_worker()}, Msg::kWeightsReq, {}, Msg::kWeights);
          if (got.empty()) continue;
          reply(client, Msg::kWeights, got[0].frame.body);
          return false;
        }
      }
      case Msg::kClientCheckpoint: {
        reply(client, Msg::kCheckpointBlob, gather_checkpoint());
        return false;
      }
      case Msg::kClientShardCheckpoint: {
        tensor::ByteReader r(frame.body);
        (void)r.str();  // the directory, forwarded as is
        r.expect_done();
        sweep_and_notify();
        std::vector<std::string> paths;
        for (const Reply& rep : call(live_worker_ids(), Msg::kShardCheckpoint,
                                     frame.body, Msg::kShardDone)) {
          tensor::ByteReader rr(rep.frame.body);
          paths.push_back(rr.str());
          rr.expect_done();
        }
        COMDML_REQUIRE(!paths.empty(), "every fleetd worker has crashed");
        tensor::ByteWriter w;
        w.u32(static_cast<uint32_t>(paths.size()));
        for (const std::string& p : paths) w.str(p);
        reply(client, Msg::kShardPaths, w.bytes());
        return false;
      }
      case Msg::kClientLeave: {
        tensor::ByteReader r(frame.body);
        const int64_t agent = r.i64();
        r.expect_done();
        COMDML_REQUIRE(agent >= 0 && agent < options_.spec.agents,
                       "leave agent " << agent << " out of range");
        (void)call(live_worker_ids(), Msg::kLeave, frame.body, Msg::kAck);
        agent_live_[static_cast<size_t>(agent)] = 0;
        agent_left_[static_cast<size_t>(agent)] = 1;
        reply(client, Msg::kAck, {});
        return false;
      }
      case Msg::kClientShutdown: {
        std::vector<int64_t> died;
        (void)send_all(live_worker_ids(), Msg::kShutdown, {}, died);
        reply(client, Msg::kAck, {});
        return true;
      }
      default:
        reply(client, Msg::kError,
              str_to_blob("unknown client request type " +
                          std::to_string(frame.type)));
        return false;
    }
  }

  core::RoundReport run_round() {
    // Catch workers that died while the fleet sat idle, so the round
    // starts from an agreed live set instead of discovering the corpse
    // mid-protocol.
    sweep_and_notify();
    (void)first_alive_worker();

    // Gather owned task results, merge, broadcast the full vector plus
    // every worker's borrowed agent state. This doubles as the round
    // barrier: every worker sits inside its exchange() until the merged
    // vector lands. A worker that dies here (crash mid-training) loses
    // its task slots — its agents ride the died list so the survivors
    // kill them before forming the aggregation collective. Round phases
    // pass no error sink: a worker answering kError has left the round.
    std::vector<int64_t> died_mid;
    tensor::ByteWriter round;
    round.i64(round_);
    int64_t n_tasks = -1;
    std::vector<core::RealFleet::TaskResult> merged;
    std::vector<std::pair<int64_t, std::string>> blobs;
    for (const Reply& rep :
         recv_all(send_all(live_worker_ids(), Msg::kRound, round.bytes(),
                           died_mid),
                  Msg::kTaskResults, died_mid, nullptr)) {
      try {
        tensor::ByteReader r(rep.frame.body);
        const int64_t n = r.i64();
        if (n_tasks < 0) {
          n_tasks = n;
          merged.resize(static_cast<size_t>(n));
        }
        COMDML_REQUIRE(n == n_tasks,
                       "workers disagree on the round's task count ("
                           << n << " vs " << n_tasks << ")");
        const uint32_t count = r.u32();
        for (uint32_t t = 0; t < count; ++t) {
          const int64_t task = r.i64();
          COMDML_REQUIRE(task >= 0 && task < n_tasks,
                         "task index " << task << " out of range");
          merged[static_cast<size_t>(task)] = read_task_result(r);
        }
        const uint32_t nblobs = r.u32();
        for (uint32_t b = 0; b < nblobs; ++b) {
          const int64_t agent = r.i64();
          blobs.emplace_back(agent, r.str());
        }
        r.expect_done();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetd: worker %lld sent bad task results: %s\n",
                     (long long)rep.worker, e.what());
        append(died_mid, mark_worker_dead(rep.worker));
      }
    }
    COMDML_REQUIRE(n_tasks >= 0,
                   "every worker died before reporting task results");
    // From here on the survivors learn of a death through the collective
    // agreement; the round's losses are announced once its last reply is
    // in, so the next round starts from the same live set everywhere.
    std::vector<int64_t> died;
    std::vector<int64_t> waiting;
    {
      std::sort(died_mid.begin(), died_mid.end());
      tensor::ByteWriter w;
      w.u32(static_cast<uint32_t>(merged.size()));
      for (const core::RealFleet::TaskResult& t : merged)
        write_task_result(w, t);
      w.u32(static_cast<uint32_t>(blobs.size()));
      for (const auto& [agent, blob] : blobs) {
        w.i64(agent);
        w.str(blob);
      }
      w.i64s(died_mid);
      waiting = send_all(live_worker_ids(), Msg::kMergedResults, w.bytes(),
                         died);
    }

    // Crash barrier: after every collective attempt the workers report
    // (ok, live view); the coordinator arbitrates. Agreement = every
    // surviving worker completed the schedule over exactly the agreed
    // set. Anything else gets a fresh data mesh (a new generation, so no
    // stale frame from the aborted schedule can pollute the retry) and
    // another attempt over the shrunk set.
    for (;;) {
      std::vector<std::vector<int64_t>> views;
      bool all_ok = true;
      for (const Reply& rep :
           recv_all(waiting, Msg::kCollectiveSync, died, nullptr)) {
        try {
          tensor::ByteReader r(rep.frame.body);
          const bool ok = r.u8() != 0;
          std::vector<int64_t> view = r.i64s();
          r.expect_done();
          std::sort(view.begin(), view.end());
          all_ok = all_ok && ok;
          views.push_back(std::move(view));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "fleetd: worker %lld sent a bad sync: %s\n",
                       (long long)rep.worker, e.what());
          append(died, mark_worker_dead(rep.worker));
        }
      }
      COMDML_REQUIRE(!views.empty(),
                     "every worker died inside the aggregation collective");
      std::vector<int64_t> agreed;
      {
        std::vector<int64_t> cnt(static_cast<size_t>(options_.spec.agents),
                                 0);
        for (const std::vector<int64_t>& view : views)
          for (const int64_t a : view)
            if (a >= 0 && a < options_.spec.agents)
              ++cnt[static_cast<size_t>(a)];
        for (int64_t a = 0; a < options_.spec.agents; ++a)
          if (agent_live_[static_cast<size_t>(a)] != 0 &&
              cnt[static_cast<size_t>(a)] ==
                  static_cast<int64_t>(views.size()))
            agreed.push_back(a);
      }
      for (const std::vector<int64_t>& view : views)
        all_ok = all_ok && view == agreed;
      tensor::ByteWriter w;
      w.u8(all_ok ? 1 : 0);
      w.i64s(agreed);
      if (!all_ok) write_mesh(w, next_mesh(live_worker_ids()));
      waiting = send_all(live_worker_ids(), Msg::kCollectiveAgree, w.bytes(),
                         died);
      if (all_ok) break;
    }

    // Every surviving worker finishes the round and reports its
    // RoundReport + transport snapshot.
    core::RoundReport report;
    bool have_report = false;
    std::vector<comm::TransportStats> parts;
    for (const Reply& rep : recv_all(waiting, Msg::kRoundDone, died, nullptr)) {
      try {
        tensor::ByteReader r(rep.frame.body);
        const core::RoundReport done = read_report(r);
        parts.push_back(read_stats(r));
        r.expect_done();
        if (!have_report) {
          report = done;
          have_report = true;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetd: worker %lld sent a bad report: %s\n",
                     (long long)rep.worker, e.what());
        append(died, mark_worker_dead(rep.worker));
      }
    }
    COMDML_REQUIRE(have_report,
                   "every worker died before finishing the round");
    notify_agents_died(std::move(died));

    // The losses are identical on every worker (that is the point); the
    // clock is not — each worker's transport only saw its own sends, so
    // the fleet-level collective time comes from the positional merge of
    // the per-worker step histories.
    const comm::TransportStats stats = comm::merge_transport_stats(parts);
    const double compute = report.round_seconds - report.aggregation_seconds;
    report.aggregation_seconds = stats.seconds;
    report.aggregation_bytes = stats.max_bytes_sent();
    report.exposed_comm_seconds = stats.seconds;
    report.round_seconds = compute + stats.seconds;
    report.round = round_;
    ++round_;
    return report;
  }

  /// Pull every live remote-owned agent's state onto the first live
  /// worker, then take an ordinary single-fleet checkpoint there — the
  /// blob restores into any structurally identical fleet, multi-process
  /// or not. An owner crashing mid-gather loses its agents (marked dead
  /// and propagated) but not the checkpoint.
  std::vector<uint8_t> gather_checkpoint() {
    sweep_and_notify();
    const int64_t target = first_alive_worker();
    for (int64_t a = 0; a < options_.spec.agents; ++a) {
      if (agent_live_[static_cast<size_t>(a)] == 0) continue;
      const int64_t owner = owner_[static_cast<size_t>(a)];
      if (owner == target) continue;
      tensor::ByteWriter req;
      req.i64(a);
      const std::vector<Reply> state =
          call({owner}, Msg::kAgentStateReq, req.bytes(), Msg::kAgentState);
      if (state.empty()) continue;  // the owner crashed; its agents died
      COMDML_REQUIRE(!call({target}, Msg::kLoadAgentState,
                           state[0].frame.body, Msg::kAck)
                          .empty(),
                     "worker " << target << " was lost during the checkpoint");
    }
    std::vector<Reply> blob =
        call({target}, Msg::kCheckpointReq, {}, Msg::kCheckpointBlob);
    COMDML_REQUIRE(!blob.empty(),
                   "worker " << target << " was lost during the checkpoint");
    return std::move(blob[0].frame.body);
  }

  /// Re-admit a re-spawned worker into slot `k`: ship it the spec + the
  /// new mesh layout + a full consensus checkpoint, remesh the survivors
  /// alongside it (the mesh rendezvous is the barrier), then revive its
  /// crashed agents from consensus on every worker.
  void handle_rejoin(int fd, int64_t k) {
    COMDML_REQUIRE(k >= 0 && k < options_.workers,
                   "rejoin index " << k << " out of range");
    COMDML_REQUIRE(!workers_[static_cast<size_t>(k)].alive,
                   "worker " << k << " is alive; nothing to rejoin");
    const std::vector<uint8_t> ckpt = gather_checkpoint();
    std::vector<int64_t> live = live_worker_ids();
    live.push_back(k);
    std::sort(live.begin(), live.end());
    const MeshLayout mesh = next_mesh(std::move(live));
    tensor::ByteWriter state = start_body(mesh);
    state.str(blob_to_str(ckpt));
    COMDML_REQUIRE(send_msg(fd, Msg::kRejoinState, state),
                   "rejoining worker " << k << " vanished");
    std::vector<int64_t> died;
    tensor::ByteWriter remesh;
    write_mesh(remesh, mesh);
    // Everyone confirms the new mesh; the rejoiner's kReady also means
    // its restore from the consensus checkpoint finished.
    (void)recv_all(
        send_all(live_worker_ids(), Msg::kRemesh, remesh.bytes(), died),
        Msg::kReady, died, nullptr);
    (void)expect_msg(fd, Msg::kReady, "rejoining worker");
    workers_[static_cast<size_t>(k)].fd = fd;
    workers_[static_cast<size_t>(k)].alive = true;
    notify_agents_died(std::move(died));

    // Revive the agents the crash killed — but not agents a client
    // deliberately removed.
    std::vector<int64_t> back;
    for (int64_t a = 0; a < options_.spec.agents; ++a)
      if (owner_[static_cast<size_t>(a)] == k &&
          agent_live_[static_cast<size_t>(a)] == 0 &&
          agent_left_[static_cast<size_t>(a)] == 0)
        back.push_back(a);
    if (!back.empty()) {
      tensor::ByteWriter w;
      w.i64s(back);
      (void)call(live_worker_ids(), Msg::kRejoinAgents, w.bytes(), Msg::kAck);
      for (const int64_t a : back) agent_live_[static_cast<size_t>(a)] = 1;
    }
    std::fprintf(stderr,
                 "fleetd: worker %lld rejoined (%lld agents revived)\n",
                 (long long)k, (long long)back.size());
  }

  /// kStart's body; kRejoinState appends the consensus checkpoint.
  [[nodiscard]] tensor::ByteWriter start_body(const MeshLayout& mesh) const {
    tensor::ByteWriter w;
    write_spec(w, options_.spec);
    w.i64(options_.workers);
    w.i64s(owner_);
    write_mesh(w, mesh);
    return w;
  }

  /// A data mesh over `live` at a new generation, so a rebuilt mesh never
  /// collides with the sockets of the one it replaces.
  [[nodiscard]] MeshLayout next_mesh(std::vector<int64_t> live) {
    return {std::move(live),
            mesh_addresses(options_.listen, options_.workers, mesh_gen_++)};
  }

  // ---- worker fan-out -------------------------------------------------------

  /// Send to all: one frame to each worker of `to`. Returns the workers it
  /// reached; an unreachable one is marked dead and its agents appended to
  /// `died`.
  std::vector<int64_t> send_all(const std::vector<int64_t>& to, Msg type,
                                const std::vector<uint8_t>& body,
                                std::vector<int64_t>& died) {
    std::vector<int64_t> sent;
    for (const int64_t i : to) {
      if (send_msg(workers_[static_cast<size_t>(i)].fd, type, body))
        sent.push_back(i);
      else
        append(died, mark_worker_dead(i));
    }
    return sent;
  }

  /// Receive from all: exactly one reply from each worker of `sent`, in
  /// order; the `want` replies are returned. A worker that disconnects or
  /// sends any other frame is marked dead and its agents appended to
  /// `died` — except a kError when `error` is non-null: that is the
  /// worker's own failure, its text goes to `*error` (the first one wins)
  /// and the worker stays.
  std::vector<Reply> recv_all(const std::vector<int64_t>& sent, Msg want,
                              std::vector<int64_t>& died,
                              std::string* error) {
    std::vector<Reply> replies;
    for (const int64_t i : sent) {
      std::optional<comm::WireFrame> frame;
      std::string why = "disconnected";
      try {
        frame = comm::recv_frame(workers_[static_cast<size_t>(i)].fd);
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (frame.has_value()) {
        if (frame->type == static_cast<uint16_t>(want)) {
          replies.push_back({i, std::move(*frame)});
          continue;
        }
        const bool is_error = frame->type == static_cast<uint16_t>(Msg::kError);
        if (is_error && error != nullptr) {
          if (error->empty())
            *error = "worker " + std::to_string(i) + ": " +
                     blob_to_str(frame->body);
          continue;
        }
        why = is_error ? "failed: " + blob_to_str(frame->body)
                       : "sent frame type " + std::to_string(frame->type) +
                             ", wanted " +
                             std::to_string(static_cast<uint16_t>(want));
      }
      std::fprintf(stderr, "fleetd: worker %lld %s\n", (long long)i,
                   why.c_str());
      append(died, mark_worker_dead(i));
    }
    return replies;
  }

  /// A between-rounds request: send to `to`, receive from all of them,
  /// announce the agents of any worker lost on the way, and only then
  /// raise the first worker error. Returns the `want` replies.
  std::vector<Reply> call(const std::vector<int64_t>& to, Msg type,
                          const std::vector<uint8_t>& body, Msg want) {
    std::vector<int64_t> died;
    std::string error;
    std::vector<Reply> replies =
        recv_all(send_all(to, type, body, died), want, died, &error);
    notify_agents_died(std::move(died));
    if (!error.empty()) throw std::runtime_error(error);
    return replies;
  }

  // ---- crash bookkeeping ----------------------------------------------------

  [[nodiscard]] std::vector<int64_t> live_worker_ids() const {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].alive) ids.push_back(static_cast<int64_t>(i));
    return ids;
  }

  [[nodiscard]] int64_t first_alive_worker() const {
    for (size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].alive) return static_cast<int64_t>(i);
    COMDML_REQUIRE(false, "every fleetd worker has crashed");
    return -1;
  }

  /// Declare worker `i` dead: close its control fd (which also kills a
  /// live-but-wedged worker — it sees EOF and exits, taking its mesh
  /// sockets with it) and mark its live agents dead. Returns the agents
  /// that just died; the caller decides when to notify the survivors.
  std::vector<int64_t> mark_worker_dead(int64_t i) {
    WorkerLink& w = workers_[static_cast<size_t>(i)];
    if (!w.alive) return {};
    w.alive = false;
    if (w.fd >= 0) {
      comm::close_fd(w.fd);
      w.fd = -1;
    }
    std::vector<int64_t> died;
    for (int64_t a = 0; a < options_.spec.agents; ++a)
      if (owner_[static_cast<size_t>(a)] == i &&
          agent_live_[static_cast<size_t>(a)] != 0) {
        agent_live_[static_cast<size_t>(a)] = 0;
        died.push_back(a);
      }
    std::fprintf(stderr,
                 "fleetd: worker %lld is down; %lld agent(s) died\n",
                 (long long)i, (long long)died.size());
    return died;
  }

  /// Tell every surviving worker (between rounds — they are all in their
  /// serve loops) that `died` agents are gone. A worker that fails the
  /// notification is itself dead, and its agents join the next wave; a
  /// worker that cannot apply a death no longer matches the consensus
  /// live set, so its kError counts as out of protocol.
  void notify_agents_died(std::vector<int64_t> died) {
    while (!died.empty()) {
      std::sort(died.begin(), died.end());
      tensor::ByteWriter w;
      w.i64s(died);
      std::vector<int64_t> next;
      (void)recv_all(
          send_all(live_worker_ids(), Msg::kAgentsDied, w.bytes(), next),
          Msg::kAck, next, nullptr);
      died = std::move(next);
    }
  }

  /// Heartbeat sweep between rounds: ping every worker thought alive,
  /// mark the silent ones dead, and propagate their agents' deaths.
  void sweep_and_notify() {
    (void)call(live_worker_ids(), Msg::kPing, {}, Msg::kPong);
  }

  static void append(std::vector<int64_t>& into,
                     const std::vector<int64_t>& more) {
    into.insert(into.end(), more.begin(), more.end());
  }

  void reply(int client, Msg type, const std::vector<uint8_t>& body) {
    // A vanished client is not an error worth killing the fleet over.
    (void)send_msg(client, type, body);
  }

  CoordinatorOptions options_;
  int listen_fd_ = -1;
  std::vector<WorkerLink> workers_;
  std::vector<int64_t> owner_;
  /// The coordinator's consensus agent liveness: crashes and client
  /// leaves clear bits; rejoins set them back.
  std::vector<char> agent_live_;
  /// Agents removed by an explicit client leave — a rejoining worker does
  /// not resurrect these.
  std::vector<char> agent_left_;
  std::deque<int> pending_clients_;
  /// Data-mesh generation of the next layout; bumped on every remesh
  /// (crash recovery and worker rejoin).
  int64_t mesh_gen_ = 0;
  int64_t round_ = 0;
};

}  // namespace

int run_coordinator(const CoordinatorOptions& options) {
  try {
    Coordinator coordinator(options);
    return coordinator.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd coordinator: %s\n", e.what());
    return 1;
  }
}

int run_worker(const WorkerOptions& options) {
  try {
    const comm::SocketAddress addr = comm::parse_address(options.connect);
    const int fd = comm::dial(addr, 30.0);
    COMDML_REQUIRE(fd >= 0, "cannot reach coordinator at "
                                << options.connect);
    // A joiner gets kStart; a rejoiner gets the same body followed by the
    // consensus checkpoint it restores from.
    {
      tensor::ByteWriter w;
      w.i64(options.index);
      COMDML_REQUIRE(
          send_msg(fd, options.rejoin ? Msg::kRejoin : Msg::kJoin, w),
          "coordinator closed the connection");
    }
    const comm::WireFrame start = expect_msg(
        fd, options.rejoin ? Msg::kRejoinState : Msg::kStart, "coordinator");
    tensor::ByteReader in(start.body);
    const FleetSpec spec = read_spec(in);
    const int64_t workers = in.i64();
    const std::vector<int64_t> owner = in.i64s();
    const MeshLayout layout = read_mesh(in);
    const std::vector<uint8_t> restore_blob =
        options.rejoin ? str_to_blob(in.str()) : std::vector<uint8_t>{};
    in.expect_done();

    // The full deterministic fleet — identical replicas on every worker;
    // the DistContext below is what narrows training to owned agents.
    core::FleetRuntime fleet = build_spec_fleet(spec);
    core::RealFleet* rf = fleet.real_comdml();
    COMDML_REQUIRE(rf != nullptr, "spec fleet is not a real ComDML fleet");

    // The data mesh is rebuilt on every generation change (crash
    // recovery, rejoin); the unique_ptr swap tears the old one down
    // first so its reader threads and sockets are gone before the new
    // rendezvous starts.
    std::unique_ptr<comm::SocketTransport> mesh;
    const auto build_mesh = [&](const MeshLayout& next) {
      comm::SocketPeerConfig cfg;
      cfg.owner = owner;
      cfg.self = options.index;
      cfg.addrs = next.addrs;
      if (static_cast<int64_t>(next.live.size()) < workers) {
        cfg.process_alive.assign(static_cast<size_t>(workers), 0);
        for (const int64_t p : next.live)
          cfg.process_alive[static_cast<size_t>(p)] = 1;
      }
      mesh.reset();
      mesh = std::make_unique<comm::SocketTransport>(
          comm::LinkGrid::uniform(spec.agents, spec.mbps, spec.latency_sec),
          cfg);
      mesh->wait_ready();
    };
    build_mesh(layout);

    const CrashHook crash;

    core::RealFleet::DistContext ctx;
    ctx.shard = options.index;
    ctx.shards = workers;
    ctx.owner = owner;
    ctx.transport = mesh.get();
    ctx.exchange = [&](core::RealFleet::ExchangeIO& io) {
      const std::vector<int64_t>& task_agent = *io.task_agent;
      std::vector<core::RealFleet::TaskResult>& results = *io.results;
      tensor::ByteWriter w;
      w.i64(static_cast<int64_t>(results.size()));
      uint32_t count = 0;
      for (const int64_t agent : task_agent)
        if (agent >= 0 &&
            owner[static_cast<size_t>(agent)] == options.index)
          ++count;
      w.u32(count);
      for (size_t t = 0; t < task_agent.size(); ++t) {
        const int64_t agent = task_agent[t];
        if (agent < 0 || owner[static_cast<size_t>(agent)] != options.index)
          continue;
        w.i64(static_cast<int64_t>(t));
        write_task_result(w, results[t]);
      }
      w.u32(static_cast<uint32_t>(io.state_out.size()));
      for (const auto& [agent, blob] : io.state_out) {
        w.i64(agent);
        w.str(blob_to_str(blob));
      }
      COMDML_REQUIRE(send_msg(fd, Msg::kTaskResults, w.bytes()),
                     "coordinator is gone");
      const comm::WireFrame merged =
          expect_msg(fd, Msg::kMergedResults, "coordinator");
      tensor::ByteReader r(merged.body);
      const uint32_t n = r.u32();
      COMDML_REQUIRE(n == results.size(),
                     "merged results cover " << n << " tasks, expected "
                                             << results.size());
      for (uint32_t t = 0; t < n; ++t) results[t] = read_task_result(r);
      const uint32_t nblobs = r.u32();
      io.state_in.clear();
      for (uint32_t b = 0; b < nblobs; ++b) {
        const int64_t agent = r.i64();
        io.state_in.emplace_back(agent, str_to_blob(r.str()));
      }
      io.died = r.i64s();
      r.expect_done();
      if (crash.fires(rf->round(), "collective"))
        crash_now(options.index, "the aggregation collective");
    };
    ctx.collective_sync =
        [&](const std::vector<int64_t>& view,
            bool ok) -> std::pair<std::vector<int64_t>, comm::Transport*> {
      {
        tensor::ByteWriter w;
        w.u8(ok ? 1 : 0);
        w.i64s(view);
        COMDML_REQUIRE(send_msg(fd, Msg::kCollectiveSync, w.bytes()),
                       "coordinator is gone");
      }
      const comm::WireFrame agree =
          expect_msg(fd, Msg::kCollectiveAgree, "coordinator");
      tensor::ByteReader r(agree.body);
      const bool done = r.u8() != 0;
      std::vector<int64_t> agreed = r.i64s();
      MeshLayout next;
      if (!done) next = read_mesh(r);
      r.expect_done();
      if (done) return {std::move(agreed), nullptr};
      build_mesh(next);
      return {std::move(agreed), mesh.get()};
    };
    rf->set_dist_context(std::move(ctx));
    // A rejoiner restores after the context is installed (the context
    // requires a fresh fleet; the restore then fast-forwards it to the
    // consensus round).
    if (options.rejoin) fleet.restore(restore_blob);
    COMDML_REQUIRE(send_msg(fd, Msg::kReady), "coordinator is gone");

    for (;;) {
      auto frame = comm::recv_frame(fd);
      if (!frame.has_value()) {
        std::fprintf(stderr, "fleetd worker %lld: coordinator vanished\n",
                     (long long)options.index);
        return 1;
      }
      try {
        switch (static_cast<Msg>(frame->type)) {
          case Msg::kRound: {
            if (crash.fires(fleet.rounds_executed(), "train"))
              crash_now(options.index, "training");
            // New round, clean transport slate — stats and mail reset
            // before any training (the exchange barrier guarantees no
            // peer reaches the aggregation while anyone is still here).
            mesh->reset();
            const core::RoundReport rep = fleet.step();
            tensor::ByteWriter w;
            write_report(w, rep);
            write_stats(w, mesh->stats_snapshot());
            COMDML_REQUIRE(send_msg(fd, Msg::kRoundDone, w.bytes()),
                           "coordinator is gone");
            break;
          }
          case Msg::kPing: {
            (void)send_msg(fd, Msg::kPong);
            break;
          }
          case Msg::kAgentsDied: {
            tensor::ByteReader req(frame->body);
            const std::vector<int64_t> died = req.i64s();
            req.expect_done();
            for (const int64_t a : died) fleet.leave(a);
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kRemesh: {
            tensor::ByteReader req(frame->body);
            const MeshLayout next = read_mesh(req);
            req.expect_done();
            build_mesh(next);
            rf->set_dist_transport(mesh.get());
            (void)send_msg(fd, Msg::kReady);
            break;
          }
          case Msg::kRejoinAgents: {
            tensor::ByteReader req(frame->body);
            const std::vector<int64_t> back = req.i64s();
            req.expect_done();
            for (const int64_t a : back) fleet.rejoin(a);
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kStatsReq: {
            tensor::ByteWriter w;
            write_stats(w, mesh->stats_snapshot());
            (void)send_msg(fd, Msg::kStatsResp, w.bytes());
            break;
          }
          case Msg::kAgentStateReq: {
            if (crash.point == "gather" && crash.round >= 0 &&
                fleet.rounds_executed() >= crash.round)
              crash_now(options.index, "the checkpoint gather");
            tensor::ByteReader req(frame->body);
            const int64_t agent = req.i64();
            req.expect_done();
            tensor::ByteWriter w;
            w.i64(agent);
            w.str(blob_to_str(rf->export_agent(agent)));
            (void)send_msg(fd, Msg::kAgentState, w.bytes());
            break;
          }
          case Msg::kLoadAgentState: {
            tensor::ByteReader req(frame->body);
            const int64_t agent = req.i64();
            rf->import_agent(agent, str_to_blob(req.str()));
            req.expect_done();
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kCheckpointReq: {
            (void)send_msg(fd, Msg::kCheckpointBlob, fleet.checkpoint());
            break;
          }
          case Msg::kShardCheckpoint: {
            tensor::ByteReader req(frame->body);
            const std::string dir = req.str();
            req.expect_done();
            std::vector<int64_t> owned_live;
            for (const int64_t a : fleet.live_agents())
              if (owner[static_cast<size_t>(a)] == options.index)
                owned_live.push_back(a);
            const std::vector<uint8_t> blob = fleet.checkpoint_shard(
                options.index, workers, owned_live);
            std::filesystem::create_directories(dir);
            char name[64];
            std::snprintf(name, sizeof(name), "fleet_r%06lld.w%02lld.cmdl",
                          (long long)fleet.rounds_executed(),
                          (long long)options.index);
            const std::string path = dir + "/" + name;
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            COMDML_REQUIRE(out.good(), "cannot open shard file " << path);
            out.write(reinterpret_cast<const char*>(blob.data()),
                      static_cast<std::streamsize>(blob.size()));
            out.flush();
            COMDML_REQUIRE(out.good(),
                           "short write to shard file " << path);
            tensor::ByteWriter w;
            w.str(path);
            (void)send_msg(fd, Msg::kShardDone, w.bytes());
            break;
          }
          case Msg::kWeightsReq: {
            const std::vector<int64_t> live = fleet.live_agents();
            COMDML_REQUIRE(!live.empty(), "no live agents");
            (void)send_msg(
                fd, Msg::kWeights,
                tensor::pack_tensors(nn::state_of(fleet.model(live[0]))));
            break;
          }
          case Msg::kLeave: {
            tensor::ByteReader req(frame->body);
            fleet.leave(req.i64());
            req.expect_done();
            (void)send_msg(fd, Msg::kAck);
            break;
          }
          case Msg::kShutdown:
            return 0;
          default:
            (void)send_msg(fd, Msg::kError,
                           str_to_blob("unknown worker request type " +
                                       std::to_string(frame->type)));
        }
      } catch (const std::exception& e) {
        (void)send_msg(fd, Msg::kError, str_to_blob(e.what()));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd worker %lld: %s\n",
                 (long long)options.index, e.what());
    return 1;
  }
}

FleetClient::FleetClient(const std::string& address, double timeout_sec) {
  const comm::SocketAddress addr = comm::parse_address(address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_sec));
  int refused_in_a_row = 0;
  int err = 0;
  for (;;) {
    fd_ = comm::dial_once(addr, &err);
    if (fd_ >= 0) break;
    // A unix socket file that exists but persistently refuses connections
    // is a corpse: a dead coordinator's leftover. Fail fast instead of
    // burning the whole timeout (ENOENT, by contrast, may just be a
    // coordinator that has not bound yet).
    if (addr.kind == comm::SocketAddress::Kind::kUnix &&
        err == ECONNREFUSED) {
      if (++refused_in_a_row >= 3)
        throw CoordinatorUnreachable(
            "stale fleetd control socket at " + address +
            ": the socket file exists but nothing is listening (dead "
            "coordinator?); remove the file or restart fleetd");
    } else {
      refused_in_a_row = 0;
    }
    if (std::chrono::steady_clock::now() >= deadline)
      throw CoordinatorUnreachable(
          "cannot reach fleetd at " + address + " within " +
          std::to_string(timeout_sec) + "s (" + std::strerror(err) + ")");
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  const comm::WireFrame hello =
      rpc(Msg::kClientHello, {}, Msg::kClientHello);
  tensor::ByteReader r(hello.body);
  agents_ = r.i64();
  workers_ = r.i64();
  r.expect_done();
}

FleetClient::~FleetClient() {
  if (fd_ >= 0) comm::close_fd(fd_);
}

comm::WireFrame FleetClient::rpc(Msg type, const std::vector<uint8_t>& body,
                                 Msg want) {
  COMDML_REQUIRE(send_msg(fd_, type, body), "fleetd is gone");
  return expect_msg(fd_, want, "fleetd");
}

core::RoundReport FleetClient::round() {
  const comm::WireFrame frame = rpc(Msg::kClientRound, {}, Msg::kRoundReport);
  tensor::ByteReader r(frame.body);
  core::RoundReport rep = read_report(r);
  r.expect_done();
  return rep;
}

comm::TransportStats FleetClient::stats() {
  const comm::WireFrame frame =
      rpc(Msg::kClientStats, {}, Msg::kClientStatsResp);
  tensor::ByteReader r(frame.body);
  comm::TransportStats s = read_stats(r);
  r.expect_done();
  return s;
}

std::vector<uint8_t> FleetClient::weights() {
  return rpc(Msg::kClientWeights, {}, Msg::kWeights).body;
}

std::vector<uint8_t> FleetClient::checkpoint() {
  return rpc(Msg::kClientCheckpoint, {}, Msg::kCheckpointBlob).body;
}

std::vector<std::string> FleetClient::shard_checkpoint(
    const std::string& dir) {
  tensor::ByteWriter w;
  w.str(dir);
  const comm::WireFrame frame =
      rpc(Msg::kClientShardCheckpoint, w.bytes(), Msg::kShardPaths);
  tensor::ByteReader r(frame.body);
  const uint32_t n = r.u32();
  std::vector<std::string> paths;
  for (uint32_t i = 0; i < n; ++i) paths.push_back(r.str());
  r.expect_done();
  return paths;
}

void FleetClient::leave(int64_t agent) {
  tensor::ByteWriter w;
  w.i64(agent);
  (void)rpc(Msg::kClientLeave, w.bytes(), Msg::kAck);
}

void FleetClient::shutdown() {
  (void)rpc(Msg::kClientShutdown, {}, Msg::kAck);
}

}  // namespace comdml::daemon
