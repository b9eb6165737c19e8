// Transport-generic collectives (one implementation per protocol family).
//
// Each protocol the repo models — decentralized AllReduce (§IV-B, ring and
// recursive halving/doubling), gossip exchange (Hegedus et al. [11]), and
// the central parameter-server round (FedAvg/FedProx baselines) — is
// written exactly once against comm::Transport. Run it over a SimTransport
// and you get the analytic cost (seconds / steps / bytes per agent); run
// the identical schedule over an InProcTransport with real buffers and the
// payloads move too. Predicted and executed traffic are the same code
// path, so the old per-protocol cost-vs-trace checks collapse into one
// parity test per protocol (tests/transport_test.cpp).
//
// Protocols are looked up through a small registry (by Protocol enum or by
// name) so fleets, benches, and future backends select collectives as
// interchangeable strategies instead of hard-coding free functions.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "comm/transport.hpp"
#include "tensor/tensor.hpp"

namespace comdml::comm {

class ReliableChannel;

enum class Protocol {
  kRingAllReduce,
  kHalvingDoublingAllReduce,
  kGossip,
  kParamServer,
};

/// One collective invocation over a transport.
struct CollectiveRequest {
  /// Per-agent payload size in fp32 wire elements.
  int64_t elems = 0;
  /// One fp64 buffer of `elems` per agent endpoint; empty for timing-only
  /// runs (the schedule and accounting are identical either way).
  std::vector<double*> buffers;
  /// Aggregation weights parallel to `participants` (param-server;
  /// empty = uniform).
  std::vector<double> weights;
  /// Selected agents (param-server; empty = every agent endpoint).
  std::vector<int64_t> participants;
  /// Randomness for randomized protocols (gossip partner draw). The draw
  /// sequence is identical with and without buffers, so a timing-only run
  /// with an equally-seeded Rng predicts the executed schedule exactly.
  tensor::Rng* rng = nullptr;
};

struct CollectiveReport {
  /// Accounting snapshot of the transport after the run.
  TransportStats transport;
  /// Chosen partner per agent (gossip only; empty otherwise).
  std::vector<std::optional<int64_t>> partners;
  /// Completed mid-collective recovery cycles (endpoint deaths survived).
  int64_t recoveries = 0;
};

class Collective {
 public:
  virtual ~Collective() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual CollectiveReport run(Transport& transport,
                               const CollectiveRequest& request) const = 0;
};

// ---- stepped schedules / non-blocking collectives ---------------------------

/// Contiguous element range of a collective payload.
struct Span {
  int64_t begin = 0;
  int64_t end = 0;
  [[nodiscard]] int64_t size() const noexcept { return end - begin; }
};

/// One synchronous exchange step of a stepped collective: every send in the
/// step is posted, the transport step closes (modeled span = slowest
/// message), then each receive folds its payload into the destination
/// buffer (accumulate) or overwrites it (gather).
struct ScheduleStep {
  struct Send {
    int64_t src = 0;
    int64_t dst = 0;
    Span span;
  };
  struct Recv {
    int64_t dst = 0;
    int64_t src = 0;
    Span span;
    bool accumulate = false;
  };
  std::vector<Send> sends;
  std::vector<Recv> recvs;
};

/// The full message schedule of a deterministic stepped protocol. Both the
/// blocking Collective::run and the non-blocking AsyncCollective execute
/// this same object, so predicted and executed traffic cannot drift no
/// matter which driver runs it. The executors borrow every send
/// (Transport::SendOptions::borrow), so a schedule in which an endpoint
/// receives into a span it also sends from in the same step, or whose
/// sends and receives do not pair up edge for edge within each step, is
/// rejected (std::invalid_argument) before any traffic moves.
struct SteppedSchedule {
  std::vector<ScheduleStep> steps;
  /// Scale every buffer by 1/|participants| after the last step
  /// (sum -> mean).
  bool scale_to_mean = false;
  /// Endpoints the schedule runs over, ascending; empty = every endpoint
  /// of the transport. Survivor schedules built by
  /// allreduce_schedule_over() fill this so the final mean divides by the
  /// live-set size, not the transport width.
  std::vector<int64_t> participants;
};

/// Schedule of an AllReduce protocol (kRingAllReduce or
/// kHalvingDoublingAllReduce) over `agents` endpoints moving `elems`
/// fp32-wire elements per agent. Throws for protocols without a stepped
/// schedule (gossip's fan-in is data-dependent; param_server needs the
/// star's server endpoint).
[[nodiscard]] SteppedSchedule allreduce_schedule(Protocol protocol,
                                                 int64_t agents,
                                                 int64_t elems);

/// Same schedule, re-formed over an explicit subset of endpoints
/// (ascending, unique): the protocol runs over |participants| virtual
/// ranks remapped onto the given endpoint ids, and the final scaling
/// averages over the live set only. The message pattern and merge order
/// are exactly those of a from-scratch |participants|-agent run, so the
/// recovered mean is bit-identical to rerunning the collective over just
/// the survivors.
[[nodiscard]] SteppedSchedule allreduce_schedule_over(
    Protocol protocol, const std::vector<int64_t>& participants,
    int64_t elems);

/// Execute a stepped schedule from one process of a multi-process run.
/// `owned[e] != 0` marks the endpoints this process hosts: only sends
/// whose src is owned are posted and only recvs whose dst is owned are
/// folded (the transport blocks until the remote frame arrives), but every
/// schedule step still closes one transport step so the per-process step
/// histories stay positionally aligned for merge_transport_stats(). The
/// final sum -> mean scaling runs over owned participants only. With every
/// endpoint owned this is exactly the blocking single-process execution:
/// same sends, same merge order, bit-identical buffers.
void execute_schedule_owned(const SteppedSchedule& sched, Transport& t,
                            const CollectiveRequest& req,
                            const std::vector<char>& owned);

/// Non-blocking stepped collective: construction starts the operation (no
/// traffic yet), each poll() executes exactly one schedule step over the
/// transport, wait() drives it to completion. This is what lets a bucket
/// collective run concurrently with compute: a driver thread polls
/// in-flight buckets while training produces the next one. One
/// AsyncCollective must only be polled from one thread at a time; distinct
/// AsyncCollectives over distinct transports are independent.
class AsyncCollective {
 public:
  /// `transport` and the request's buffers must outlive the operation.
  /// Throws std::invalid_argument for kGossip and kParamServer, which have
  /// no stepped schedule (data-dependent fan-in / star geometry); run those
  /// through collective(protocol).run().
  AsyncCollective(Protocol protocol, Transport& transport,
                  CollectiveRequest request);
  /// Borrow a prebuilt schedule (must outlive the operation and match the
  /// transport's endpoints / the request's elems) — repeated collectives
  /// over the same geometry (the round pipeline's per-bucket allreduces)
  /// build their schedules once instead of once per round.
  AsyncCollective(const SteppedSchedule& schedule, Transport& transport,
                  CollectiveRequest request);
  ~AsyncCollective();

  // Non-copyable/movable: schedule_ may point at this object's own
  // owned_ schedule, which a copy or move would leave dangling.
  AsyncCollective(const AsyncCollective&) = delete;
  AsyncCollective& operator=(const AsyncCollective&) = delete;

  [[nodiscard]] bool done() const noexcept {
    return next_step_ >= schedule_->steps.size();
  }
  /// Executes the next schedule step (and the final mean scaling after the
  /// last one); returns done(). With recovery armed, an EndpointDownError
  /// from the transport re-forms the schedule around the survivors instead
  /// of propagating (see enable_recovery()), and a DeliveryTimeoutError
  /// (an unresponsive peer under message faults) declares that peer dead
  /// and recovers the same way. When the transport injects message faults,
  /// every step's traffic automatically routes through a ReliableChannel.
  bool poll();
  /// Polls until done.
  void wait();

  /// Arm mid-collective endpoint-failure recovery. Must be called before
  /// the first poll(): it snapshots every participant's input buffer, and
  /// on EndpointDown the operation (1) drops the dead endpoints from the
  /// participant set, (2) restores the survivors' buffers from the
  /// snapshot, (3) clears undelivered transport mail, and (4) restarts on
  /// a schedule re-formed over the survivors via
  /// allreduce_schedule_over(protocol, ...) — whose final scaling averages
  /// over the live set. The result is bit-identical to a from-scratch
  /// survivor-only run; the pre-failure traffic stays in the transport
  /// stats (those bytes really crossed the wire). Repeated failures
  /// recover repeatedly; only the last survivor standing completes with
  /// its own contribution as the "mean". Throws only if every participant
  /// is dead.
  void enable_recovery(Protocol protocol);

  /// Completed recovery cycles (0 = the collective never saw a failure).
  [[nodiscard]] int64_t recoveries() const noexcept { return recoveries_; }

  [[nodiscard]] int64_t steps_executed() const noexcept {
    return static_cast<int64_t>(next_step_);
  }
  [[nodiscard]] int64_t total_steps() const noexcept {
    return static_cast<int64_t>(schedule_->steps.size());
  }

 private:
  /// Current participant set (schedule's, or every transport endpoint).
  [[nodiscard]] std::vector<int64_t> current_participants() const;
  void recover();

  Transport* transport_;
  CollectiveRequest request_;
  SteppedSchedule owned_;  ///< empty when the schedule is borrowed
  const SteppedSchedule* schedule_;
  /// Reliable delivery for stepped traffic; created when the transport
  /// injects message faults.
  std::unique_ptr<ReliableChannel> channel_;
  size_t next_step_ = 0;
  bool finalized_ = false;
  bool recovery_ = false;
  Protocol recovery_protocol_ = Protocol::kRingAllReduce;
  int64_t recoveries_ = 0;
  /// Pristine per-participant input copies, indexed by endpoint id;
  /// empty rows for non-participants and timing-only runs.
  std::vector<std::vector<double>> snapshot_;
};

/// Registry lookup by enum (always succeeds).
[[nodiscard]] const Collective& collective(Protocol protocol);

/// Registry lookup by name ("ring_allreduce", "halving_doubling_allreduce",
/// "gossip", "param_server"); nullptr when unknown.
[[nodiscard]] const Collective* find_collective(std::string_view name);

/// Registered protocol names, registry order.
[[nodiscard]] std::vector<std::string_view> collective_names();

/// Run `protocol` over per-agent tensor states: every agent's state is
/// flattened into one fp64 slab, the registry collective runs over
/// `transport` with `req` (whose elems and buffers are filled here), and
/// the results are written back. All agents must hold structurally
/// identical state lists.
CollectiveReport run_on_states(
    Protocol protocol, Transport& transport,
    std::vector<std::vector<tensor::Tensor>>& states,
    CollectiveRequest req = {});

}  // namespace comdml::comm
