// Reliable delivery over an unreliable Transport.
//
// The stepped collective schedules assume lossless, ordered, uncorrupted
// delivery: a matched recv() of a message that never arrives is a hard
// failure. ReliableChannel restores that contract on top of a Transport
// whose FaultPlan drops, delays, duplicates, or corrupts messages:
//
//   - every send is parked in a per-edge unacked window under its
//     transport-assigned sequence number: a copy, or, for senders that
//     make the borrow promise (the stepped collectives), a view of the
//     sender's span;
//   - recv() polls the mailbox, discards duplicates (seq already
//     delivered) and corrupted copies (checksum / corruption flag), and
//     when nothing usable is pending it charges an exponential-backoff
//     wait into the modeled clock, retransmits the oldest unacked message
//     on the edge, and closes a step;
//   - a successfully delivered seq cumulatively acks the sender-side
//     window (stop-and-wait per edge — the schedules carry at most one
//     in-flight message per directed edge per step, so the window is 1);
//   - after `max_retries` retransmissions the receive fails with a typed
//     DeliveryTimeoutError naming the edge, so callers can escalate (an
//     armed AsyncCollective declares the silent peer dead and re-forms
//     the survivor schedule).
//
// Retransmitted bytes are tagged at the transport layer, so
// `TransportStats::goodput_bytes()` (total minus retransmit and duplicate
// traffic) still equals the fault-free schedule bytes, and SimTransport /
// InProcTransport parity holds under any fault plan: every fault decision
// is a pure hash of the shared step counter and per-edge sequence numbers,
// never of wall-clock time or thread interleaving.
//
// Not thread-safe: one channel belongs to one collective driver, like the
// schedules it carries. Distinct channels over one transport are fine.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/transport.hpp"

namespace comdml::comm {

/// A matched receive exhausted its retransmission budget: the peer is
/// unresponsive (every copy lost/corrupted) but not provably dead. Carries
/// the edge so callers can fail the silent endpoint and recover.
class DeliveryTimeoutError : public std::runtime_error {
 public:
  DeliveryTimeoutError(int64_t src, int64_t dst, int64_t attempts,
                       const std::string& what)
      : std::runtime_error(what), src_(src), dst_(dst), attempts_(attempts) {}

  [[nodiscard]] int64_t src() const noexcept { return src_; }
  [[nodiscard]] int64_t dst() const noexcept { return dst_; }
  [[nodiscard]] int64_t attempts() const noexcept { return attempts_; }

 private:
  int64_t src_;
  int64_t dst_;
  int64_t attempts_;
};

/// Retry/backoff envelope for reliable receives. The backoff doubles per
/// attempt (base, 2*base, 4*base, ...) and is charged as *modeled* seconds
/// — it is the protocol's patience, not a real sleep.
///
/// With `adaptive` set, the per-edge budget grows with the drops the
/// transport has already *observed* on that edge: an edge that lost k
/// messages earns floor(log2(k+1)) extra retries, capped at
/// `adaptive_extra_max`. The inputs are the deterministic per-edge drop
/// counters in TransportStats — identical across Sim/InProc/Socket for a
/// given schedule and fault plan — so adaptivity never breaks parity.
struct RetryPolicy {
  int64_t max_retries = 6;
  double backoff_base_sec = 0.010;
  bool adaptive = false;
  int64_t adaptive_extra_max = 8;

  /// Extra retries a directed edge has earned from `observed_drops`
  /// (the transport's dropped_on(src, dst) counter): floor(log2(k+1)),
  /// capped. Deterministic, monotone, zero for a clean edge.
  [[nodiscard]] int64_t extra_retries(int64_t observed_drops) const;
  /// The full budget for an edge: max_retries plus the adaptive bonus
  /// (when enabled).
  [[nodiscard]] int64_t budget(int64_t observed_drops) const {
    return max_retries + (adaptive ? extra_retries(observed_drops) : 0);
  }

  /// Reads COMDML_RETRY_MAX, COMDML_BACKOFF_BASE_MS,
  /// COMDML_RETRY_ADAPTIVE (0/1), COMDML_RETRY_ADAPTIVE_MAX when set.
  [[nodiscard]] static RetryPolicy from_env();
};

/// Ack/timeout/retransmit wrapper over a borrowed Transport (which must
/// outlive the channel). Route every send and matched recv of a schedule
/// through one channel; mixing raw transport traffic on the same edges
/// would confuse the sequence-number window.
class ReliableChannel {
 public:
  explicit ReliableChannel(Transport& transport);
  ReliableChannel(Transport& transport, const RetryPolicy& policy);

  /// Send with a retransmittable copy parked until the receiver acks it.
  ///
  /// With `opts.borrow` (Transport::SendOptions::borrow) the channel parks
  /// a view of `data` instead of a copy, and retransmits re-read the
  /// sender's span. The caller then promises more than the transport's
  /// borrow contract: `data[0, elems)` stays unchanged until this send is
  /// acked, i.e. until the matched recv() returns, or until
  /// clear_unacked() (or the channel's destruction) drops the view after
  /// an aborted schedule. The stepped collectives keep it: no endpoint
  /// receives into a span it sends from within a step (check_borrow_safe),
  /// and every send of a step is received, or the step throws, before the
  /// next step starts. Gossip and param-server overwrite their send
  /// buffers while sends are in flight, so they send without the flag and
  /// keep the copy. `opts.seq` and `opts.retransmit` must be unset: the
  /// channel numbers and retransmits on its own.
  void send(int64_t src, int64_t dst, int64_t elems,
            const double* data = nullptr,
            const Transport::SendOptions& opts = {});

  /// Reliable matched receive: delivers the next in-sequence intact
  /// message src -> dst (moved out of the mailbox, not copied; hand it to
  /// Transport::recycle() once merged), retransmitting with exponential
  /// backoff when the wire loses, delays, or corrupts it. Discarded
  /// duplicates and corrupted copies go back to the transport's buffer
  /// pool. Throws DeliveryTimeoutError once the retry budget is exhausted,
  /// and propagates EndpointDownError for provably dead peers (recovery,
  /// not retry, handles those).
  [[nodiscard]] Message recv(int64_t dst, int64_t src);

  /// Drop every unacked copy (mid-collective recovery restarts the
  /// survivor schedule from fresh sends). Delivery dedupe state survives:
  /// stale retransmits of the abandoned schedule must still be discarded.
  void clear_unacked();

  [[nodiscard]] const RetryPolicy& policy() const noexcept { return policy_; }
  /// Retransmissions issued by this channel (mirrors the transport's
  /// retransmit_messages when the channel is the only retransmitter).
  [[nodiscard]] int64_t retransmits() const noexcept { return retransmits_; }

 private:
  struct Unacked {
    int64_t seq = 0;
    int64_t elems = 0;
    std::vector<double> copy;  // pre-codec copy of a non-borrowing send
    const double* borrowed = nullptr;  // sender's span of a borrowing send

    /// The values to retransmit; null for timing-only sends.
    [[nodiscard]] const double* data() const noexcept {
      if (borrowed != nullptr) return borrowed;
      return copy.empty() ? nullptr : copy.data();
    }
  };

  [[nodiscard]] size_t edge(int64_t src, int64_t dst) const {
    return static_cast<size_t>(src * transport_->endpoints() + dst);
  }

  Transport* transport_;
  RetryPolicy policy_;
  /// Per edge: the highest seq delivered, starting at the last seq the
  /// transport sent before this channel existed (-1 on a fresh edge).
  std::vector<int64_t> last_delivered_;
  std::vector<std::deque<Unacked>> sent_;  // per edge, ascending seq
  int64_t retransmits_ = 0;
};

}  // namespace comdml::comm
