#include "comm/transport.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "comm/quantize.hpp"
#include "tensor/hash.hpp"
#include "tensor/tensor.hpp"

namespace comdml::comm {

namespace {

using tensor::mix64;

// Distinct streams per fault kind, mixed into the decision hash.
constexpr uint64_t kSaltDrop = 0xd6e8feb86659fd93ull;
constexpr uint64_t kSaltDelay = 0xa0761d6478bd642full;
constexpr uint64_t kSaltDelayDraw = 0xe7037ed1a0b428dbull;
constexpr uint64_t kSaltDuplicate = 0x8ebc6af09c88c6e3ull;
constexpr uint64_t kSaltCorrupt = 0x589965cc75374cc3ull;
constexpr uint64_t kSaltReorder = 0x1d8e4e27c47d124full;

uint64_t message_hash(uint64_t seed, int64_t step, int64_t src, int64_t dst,
                      int64_t seq, uint64_t salt) {
  uint64_t h = mix64(seed ^ salt);
  h = mix64(h ^ static_cast<uint64_t>(step));
  h = mix64(h ^ (static_cast<uint64_t>(src) << 32) ^
            static_cast<uint64_t>(dst));
  return mix64(h ^ static_cast<uint64_t>(seq));
}

/// Top 53 bits as a uniform double in [0, 1).
double hash_uniform(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Message checksum over the delivered fp64 payload bits.
uint64_t payload_checksum(const Payload& payload) {
  return tensor::checksum(payload.data(), payload.size() * sizeof(double));
}

}  // namespace

// ---- LinkGrid ---------------------------------------------------------------

LinkGrid::LinkGrid(int64_t n, LinkModel fill)
    : n_(n), links_(static_cast<size_t>(n * n), fill) {
  COMDML_CHECK(n > 0);
  for (int64_t i = 0; i < n_; ++i)
    link(i, i) = LinkModel{0.0, fill.latency_sec};  // no self-links
}

LinkGrid LinkGrid::uniform(int64_t endpoints, double mbps,
                           double latency_sec) {
  COMDML_REQUIRE(mbps > 0.0, "unusable uniform link: " << mbps << " Mbps");
  COMDML_CHECK(latency_sec >= 0.0);
  return LinkGrid(endpoints, LinkModel{mbps, latency_sec});
}

LinkGrid LinkGrid::from_topology(const sim::Topology& topology,
                                 double latency_sec) {
  COMDML_CHECK(latency_sec >= 0.0);
  LinkGrid grid(topology.agents(), LinkModel{0.0, latency_sec});
  for (int64_t i = 0; i < topology.agents(); ++i)
    for (int64_t j = 0; j < topology.agents(); ++j)
      if (i != j)
        grid.link(i, j) =
            LinkModel{topology.bandwidth_mbps(i, j), latency_sec};
  return grid;
}

LinkGrid LinkGrid::star(const std::vector<double>& agent_mbps,
                        double latency_sec) {
  COMDML_CHECK(!agent_mbps.empty());
  COMDML_CHECK(latency_sec >= 0.0);
  const auto k = static_cast<int64_t>(agent_mbps.size());
  LinkGrid grid(k + 1, LinkModel{0.0, latency_sec});
  for (int64_t i = 0; i < k; ++i) {
    const LinkModel l{agent_mbps[static_cast<size_t>(i)], latency_sec};
    grid.link(i, k) = l;
    grid.link(k, i) = l;
  }
  return grid;
}

const LinkModel& LinkGrid::link(int64_t src, int64_t dst) const {
  COMDML_CHECK(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  return links_[static_cast<size_t>(src * n_ + dst)];
}

LinkModel& LinkGrid::link(int64_t src, int64_t dst) {
  COMDML_CHECK(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  return links_[static_cast<size_t>(src * n_ + dst)];
}

// ---- codecs -----------------------------------------------------------------

int64_t Codec::encode_feedback(double* data, double* residual,
                               int64_t elems) const {
  for (int64_t i = 0; i < elems; ++i) {
    data[i] += residual[i];
    residual[i] = data[i];
  }
  const int64_t wire = encode(data, elems);
  for (int64_t i = 0; i < elems; ++i) residual[i] -= data[i];
  return wire;
}

namespace {

class IdentityCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp32"; }
  [[nodiscard]] bool lossless() const override { return true; }
  [[nodiscard]] int64_t wire_bytes(int64_t elems,
                                   const double* /*data*/) const override {
    return fp32_wire_bytes(elems);
  }
  [[nodiscard]] int64_t encode_into(const double* src, double* dst,
                                    int64_t elems) const override {
    if (src != dst && elems > 0)
      std::memcpy(dst, src, static_cast<size_t>(elems) * sizeof(double));
    return fp32_wire_bytes(elems);
  }
};

}  // namespace

const Codec& identity_codec() {
  static const IdentityCodec codec;
  return codec;
}

int64_t QuantizingCodec::quantized_wire_bytes(int64_t elems) {
  COMDML_CHECK(elems >= 0);
  if (elems == 0) return 0;
  return static_cast<int64_t>(sizeof(float)) + elems;  // scale + 1 B/elem
}

int64_t QuantizingCodec::wire_bytes(int64_t elems,
                                    const double* /*data*/) const {
  // The wire format is dense, so the byte count never depends on the
  // payload — a timing-only estimate and an executed message charge the
  // same bytes by construction.
  return quantized_wire_bytes(elems);
}

int64_t QuantizingCodec::encode_into(const double* src, double* dst,
                                     int64_t elems) const {
  // Symmetric int8 round trip (comm/quantize.hpp): the scale travels as
  // fp32 (the 4-byte header), so dequantization uses the wire-precision
  // scale. Payloads the header cannot carry (all zeros, Inf elements,
  // sub-fp32-normal ranges) ship unquantized; the wire charge is
  // data-independent either way.
  const int8::Kernels& k = int8::kernels();
  const float scale = int8::wire_scale(k.max_abs(src, elems));
  if (scale != 0.0f) {
    k.quantize(src, dst, elems, scale);
  } else if (src != dst && elems > 0) {
    std::memcpy(dst, src, static_cast<size_t>(elems) * sizeof(double));
  }
  return quantized_wire_bytes(elems);
}

int64_t QuantizingCodec::encode_feedback(double* data, double* residual,
                                         int64_t elems) const {
  const int8::Kernels& k = int8::kernels();
  const float scale = int8::wire_scale(k.add_max_abs(data, residual, elems));
  if (scale != 0.0f) {
    k.quantize_feedback(data, residual, elems, scale);
  } else {
    // Shipped unquantized: the error is the sum minus itself (0, or NaN
    // for an Inf element), as in the unfused composition.
    for (int64_t i = 0; i < elems; ++i) residual[i] = data[i] - data[i];
  }
  return quantized_wire_bytes(elems);
}

const Codec& quantized_codec() {
  static const QuantizingCodec codec;
  return codec;
}

// ---- TransportStats ---------------------------------------------------------

int64_t TransportStats::max_bytes_sent() const {
  int64_t best = 0;
  for (const int64_t b : bytes_sent) best = std::max(best, b);
  return best;
}

double TransportStats::mean_bytes_sent() const {
  if (bytes_sent.empty()) return 0.0;
  double total = 0.0;
  for (const int64_t b : bytes_sent) total += static_cast<double>(b);
  return total / static_cast<double>(bytes_sent.size());
}

int64_t TransportStats::dropped_on(int64_t src, int64_t dst) const {
  const auto n = static_cast<int64_t>(bytes_sent.size());
  COMDML_CHECK(src >= 0 && src < n && dst >= 0 && dst < n);
  return dropped_per_edge[static_cast<size_t>(src * n + dst)];
}

TransportStats merge_transport_stats(const std::vector<TransportStats>& parts) {
  COMDML_CHECK(!parts.empty());
  const size_t n = parts.front().bytes_sent.size();
  TransportStats merged;
  merged.bytes_sent.assign(n, 0);
  merged.bytes_received.assign(n, 0);
  merged.send_seconds.assign(n, 0.0);
  merged.recv_seconds.assign(n, 0.0);
  merged.dropped_per_edge.assign(n * n, 0);
  size_t rows = 0;
  for (const auto& p : parts) {
    COMDML_REQUIRE(p.bytes_sent.size() == n,
                   "merge_transport_stats over mismatched endpoint counts: "
                       << p.bytes_sent.size() << " vs " << n);
    merged.messages += p.messages;
    merged.dropped_messages += p.dropped_messages;
    merged.total_wire_bytes += p.total_wire_bytes;
    merged.retransmit_messages += p.retransmit_messages;
    merged.retransmit_wire_bytes += p.retransmit_wire_bytes;
    merged.duplicated_messages += p.duplicated_messages;
    merged.duplicated_wire_bytes += p.duplicated_wire_bytes;
    merged.corrupt_messages += p.corrupt_messages;
    merged.delayed_messages += p.delayed_messages;
    merged.reordered_messages += p.reordered_messages;
    merged.backoff_seconds += p.backoff_seconds;
    for (size_t i = 0; i < n; ++i) {
      merged.bytes_sent[i] += p.bytes_sent[i];
      merged.bytes_received[i] += p.bytes_received[i];
      merged.send_seconds[i] += p.send_seconds[i];
      merged.recv_seconds[i] += p.recv_seconds[i];
    }
    for (size_t i = 0; i < n * n; ++i)
      merged.dropped_per_edge[i] += p.dropped_per_edge[i];
    rows = std::max(rows, p.step_spans.size());
  }
  // Positional step merge: each process drove the same lockstep schedule,
  // so row i of every history is global step i. Within a step, messages
  // run concurrently — the merged span is the max — while the counts add.
  merged.step_spans.assign(rows, 0.0);
  merged.step_message_counts.assign(rows, 0);
  for (const auto& p : parts)
    for (size_t i = 0; i < p.step_spans.size(); ++i) {
      merged.step_spans[i] = std::max(merged.step_spans[i], p.step_spans[i]);
      merged.step_message_counts[i] += p.step_message_counts[i];
    }
  merged.seconds = merged.backoff_seconds;
  for (size_t i = 0; i < rows; ++i) {
    if (merged.step_message_counts[i] == 0) continue;
    ++merged.steps;
    merged.seconds += merged.step_spans[i];
  }
  return merged;
}

// ---- Message ----------------------------------------------------------------

bool Message::intact() const {
  if (corrupted) return false;
  // A checksummed message always owns its payload: borrowed sends are
  // never hashed.
  return !checksummed || checksum == payload_checksum(payload);
}

// ---- Transport --------------------------------------------------------------

Transport::Transport(LinkGrid grid, const Codec* codec, FaultPlan faults)
    : grid_(std::move(grid)),
      codec_(codec != nullptr ? codec : &identity_codec()),
      faults_(std::move(faults)),
      fault_rng_(faults_.seed),
      mailboxes_(static_cast<size_t>(grid_.endpoints())) {
  COMDML_CHECK(faults_.drop_prob >= 0.0 && faults_.drop_prob <= 1.0);
  const auto n = static_cast<size_t>(grid_.endpoints());
  for (const auto& f : faults_.endpoint_failures) {
    COMDML_REQUIRE(f.endpoint >= 0 && f.endpoint < grid_.endpoints(),
                   "endpoint failure targets endpoint " << f.endpoint
                                                        << " of " << n);
    COMDML_CHECK(f.after_steps >= 0);
  }
  for (const auto& mf : faults_.message_faults) {
    COMDML_CHECK(mf.src >= -1 && mf.src < grid_.endpoints());
    COMDML_CHECK(mf.dst >= -1 && mf.dst < grid_.endpoints());
    COMDML_CHECK(mf.first_step >= 0);
    COMDML_CHECK(mf.last_step >= -1);
    COMDML_CHECK(mf.delay_steps_max >= 1);
    for (const double p : {mf.drop_prob, mf.delay_prob, mf.duplicate_prob,
                           mf.corrupt_prob, mf.reorder_prob})
      COMDML_CHECK(p >= 0.0 && p <= 1.0);
  }
  manual_dead_.assign(n, 0);
  next_seq_.assign(n * n, 0);
  stats_.bytes_sent.assign(n, 0);
  stats_.bytes_received.assign(n, 0);
  stats_.send_seconds.assign(n, 0.0);
  stats_.recv_seconds.assign(n, 0.0);
  stats_.dropped_per_edge.assign(n * n, 0);
}

bool Transport::dead_locked(int64_t endpoint) const {
  if (manual_dead_[static_cast<size_t>(endpoint)] != 0) return true;
  for (const auto& f : faults_.endpoint_failures)
    if (f.endpoint == endpoint && stats_.steps >= f.after_steps) return true;
  return false;
}

const FaultPlan::MessageFault* Transport::message_fault_locked(
    int64_t src, int64_t dst) const {
  for (const auto& mf : faults_.message_faults) {
    if (mf.src != -1 && mf.src != src) continue;
    if (mf.dst != -1 && mf.dst != dst) continue;
    if (stats_.steps < mf.first_step) continue;
    if (mf.last_step != -1 && stats_.steps > mf.last_step) continue;
    return &mf;
  }
  return nullptr;
}

bool Transport::fault_fires_locked(double prob, int64_t src, int64_t dst,
                                   int64_t seq, uint64_t salt) const {
  if (prob <= 0.0) return false;
  const uint64_t h =
      message_hash(faults_.seed, stats_.steps, src, dst, seq, salt);
  return hash_uniform(h) < prob;
}

void Transport::fail_endpoint(int64_t endpoint) {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  manual_dead_[static_cast<size_t>(endpoint)] = 1;
}

void Transport::revive_endpoint(int64_t endpoint) {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  manual_dead_[static_cast<size_t>(endpoint)] = 0;
  auto& fs = faults_.endpoint_failures;
  fs.erase(std::remove_if(fs.begin(), fs.end(),
                          [endpoint](const FaultPlan::EndpointFailure& f) {
                            return f.endpoint == endpoint;
                          }),
           fs.end());
}

void Transport::schedule_endpoint_failure(int64_t endpoint,
                                          int64_t after_steps) {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  COMDML_CHECK(after_steps >= 0);
  std::lock_guard<std::mutex> guard(mutex_);
  faults_.endpoint_failures.push_back({endpoint, after_steps});
}

void Transport::clear_endpoint_failures() {
  std::lock_guard<std::mutex> guard(mutex_);
  std::fill(manual_dead_.begin(), manual_dead_.end(), 0);
  faults_.endpoint_failures.clear();
}

bool Transport::endpoint_alive(int64_t endpoint) const {
  COMDML_CHECK(endpoint >= 0 && endpoint < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  return !dead_locked(endpoint);
}

std::vector<int64_t> Transport::live_endpoints() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<int64_t> out;
  for (int64_t e = 0; e < endpoints(); ++e)
    if (!dead_locked(e)) out.push_back(e);
  return out;
}

bool Transport::has_endpoint_faults() const {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!faults_.endpoint_failures.empty()) return true;
  for (const char d : manual_dead_)
    if (d != 0) return true;
  return false;
}

bool Transport::has_message_faults() const {
  // No lock: drop_prob and message_faults never change after construction.
  return faults_.drop_prob > 0.0 || !faults_.message_faults.empty();
}

void Transport::clear_pending() {
  std::lock_guard<std::mutex> guard(mutex_);
  drain_mailboxes_locked();
}

void Transport::drain_mailboxes_locked() {
  for (auto& box : mailboxes_) {
    for (Message& m : box) recycle(std::move(m));
    box.clear();
  }
}

std::vector<int64_t> Transport::neighbors(int64_t i) const {
  COMDML_CHECK(i >= 0 && i < endpoints());
  std::vector<int64_t> out;
  for (int64_t j = 0; j < endpoints(); ++j)
    if (j != i && linked(i, j)) out.push_back(j);
  return out;
}

int64_t Transport::send(int64_t src, int64_t dst, int64_t elems,
                        const double* data) {
  return send(src, dst, elems, data, SendOptions{});
}

int64_t Transport::send(int64_t src, int64_t dst, int64_t elems,
                        const double* data, const SendOptions& opts) {
  COMDML_CHECK(elems >= 0);
  COMDML_CHECK(src != dst);
  const LinkModel& link = grid_.link(src, dst);
  COMDML_REQUIRE(link.usable(),
                 "send over unusable link " << src << " -> " << dst);
  const bool local = local_endpoint(dst);
  const bool fault_plan = has_message_faults();
  // A borrowed send keeps a view of `data` when nothing could need a copy
  // of its own: the receiver is in this process, no fault can flip, drop
  // or retransmit it, and the codec leaves the values as they are.
  const bool moves_payload = delivers_payload() && data != nullptr && elems > 0;
  const bool borrowed = moves_payload && opts.borrow && local && !fault_plan &&
                        codec_->lossless();
  // Copying sends encode straight from the sender's span into the
  // message's buffer (the identity codec's encode is that one copy);
  // borrowed and timing-only sends just measure.
  Payload payload;
  int64_t wire = 0;
  if (moves_payload && !borrowed) {
    // Remote frames leave with their payload, so only local copies take a
    // recycled buffer. The resize does not zero-fill (PayloadAllocator).
    if (local) payload = take_payload(elems);
    payload.resize(static_cast<size_t>(elems));
    wire = codec_->encode_into(data, payload.data(), elems);
  } else {
    wire = codec_->wire_bytes(elems, data);
  }
  const double span = transfer_seconds(wire, link.mbps, link.latency_sec);
  // Only a fault plan or a remote receiver can hand a verifier a tampered
  // payload; elsewhere the checksum is never read. Hashing here, before
  // the lock, keeps concurrent senders from serializing on it.
  const bool checksummed = fault_plan || !local;
  const uint64_t checksum = checksummed ? payload_checksum(payload) : 0;

  // Remote frames are shipped after the lock is released: wire writes must
  // not serialize local accounting, and forward_remote may block.
  std::vector<RemoteFrame> outbound;
  int64_t seq = -1;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    // Dead endpoints fail fast *before* accounting: a dead sender cannot
    // occupy its link, and a send to a dead receiver is detected by the
    // (modeled) connection teardown. Both transport flavors see the same
    // step counter, so they raise at the same schedule point.
    if (dead_locked(src))
      throw EndpointDownError(src, "send from dead endpoint " +
                                       std::to_string(src));
    if (dead_locked(dst))
      throw EndpointDownError(dst, "send to dead endpoint " +
                                       std::to_string(dst));
    const size_t edge = static_cast<size_t>(src * endpoints() + dst);
    seq = opts.seq >= 0 ? opts.seq : next_seq_[edge]++;
    ++stats_.messages;
    ++step_messages_;
    stats_.total_wire_bytes += wire;
    stats_.bytes_sent[static_cast<size_t>(src)] += wire;
    stats_.send_seconds[static_cast<size_t>(src)] += span;
    step_span_ = std::max(step_span_, span);
    if (opts.retransmit) {
      ++stats_.retransmit_messages;
      stats_.retransmit_wire_bytes += wire;
    }

    // Fault decisions. The global drop stream is drawn first (keeps the
    // legacy per-transport RNG sequence stable); everything else is a pure
    // hash of (seed, step, edge, seq), identical across transport flavors.
    const bool rng_dropped =
        faults_.drop_prob > 0.0 &&
        static_cast<double>(fault_rng_.uniform()) < faults_.drop_prob;
    const FaultPlan::MessageFault* mf = message_fault_locked(src, dst);
    const bool dropped =
        rng_dropped ||
        (mf != nullptr &&
         fault_fires_locked(mf->drop_prob, src, dst, seq, kSaltDrop));
    // Does a later NACK need the pre-codec payload?
    const bool parkable = !local && data != nullptr && elems > 0 && fault_plan;
    if (dropped) {
      ++stats_.dropped_messages;
      ++stats_.dropped_per_edge[edge];
      // The sender's link was busy, but nothing arrives.
      if (local) park_payload(std::move(payload));
      if (local || !parkable) return seq;
      // Remote drop: forward a parked-only frame so the backend can serve
      // a retransmission NACK from the original payload.
    } else if (local) {
      stats_.bytes_received[static_cast<size_t>(dst)] += wire;
      stats_.recv_seconds[static_cast<size_t>(dst)] += span;
    }

    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.elems = elems;
    msg.wire_bytes = wire;
    msg.seq = seq;
    msg.retransmit = opts.retransmit;
    msg.checksum = checksum;
    msg.checksummed = checksummed;
    msg.payload = std::move(payload);
    if (borrowed) msg.borrowed = data;

    bool duplicate = false;
    bool reorder = false;
    if (!dropped && mf != nullptr) {
      if (elems > 0 &&
          fault_fires_locked(mf->corrupt_prob, src, dst, seq, kSaltCorrupt)) {
        // Flip one payload bit so the checksum catches it; timing-only
        // messages carry the flag alone, keeping Sim/InProc decisions equal.
        msg.corrupted = true;
        if (msg.has_payload()) {
          uint64_t bits;
          std::memcpy(&bits, msg.payload.data(), sizeof(bits));
          bits ^= 1ull;
          std::memcpy(msg.payload.data(), &bits, sizeof(bits));
        }
        ++stats_.corrupt_messages;
      }
      if (fault_fires_locked(mf->delay_prob, src, dst, seq, kSaltDelay)) {
        // Normal delivery is visible once this step closes (steps + 1); a
        // delay adds 1..delay_steps_max more closed steps on top.
        const uint64_t draw = message_hash(faults_.seed, stats_.steps, src,
                                           dst, seq, kSaltDelayDraw);
        const int64_t extra =
            1 + static_cast<int64_t>(
                    draw % static_cast<uint64_t>(mf->delay_steps_max));
        msg.deliver_after_step = stats_.steps + 1 + extra;
        ++stats_.delayed_messages;
      }
      duplicate = fault_fires_locked(mf->duplicate_prob, src, dst, seq,
                                     kSaltDuplicate);
      reorder =
          fault_fires_locked(mf->reorder_prob, src, dst, seq, kSaltReorder);
    }

    if (!dropped && duplicate) {
      // The copy really crossed the wire: charge its bytes everywhere, but
      // tagged as duplicated so goodput accounting can subtract them.
      // Remote destinations charge bytes_received on arrival instead.
      ++stats_.duplicated_messages;
      stats_.duplicated_wire_bytes += wire;
      stats_.total_wire_bytes += wire;
      stats_.bytes_sent[static_cast<size_t>(src)] += wire;
      if (local) stats_.bytes_received[static_cast<size_t>(dst)] += wire;
    }
    if (local) {
      auto& box = mailboxes_[static_cast<size_t>(dst)];
      Message copy;
      if (duplicate) {
        // Every field but the payload, which fills a recycled buffer too.
        Payload original = std::move(msg.payload);
        copy = msg;
        if (!original.empty()) {
          copy.payload = take_payload(elems);
          copy.payload.assign(original.begin(), original.end());
        }
        msg.payload = std::move(original);
      }
      if (reorder) {
        ++stats_.reordered_messages;
        box.push_front(std::move(msg));
      } else {
        box.push_back(std::move(msg));
      }
      if (duplicate) box.push_back(std::move(copy));
      return seq;
    }
    if (reorder) ++stats_.reordered_messages;

    RemoteFrame frame;
    frame.span = span;
    frame.reorder = reorder;
    frame.dropped = dropped;
    if (parkable) frame.original.assign(data, data + elems);
    if (duplicate) {
      RemoteFrame copy;
      copy.msg = msg;
      copy.span = span;
      copy.dup_copy = true;
      frame.msg = std::move(msg);
      outbound.push_back(std::move(frame));
      outbound.push_back(std::move(copy));
    } else {
      frame.msg = std::move(msg);
      outbound.push_back(std::move(frame));
    }
  }
  for (auto& frame : outbound) forward_remote(std::move(frame));
  return seq;
}

void Transport::forward_remote(RemoteFrame&& frame) {
  COMDML_REQUIRE(false, "in-process transport asked to forward "
                            << frame.msg.src << " -> " << frame.msg.dst
                            << " to a remote process (local_endpoint "
                               "override without forward_remote)");
}

void Transport::inject_remote(RemoteFrame&& frame) {
  const int64_t dst = frame.msg.dst;
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  // The receiving half of the accounting send() skipped for a remote
  // destination. A duplicate copy's bytes crossed the wire but its span
  // does not advance the clock (same split as the in-process path).
  stats_.bytes_received[static_cast<size_t>(dst)] += frame.msg.wire_bytes;
  if (!frame.dup_copy)
    stats_.recv_seconds[static_cast<size_t>(dst)] += frame.span;
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  if (frame.reorder) {
    box.push_front(std::move(frame.msg));
  } else {
    box.push_back(std::move(frame.msg));
  }
}

bool Transport::nack(int64_t /*src*/, int64_t /*dst*/,
                     int64_t /*last_delivered_seq*/) {
  return false;  // no remote senders in-process; the caller retransmits
}

Message Transport::recv(int64_t dst, int64_t src) {
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  if (dead_locked(dst))
    throw EndpointDownError(dst, "recv at dead endpoint " +
                                     std::to_string(dst));
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (it->src != src || !mature_locked(*it)) continue;
    Message msg = std::move(*it);
    box.erase(it);
    return msg;
  }
  // Nothing delivered: a dead peer is a typed, recoverable condition (the
  // message will never arrive); anything else is the usual schedule bug /
  // message-loss failure.
  if (dead_locked(src))
    throw EndpointDownError(src, "recv from dead endpoint " +
                                     std::to_string(src));
  COMDML_REQUIRE(false, "no in-flight message " << src << " -> " << dst
                                                << " (schedule bug, or a "
                                                   "dropped/delayed message "
                                                   "under fault injection)");
  return {};
}

std::optional<Message> Transport::try_recv_from(int64_t dst, int64_t src) {
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  COMDML_CHECK(src >= 0 && src < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  if (dead_locked(dst))
    throw EndpointDownError(dst, "recv at dead endpoint " +
                                     std::to_string(dst));
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (it->src != src || !mature_locked(*it)) continue;
    Message msg = std::move(*it);
    box.erase(it);
    return msg;
  }
  if (dead_locked(src))
    throw EndpointDownError(src, "recv from dead endpoint " +
                                     std::to_string(src));
  return std::nullopt;
}

std::optional<Message> Transport::try_recv(int64_t dst) {
  COMDML_CHECK(dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  auto& box = mailboxes_[static_cast<size_t>(dst)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (!mature_locked(*it)) continue;
    Message msg = std::move(*it);
    box.erase(it);
    return msg;
  }
  return std::nullopt;
}

void Transport::charge_backoff(double seconds) {
  COMDML_CHECK(seconds >= 0.0);
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.seconds += seconds;
  stats_.backoff_seconds += seconds;
}

void Transport::end_step() {
  std::lock_guard<std::mutex> guard(mutex_);
  // The positional history records every closed step — a process whose
  // endpoints only receive during a step still appends a 0/0 row, which is
  // what keeps index i meaning "global step i" across the processes of a
  // multi-process run (merge_transport_stats folds rows positionally).
  stats_.step_spans.push_back(step_span_);
  stats_.step_message_counts.push_back(step_messages_);
  if (step_messages_ == 0) {
    step_span_ = 0.0;
    return;
  }
  ++stats_.steps;
  stats_.seconds += step_span_;
  step_span_ = 0.0;
  step_messages_ = 0;
}

Payload Transport::take_payload(int64_t elems) {
  Payload out;
  size_t capacity = 0;
  {
    std::lock_guard<std::mutex> guard(pool_mutex_);
    pool_capacity_ = std::max(pool_capacity_, static_cast<size_t>(elems));
    capacity = pool_capacity_;
    if (!payload_pool_.empty()) {
      out = std::move(payload_pool_.back());
      payload_pool_.pop_back();
    }
  }
  out.reserve(capacity);
  return out;
}

void Transport::recycle(Message&& msg) {
  if (local_endpoint(msg.src)) park_payload(std::move(msg.payload));
}

void Transport::park_payload(Payload&& payload) {
  if (payload.capacity() == 0) return;
  Payload buffer = std::move(payload);
  std::lock_guard<std::mutex> guard(pool_mutex_);
  if (payload_pool_.size() < 4 * static_cast<size_t>(endpoints()))
    payload_pool_.push_back(std::move(buffer));
}

size_t Transport::pooled_payloads() const {
  std::lock_guard<std::mutex> guard(pool_mutex_);
  return payload_pool_.size();
}

int64_t Transport::next_seq(int64_t src, int64_t dst) const {
  COMDML_CHECK(src >= 0 && src < endpoints() && dst >= 0 && dst < endpoints());
  std::lock_guard<std::mutex> guard(mutex_);
  return next_seq_[static_cast<size_t>(src * endpoints() + dst)];
}

void Transport::reset() {
  std::lock_guard<std::mutex> guard(mutex_);
  const auto n = static_cast<size_t>(grid_.endpoints());
  stats_ = TransportStats{};
  stats_.bytes_sent.assign(n, 0);
  stats_.bytes_received.assign(n, 0);
  stats_.send_seconds.assign(n, 0.0);
  stats_.recv_seconds.assign(n, 0.0);
  stats_.dropped_per_edge.assign(n * n, 0);
  step_span_ = 0.0;
  step_messages_ = 0;
  std::fill(next_seq_.begin(), next_seq_.end(), 0);
  drain_mailboxes_locked();
}

}  // namespace comdml::comm
