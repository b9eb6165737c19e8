#include "comm/collective.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "comm/allreduce.hpp"
#include "comm/reliable.hpp"
#include "core/workspace.hpp"

namespace comdml::comm {

namespace {

using Segment = Span;

/// Split [0, n) into `parts` nearly equal chunks.
std::vector<Segment> chunk(int64_t n, int64_t parts) {
  std::vector<Segment> segs(static_cast<size_t>(parts));
  const int64_t base = n / parts, extra = n % parts;
  int64_t cur = 0;
  for (int64_t i = 0; i < parts; ++i) {
    const int64_t len = base + (i < extra ? 1 : 0);
    segs[static_cast<size_t>(i)] = {cur, cur + len};
    cur += len;
  }
  return segs;
}

int64_t floor_log2(int64_t v) {
  int64_t l = 0;
  while ((int64_t{1} << (l + 1)) <= v) ++l;
  return l;
}

/// Buffer of agent `a`, or nullptr on a timing-only run.
double* buffer_of(const CollectiveRequest& req, int64_t a) {
  if (req.buffers.empty()) return nullptr;
  return req.buffers[static_cast<size_t>(a)];
}

void validate_buffers(const CollectiveRequest& req, int64_t agents) {
  if (req.buffers.empty()) return;
  COMDML_REQUIRE(static_cast<int64_t>(req.buffers.size()) == agents,
                 "collective got " << req.buffers.size() << " buffers for "
                                   << agents << " agents");
}

CollectiveReport report_of(const Transport& t) {
  CollectiveReport rep;
  rep.transport = t.stats();
  return rep;
}

/// Fold a delivered payload into `dst + seg.begin` (add or overwrite).
void merge_segment(const Message& msg, double* dst, const Segment& seg,
                   bool accumulate) {
  if (dst == nullptr || !msg.has_payload()) return;
  COMDML_DCHECK(msg.elems == seg.size());
  const double* src = msg.data();
  if (accumulate) {
    for (int64_t i = 0; i < seg.size(); ++i) dst[seg.begin + i] += src[i];
  } else {
    for (int64_t i = 0; i < seg.size(); ++i) dst[seg.begin + i] = src[i];
  }
}

/// Stepped executors borrow every send (Transport::SendOptions::borrow):
/// a message, or a ReliableChannel's retransmit park, may point into its
/// sender's buffer until the step's receives are merged. That is only
/// sound when no endpoint receives into a span it sends from in the same
/// step, and when every send is received (acked) within its own step, so
/// every schedule is checked before it runs. Ring and halving/doubling
/// (pre/post phases and survivor remaps included) satisfy both by
/// construction.
void check_borrow_safe(const SteppedSchedule& sched) {
  std::vector<ScheduleStep::Send> by_src;
  const auto src_less = [](const ScheduleStep::Send& a,
                           const ScheduleStep::Send& b) {
    return a.src < b.src;
  };
  std::vector<std::pair<int64_t, int64_t>> sent_edges;
  std::vector<std::pair<int64_t, int64_t>> recv_edges;
  for (size_t i = 0; i < sched.steps.size(); ++i) {
    const ScheduleStep& step = sched.steps[i];
    sent_edges.clear();
    recv_edges.clear();
    for (const ScheduleStep::Send& s : step.sends)
      sent_edges.emplace_back(s.src, s.dst);
    for (const ScheduleStep::Recv& r : step.recvs)
      recv_edges.emplace_back(r.src, r.dst);
    std::sort(sent_edges.begin(), sent_edges.end());
    std::sort(recv_edges.begin(), recv_edges.end());
    COMDML_REQUIRE(sent_edges == recv_edges,
                   "schedule step " << i
                                    << ": sends and receives do not pair up "
                                       "edge for edge");
    by_src.assign(step.sends.begin(), step.sends.end());
    std::sort(by_src.begin(), by_src.end(), src_less);
    for (const ScheduleStep::Recv& r : step.recvs) {
      ScheduleStep::Send key;
      key.src = r.dst;
      const auto [lo, hi] =
          std::equal_range(by_src.begin(), by_src.end(), key, src_less);
      for (auto s = lo; s != hi; ++s)
        COMDML_REQUIRE(
            std::max(s->span.begin, r.span.begin) >=
                std::min(s->span.end, r.span.end),
            "schedule step " << i << ": endpoint " << r.dst
                             << " receives [" << r.span.begin << ", "
                             << r.span.end << ") from " << r.src
                             << " while sending [" << s->span.begin << ", "
                             << s->span.end << ") to " << s->dst
                             << " in the same step");
    }
  }
}

// ---- stepped allreduce schedules --------------------------------------------
//
// Ring and halving/doubling are *deterministic* message patterns: every
// send/recv is known from (k, elems) alone. Each protocol therefore builds
// a SteppedSchedule once, and both the blocking Collective::run and the
// non-blocking AsyncCollective execute that same object step by step —
// predicted (SimTransport) and executed (InProcTransport) traffic remain
// one code path no matter which driver runs the schedule.

/// Ring: reduce-scatter then all-gather. At step s agent a ships chunk
/// (a - s) (reduce) or (a + 1 - s) (gather) one hop clockwise. The two
/// phases differ only in the chunk rotation and whether the receiver
/// accumulates or overwrites.
SteppedSchedule ring_schedule(int64_t k, int64_t elems) {
  SteppedSchedule sched;
  if (k == 1) return sched;
  sched.scale_to_mean = true;
  const auto segs = chunk(elems, k);
  for (const bool gather : {false, true}) {
    const int64_t rot = gather ? 1 : 0;
    for (int64_t s = 0; s < k - 1; ++s) {
      ScheduleStep step;
      for (int64_t a = 0; a < k; ++a) {
        const Segment& seg = segs[static_cast<size_t>((a + rot + k - s) % k)];
        step.sends.push_back({a, (a + 1) % k, seg});
      }
      for (int64_t a = 0; a < k; ++a) {
        const int64_t prev = (a + k - 1) % k;
        const Segment& seg =
            segs[static_cast<size_t>((prev + rot + k - s) % k)];
        step.recvs.push_back({a, prev, seg, /*accumulate=*/!gather});
      }
      sched.steps.push_back(std::move(step));
    }
  }
  return sched;
}

/// Recursive halving/doubling with the non-power-of-two pre/post phases:
/// extras fold into a partner first, the 2^l core reduce-scatters by
/// recursive halving and all-gathers by recursive doubling, then partners
/// push the final vector back to the extras. Note the element-wise sum is
/// a balanced binary tree over agent-index blocks regardless of where the
/// segment boundaries fall — which is why a bucketed halving/doubling
/// allreduce is bit-identical to one flat collective (nn/bucket.hpp relies
/// on this).
SteppedSchedule halving_doubling_schedule(int64_t k, int64_t elems) {
  SteppedSchedule sched;
  if (k == 1) return sched;
  sched.scale_to_mean = true;
  const int64_t n = elems;
  const int64_t l = floor_log2(k);
  const int64_t p2 = int64_t{1} << l;
  const int64_t rem = k - p2;

  if (rem > 0) {
    ScheduleStep pre;
    for (int64_t e = p2; e < k; ++e)
      pre.sends.push_back({e, e - p2, Segment{0, n}});
    for (int64_t e = p2; e < k; ++e)
      pre.recvs.push_back({e - p2, e, Segment{0, n}, /*accumulate=*/true});
    sched.steps.push_back(std::move(pre));
  }

  // One pairwise exchange step; each side ships the half the *other* side
  // keeps (and therefore receives into).
  struct Exchange {
    int64_t a = 0, peer = 0;
    Segment a_keeps, peer_keeps;
  };
  std::vector<Exchange> plan;
  const auto exchange_step = [&](bool accumulate) {
    ScheduleStep step;
    for (const Exchange& x : plan) {
      step.sends.push_back({x.a, x.peer, x.peer_keeps});
      step.sends.push_back({x.peer, x.a, x.a_keeps});
    }
    for (const Exchange& x : plan) {
      step.recvs.push_back({x.a, x.peer, x.a_keeps, accumulate});
      step.recvs.push_back({x.peer, x.a, x.peer_keeps, accumulate});
    }
    sched.steps.push_back(std::move(step));
  };

  // Reduce-scatter among the p2 core agents by recursive halving.
  std::vector<Segment> live(static_cast<size_t>(p2), Segment{0, n});
  for (int64_t step = 0; step < l; ++step) {
    const int64_t mask = int64_t{1} << step;
    plan.clear();
    for (int64_t a = 0; a < p2; ++a) {
      const int64_t peer = a ^ mask;
      if (peer < a) continue;
      const Segment range = live[static_cast<size_t>(a)];
      const int64_t mid = range.begin + range.size() / 2;
      plan.push_back(
          {a, peer, Segment{range.begin, mid}, Segment{mid, range.end}});
      live[static_cast<size_t>(a)] = {range.begin, mid};
      live[static_cast<size_t>(peer)] = {mid, range.end};
    }
    exchange_step(/*accumulate=*/true);
  }
  // All-gather by recursive doubling (reverse order): peers swap their
  // live segments wholesale and keep the union.
  for (int64_t step = l - 1; step >= 0; --step) {
    const int64_t mask = int64_t{1} << step;
    plan.clear();
    for (int64_t a = 0; a < p2; ++a) {
      const int64_t peer = a ^ mask;
      if (peer < a) continue;
      const Segment sa = live[static_cast<size_t>(a)];
      const Segment sp = live[static_cast<size_t>(peer)];
      // a receives (keeps) peer's segment and vice versa.
      plan.push_back({a, peer, sp, sa});
      const Segment merged{std::min(sa.begin, sp.begin),
                           std::max(sa.end, sp.end)};
      live[static_cast<size_t>(a)] = merged;
      live[static_cast<size_t>(peer)] = merged;
    }
    exchange_step(/*accumulate=*/false);
  }
  if (rem > 0) {
    ScheduleStep post;
    for (int64_t e = p2; e < k; ++e)
      post.sends.push_back({e - p2, e, Segment{0, n}});
    for (int64_t e = p2; e < k; ++e)
      post.recvs.push_back({e, e - p2, Segment{0, n}, /*accumulate=*/false});
    sched.steps.push_back(std::move(post));
  }
  return sched;
}

constexpr Transport::SendOptions kBorrow{.borrow = true};

/// Whether this process hosts endpoint `e`; a null mask owns every
/// endpoint (the single-process drivers).
bool owns(const std::vector<char>* owned, int64_t e) {
  return owned == nullptr || (*owned)[static_cast<size_t>(e)] != 0;
}

/// Execute one schedule step: post every send, close the transport step,
/// fold every delivered payload, then hand its buffer back to the
/// transport. Sends borrow the sender's buffer (see check_borrow_safe).
/// With a channel, sends park a view of the sender's span for retransmits
/// (sound for the same reason, and every send is acked within its step)
/// and receives retry through backoff — the schedule completes over
/// lossy/corrupting links exactly as it would over clean ones. With an
/// `owned` mask only owned senders post and only owned receivers fold, but
/// the transport step still closes even when this process posted nothing:
/// the positional step history must line up across processes for the
/// merged stats to reproduce the single-transport clock.
void execute_schedule_step(Transport& t, const CollectiveRequest& req,
                           const ScheduleStep& step, ReliableChannel* ch,
                           const std::vector<char>* owned = nullptr) {
  for (const ScheduleStep::Send& s : step.sends) {
    if (!owns(owned, s.src)) continue;
    const double* data = buffer_of(req, s.src);
    const double* payload = data != nullptr ? data + s.span.begin : nullptr;
    if (ch != nullptr)
      ch->send(s.src, s.dst, s.span.size(), payload, kBorrow);
    else
      t.send(s.src, s.dst, s.span.size(), payload, kBorrow);
  }
  t.end_step();
  for (const ScheduleStep::Recv& r : step.recvs) {
    if (!owns(owned, r.dst)) continue;
    Message msg =
        ch != nullptr ? ch->recv(r.dst, r.src) : t.recv(r.dst, r.src);
    merge_segment(msg, buffer_of(req, r.dst), r.span, r.accumulate);
    t.recycle(std::move(msg));
  }
}

/// Sum -> mean after the last step, over the schedule's participants (all
/// endpoints when unset). Survivor schedules divide by the live-set size.
/// With an `owned` mask only owned buffers are scaled.
void finalize_mean(const CollectiveRequest& req, const SteppedSchedule& sched,
                   int64_t endpoints,
                   const std::vector<char>* owned = nullptr) {
  if (req.buffers.empty()) return;
  const int64_t k = sched.participants.empty()
                        ? endpoints
                        : static_cast<int64_t>(sched.participants.size());
  const double inv_k = 1.0 / static_cast<double>(k);
  const auto scale = [&](int64_t a) {
    double* mine = buffer_of(req, a);
    if (!owns(owned, a) || mine == nullptr) return;
    for (int64_t i = 0; i < req.elems; ++i) mine[i] *= inv_k;
  };
  if (sched.participants.empty()) {
    for (int64_t a = 0; a < endpoints; ++a) scale(a);
  } else {
    for (const int64_t a : sched.participants) scale(a);
  }
}

/// Blocking allreduce over a prebuilt schedule (ring and halving/doubling
/// share everything but the schedule builder). Drives an AsyncCollective
/// so the blocking path inherits survivor recovery (armed when the
/// transport has endpoint faults) and reliable delivery (when it has
/// message faults) — one behavior for both drivers.
CollectiveReport run_stepped(SteppedSchedule sched, Protocol protocol,
                             Transport& t, const CollectiveRequest& req) {
  validate_buffers(req, t.endpoints());
  AsyncCollective op(sched, t, req);
  if (t.has_endpoint_faults()) op.enable_recovery(protocol);
  op.wait();
  CollectiveReport rep = report_of(t);
  rep.recoveries = op.recoveries();
  return rep;
}

// ---- ring -------------------------------------------------------------------

class RingAllReduce final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "ring_allreduce";
  }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    return run_stepped(ring_schedule(t.endpoints(), req.elems),
                       Protocol::kRingAllReduce, t, req);
  }
};

// ---- recursive halving/doubling ---------------------------------------------

class HalvingDoublingAllReduce final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "halving_doubling_allreduce";
  }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    return run_stepped(halving_doubling_schedule(t.endpoints(), req.elems),
                       Protocol::kHalvingDoublingAllReduce, t, req);
  }
};

// ---- gossip -----------------------------------------------------------------

class GossipExchange final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override { return "gossip"; }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    const int64_t k = t.endpoints();
    validate_buffers(req, k);
    COMDML_REQUIRE(req.rng != nullptr, "gossip needs a partner-draw Rng");

    // Recovery snapshot: round-start buffers plus the partner-draw RNG
    // state. A survivor rerun restores both, so it is bit-identical to a
    // from-scratch run where the dead endpoints never existed.
    const bool recovery = t.has_endpoint_faults();
    std::vector<std::vector<double>> snapshot;
    std::string rng_state;
    if (recovery) {
      rng_state = req.rng->state();
      if (!req.buffers.empty()) {
        snapshot.resize(static_cast<size_t>(k));
        for (int64_t i = 0; i < k; ++i) {
          const double* buf = buffer_of(req, i);
          if (buf != nullptr)
            snapshot[static_cast<size_t>(i)].assign(buf, buf + req.elems);
        }
      }
    }
    int64_t recoveries = 0;
    for (;;) {
      try {
        CollectiveReport rep = run_once(t, req);
        rep.recoveries = recoveries;
        return rep;
      } catch (const EndpointDownError&) {
        if (!recovery) throw;
      } catch (const DeliveryTimeoutError& e) {
        // An unresponsive peer under message faults: declare it dead and
        // re-form around the survivors, like the stepped protocols do.
        if (!recovery) throw;
        t.fail_endpoint(e.src());
      }
      ++recoveries;
      COMDML_REQUIRE(!t.live_endpoints().empty(),
                     "gossip cannot recover: every endpoint is dead");
      req.rng->set_state(rng_state);
      for (size_t i = 0; i < snapshot.size(); ++i) {
        const auto& snap = snapshot[i];
        if (!snap.empty())
          std::copy(snap.begin(), snap.end(),
                    buffer_of(req, static_cast<int64_t>(i)));
      }
      t.clear_pending();
    }
  }

 private:
  static CollectiveReport run_once(Transport& t,
                                   const CollectiveRequest& req) {
    const int64_t k = t.endpoints();
    const std::vector<int64_t> live = t.live_endpoints();
    std::vector<char> is_live(static_cast<size_t>(k), 0);
    for (const int64_t e : live) is_live[static_cast<size_t>(e)] = 1;
    std::unique_ptr<ReliableChannel> ch;
    if (t.has_message_faults()) ch = std::make_unique<ReliableChannel>(t);

    CollectiveReport rep;
    rep.partners.assign(static_cast<size_t>(k), std::nullopt);
    for (const int64_t i : live) {
      std::vector<int64_t> nbrs;
      for (const int64_t n : t.neighbors(i))
        if (is_live[static_cast<size_t>(n)]) nbrs.push_back(n);
      if (nbrs.empty()) continue;  // isolated agents sit the round out
      rep.partners[static_cast<size_t>(i)] =
          nbrs[static_cast<size_t>(req.rng->below(
              static_cast<int64_t>(nbrs.size())))];
    }
    // All pushes use round-start states: sends snapshot payloads before
    // any receiver merges.
    for (const int64_t i : live) {
      if (!rep.partners[static_cast<size_t>(i)]) continue;
      const int64_t dst = *rep.partners[static_cast<size_t>(i)];
      if (ch != nullptr)
        ch->send(i, dst, req.elems, buffer_of(req, i));
      else
        t.send(i, dst, req.elems, buffer_of(req, i));
    }
    t.end_step();
    const bool real = !req.buffers.empty();
    if (ch != nullptr) {
      // Reliable merge: the push fan-in is known from the partner draws,
      // so each receiver runs matched reliable receives in ascending
      // sender order — the same fp summation order as the lossless
      // arrival-order path. Runs on timing-only transports too, so Sim
      // and InProc charge identical retransmission traffic.
      core::Scratch<double> acc(req.elems);
      for (const int64_t i : live) {
        if (real) std::fill(acc.data(), acc.data() + req.elems, 0.0);
        int64_t pushes = 0;
        for (const int64_t j : live) {
          if (!rep.partners[static_cast<size_t>(j)] ||
              *rep.partners[static_cast<size_t>(j)] != i)
            continue;
          const Message msg = ch->recv(i, j);
          if (!real || !msg.has_payload()) continue;
          const double* in = msg.data();
          for (int64_t x = 0; x < req.elems; ++x) acc[x] += in[x];
          ++pushes;
        }
        if (!real || pushes == 0) continue;
        double* mine = buffer_of(req, i);
        const double inv = 1.0 / static_cast<double>(pushes + 1);
        for (int64_t x = 0; x < req.elems; ++x)
          mine[x] = (mine[x] + acc[x]) * inv;
      }
    } else if (real) {
      // Best-effort merge: receiver i averages its own state with every
      // delivered, intact push (a lost or corrupted push is simply a
      // quieter round — gossip's tolerance, not an error).
      core::Scratch<double> acc(req.elems);
      for (const int64_t i : live) {
        std::fill(acc.data(), acc.data() + req.elems, 0.0);
        int64_t pushes = 0;
        while (auto msg = t.try_recv(i)) {
          if (!msg->has_payload() || !msg->intact()) continue;
          const double* in = msg->data();
          for (int64_t x = 0; x < req.elems; ++x) acc[x] += in[x];
          ++pushes;
        }
        if (pushes == 0) continue;
        double* mine = buffer_of(req, i);
        const double inv = 1.0 / static_cast<double>(pushes + 1);
        for (int64_t x = 0; x < req.elems; ++x)
          mine[x] = (mine[x] + acc[x]) * inv;
      }
    }
    rep.transport = t.stats();
    return rep;
  }
};

// ---- parameter server -------------------------------------------------------

class ParamServerRound final : public Collective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "param_server";
  }

  CollectiveReport run(Transport& t,
                       const CollectiveRequest& req) const override {
    const int64_t server = t.endpoints() - 1;
    COMDML_REQUIRE(server >= 1,
                   "param-server transport needs a server endpoint "
                   "(LinkGrid::star)");
    validate_buffers(req, server);
    std::vector<int64_t> selected = req.participants;
    if (selected.empty()) {
      selected.resize(static_cast<size_t>(server));
      for (int64_t i = 0; i < server; ++i)
        selected[static_cast<size_t>(i)] = i;
    }
    for (const int64_t id : selected) {
      COMDML_CHECK(id >= 0 && id < server);
      COMDML_REQUIRE(t.linked(id, server),
                     "selected agent " << id << " has no uplink");
    }
    std::vector<double> weights = req.weights;
    if (weights.empty()) weights.assign(selected.size(), 1.0);
    COMDML_CHECK(weights.size() == selected.size());
    for (const double w : weights) COMDML_CHECK(w >= 0.0);

    // Recovery snapshot of the selected agents' round-start states. A dead
    // *agent* is survivable: the round re-forms over the remaining clients
    // and the weight normalization re-derives from the survivor weights, so
    // the rerun is exactly a from-scratch round over the survivors. A dead
    // *server* is fatal by design — the star has no one left to aggregate.
    const bool recovery = t.has_endpoint_faults();
    std::vector<std::vector<double>> snapshot;
    if (recovery && !req.buffers.empty()) {
      snapshot.resize(static_cast<size_t>(server));
      for (const int64_t id : selected) {
        const double* buf = buffer_of(req, id);
        snapshot[static_cast<size_t>(id)].assign(buf, buf + req.elems);
      }
    }
    int64_t recoveries = 0;
    for (;;) {
      try {
        CollectiveReport rep = run_round(t, req, selected, weights, server);
        rep.recoveries = recoveries;
        return rep;
      } catch (const EndpointDownError& e) {
        if (!recovery || e.endpoint() == server) throw;
      } catch (const DeliveryTimeoutError& e) {
        if (!recovery || e.src() == server) throw;
        t.fail_endpoint(e.src());
      }
      ++recoveries;
      const std::vector<int64_t> live = t.live_endpoints();
      std::vector<int64_t> next_selected;
      std::vector<double> next_weights;
      for (size_t s = 0; s < selected.size(); ++s) {
        if (std::find(live.begin(), live.end(), selected[s]) == live.end())
          continue;
        next_selected.push_back(selected[s]);
        next_weights.push_back(weights[s]);
      }
      COMDML_REQUIRE(!next_selected.empty(),
                     "param-server round cannot recover: every selected "
                     "agent is dead");
      selected = std::move(next_selected);
      weights = std::move(next_weights);
      if (!snapshot.empty()) {
        for (const int64_t id : selected) {
          const auto& snap = snapshot[static_cast<size_t>(id)];
          std::copy(snap.begin(), snap.end(), buffer_of(req, id));
        }
      }
      t.clear_pending();
    }
  }

 private:
  static CollectiveReport run_round(Transport& t, const CollectiveRequest& req,
                                    const std::vector<int64_t>& selected,
                                    const std::vector<double>& weights,
                                    int64_t server) {
    double wsum = 0.0;
    for (const double w : weights) wsum += w;
    COMDML_REQUIRE(wsum > 0.0, "all aggregation weights are zero");
    std::unique_ptr<ReliableChannel> ch;
    if (t.has_message_faults()) ch = std::make_unique<ReliableChannel>(t);
    const auto send = [&](int64_t src, int64_t dst, const double* data) {
      if (ch != nullptr)
        ch->send(src, dst, req.elems, data);
      else
        t.send(src, dst, req.elems, data);
    };
    const auto recv = [&](int64_t dst, int64_t src) {
      return ch != nullptr ? ch->recv(dst, src) : t.recv(dst, src);
    };

    // Upload: every selected agent ships its state over its own uplink.
    for (const int64_t id : selected)
      send(id, server, buffer_of(req, id));
    t.end_step();
    core::Scratch<double> mean(req.elems);
    const bool real = !req.buffers.empty();
    if (real) std::fill(mean.data(), mean.data() + req.elems, 0.0);
    for (size_t s = 0; s < selected.size(); ++s) {
      const Message msg = recv(server, selected[s]);
      if (!real || !msg.has_payload()) continue;
      const double w = weights[s] / wsum;
      const double* in = msg.data();
      for (int64_t j = 0; j < req.elems; ++j) mean[j] += w * in[j];
    }
    // Download: the refreshed model returns the same way.
    for (const int64_t id : selected)
      send(server, id, real ? mean.data() : nullptr);
    t.end_step();
    for (const int64_t id : selected) {
      const Message msg = recv(id, server);
      if (!msg.has_payload()) continue;
      const double* in = msg.data();
      double* mine = buffer_of(req, id);
      for (int64_t j = 0; j < req.elems; ++j) mine[j] = in[j];
    }
    return report_of(t);
  }
};

// ---- registry ---------------------------------------------------------------

const RingAllReduce kRing;
const HalvingDoublingAllReduce kHalvingDoubling;
const GossipExchange kGossip;
const ParamServerRound kParamServer;

constexpr size_t kProtocols = 4;
const Collective* const kRegistry[kProtocols] = {&kRing, &kHalvingDoubling,
                                                 &kGossip, &kParamServer};

}  // namespace

SteppedSchedule allreduce_schedule(Protocol protocol, int64_t agents,
                                   int64_t elems) {
  COMDML_CHECK(agents > 0 && elems >= 0);
  SteppedSchedule sched;
  switch (protocol) {
    case Protocol::kRingAllReduce:
      sched = ring_schedule(agents, elems);
      break;
    case Protocol::kHalvingDoublingAllReduce:
      sched = halving_doubling_schedule(agents, elems);
      break;
    case Protocol::kGossip:
    case Protocol::kParamServer:
      COMDML_REQUIRE(false, "protocol '" << collective(protocol).name()
                                         << "' has no stepped schedule");
  }
  check_borrow_safe(sched);
  return sched;
}

SteppedSchedule allreduce_schedule_over(
    Protocol protocol, const std::vector<int64_t>& participants,
    int64_t elems) {
  COMDML_REQUIRE(!participants.empty(),
                 "survivor schedule needs at least one participant");
  for (size_t i = 0; i < participants.size(); ++i) {
    COMDML_CHECK(participants[i] >= 0);
    COMDML_CHECK(i == 0 || participants[i - 1] < participants[i]);
  }
  const auto m = static_cast<int64_t>(participants.size());
  SteppedSchedule sched = allreduce_schedule(protocol, m, elems);
  // The m-rank schedule speaks in virtual ranks 0..m-1; remap every message
  // endpoint onto the surviving ids. Merge order and spans are untouched, so
  // the result is bit-identical to a from-scratch m-agent run, and the
  // remap is injective, so the borrow check allreduce_schedule ran still
  // holds.
  for (ScheduleStep& step : sched.steps) {
    for (ScheduleStep::Send& s : step.sends) {
      s.src = participants[static_cast<size_t>(s.src)];
      s.dst = participants[static_cast<size_t>(s.dst)];
    }
    for (ScheduleStep::Recv& r : step.recvs) {
      r.dst = participants[static_cast<size_t>(r.dst)];
      r.src = participants[static_cast<size_t>(r.src)];
    }
  }
  sched.participants = participants;
  return sched;
}

void execute_schedule_owned(const SteppedSchedule& sched, Transport& t,
                            const CollectiveRequest& req,
                            const std::vector<char>& owned) {
  validate_buffers(req, t.endpoints());
  COMDML_REQUIRE(static_cast<int64_t>(owned.size()) == t.endpoints(),
                 "owned mask covers " << owned.size() << " endpoints, "
                                      << "transport has " << t.endpoints());
  check_borrow_safe(sched);
  for (const ScheduleStep& step : sched.steps)
    execute_schedule_step(t, req, step, /*ch=*/nullptr, &owned);
  if (sched.scale_to_mean)
    finalize_mean(req, sched, t.endpoints(), &owned);
}

AsyncCollective::AsyncCollective(Protocol protocol, Transport& transport,
                                 CollectiveRequest request)
    : transport_(&transport),
      request_(std::move(request)),
      schedule_(&owned_) {
  owned_ = allreduce_schedule(protocol, transport.endpoints(), request_.elems);
  validate_buffers(request_, transport.endpoints());
  if (schedule_->steps.empty()) finalized_ = true;  // k == 1: nothing to do
  if (transport.has_message_faults())
    channel_ = std::make_unique<ReliableChannel>(transport);
}

AsyncCollective::AsyncCollective(const SteppedSchedule& schedule,
                                 Transport& transport,
                                 CollectiveRequest request)
    : transport_(&transport),
      request_(std::move(request)),
      schedule_(&schedule) {
  validate_buffers(request_, transport.endpoints());
  check_borrow_safe(schedule);
  if (schedule_->steps.empty()) finalized_ = true;  // k == 1: nothing to do
  if (transport.has_message_faults())
    channel_ = std::make_unique<ReliableChannel>(transport);
}

AsyncCollective::~AsyncCollective() = default;

void AsyncCollective::enable_recovery(Protocol protocol) {
  COMDML_REQUIRE(next_step_ == 0,
                 "enable_recovery() must precede the first poll()");
  recovery_ = true;
  recovery_protocol_ = protocol;
  snapshot_.assign(static_cast<size_t>(transport_->endpoints()), {});
  if (request_.buffers.empty()) return;
  for (const int64_t a : current_participants()) {
    const double* buf = buffer_of(request_, a);
    snapshot_[static_cast<size_t>(a)].assign(buf, buf + request_.elems);
  }
}

std::vector<int64_t> AsyncCollective::current_participants() const {
  if (!schedule_->participants.empty()) return schedule_->participants;
  std::vector<int64_t> all(static_cast<size_t>(transport_->endpoints()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
  return all;
}

void AsyncCollective::recover() {
  const std::vector<int64_t> live = transport_->live_endpoints();
  std::vector<int64_t> survivors;
  for (const int64_t a : current_participants())
    if (std::find(live.begin(), live.end(), a) != live.end())
      survivors.push_back(a);
  COMDML_REQUIRE(!survivors.empty(),
                 "collective cannot recover: every participant is dead");
  // Partially-reduced buffers are poisoned by the aborted step; restart the
  // survivors from their pristine inputs and drop undelivered mail so the
  // re-formed schedule sees a clean transport.
  if (!request_.buffers.empty()) {
    for (const int64_t a : survivors) {
      const std::vector<double>& snap = snapshot_[static_cast<size_t>(a)];
      std::copy(snap.begin(), snap.end(), buffer_of(request_, a));
    }
  }
  transport_->clear_pending();
  if (channel_ != nullptr) channel_->clear_unacked();
  const bool scale = schedule_->scale_to_mean;
  owned_ = allreduce_schedule_over(recovery_protocol_, survivors,
                                   request_.elems);
  owned_.scale_to_mean = scale;
  schedule_ = &owned_;
  next_step_ = 0;
  finalized_ = false;
  ++recoveries_;
}

bool AsyncCollective::poll() {
  if (next_step_ < schedule_->steps.size()) {
    try {
      execute_schedule_step(*transport_, request_,
                            schedule_->steps[next_step_], channel_.get());
      ++next_step_;
    } catch (const EndpointDownError&) {
      if (!recovery_) throw;
      recover();
      return done();
    } catch (const DeliveryTimeoutError& e) {
      // The retry budget ran dry on an edge: treat the silent sender as
      // dead and re-form the survivor schedule, same as a proven death.
      if (!recovery_) throw;
      transport_->fail_endpoint(e.src());
      recover();
      return done();
    }
  }
  if (done() && !finalized_) {
    if (schedule_->scale_to_mean)
      finalize_mean(request_, *schedule_, transport_->endpoints());
    finalized_ = true;
  }
  return done();
}

void AsyncCollective::wait() {
  while (!poll()) {
  }
}

const Collective& collective(Protocol protocol) {
  const auto idx = static_cast<size_t>(protocol);
  COMDML_CHECK(idx < kProtocols);
  return *kRegistry[idx];
}

const Collective* find_collective(std::string_view name) {
  for (const Collective* c : kRegistry)
    if (c->name() == name) return c;
  return nullptr;
}

std::vector<std::string_view> collective_names() {
  std::vector<std::string_view> names;
  names.reserve(kProtocols);
  for (const Collective* c : kRegistry) names.push_back(c->name());
  return names;
}

CollectiveReport run_on_states(Protocol protocol, Transport& transport,
                               std::vector<std::vector<tensor::Tensor>>& states,
                               CollectiveRequest req) {
  const size_t k = states.size();
  COMDML_CHECK(k > 0);
  for (size_t a = 1; a < k; ++a) {
    COMDML_REQUIRE(states[a].size() == states[0].size(),
                   "agent " << a << " state arity differs");
    for (size_t t = 0; t < states[0].size(); ++t)
      COMDML_REQUIRE(states[a][t].shape() == states[0][t].shape(),
                     "agent " << a << " state tensor " << t
                              << " shape differs");
  }
  // One arena slab holds every agent's flattened double vector; the slab
  // is released on return and its high-water backing is reused next round,
  // so steady-state rounds do not touch the heap here.
  const int64_t n = state_elems(states[0]);
  core::Scratch<double> slab(static_cast<int64_t>(k) * n);
  req.elems = n;
  req.buffers.resize(k);
  for (size_t a = 0; a < k; ++a) {
    req.buffers[a] = slab.data() + static_cast<int64_t>(a) * n;
    flatten_state(states[a], req.buffers[a]);
  }
  CollectiveReport rep = collective(protocol).run(transport, req);
  for (size_t a = 0; a < k; ++a) unflatten_state(req.buffers[a], states[a]);
  return rep;
}

}  // namespace comdml::comm
