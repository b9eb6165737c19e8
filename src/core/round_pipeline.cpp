#include "core/round_pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "core/parallel.hpp"

namespace comdml::core {

OverlapTimeline compose_overlap_timeline(
    const std::vector<double>& ready_seconds,
    const std::vector<double>& bucket_seconds) {
  COMDML_CHECK(ready_seconds.size() == bucket_seconds.size());
  const size_t n = ready_seconds.size();
  OverlapTimeline tl;
  tl.start.assign(n, 0.0);
  tl.finish.assign(n, 0.0);
  // Link order = ready order, ties broken by bucket index (stable sort).
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ready_seconds[a] < ready_seconds[b];
  });
  double link_free = 0.0;
  for (const size_t b : order) {
    tl.start[b] = std::max(ready_seconds[b], link_free);
    tl.finish[b] = tl.start[b] + bucket_seconds[b];
    link_free = tl.finish[b];
    tl.span = std::max(tl.span, tl.finish[b]);
  }
  return tl;
}

comm::LinkGrid bottleneck_grid(const sim::Topology& topology,
                               double latency_sec) {
  const auto min_bw = topology.min_link_bandwidth();
  COMDML_REQUIRE(min_bw.has_value() || topology.agents() == 1,
                 "topology has no usable link");
  return comm::LinkGrid::uniform(topology.agents(), min_bw.value_or(100.0),
                                 latency_sec);
}

RoundPipeline::RoundPipeline(int64_t agents, const nn::BucketPlan& plan,
                             const comm::LinkGrid& grid,
                             comm::Protocol protocol,
                             const comm::Codec* codec, bool error_feedback,
                             comm::FaultPlan faults, bool straggler_support)
    : plan_(&plan),
      agents_(agents),
      protocol_(protocol),
      codec_(codec),
      pending_(static_cast<size_t>(plan.buckets())),
      contributed_(static_cast<size_t>(agents * plan.buckets())) {
  COMDML_CHECK(agents > 0);
  COMDML_CHECK(grid.endpoints() == agents);
  live_.assign(static_cast<size_t>(agents_), 1);
  slab_.resize(static_cast<size_t>(agents_ * plan.total_elems()));
  if ((error_feedback && codec_ != nullptr) || straggler_support)
    residual_.assign(slab_.size(), 0.0);
  transports_.reserve(static_cast<size_t>(plan.buckets()));
  schedules_.reserve(static_cast<size_t>(plan.buckets()));
  for (int64_t b = 0; b < plan.buckets(); ++b) {
    transports_.push_back(
        std::make_unique<comm::InProcTransport>(grid, codec_, faults));
    schedules_.push_back(
        comm::allreduce_schedule(protocol_, agents_, plan.bucket(b).elems));
  }
  begin_round();
}

void RoundPipeline::begin_round() {
  for (auto& t : transports_) t->reset();
  const int64_t k = live_count();
  COMDML_REQUIRE(k > 0, "cannot begin a round with no live agents");
  for (auto& p : pending_) p.store(k, std::memory_order_relaxed);
  for (auto& c : contributed_) c.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  ready_.clear();
  reduced_ = 0;
  aborted_ = false;
}

int64_t RoundPipeline::live_count() const {
  int64_t k = 0;
  for (const char l : live_) k += (l != 0);
  return k;
}

std::atomic<char>& RoundPipeline::mark(int64_t agent, int64_t bucket) {
  return contributed_[static_cast<size_t>(agent * plan_->buckets() + bucket)];
}

bool RoundPipeline::agent_live(int64_t agent) const {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  return live_[static_cast<size_t>(agent)] != 0;
}

std::vector<int64_t> RoundPipeline::live_agents() const {
  std::vector<int64_t> out;
  for (int64_t a = 0; a < agents_; ++a)
    if (live_[static_cast<size_t>(a)] != 0) out.push_back(a);
  return out;
}

void RoundPipeline::leave(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  live_[static_cast<size_t>(agent)] = 0;
}

void RoundPipeline::rejoin(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  live_[static_cast<size_t>(agent)] = 1;
  if (!residual_.empty()) {
    double* r = residual_.data() + agent * plan_->total_elems();
    std::fill(r, r + plan_->total_elems(), 0.0);
  }
  for (auto& t : transports_) t->revive_endpoint(agent);
}

void RoundPipeline::deactivate(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  live_[static_cast<size_t>(agent)] = 0;
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    char expected = 0;
    if (!mark(agent, b).compare_exchange_strong(expected, 2,
                                                std::memory_order_acq_rel))
      continue;  // already published — the contribution stands
    const int64_t left = pending_[static_cast<size_t>(b)].fetch_sub(
                             1, std::memory_order_acq_rel) -
                         1;
    COMDML_CHECK(left >= 0);
    if (left > 0) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(b);
    }
    cv_.notify_one();
  }
}

void RoundPipeline::defer(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  COMDML_CHECK(live_[static_cast<size_t>(agent)] != 0);
  COMDML_REQUIRE(!residual_.empty(),
                 "defer() needs the residual slab — construct the pipeline "
                 "with straggler_support (or a lossy codec with error "
                 "feedback)");
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    char expected = 0;
    if (!mark(agent, b).compare_exchange_strong(expected, 3,
                                                std::memory_order_acq_rel))
      continue;
    const int64_t left = pending_[static_cast<size_t>(b)].fetch_sub(
                             1, std::memory_order_acq_rel) -
                         1;
    COMDML_CHECK(left >= 0);
    if (left > 0) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(b);
    }
    cv_.notify_one();
  }
}

void RoundPipeline::absorb_late(int64_t agent, int64_t src_agent) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  COMDML_CHECK(src_agent >= 0 && src_agent < agents_ && src_agent != agent);
  COMDML_REQUIRE(!residual_.empty(),
                 "absorb_late() needs the residual slab");
  const int64_t n = plan_->total_elems();
  double* mine = slab_.data() + agent * n;
  const double* consensus = slab_.data() + src_agent * n;
  double* r = residual_.data() + agent * n;
  // The late update survives as the residual delta (late state minus the
  // consensus it missed) and rides into the agent's next contribution via
  // apply_error_feedback; the slots adopt the consensus for restore_state.
  for (int64_t i = 0; i < n; ++i) {
    r[i] += mine[i] - consensus[i];
    mine[i] = consensus[i];
  }
}

void RoundPipeline::stage_state(int64_t agent,
                                const std::vector<tensor::Tensor*>& state) {
  for (int64_t b = 0; b < plan_->buckets(); ++b)
    plan_->flatten_bucket(state, b, slot(agent, b));
}

void RoundPipeline::schedule_endpoint_failure(int64_t agent,
                                              int64_t after_steps) {
  for (auto& t : transports_) t->schedule_endpoint_failure(agent, after_steps);
}

void RoundPipeline::clear_endpoint_failures() {
  for (auto& t : transports_) t->clear_endpoint_failures();
}

void RoundPipeline::load_residuals(const std::vector<double>& residuals) {
  COMDML_REQUIRE(residuals.size() == residual_.size(),
                 "residual slab mismatch: got " << residuals.size()
                                                << " values, pipeline holds "
                                                << residual_.size());
  residual_ = residuals;
}

double* RoundPipeline::slot(int64_t agent, int64_t bucket) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  return slab_.data() + agent * plan_->total_elems() +
         plan_->bucket(bucket).offset_elems;
}

void RoundPipeline::apply_error_feedback(int64_t agent, int64_t bucket) {
  const nn::Bucket& bk = plan_->bucket(bucket);
  double* s = slot(agent, bucket);
  double* r = residual_.data() + agent * plan_->total_elems() +
              bk.offset_elems;
  // Carry last round's quantization error into this round's payload, then
  // quantize once and keep the fresh error: r' = (x + r) - Q(x + r). With
  // no codec (straggler-only residuals) Q is the identity and the carried
  // residual folds in completely, leaving r' = 0.
  const comm::Codec& codec =
      codec_ != nullptr ? *codec_ : comm::identity_codec();
  codec.encode_feedback(s, r, bk.elems);
}

void RoundPipeline::contribute(int64_t agent, int64_t bucket) {
  COMDML_CHECK(agent >= 0 && agent < agents_);
  COMDML_CHECK(bucket >= 0 && bucket < plan_->buckets());
  // A lossy codec quantizes every contribution once at publish time, on
  // the contributing agent's own thread (distinct (agent, bucket) slots
  // and residuals are disjoint, and every contribution passes through here
  // exactly once per round). With error feedback the previous round's
  // quantization error rides along and the fresh error is kept.
  COMDML_CHECK(live_[static_cast<size_t>(agent)] != 0);
  if (!residual_.empty()) {
    apply_error_feedback(agent, bucket);
  } else if (codec_ != nullptr) {
    (void)codec_->encode(slot(agent, bucket), plan_->bucket(bucket).elems);
  }
  const char was = mark(agent, bucket).exchange(1, std::memory_order_acq_rel);
  COMDML_CHECK(was == 0);
  // acq_rel: the last contributor's decrement acquires every earlier
  // contributor's slab writes before the bucket is published.
  const int64_t left = pending_[static_cast<size_t>(bucket)].fetch_sub(
                           1, std::memory_order_acq_rel) -
                       1;
  COMDML_CHECK(left >= 0);
  if (left > 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ready_.push_back(bucket);
  }
  cv_.notify_one();
}

void RoundPipeline::contribute_all(int64_t agent) {
  for (int64_t b = 0; b < plan_->buckets(); ++b) contribute(agent, b);
}

void RoundPipeline::publish_state(int64_t agent,
                                  const std::vector<tensor::Tensor*>& state) {
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    plan_->flatten_bucket(state, b, slot(agent, b));
    contribute(agent, b);
  }
}

void RoundPipeline::publish_state(int64_t agent,
                                  const std::vector<tensor::Tensor>& state) {
  for (int64_t b = 0; b < plan_->buckets(); ++b) {
    plan_->flatten_bucket(state, b, slot(agent, b));
    contribute(agent, b);
  }
}

void RoundPipeline::restore_state(
    int64_t agent, const std::vector<tensor::Tensor*>& state) {
  for (int64_t b = 0; b < plan_->buckets(); ++b)
    plan_->unflatten_bucket(slot(agent, b), b, state);
}

void RoundPipeline::run_bucket(int64_t bucket) {
  // Reduce over exactly the agents whose contribution was published; agents
  // that died before publishing are simply absent from the mean.
  std::vector<int64_t> contributors;
  for (int64_t a = 0; a < agents_; ++a)
    if (mark(a, bucket).load(std::memory_order_acquire) == 1)
      contributors.push_back(a);
  if (contributors.empty()) return;  // every contributor died first
  comm::CollectiveRequest req;
  req.elems = plan_->bucket(bucket).elems;
  req.buffers.resize(static_cast<size_t>(agents_));
  for (int64_t a = 0; a < agents_; ++a)
    req.buffers[static_cast<size_t>(a)] = slot(a, bucket);
  comm::Transport& transport = *transports_[static_cast<size_t>(bucket)];
  const bool full = static_cast<int64_t>(contributors.size()) == agents_;
  comm::SteppedSchedule survivor_schedule;
  if (!full)
    survivor_schedule = comm::allreduce_schedule_over(protocol_, contributors,
                                                      req.elems);
  comm::AsyncCollective op(
      full ? schedules_[static_cast<size_t>(bucket)] : survivor_schedule,
      transport, std::move(req));
  // With fault injection armed on this transport, a mid-collective
  // endpoint death re-forms the schedule around the survivors instead of
  // failing the round.
  if (transport.has_endpoint_faults()) op.enable_recovery(protocol_);
  op.wait();
}

void RoundPipeline::drain() {
  const int64_t total = plan_->buckets();
  for (;;) {
    int64_t bucket = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return aborted_ || !ready_.empty() || reduced_ == total;
      });
      if (aborted_) return;
      if (ready_.empty()) {
        if (reduced_ == total) return;
        continue;  // spurious wake while another collector finishes
      }
      bucket = ready_.front();
      ready_.pop_front();
    }
    try {
      run_bucket(bucket);
    } catch (...) {
      // The failed bucket will never count as reduced; wake every other
      // collector out of its wait before the exception propagates, or the
      // round would hang instead of failing.
      abort();
      throw;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++reduced_;
      if (reduced_ == total) cv_.notify_all();
    }
  }
}

void RoundPipeline::run_round(int64_t n_tasks,
                              const std::function<void(int64_t)>& task_fn,
                              bool overlap) {
  COMDML_CHECK(n_tasks >= 0);
  const int64_t n_collectors = overlap ? num_threads() : 0;
  parallel_for(0, n_tasks + n_collectors, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      if (t >= n_tasks) {
        drain();
        continue;
      }
      try {
        task_fn(t);
      } catch (...) {
        // Wake waiting collectors before the exception propagates, or the
        // round would hang on buckets that will never become ready.
        abort();
        throw;
      }
    }
  });
}

void RoundPipeline::abort() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

PipelineStats RoundPipeline::stats() const {
  PipelineStats out;
  out.buckets = plan_->buckets();
  out.bucket_seconds.reserve(transports_.size());
  std::vector<int64_t> per_agent(static_cast<size_t>(agents_), 0);
  for (const auto& t : transports_) {
    const comm::TransportStats& st = t->stats();
    out.steps += st.steps;
    out.comm_seconds += st.seconds;
    out.retransmit_bytes += st.retransmit_wire_bytes;
    out.bucket_seconds.push_back(st.seconds);
    for (size_t a = 0; a < per_agent.size(); ++a)
      per_agent[a] += st.bytes_sent[a];
  }
  for (const int64_t b : per_agent)
    out.max_bytes_sent = std::max(out.max_bytes_sent, b);
  return out;
}

}  // namespace comdml::core
