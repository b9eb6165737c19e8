#include "core/real_fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "comm/allreduce.hpp"
#include "comm/compress.hpp"
#include "core/parallel.hpp"
#include "nn/arch_specs.hpp"
#include "privacy/dcor.hpp"
#include "privacy/dp.hpp"
#include "privacy/patch_shuffle.hpp"
#include "sim/resources.hpp"
#include "tensor/hash.hpp"
#include "tensor/serialize.hpp"

namespace comdml::core {

RealFleet::RealFleet(const ModelFactory& factory, int64_t classes,
                     std::vector<data::Dataset> shards,
                     sim::Topology topology, FleetOptions options)
    : options_(options),
      shards_(std::move(shards)),
      topology_(std::move(topology)),
      rng_(options.seed),
      classes_(classes),
      in_shape_(),
      profile_() {
  options_.validate();
  COMDML_REQUIRE(!shards_.empty(), "fleet needs at least one shard");
  COMDML_CHECK(static_cast<int64_t>(shards_.size()) == topology_.agents());
  for (auto& s : shards_) s.validate();
  in_shape_ = shards_.front().sample_shape();

  // Identical initial replicas: build each from a forked RNG, then overwrite
  // with replica 0's state.
  agents_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    tensor::Rng model_rng = rng_.fork();
    agents_[i].model = factory(model_rng);
    COMDML_REQUIRE(agents_[i].model->size() >= 2,
                   "models need >= 2 units for split training");
    agents_[i].batcher = std::make_unique<data::Batcher>(
        shards_[i], options_.train.batch_size, rng_.fork());
  }
  const auto init = nn::state_of(*agents_[0].model);
  for (size_t i = 1; i < agents_.size(); ++i)
    nn::load_state(*agents_[i].model, init);

  const auto spec = nn::spec_from_model(*agents_[0].model, in_shape_,
                                        "real-model", classes_);
  profile_ = SplitProfile::from_spec(spec);

  current_lr_ = options_.train.sgd.lr;
  if (options_.train.plateau_factor > 0.0f) {
    plateau_.emplace(options_.train.plateau_factor, options_.train.plateau_patience);
  }

  if (options_.comms.bucket_bytes > 0) {
    // Bucketed aggregation: one plan and one pipeline for the fleet's
    // lifetime (all replicas are structurally identical).
    bucket_plan_ =
        nn::BucketPlan::build(*agents_[0].model, options_.comms.bucket_bytes);
    // Unreliable-network injection on the bucket transports: every bucket
    // collective then retransmits through comm::ReliableChannel and the
    // retransmission traffic is reported per round.
    comm::FaultPlan faults;
    faults.drop_prob = options_.faults.message_drop_prob;
    faults.seed = options_.seed;
    pipeline_ = std::make_unique<RoundPipeline>(
        static_cast<int64_t>(agents_.size()), *bucket_plan_,
        bottleneck_grid(topology_, options_.comms.latency_sec),
        options_.comms.aggregation, options_.comms.bucket_codec(),
        options_.comms.error_feedback, faults,
        /*straggler_support=*/options_.faults.deadline_sec > 0.0);
    // Modeled backward-tail fraction per bucket: the share of one batch's
    // work still ahead of the final backward sweep when the bucket's
    // lowest unit has finished — this is the compute window the bucket's
    // collective can hide inside.
    const auto costs = agents_[0].model->unit_costs(in_shape_);
    double total = 0.0;
    for (const auto& c : costs) total += c.flops_forward + c.flops_backward;
    std::vector<double> below(costs.size() + 1, 0.0);
    for (size_t u = 0; u < costs.size(); ++u)
      below[u + 1] = below[u] + costs[u].flops_backward;
    bucket_back_frac_.resize(static_cast<size_t>(bucket_plan_->buckets()));
    for (int64_t b = 0; b < bucket_plan_->buckets(); ++b)
      bucket_back_frac_[static_cast<size_t>(b)] =
          total > 0.0
              ? below[bucket_plan_->bucket(b).first_unit] / total
              : 0.0;
  }
}

std::vector<AgentInfo> RealFleet::build_infos() const {
  std::vector<AgentInfo> infos(agents_.size());
  const double flops = profile_.full_flops_per_sample();
  for (size_t i = 0; i < agents_.size(); ++i) {
    AgentInfo& a = infos[i];
    a.id = static_cast<int64_t>(i);
    const double sps =
        topology_.profile(static_cast<int64_t>(i)).cpu *
        options_.train.reference_flops / flops;
    a.proc_speed = sps / static_cast<double>(options_.train.batch_size);
    a.num_batches = options_.train.batches_per_round;
    a.tau_solo = static_cast<double>(a.num_batches) / a.proc_speed;
  }
  return infos;
}

data::Batch RealFleet::next_batch(int64_t agent, tensor::Rng& rng) {
  data::Batch batch = agents_[static_cast<size_t>(agent)].batcher->next();
  if (options_.privacy.technique == learncurve::PrivacyTechnique::kPatchShuffle &&
      batch.x.rank() == 4) {
    batch.x = privacy::patch_shuffle(batch.x, options_.privacy.shuffle_patch, rng);
  }
  return batch;
}

RealFleet::RoundStats RealFleet::step() {
  const int64_t live_before =
      static_cast<int64_t>(live_agents().size());

  // Arm the injected faults scheduled for this round. Leave-mode entries
  // take their agent out before pairing; the per-point modes are resolved
  // by the training tasks / publish path / transports below.
  std::vector<int64_t> die_after_batches(agents_.size(), -1);
  std::vector<int64_t> publish_budget(agents_.size(), -1);
  std::vector<int64_t> collective_victims;
  for (const FleetOptions::FaultOptions::AgentFailure& f :
       options_.faults.failures) {
    if (f.round != round_) continue;
    COMDML_CHECK(f.agent >= 0 && f.agent < agents());
    if (!agents_[static_cast<size_t>(f.agent)].alive) continue;
    if (f.after_batches >= 0) {
      die_after_batches[static_cast<size_t>(f.agent)] = f.after_batches;
    } else if (f.after_buckets >= 0) {
      publish_budget[static_cast<size_t>(f.agent)] = f.after_buckets;
    } else if (f.at_collective_step >= 0) {
      COMDML_CHECK(pipeline_ != nullptr);  // enforced by validate()
      pipeline_->schedule_endpoint_failure(f.agent, f.at_collective_step);
      collective_victims.push_back(f.agent);
    } else {
      leave(f.agent);
    }
  }

  nn::SGD::Options sgd = options_.train.sgd;
  sgd.lr = current_lr_;
  const auto infos = build_infos();
  const std::vector<int64_t> participants = live_agents();
  COMDML_REQUIRE(!participants.empty(), "no live agents left to run a round");
  const PairingResult plan = pair_agents(profile_, infos, topology_,
                                         options_.train.batch_size, participants);

  RoundStats stats;
  stats.num_pairs = static_cast<int64_t>(plan.pairs.size());

  // Straggler deadline: a *solo* agent whose balanced round would outlast
  // the deadline is deferred — it still trains, but the on-time set
  // aggregates without waiting for it, and its late update is absorbed
  // into its error-feedback residual afterwards. Paired agents are never
  // deferred: pairing is the paper's rescue mechanism, and the pairing
  // pass has already pulled every rescuable straggler into a pair. If
  // every live agent would be late there is no on-time set to defer to,
  // so nobody is deferred.
  std::vector<char> late(agents_.size(), 0);
  int64_t n_late = 0;
  if (options_.faults.deadline_sec > 0.0) {
    std::vector<int64_t> late_ids;
    for (const int64_t id : plan.solo)
      if (agents_[static_cast<size_t>(id)].alive &&
          infos[static_cast<size_t>(id)].tau_solo >
              options_.faults.deadline_sec)
        late_ids.push_back(id);
    if (late_ids.size() < participants.size()) {
      for (const int64_t id : late_ids) late[static_cast<size_t>(id)] = 1;
      n_late = static_cast<int64_t>(late_ids.size());
    }
  }
  stats.late_agents = n_late;

  // Local-training phase. Pairing is a matching, so pair tasks touch
  // disjoint agent replicas/batchers and solo tasks the rest: every task is
  // independent between the pairing and aggregation barriers. Each task
  // gets an Rng forked in fixed task order before the fan-out, and results
  // land in a pre-sized slot vector reduced serially afterwards, so the
  // round is bit-identical for every COMDML_NUM_THREADS value. (TaskResult
  // is the public nested type so multi-process fleets can exchange slots.)
  const size_t n_pairs = plan.pairs.size();
  const size_t n_tasks = n_pairs + plan.solo.size();
  std::vector<tensor::Rng> task_rngs;
  task_rngs.reserve(n_tasks);
  for (size_t t = 0; t < n_tasks; ++t) task_rngs.push_back(rng_.fork());
  std::vector<TaskResult> results(n_tasks);

  // Task -> primary agent id: the solo agent, or a pair's slow agent. A
  // multi-process round runs each task on the primary's owning shard (a
  // pair task trains both replicas there — the borrowed fast replica ships
  // home through the exchange) and keys owned results by this map.
  std::vector<int64_t> task_agent;
  if (dist_) {
    task_agent.assign(n_tasks, -1);
    for (size_t t = 0; t < n_pairs; ++t)
      task_agent[t] = plan.pairs[t].slow_agent;
    for (size_t t = n_pairs; t < n_tasks; ++t)
      task_agent[t] = plan.solo[t - n_pairs];
  }

  // Bucketed aggregation modes. DP noise draws from the fleet Rng in agent
  // order after training (historical semantics), so with DP the buckets are
  // published after the noising pass instead of from inside the tasks, and
  // the layerwise overlap window closes.
  const bool bucketed = pipeline_ != nullptr;
  const bool dp = options_.privacy.technique ==
                  learncurve::PrivacyTechnique::kDifferentialPrivacy;
  const bool publish_in_task = bucketed && !dp;
  const bool overlap = publish_in_task && options_.comms.overlap;
  if (bucketed) {
    pipeline_->begin_round();
    // Deferred stragglers are excluded up front so no bucket waits for
    // their contribution.
    for (int64_t a = 0; a < agents(); ++a)
      if (late[static_cast<size_t>(a)] != 0) pipeline_->defer(a);
  }

  // Flatten + contribute one bucket of `agent`'s live state — the publish
  // step shared by the full-model and split last-batch unit walks. An
  // armed publish budget kills the agent mid-stream: after `after_buckets`
  // publishes the next attempt never lands, and the pipeline re-targets
  // the dead agent's remaining buckets. All of one agent's publishes run
  // on its own training task, so the budget needs no synchronization.
  const auto publish_bucket = [&](int64_t agent,
                                  const std::vector<tensor::Tensor*>& ptrs,
                                  int64_t bk) {
    if (!agents_[static_cast<size_t>(agent)].alive) return;
    int64_t& budget = publish_budget[static_cast<size_t>(agent)];
    if (budget == 0) {
      kill_agent(agent);
      budget = -1;
      return;
    }
    bucket_plan_->flatten_bucket(ptrs, bk, pipeline_->slot(agent, bk));
    pipeline_->contribute(agent, bk);
    if (budget > 0 && --budget == 0) {
      kill_agent(agent);
      budget = -1;
    }
  };

  // Full-model local training for one agent. When publishing from inside
  // the task, the round's last batch steps each unit as its backward
  // completes, so output-side buckets enter the pipeline while input-side
  // backward compute is still running (bit-identical math either way).
  const auto train_full = [&](int64_t agent, tensor::Rng& rng,
                              TaskResult& out) {
    auto& st = agents_[static_cast<size_t>(agent)];
    // Momentum is fleet state, not round state: the velocity moves into
    // each round's optimizer and back out (and through checkpoint/restore).
    nn::SGD opt(st.model->parameters(), sgd, std::move(st.velocity));
    const int64_t die_at = die_after_batches[static_cast<size_t>(agent)];
    const int64_t batches =
        die_at >= 0 ? std::min(options_.train.batches_per_round, die_at)
                    : options_.train.batches_per_round;
    for (int64_t b = 0; b < batches; ++b) {
      const auto batch = next_batch(agent, rng);
      if (publish_in_task && b == batches - 1 && die_at < 0 &&
          late[static_cast<size_t>(agent)] == 0) {
        std::vector<tensor::Tensor*> ptrs;
        st.model->collect_state(ptrs);
        nn::BucketReadyTracker tracker(*bucket_plan_);
        const auto res = nn::train_batch_full_notify(
            *st.model, opt, batch.x, batch.y,
            bucket_plan_->unit_param_counts(), [&](size_t u) {
              tracker.unit_done(
                  u, [&](int64_t bk) { publish_bucket(agent, ptrs, bk); });
            });
        out.loss_sum += res.loss;
        ++out.loss_count;
      } else {
        const auto res =
            nn::train_batch_full(*st.model, opt, batch.x, batch.y);
        out.loss_sum += res.loss;
        ++out.loss_count;
      }
    }
    st.velocity = opt.take_velocity();
    // Died after its batch quota: nothing published this round.
    if (die_at >= 0) kill_agent(agent);
  };

  const auto run_task = [&](int64_t t) {
    tensor::Rng& rng = task_rngs[static_cast<size_t>(t)];
    TaskResult& out = results[static_cast<size_t>(t)];
    if (t < static_cast<int64_t>(n_pairs)) {
      // Paired agents: local-loss split training of the *slow* agent's
      // replica (fast side physically runs on the fast agent; state-wise
      // it is the slow replica's suffix), while the fast agent also
      // trains its own replica.
      const auto& pair = plan.pairs[static_cast<size_t>(t)];
      // Multi-process: the slow agent's owner runs the whole pair task,
      // fast replica included (the task's rng was forked in fixed order,
      // so skipping elsewhere preserves every other draw).
      if (dist_ &&
          dist_->owner[static_cast<size_t>(pair.slow_agent)] != dist_->shard)
        return;
      auto& slow = agents_[static_cast<size_t>(pair.slow_agent)];
      const int64_t batches = options_.train.batches_per_round;
      const int64_t slow_die =
          die_after_batches[static_cast<size_t>(pair.slow_agent)];
      const int64_t slow_batches =
          slow_die >= 0 ? std::min(batches, slow_die) : batches;
      nn::LocalLossSplitTrainer split(*slow.model, pair.cut, in_shape_,
                                      classes_, rng, sgd,
                                      std::move(slow.split_velocity));
      for (int64_t b = 0; b < slow_batches; ++b) {
        const auto batch = next_batch(pair.slow_agent, rng);
        nn::LocalLossSplitTrainer::StepStats step;
        if (publish_in_task && b == batches - 1 && slow_die < 0) {
          // Final batch: per-unit finalization publishes the slow
          // replica's buckets layer-by-layer during the split backward —
          // prefix-side buckets enter the pipeline before the fast-side
          // backward even starts, and every bucket ships before the fast
          // agent's own full-model training below (bit-identical math
          // either way).
          std::vector<tensor::Tensor*> ptrs;
          slow.model->collect_state(ptrs);
          nn::BucketReadyTracker tracker(*bucket_plan_);
          const size_t total_units = slow.model->size();
          size_t units_done = 0;
          step = split.train_batch_notify(
              batch.x, batch.y, bucket_plan_->unit_param_counts(),
              [&](size_t u) {
                ++units_done;
                tracker.unit_done(u, [&](int64_t bk) {
                  publish_bucket(pair.slow_agent, ptrs, bk);
                  // Published while split units were still pending: the
                  // widened overlap window, as a number.
                  if (units_done < total_units) ++out.split_early_buckets;
                });
              });
        } else {
          step = split.train_batch(batch.x, batch.y);
        }
        out.slow_loss_sum += step.slow_loss;
        out.loss_sum += step.fast_loss;
        ++out.loss_count;
        if (b == 0) {
          // Privacy leakage across the cut, measured on real
          // activations, and the actually-achieved wire compression of
          // the same payload.
          const auto h =
              slow.model->forward_range(batch.x, 0, pair.cut, false);
          out.dcor += privacy::distance_correlation(batch.x, h);
          out.wire_compression += comm::compression_ratio(h);
          ++out.dcor_count;
        }
      }
      slow.split_velocity = split.take_velocity();
      if (slow_die >= 0) kill_agent(pair.slow_agent);
      train_full(pair.fast_agent, rng, out);
    } else {
      // Solo agents train the full model. In multi-process mode only the
      // owning shard trains the agent (the task's rng was already forked
      // in fixed order, so skipping preserves every other draw); its
      // result reaches the other workers through the exchange below.
      const int64_t id = plan.solo[static_cast<size_t>(t) - n_pairs];
      if (dist_ && dist_->owner[static_cast<size_t>(id)] != dist_->shard)
        return;
      train_full(id, rng, out);
    }
  };

  // Fan the tasks out. Bucketed rounds go through the shared pipeline
  // orchestration (collector slots in overlapped mode, abort-on-exception);
  // flat rounds are a plain fan-out.
  if (bucketed) {
    pipeline_->run_round(static_cast<int64_t>(n_tasks), run_task, overlap);
  } else {
    parallel_for(0, static_cast<int64_t>(n_tasks), 1,
                 [&](int64_t lo, int64_t hi) {
                   for (int64_t t = lo; t < hi; ++t) run_task(t);
                 });
  }

  // Multi-process: gather every worker's owned TaskResults into the full
  // vector so the serial fold below stays one code path — every worker
  // folds identical slots and lands on the same mean_loss, dcor, and
  // plateau trajectory. Pair tasks trained a borrowed fast replica on the
  // slow agent's owner; those replicas ship home here, and every worker
  // imports every borrowed blob so owners post current state into the
  // collective. Agents whose worker crashed mid-training come back in
  // `died`: they leave the fleet before the collective forms, so the
  // survivors aggregate exactly like a from-scratch survivor-only fleet
  // (the dead workers' zero TaskResult slots fold harmlessly).
  if (dist_) {
    ExchangeIO io;
    io.task_agent = &task_agent;
    io.results = &results;
    for (const OffloadDecision& p : plan.pairs) {
      if (dist_->owner[static_cast<size_t>(p.slow_agent)] != dist_->shard)
        continue;
      if (dist_->owner[static_cast<size_t>(p.fast_agent)] != dist_->shard)
        io.state_out.emplace_back(p.fast_agent, export_agent(p.fast_agent));
    }
    dist_->exchange(io);
    for (const AgentBlob& blob : io.state_in)
      import_agent(blob.first, blob.second);
    for (const int64_t a : io.died)
      if (agents_[static_cast<size_t>(a)].alive) kill_agent(a);
  }

  float slow_loss_sum = 0.0f, loss_sum = 0.0f;
  int64_t loss_count = 0;
  double dcor_sum = 0.0;
  int64_t dcor_count = 0;
  for (const TaskResult& r : results) {
    slow_loss_sum += r.slow_loss_sum;
    loss_sum += r.loss_sum;
    loss_count += r.loss_count;
    dcor_sum += r.dcor;
    stats.mean_wire_compression += r.wire_compression;
    dcor_count += r.dcor_count;
    stats.split_early_buckets += r.split_early_buckets;
  }

  // The modeled compute span of the round. With deferral the straggler no
  // longer gates the barrier: the span is the slowest *on-time*
  // participant (pair completion times and on-time solo times).
  double t_comp = plan.estimated_round_time;
  if (n_late > 0) {
    t_comp = 0.0;
    for (const OffloadDecision& p : plan.pairs)
      t_comp = std::max(t_comp, p.estimated_time);
    for (const int64_t id : plan.solo)
      if (late[static_cast<size_t>(id)] == 0)
        t_comp = std::max(t_comp,
                          infos[static_cast<size_t>(id)].tau_solo);
  }
  if (!bucketed) {
    // Optional DP on each agent's state before it leaves the device. The
    // merge buffers are fleet members reused round over round. Snapshots
    // and noise draws cover every agent (dead ones included) so the fleet
    // rng sequence does not depend on the failure pattern; only the live
    // agents' states enter the collective.
    std::vector<std::vector<tensor::Tensor>>& states = state_scratch_;
    states.resize(agents_.size());
    for (size_t i = 0; i < agents_.size(); ++i)
      nn::copy_state_into(*agents_[i].model, states[i]);
    if (dp) {
      for (auto& s : states)
        privacy::laplace_mechanism(s, options_.privacy.dp_epsilon,
                                   options_.privacy.dp_sensitivity, rng_);
    }

    // Real message-level decentralized aggregation over an InProcTransport.
    // The collective routes through the overlay at the bottleneck rate (the
    // seed cost models' assumption), and one run yields both the executed
    // traffic and the modeled clock — predicted cost and real bytes are the
    // same schedule by construction. Agents that died this round are
    // excluded: the survivors aggregate over a grid of their own size,
    // exactly a from-scratch survivor-only fleet.
    const std::vector<int64_t> live = live_agents();
    std::vector<std::vector<tensor::Tensor>> live_states;
    live_states.reserve(live.size());
    for (const int64_t a : live)
      live_states.push_back(std::move(states[static_cast<size_t>(a)]));
    if (dist_) {
      // Multi-process: the same survivor schedule runs rank-partitioned
      // over the shared (socket) transport — identical message pattern,
      // identical merge order and arithmetic, so every worker's owned
      // buffers land on the same bit-identical consensus mean. Non-owned
      // rows hold stale replicas; their buffers are never read (only
      // owned sends post, only owned recvs fold).
      //
      // A worker crash mid-collective surfaces as EndpointDownError on
      // some (not necessarily all — schedules don't touch every pair every
      // step) survivors. Recovery: after every attempt the collective_sync
      // barrier reconciles the survivors' views, the dead worker's agents
      // leave the fleet, the data mesh is rebuilt (a fresh transport
      // cannot carry stale frames from the aborted schedule), and the
      // survivor set re-runs from the pristine post-training snapshots —
      // exactly the schedule a from-scratch survivor-only fleet would run.
      const int64_t n = comm::state_elems(live_states[0]);
      std::vector<double> slab(
          static_cast<size_t>(agents_.size()) * static_cast<size_t>(n));
      comm::CollectiveRequest req;
      req.elems = n;
      std::vector<char> owned(agents_.size(), 0);
      std::vector<int64_t> row(agents_.size(), -1);
      for (size_t i = 0; i < live.size(); ++i)
        row[static_cast<size_t>(live[i])] = static_cast<int64_t>(i);
      // Re-point the request at `parts` and re-fill every owned row from
      // its pristine post-training state (an aborted attempt leaves owned
      // buffers partially folded). Returns the first owned participant.
      const auto flatten_owned =
          [&](const std::vector<int64_t>& parts) -> int64_t {
        std::fill(owned.begin(), owned.end(), 0);
        req.buffers.assign(agents_.size(), nullptr);
        int64_t first_owned = -1;
        for (const int64_t p : parts) {
          const auto a = static_cast<size_t>(p);
          req.buffers[a] = slab.data() + a * static_cast<size_t>(n);
          if (dist_->owner[a] == dist_->shard) {
            owned[a] = 1;
            comm::flatten_state(live_states[static_cast<size_t>(row[a])],
                                req.buffers[a]);
            if (first_owned < 0) first_owned = p;
          }
        }
        return first_owned;
      };
      std::vector<int64_t> parts = live;
      int64_t first_owned = flatten_owned(parts);
      COMDML_REQUIRE(first_owned >= 0,
                     "shard " << dist_->shard
                              << " owns no live agent; it cannot take part "
                                 "in the aggregation round");
      for (;;) {
        bool ok = true;
        if (parts.size() > 1) {
          try {
            const auto sched = comm::allreduce_schedule_over(
                options_.comms.aggregation, parts, n);
            comm::execute_schedule_owned(sched, *dist_->transport, req,
                                         owned);
          } catch (const comm::EndpointDownError&) {
            ok = false;
          }
        }
        // This worker's view of the survivors: the attempted participants
        // minus the endpoints the transport has declared dead.
        std::vector<int64_t> view;
        for (const int64_t p : parts)
          if (dist_->transport->endpoint_alive(p)) view.push_back(p);
        auto agreement = dist_->collective_sync(view, ok);
        std::sort(agreement.first.begin(), agreement.first.end());
        for (const int64_t p : parts)
          if (!std::binary_search(agreement.first.begin(),
                                  agreement.first.end(), p) &&
              agents_[static_cast<size_t>(p)].alive)
            kill_agent(p);
        parts = std::move(agreement.first);
        COMDML_REQUIRE(!parts.empty(),
                       "collective recovery lost every live agent");
        if (agreement.second == nullptr) break;  // settled everywhere
        dist_->transport = agreement.second;
        first_owned = flatten_owned(parts);
        COMDML_REQUIRE(first_owned >= 0,
                       "shard " << dist_->shard
                                << " owns no agent surviving the "
                                   "collective recovery");
      }
      // Every owned surviving buffer now holds the same mean; adopt it as
      // the consensus on every surviving replica — owned or not — so
      // evaluate(), rejoin() and the next round's training see one fleet
      // model. Agents killed mid-collective only hand their buffers back.
      const double* mean = req.buffers[static_cast<size_t>(first_owned)];
      for (size_t i = 0; i < live.size(); ++i) {
        const auto a = static_cast<size_t>(live[i]);
        if (agents_[a].alive) {
          comm::unflatten_state(mean, live_states[i]);
          nn::load_state(*agents_[a].model, live_states[i]);
        }
        states[a] = std::move(live_states[i]);  // hand the buffers back
      }

      // This worker's share of the executed traffic; the daemon merges
      // the per-worker step histories into the fleet-level clock.
      const comm::TransportStats ts = dist_->transport->stats_snapshot();
      stats.aggregation_seconds = ts.seconds;
      stats.aggregation_bytes = ts.max_bytes_sent();
      stats.exposed_comm_seconds = ts.seconds;
      stats.sim_time = t_comp + ts.seconds;
    } else {
      const auto min_bw = topology_.min_link_bandwidth();
      COMDML_REQUIRE(min_bw.has_value() || live.size() == 1,
                     "topology has no usable link");
      comm::InProcTransport transport(comm::LinkGrid::uniform(
          static_cast<int64_t>(live.size()), min_bw.value_or(100.0),
          options_.comms.latency_sec));
      (void)comm::run_on_states(options_.comms.aggregation, transport,
                                live_states);
      const comm::TransportStats& agg = transport.stats();
      for (size_t i = 0; i < live.size(); ++i) {
        const auto a = static_cast<size_t>(live[i]);
        nn::load_state(*agents_[a].model, live_states[i]);
        states[a] = std::move(live_states[i]);  // hand the buffers back
      }

      // Simulated wall-clock: balanced round span + the collective.
      stats.aggregation_seconds = agg.seconds;
      stats.aggregation_bytes = agg.max_bytes_sent();
      stats.exposed_comm_seconds = agg.seconds;
      stats.sim_time = t_comp + agg.seconds;
    }
  } else {
    if (dp) {
      // Snapshot + noise in agent order with the fleet Rng (same draw
      // sequence as the flat path, dead agents included), then publish
      // every live agent's buckets — an armed publish budget kills its
      // agent mid-publication here, just like the in-task path.
      std::vector<std::vector<tensor::Tensor>>& states = state_scratch_;
      states.resize(agents_.size());
      for (size_t i = 0; i < agents_.size(); ++i)
        nn::copy_state_into(*agents_[i].model, states[i]);
      for (auto& s : states)
        privacy::laplace_mechanism(s, options_.privacy.dp_epsilon,
                                   options_.privacy.dp_sensitivity, rng_);
      for (size_t i = 0; i < agents_.size(); ++i) {
        const auto a = static_cast<int64_t>(i);
        if (!agents_[i].alive || late[i] != 0) continue;
        int64_t& budget = publish_budget[i];
        for (int64_t bk = 0; bk < bucket_plan_->buckets(); ++bk) {
          if (budget == 0) {
            kill_agent(a);
            budget = -1;
            break;
          }
          bucket_plan_->flatten_bucket(states[i], bk, pipeline_->slot(a, bk));
          pipeline_->contribute(a, bk);
          if (budget > 0 && --budget == 0) {
            kill_agent(a);
            budget = -1;
            break;
          }
        }
      }
    }
    // Overlapped rounds drained inside the training fan-out; sequential
    // bucketed rounds reduce here, in ready order on this thread.
    if (!overlap) pipeline_->drain();

    // Mid-collective victims died during the reduce; take them out before
    // the write-back (their slots hold pre-recovery payloads, not means)
    // and disarm the transport faults so the next round's reset step
    // counters do not re-kill them against the survivors.
    for (const int64_t v : collective_victims) {
      if (agents_[static_cast<size_t>(v)].alive) {
        agents_[static_cast<size_t>(v)].alive = false;
        pipeline_->leave(v);
      }
    }
    if (!collective_victims.empty()) pipeline_->clear_endpoint_failures();

    // Every on-time live agent's slots now hold the bucket means; write
    // them back, one agent per task (each touches only its own slots and
    // replica). Deferred stragglers are re-synced below instead.
    parallel_for(0, agents(), 1, [&](int64_t lo, int64_t hi) {
      for (int64_t a = lo; a < hi; ++a) {
        const auto i = static_cast<size_t>(a);
        if (!agents_[i].alive || late[i] != 0) continue;
        std::vector<tensor::Tensor*> ptrs;
        agents_[i].model->collect_state(ptrs);
        pipeline_->restore_state(a, ptrs);
      }
    });

    // Deferred stragglers: stage the late update, fold (late - consensus)
    // into the agent's residual so the work re-enters the stream next
    // round, and adopt the consensus so the fleet stays synchronized.
    if (n_late > 0) {
      int64_t src = -1;
      for (int64_t a = 0; a < agents(); ++a)
        if (agents_[static_cast<size_t>(a)].alive &&
            late[static_cast<size_t>(a)] == 0) {
          src = a;
          break;
        }
      COMDML_REQUIRE(src >= 0,
                     "straggler deferral lost every on-time agent this round");
      for (int64_t a = 0; a < agents(); ++a) {
        if (late[static_cast<size_t>(a)] == 0 ||
            !agents_[static_cast<size_t>(a)].alive)
          continue;
        std::vector<tensor::Tensor*> ptrs;
        agents_[static_cast<size_t>(a)].model->collect_state(ptrs);
        pipeline_->stage_state(a, ptrs);
        pipeline_->absorb_late(a, src);
        pipeline_->restore_state(a, ptrs);
      }
    }

    const PipelineStats ps = pipeline_->stats();
    stats.aggregation_seconds = ps.comm_seconds;
    stats.aggregation_bytes = ps.max_bytes_sent;
    stats.buckets = ps.buckets;
    stats.retransmit_bytes = ps.retransmit_bytes;

    // Modeled clock. Overlapped: bucket b is producible no earlier than
    // the fastest agent's backward tail allows (the last agent to finalize
    // a bucket gates it, and agents finish the balanced round together),
    // so ready(b) = t_comp - tau_batch_min * back_frac(b). Sequential:
    // everything is ready at the training barrier. Either way the bucket
    // collectives serialize on the shared link from their ready times —
    // the same composition the parity tests run on SimTransport-predicted
    // bucket costs.
    double tau_min = 0.0;
    if (overlap) {
      tau_min = 1e300;
      for (const AgentInfo& a : infos)
        tau_min = std::min(tau_min, 1.0 / a.proc_speed);
    }
    std::vector<double> ready(static_cast<size_t>(ps.buckets), t_comp);
    if (overlap) {
      for (int64_t b = 0; b < ps.buckets; ++b)
        ready[static_cast<size_t>(b)] = std::max(
            0.0,
            t_comp - tau_min * bucket_back_frac_[static_cast<size_t>(b)]);
    }
    const OverlapTimeline timeline =
        compose_overlap_timeline(ready, ps.bucket_seconds);
    stats.sim_time = std::max(t_comp, timeline.span);
    stats.exposed_comm_seconds = stats.sim_time - t_comp;
  }
  stats.mean_slow_loss =
      plan.pairs.empty()
          ? 0.0f
          : slow_loss_sum / static_cast<float>(plan.pairs.size() *
                                               options_.train.batches_per_round);
  stats.mean_loss =
      loss_count == 0 ? 0.0f : loss_sum / static_cast<float>(loss_count);
  stats.mean_dcor =
      dcor_count == 0 ? 0.0 : dcor_sum / static_cast<double>(dcor_count);
  if (dcor_count > 0)
    stats.mean_wire_compression /= static_cast<double>(dcor_count);

  // Plateau LR schedule (paper §V-A): decay when the fleet loss stalls.
  if (plateau_) {
    const float mult = plateau_->observe(-stats.mean_loss);
    if (mult < 1.0f) current_lr_ *= mult;
  }
  stats.dropped_agents =
      live_before - static_cast<int64_t>(live_agents().size());
  ++round_;
  ++rounds_since_checkpoint_;
  if (options_.faults.checkpoint_every > 0 &&
      round_ % options_.faults.checkpoint_every == 0)
    auto_checkpoint();
  return stats;
}

float RealFleet::evaluate(const data::Dataset& test) {
  test.validate();
  return nn::evaluate_accuracy(*agents_[static_cast<size_t>(first_live())].model,
                               test.images, test.labels);
}

nn::Sequential& RealFleet::model(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  return *agents_[static_cast<size_t>(agent)].model;
}

bool RealFleet::agent_alive(int64_t agent) const {
  COMDML_CHECK(agent >= 0 && agent < agents());
  return agents_[static_cast<size_t>(agent)].alive;
}

std::vector<int64_t> RealFleet::live_agents() const {
  std::vector<int64_t> out;
  for (int64_t a = 0; a < agents(); ++a)
    if (agents_[static_cast<size_t>(a)].alive) out.push_back(a);
  return out;
}

int64_t RealFleet::first_live() const {
  for (int64_t a = 0; a < agents(); ++a)
    if (agents_[static_cast<size_t>(a)].alive) return a;
  COMDML_REQUIRE(false, "fleet has no live agent");
  return -1;
}

void RealFleet::kill_agent(int64_t agent) {
  agents_[static_cast<size_t>(agent)].alive = false;
  if (pipeline_) pipeline_->deactivate(agent);
}

void RealFleet::leave(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  agents_[static_cast<size_t>(agent)].alive = false;
  if (pipeline_) pipeline_->leave(agent);
}

void RealFleet::rejoin(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  AgentState& st = agents_[static_cast<size_t>(agent)];
  if (st.alive) return;
  // Initialize from the consensus state: after aggregation every live
  // replica is identical, so any live agent's model is the fleet model.
  const int64_t src = first_live();
  nn::load_state(*st.model, nn::state_of(*agents_[static_cast<size_t>(src)].model));
  st.velocity.clear();
  st.alive = true;
  if (pipeline_) pipeline_->rejoin(agent);
}

namespace {

constexpr uint32_t kCheckpointMagic = 0x434D444C;  // "CMDL"
constexpr uint32_t kCheckpointVersion = 3;
constexpr uint32_t kShardMagic = 0x434D4453;  // "CMDS"
constexpr uint32_t kShardVersion = 2;
/// Every checkpoint blob is framed [magic u32 | version u32 | checksum u64
/// | body]; the checksum (tensor::checksum) covers the body.
constexpr size_t kFrameHeader = 2 * sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kChecksumOffset = 2 * sizeof(uint32_t);

/// A writer holding a frame header with a placeholder checksum, presized
/// for `body_bytes` more; the caller appends the body, then seal_frame().
tensor::ByteWriter open_frame(uint32_t magic, uint32_t version,
                              size_t body_bytes) {
  tensor::ByteWriter w;
  w.reserve(kFrameHeader + body_bytes);
  w.u32(magic);
  w.u32(version);
  w.u64(0);
  return w;
}

/// Patch the body checksum into the header and hand the blob out.
std::vector<uint8_t> seal_frame(tensor::ByteWriter& w) {
  const std::vector<uint8_t>& b = w.bytes();
  w.patch_u64(kChecksumOffset, tensor::checksum(b.data() + kFrameHeader,
                                                b.size() - kFrameHeader));
  return w.take();
}

/// Validate a frame (size, magic, version, checksum) and return a reader
/// positioned at its body. Every defect is a CheckpointError naming
/// `what` ("checkpoint", "checkpoint shard"): the caller handed over an
/// unusable blob, not a programming error. The body is checksummed before
/// a single body field is parsed, so truncation and bit rot surface here.
tensor::ByteReader open_sealed(const std::vector<uint8_t>& bytes,
                               uint32_t magic, uint32_t version,
                               const std::string& what) {
  if (bytes.size() < kFrameHeader)
    throw CheckpointError(what + " truncated: " +
                          std::to_string(bytes.size()) +
                          " bytes is smaller than the header");
  tensor::ByteReader r(bytes);
  if (r.u32() != magic)
    throw CheckpointError("not a fleet " + what + " (bad magic)");
  const uint32_t got_version = r.u32();
  if (got_version != version)
    throw CheckpointError("unsupported " + what + " version " +
                          std::to_string(got_version) + " (expected " +
                          std::to_string(version) + ")");
  const uint64_t want_sum = r.u64();
  if (tensor::checksum(bytes.data() + kFrameHeader,
                       bytes.size() - kFrameHeader) != want_sum)
    throw CheckpointError(what +
                          " checksum mismatch (truncated or corrupted)");
  return r;
}

/// Upper bound on the bytes write_agent() appends beyond the two tensor
/// lists: the fixed-width fields and length prefixes fit in 64.
size_t agent_record_extra(const data::Batcher::State& bs) {
  return 64 + bs.order.size() * sizeof(int64_t) + bs.rng.size();
}

}  // namespace

void RealFleet::write_agent(tensor::ByteWriter& w, int64_t agent,
                            const data::Batcher::State& bs) {
  AgentState& st = agents_[static_cast<size_t>(agent)];
  std::vector<tensor::Tensor*> state;
  st.model->collect_state(state);
  w.u8(st.alive ? 1 : 0);
  w.tensors(state);
  w.tensors(st.velocity);
  w.i64s(bs.order);
  w.i64(bs.cursor);
  w.i64(bs.epoch);
  w.str(bs.rng);
}

void RealFleet::read_agent(tensor::ByteReader& r, int64_t agent) {
  AgentState& st = agents_[static_cast<size_t>(agent)];
  st.alive = r.u8() != 0;
  nn::load_state(*st.model, r.tensors());
  st.velocity = r.tensors();
  data::Batcher::State bs;
  bs.order = r.i64s();
  bs.cursor = r.i64();
  bs.epoch = r.i64();
  bs.rng = r.str();
  st.batcher->load(bs);
}

std::vector<uint8_t> RealFleet::checkpoint() {
  // One presized buffer: the batcher positions are saved first so the
  // body size is known, the tensors stream straight from the live models,
  // and the checksum is patched into the header last.
  const std::string rng_state = rng_.state();
  std::vector<data::Batcher::State> batchers;
  batchers.reserve(agents_.size());
  size_t body_bytes = 64 + rng_state.size();
  std::vector<tensor::Tensor*> state;
  for (AgentState& st : agents_) {
    batchers.push_back(st.batcher->save());
    state.clear();
    st.model->collect_state(state);
    body_bytes += static_cast<size_t>(tensor::wire_bytes(state) +
                                      tensor::wire_bytes(st.velocity)) +
                  agent_record_extra(batchers.back());
  }
  if (pipeline_) body_bytes += pipeline_->residuals().size() * sizeof(double);

  tensor::ByteWriter w =
      open_frame(kCheckpointMagic, kCheckpointVersion, body_bytes);
  w.u32(static_cast<uint32_t>(agents()));
  w.i64(round_);
  w.f32(current_lr_);
  w.str(rng_state);
  w.u8(plateau_.has_value() ? 1 : 0);
  if (plateau_) {
    const nn::PlateauScheduler::State s = plateau_->save();
    w.f32(s.best);
    w.i64(s.stale);
  }
  for (int64_t a = 0; a < agents(); ++a)
    write_agent(w, a, batchers[static_cast<size_t>(a)]);
  w.u8(pipeline_ != nullptr ? 1 : 0);
  if (pipeline_) w.f64s(pipeline_->residuals());
  return seal_frame(w);
}

void RealFleet::restore(const std::vector<uint8_t>& bytes) {
  tensor::ByteReader r = open_sealed(bytes, kCheckpointMagic,
                                     kCheckpointVersion, "checkpoint");

  // The body parse cannot run off the end (the checksum covered every
  // byte), but a malformed length field could still ask for more than is
  // there; surface that as a CheckpointError too.
  try {
    const auto k = static_cast<int64_t>(r.u32());
    if (k > agents())
      throw CheckpointError(
          "checkpoint holds " + std::to_string(k) +
          " agents but this fleet only has " + std::to_string(agents()) +
          " — restore needs a fleet at least as wide as the checkpoint");
    round_ = r.i64();
    current_lr_ = r.f32();
    rng_.set_state(r.str());
    const bool has_plateau = r.u8() != 0;
    if (has_plateau != plateau_.has_value())
      throw CheckpointError("checkpoint plateau-schedule config mismatch");
    if (plateau_) {
      nn::PlateauScheduler::State s;
      s.best = r.f32();
      s.stale = static_cast<int>(r.i64());
      plateau_->load(s);
    }
    for (int64_t a = 0; a < k; ++a) {
      read_agent(r, a);
      if (pipeline_) {
        // Sync the pipeline's membership (rejoin also clears residuals and
        // endpoint faults for the agent; the checkpointed residual slab is
        // loaded right after, so the order matters).
        if (agents_[static_cast<size_t>(a)].alive)
          pipeline_->rejoin(a);
        else
          pipeline_->leave(a);
      }
    }
    // A narrower checkpoint restores into a wider fleet: the agents beyond
    // the checkpointed set come up as left (the consensus does not include
    // them) and can rejoin from a live agent's post-aggregation state.
    for (int64_t a = k; a < agents(); ++a) {
      AgentState& st = agents_[static_cast<size_t>(a)];
      st.alive = false;
      st.velocity.clear();
      if (pipeline_) pipeline_->leave(a);
    }
    const bool has_pipeline = r.u8() != 0;
    if (has_pipeline != (pipeline_ != nullptr))
      throw CheckpointError("checkpoint bucketing config mismatch");
    if (pipeline_) {
      std::vector<double> residuals = r.f64s();
      const size_t want = pipeline_->residuals().size();
      if (want > 0) {
        // The checkpointed slab covers k agents; rows for the extra agents
        // of a wider fleet start zeroed (no residual history).
        const size_t per_agent = want / static_cast<size_t>(agents());
        if (residuals.size() != per_agent * static_cast<size_t>(k))
          throw CheckpointError(
              "checkpoint residual slab mismatch: holds " +
              std::to_string(residuals.size()) + " values, expected " +
              std::to_string(per_agent * static_cast<size_t>(k)));
        residuals.resize(want, 0.0);
        pipeline_->load_residuals(residuals);
      } else if (!residuals.empty()) {
        throw CheckpointError(
            "checkpoint carries error-feedback residuals but this fleet "
            "has no residual slab (codec/straggler config mismatch)");
      }
    }
    r.expect_done();
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(std::string("malformed checkpoint body: ") +
                          e.what());
  }
  rounds_since_checkpoint_ = 0;
}

void RealFleet::set_dist_context(DistContext ctx) {
  COMDML_REQUIRE(round_ == 0,
                 "set_dist_context must run before the first step()");
  COMDML_REQUIRE(ctx.shards >= 1 && ctx.shard >= 0 && ctx.shard < ctx.shards,
                 "bad shard index " << ctx.shard << " of " << ctx.shards);
  COMDML_REQUIRE(pipeline_ == nullptr,
                 "multi-process mode needs a flat (non-bucketed, "
                 "non-pipelined) fleet");
  COMDML_REQUIRE(ctx.transport != nullptr, "multi-process mode needs a "
                                           "transport");
  COMDML_REQUIRE(ctx.transport->endpoints() == agents(),
                 "transport hosts " << ctx.transport->endpoints()
                                    << " endpoints, fleet has " << agents()
                                    << " agents");
  COMDML_REQUIRE(static_cast<int64_t>(ctx.owner.size()) == agents(),
                 "owner map covers " << ctx.owner.size() << " agents of "
                                     << agents());
  bool owns_one = false;
  for (const int64_t o : ctx.owner) {
    COMDML_REQUIRE(o >= 0 && o < ctx.shards, "owner " << o << " out of range");
    if (o == ctx.shard) owns_one = true;
  }
  COMDML_REQUIRE(owns_one, "shard " << ctx.shard << " owns no agent");
  COMDML_REQUIRE(ctx.exchange && ctx.collective_sync,
                 "multi-process fleets need a TaskResult exchange and a "
                 "collective sync");
  // Constraints the partitioned round cannot honor yet: mid-round deaths
  // (every worker must see the same live set at every point), straggler
  // deferral (needs the pipeline's residual machinery), and message loss
  // on the aggregation wire (the NACK path retransmits, but the per-step
  // histories then desynchronize across workers).
  for (const FleetOptions::FaultOptions::AgentFailure& f :
       options_.faults.failures)
    COMDML_REQUIRE(f.after_batches < 0 && f.after_buckets < 0 &&
                       f.at_collective_step < 0,
                   "multi-process fleets support leave-mode failures only");
  COMDML_REQUIRE(options_.faults.deadline_sec == 0.0,
                 "multi-process fleets do not support straggler deadlines");
  COMDML_REQUIRE(options_.faults.message_drop_prob == 0.0,
                 "multi-process fleets need a loss-free aggregation wire");
  dist_ = std::move(ctx);
}

void RealFleet::set_dist_transport(comm::Transport* transport) {
  COMDML_REQUIRE(dist_.has_value(),
                 "set_dist_transport needs an engaged dist context");
  COMDML_REQUIRE(transport != nullptr, "null transport");
  COMDML_REQUIRE(transport->endpoints() == agents(),
                 "transport hosts " << transport->endpoints()
                                    << " endpoints, fleet has " << agents()
                                    << " agents");
  dist_->transport = transport;
}

std::vector<uint8_t> RealFleet::export_agent(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  tensor::ByteWriter w;
  write_agent(w, agent, agents_[static_cast<size_t>(agent)].batcher->save());
  return w.take();
}

void RealFleet::import_agent(int64_t agent, const std::vector<uint8_t>& bytes) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  tensor::ByteReader r(bytes);
  read_agent(r, agent);
  r.expect_done();
}

std::vector<uint8_t> RealFleet::checkpoint_shard(
    int64_t shard, int64_t shards, const std::vector<int64_t>& owned_agents) {
  COMDML_REQUIRE(shards >= 1 && shard >= 0 && shard < shards,
                 "bad shard index " << shard << " of " << shards);
  tensor::ByteWriter body = open_frame(kShardMagic, kShardVersion, 0);
  body.u32(static_cast<uint32_t>(agents()));
  body.i64(round_);
  body.i64(shard);
  body.i64(shards);
  body.f32(current_lr_);
  // Fleet-level rng travels in EVERY shard: all workers fork task rngs for
  // all tasks every round, so their fleet rng states are identical and any
  // shard can seed the restored fleet.
  body.str(rng_.state());
  body.u8(plateau_.has_value() ? 1 : 0);
  if (plateau_) {
    const nn::PlateauScheduler::State s = plateau_->save();
    body.f32(s.best);
    body.i64(s.stale);
  }
  body.u32(static_cast<uint32_t>(owned_agents.size()));
  for (const int64_t a : owned_agents) {
    COMDML_CHECK(a >= 0 && a < agents());
    body.i64(a);
    const std::vector<uint8_t> blob = export_agent(a);
    body.str(std::string(blob.begin(), blob.end()));
  }
  return seal_frame(body);
}

void RealFleet::restore_shards(
    const std::vector<std::vector<uint8_t>>& shards) {
  COMDML_REQUIRE(pipeline_ == nullptr,
                 "shard restore needs a flat (non-bucketed) fleet");
  if (shards.empty())
    throw CheckpointError("shard restore got zero shards");

  struct ParsedShard {
    int64_t agents_total = 0;
    int64_t round = 0;
    int64_t shard = 0;
    int64_t shards = 0;
    float lr = 0.0f;
    std::string rng;
    bool has_plateau = false;
    float plateau_best = 0.0f;
    int64_t plateau_stale = 0;
    std::vector<std::pair<int64_t, std::string>> blobs;
  };
  std::vector<ParsedShard> parsed;
  parsed.reserve(shards.size());
  for (const std::vector<uint8_t>& bytes : shards) {
    tensor::ByteReader r =
        open_sealed(bytes, kShardMagic, kShardVersion, "checkpoint shard");
    try {
      ParsedShard p;
      p.agents_total = static_cast<int64_t>(r.u32());
      p.round = r.i64();
      p.shard = r.i64();
      p.shards = r.i64();
      p.lr = r.f32();
      p.rng = r.str();
      p.has_plateau = r.u8() != 0;
      if (p.has_plateau) {
        p.plateau_best = r.f32();
        p.plateau_stale = r.i64();
      }
      const uint32_t count = r.u32();
      p.blobs.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        const int64_t a = r.i64();
        p.blobs.emplace_back(a, r.str());
      }
      r.expect_done();
      parsed.push_back(std::move(p));
    } catch (const std::invalid_argument& e) {
      throw CheckpointError(std::string("malformed checkpoint shard: ") +
                            e.what());
    }
  }

  // Cross-shard consistency: every shard must describe the same fleet at
  // the same round, and no two shards may carry the same worker slot or
  // the same agent.
  const ParsedShard& head = parsed.front();
  if (head.agents_total > agents())
    throw CheckpointError(
        "checkpoint shards hold " + std::to_string(head.agents_total) +
        " agents but this fleet only has " + std::to_string(agents()));
  if (head.has_plateau != plateau_.has_value())
    throw CheckpointError("checkpoint shard plateau-schedule config mismatch");
  std::vector<char> slot_seen(static_cast<size_t>(head.shards), 0);
  for (const ParsedShard& p : parsed) {
    if (p.agents_total != head.agents_total || p.round != head.round ||
        p.shards != head.shards)
      throw CheckpointError(
          "inconsistent checkpoint shards: mixed fleets or rounds");
    if (p.shard < 0 || p.shard >= p.shards)
      throw CheckpointError("checkpoint shard index out of range");
    if (slot_seen[static_cast<size_t>(p.shard)] != 0)
      throw CheckpointError("duplicate checkpoint shard " +
                            std::to_string(p.shard));
    slot_seen[static_cast<size_t>(p.shard)] = 1;
  }

  // Fleet-level state from the lowest shard index present (all shards
  // carry identical copies; the choice only pins determinism).
  const ParsedShard* lead = &head;
  for (const ParsedShard& p : parsed)
    if (p.shard < lead->shard) lead = &p;
  round_ = lead->round;
  current_lr_ = lead->lr;
  rng_.set_state(lead->rng);
  if (plateau_) {
    nn::PlateauScheduler::State s;
    s.best = lead->plateau_best;
    s.stale = static_cast<int>(lead->plateau_stale);
    plateau_->load(s);
  }

  // Start everyone as left, then bring covered agents up with their exact
  // state. Agents of absent shards stay left — rejoinable from consensus.
  for (AgentState& st : agents_) {
    st.alive = false;
    st.velocity.clear();
  }
  std::vector<char> agent_seen(static_cast<size_t>(agents()), 0);
  int64_t live = 0;
  for (const ParsedShard& p : parsed) {
    for (const auto& entry : p.blobs) {
      const int64_t a = entry.first;
      if (a < 0 || a >= agents())
        throw CheckpointError("checkpoint shard covers agent " +
                              std::to_string(a) + " outside this fleet");
      if (agent_seen[static_cast<size_t>(a)] != 0)
        throw CheckpointError("agent " + std::to_string(a) +
                              " covered by two checkpoint shards");
      agent_seen[static_cast<size_t>(a)] = 1;
      try {
        import_agent(a, std::vector<uint8_t>(entry.second.begin(),
                                             entry.second.end()));
      } catch (const std::invalid_argument& e) {
        throw CheckpointError(std::string("malformed agent blob in "
                                          "checkpoint shard: ") +
                              e.what());
      }
      if (agents_[static_cast<size_t>(a)].alive) ++live;
    }
  }
  if (live == 0)
    throw CheckpointError(
        "checkpoint shards restore zero live agents; need a quorum "
        "covering at least one");
  rounds_since_checkpoint_ = 0;
}

void RealFleet::auto_checkpoint() {
  namespace fs = std::filesystem;
  const fs::path dir(options_.faults.checkpoint_dir);
  fs::create_directories(dir);
  char name[32];
  std::snprintf(name, sizeof(name), "fleet_r%06lld.cmdl",
                static_cast<long long>(round_));
  const std::vector<uint8_t> bytes = checkpoint();
  {
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    COMDML_REQUIRE(out.good(), "cannot write checkpoint " << (dir / name));
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    COMDML_REQUIRE(out.good(),
                   "short write on checkpoint " << (dir / name));
  }
  rounds_since_checkpoint_ = 0;
  // Retention: keep the newest checkpoint_retain auto-checkpoints. The
  // round number is zero-padded, so lexicographic order is round order.
  std::vector<fs::path> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("fleet_r", 0) == 0 &&
        entry.path().extension() == ".cmdl")
      found.push_back(entry.path());
  }
  std::sort(found.begin(), found.end());
  const auto retain = static_cast<size_t>(options_.faults.checkpoint_retain);
  for (size_t i = 0; i + retain < found.size(); ++i)
    fs::remove(found[i]);
}

}  // namespace comdml::core
