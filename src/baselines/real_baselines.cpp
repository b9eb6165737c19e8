#include "baselines/real_baselines.hpp"

#include <algorithm>

#include "baselines/baseline_fleet.hpp"
#include "comm/allreduce.hpp"
#include "core/parallel.hpp"

namespace comdml::baselines {

RealBaselineFleet::RealBaselineFleet(learncurve::Method method,
                                     const core::ModelFactory& factory,
                                     int64_t classes,
                                     std::vector<data::Dataset> shards,
                                     sim::Topology topology,
                                     core::FleetOptions options)
    : method_(method),
      options_(options),
      shards_(std::move(shards)),
      topology_(std::move(topology)),
      rng_(options.seed) {
  (void)classes;
  options_.validate();
  COMDML_REQUIRE(method != learncurve::Method::kComDML,
                 "use core::RealFleet for ComDML");
  COMDML_CHECK(static_cast<int64_t>(shards_.size()) == topology_.agents());
  for (auto& s : shards_) s.validate();
  models_.reserve(shards_.size());
  batchers_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    tensor::Rng model_rng = rng_.fork();
    models_.push_back(factory(model_rng));
    batchers_.push_back(std::make_unique<data::Batcher>(
        shards_[i], options_.train.batch_size, rng_.fork()));
  }
  const auto init = nn::state_of(*models_[0]);
  for (size_t i = 1; i < models_.size(); ++i)
    nn::load_state(*models_[i], init);

  if (method_ == learncurve::Method::kAllReduceDML &&
      options_.comms.bucket_bytes > 0) {
    bucket_plan_ =
        nn::BucketPlan::build(*models_[0], options_.comms.bucket_bytes);
    pipeline_ = std::make_unique<core::RoundPipeline>(
        static_cast<int64_t>(models_.size()), *bucket_plan_,
        core::bottleneck_grid(topology_, options_.comms.latency_sec),
        options_.comms.aggregation, options_.comms.bucket_codec(),
        options_.comms.error_feedback);
  }
}

float RealBaselineFleet::train_locally(
    size_t agent, const std::vector<tensor::Tensor>* global) {
  auto& model = *models_[agent];
  nn::SGD opt(model.parameters(), options_.train.sgd);
  float loss_sum = 0.0f;
  for (int64_t b = 0; b < options_.train.batches_per_round; ++b) {
    const auto batch = batchers_[agent]->next();
    if (method_ == learncurve::Method::kFedProx && global != nullptr) {
      // Proximal step: gradient + mu * (w - w_global).
      opt.zero_grad();
      const auto logits = model.forward(batch.x, true);
      auto res = nn::softmax_cross_entropy(logits, batch.y);
      model.backward_params(res.grad_logits);
      std::vector<nn::Parameter*> params = model.parameters();
      size_t g = 0;
      std::vector<tensor::Tensor*> state;
      model.collect_state(state);
      // Parameters appear in state in collection order; apply the proximal
      // pull only to learnable parameters.
      (void)state;
      for (auto* p : params) {
        COMDML_CHECK(g < global->size());
        // Find matching global tensor by shape walk: parameter ordering is
        // stable across replicas, and state_of() lists parameter values in
        // the same order as collect_parameters for our layer set.
        const tensor::Tensor& anchor = (*global)[g];
        if (anchor.shape() == p->value.shape()) {
          auto gr = p->grad.flat();
          auto w = p->value.flat();
          auto a = anchor.flat();
          for (size_t k = 0; k < gr.size(); ++k)
            gr[k] += options_.train.prox_mu * (w[k] - a[k]);
        }
        ++g;
      }
      opt.step();
      loss_sum += res.loss;
    } else {
      loss_sum +=
          nn::train_batch_full(model, opt, batch.x, batch.y).loss;
    }
  }
  return loss_sum / static_cast<float>(options_.train.batches_per_round);
}

void RealBaselineFleet::aggregate(RoundStats& stats) {
  std::vector<std::vector<tensor::Tensor>>& states = state_scratch_;
  states.resize(models_.size());
  for (size_t i = 0; i < models_.size(); ++i)
    nn::copy_state_into(*models_[i], states[i]);
  const size_t k = models_.size();

  switch (method_) {
    case learncurve::Method::kFedAvg:
    case learncurve::Method::kFedProx: {
      // Server-side N_i/N weighted average, broadcast to all — the
      // "param_server" collective over a star grid whose agent<->server
      // edges share the server's aggregate bandwidth.
      std::vector<double> weights;
      weights.reserve(k);
      for (size_t i = 0; i < k; ++i)
        weights.push_back(static_cast<double>(shards_[i].size()));
      const bool all_connected = [&] {
        for (const auto& p : topology_.profiles())
          if (!p.connected()) return false;
        return true;
      }();
      if (!all_connected) {
        // An offline agent cannot reach the star; keep the historical
        // local-average semantics (no accounted traffic) for that case.
        const auto avg = comm::weighted_mean_state(states, weights);
        for (auto& m : models_) nn::load_state(*m, avg);
        break;
      }
      comm::CollectiveRequest req;
      req.weights = std::move(weights);
      req.participants.resize(k);
      for (size_t i = 0; i < k; ++i)
        req.participants[i] = static_cast<int64_t>(i);
      comm::InProcTransport transport(param_server_grid(
          topology_.profiles(), req.participants, options_.comms.server_mbps,
          options_.comms.latency_sec));
      (void)comm::run_on_states(comm::Protocol::kParamServer, transport,
                                states, std::move(req));
      for (size_t i = 0; i < k; ++i) nn::load_state(*models_[i], states[i]);
      stats.aggregation_seconds = transport.stats().seconds;
      stats.aggregation_bytes = transport.stats().max_bytes_sent();
      break;
    }
    case learncurve::Method::kBrainTorrent: {
      // Random coordinator averages and redistributes.
      const auto avg = comm::mean_state(states);
      for (auto& m : models_) nn::load_state(*m, avg);
      break;
    }
    case learncurve::Method::kAllReduceDML: {
      COMDML_CHECK(pipeline_ == nullptr);  // bucketed rounds skip aggregate()
      comm::InProcTransport transport(
          core::bottleneck_grid(topology_, options_.comms.latency_sec));
      (void)comm::run_on_states(options_.comms.aggregation, transport,
                                states);
      for (size_t i = 0; i < k; ++i) nn::load_state(*models_[i], states[i]);
      stats.aggregation_seconds = transport.stats().seconds;
      stats.aggregation_bytes = transport.stats().max_bytes_sent();
      break;
    }
    case learncurve::Method::kGossip: {
      const int64_t bytes =
          static_cast<int64_t>(nn::state_bytes(*models_[0]));
      comm::InProcTransport transport(comm::LinkGrid::from_topology(
          topology_, options_.comms.latency_sec));
      comm::CollectiveRequest req;
      req.rng = &rng_;
      const comm::CollectiveReport rep = comm::run_on_states(
          comm::Protocol::kGossip, transport, states, std::move(req));
      for (size_t i = 0; i < k; ++i) nn::load_state(*models_[i], states[i]);
      // Each pushing agent is charged one full `bytes` model push over its
      // chosen link (not the executed fp32 wire bytes).
      for (size_t i = 0; i < k; ++i) {
        if (!rep.partners[i]) continue;
        stats.aggregation_seconds = std::max(
            stats.aggregation_seconds,
            comm::transfer_seconds(
                bytes,
                topology_.bandwidth_mbps(static_cast<int64_t>(i),
                                         *rep.partners[i]),
                options_.comms.latency_sec));
      }
      stats.aggregation_bytes = bytes;
      break;
    }
    case learncurve::Method::kComDML:
      COMDML_CHECK(false);
  }
}

RealBaselineFleet::RoundStats RealBaselineFleet::step() {
  std::optional<std::vector<tensor::Tensor>> global;
  if (method_ == learncurve::Method::kFedProx)
    global = nn::state_of(*models_[0]);

  RoundStats stats;
  // Agents are independent until aggregation (own replica, optimizer state
  // and batcher; `global` is read-only), so local training fans out to the
  // pool. Per-agent losses land in fixed slots and are reduced in agent
  // order, keeping the round identical for every thread count.
  //
  // Bucketed AllReduce-DML: each agent publishes its buckets as its local
  // training ends; RoundPipeline::run_round adds (overlap) one collector
  // slot per pool thread so idle workers reduce ready buckets while slower
  // agents still train, and aborts the pipeline on task exceptions.
  const bool bucketed = pipeline_ != nullptr;
  const bool overlap = bucketed && options_.comms.overlap;
  if (bucketed) pipeline_->begin_round();
  const int64_t n_agents = static_cast<int64_t>(models_.size());
  std::vector<float> losses(models_.size(), 0.0f);
  const auto train_task = [&](int64_t i) {
    losses[static_cast<size_t>(i)] =
        train_locally(static_cast<size_t>(i), global ? &*global : nullptr);
    if (bucketed) {
      std::vector<tensor::Tensor*> ptrs;
      models_[static_cast<size_t>(i)]->collect_state(ptrs);
      pipeline_->publish_state(i, ptrs);
    }
  };
  if (bucketed) {
    pipeline_->run_round(n_agents, train_task, overlap);
  } else {
    core::parallel_for(0, n_agents, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) train_task(i);
    });
  }
  float loss = 0.0f;
  for (const float l : losses) loss += l;
  stats.mean_loss = loss / static_cast<float>(models_.size());

  if (bucketed) {
    if (!overlap) pipeline_->drain();
    for (size_t i = 0; i < models_.size(); ++i) {
      std::vector<tensor::Tensor*> ptrs;
      models_[i]->collect_state(ptrs);
      pipeline_->restore_state(static_cast<int64_t>(i), ptrs);
    }
    const core::PipelineStats ps = pipeline_->stats();
    stats.aggregation_seconds = ps.comm_seconds;
    stats.aggregation_bytes = ps.max_bytes_sent;
    return stats;
  }
  aggregate(stats);
  return stats;
}

float RealBaselineFleet::evaluate(const data::Dataset& test) {
  test.validate();
  return nn::evaluate_accuracy(*models_[0], test.images, test.labels);
}

nn::Sequential& RealBaselineFleet::model(int64_t agent) {
  COMDML_CHECK(agent >= 0 && agent < agents());
  return *models_[static_cast<size_t>(agent)];
}

}  // namespace comdml::baselines
