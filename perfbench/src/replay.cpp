#include "replay.hpp"

#include <algorithm>

#include "comm/allreduce.hpp"
#include "comm/collective.hpp"
#include "core/pairing.hpp"
#include "core/parallel.hpp"
#include "core/round_pipeline.hpp"
#include "nn/arch_specs.hpp"
#include "nn/split.hpp"
#include "stats.hpp"

namespace perfbench {

namespace comm = comdml::comm;
namespace nn = comdml::nn;
using comdml::tensor::Rng;

namespace {

constexpr int64_t kBucketElems = 64 * 1024 / 4;  // one 64 KiB fp32 bucket

double unit_flops_per_sample(nn::Sequential& model,
                             const comdml::tensor::Shape& in_shape) {
  double total = 0.0;
  for (const auto& c : model.unit_costs(in_shape))
    total += c.flops_forward + c.flops_backward;
  return total;
}

}  // namespace

Replay::Replay(const Inputs& in, Tracer& tracer)
    : in_(in),
      tracer_(tracer),
      topology_(sim::Topology::full_mesh(in.profiles)),
      in_shape_(in.shards.front().sample_shape()),
      rng_(in.seed ^ 0x5eedULL) {
  for (int64_t a = 0; a < in.agents(); ++a) {
    Rng model_rng = rng_.fork();
    replicas_.push_back(in.factory(model_rng));
    batchers_.push_back(std::make_unique<data::Batcher>(
        in.shards[static_cast<size_t>(a)], in.options.train.batch_size,
        rng_.fork()));
  }
  nn::Sequential& model = *replicas_.front();
  profile_ = core::SplitProfile::from_spec(
      nn::spec_from_model(model, in_shape_, "real-model", in.classes));
  flops_per_sample_ = unit_flops_per_sample(model, in_shape_);
  elems_ = comm::state_elems(nn::state_of(model));
  buffers_.assign(static_cast<size_t>(in.agents()),
                  std::vector<double>(static_cast<size_t>(elems_)));
}

void Replay::round(int64_t parent, int64_t round) {
  const auto& train = in_.options.train;
  const int64_t agents = in_.agents();

  // Pairing: the same broadcast state RealFleet builds for its agents.
  std::vector<core::AgentInfo> infos(static_cast<size_t>(agents));
  std::vector<int64_t> participants;
  for (int64_t a = 0; a < agents; ++a) {
    core::AgentInfo& info = infos[static_cast<size_t>(a)];
    info.id = a;
    const double sps = topology_.profile(a).cpu * train.reference_flops /
                       profile_.full_flops_per_sample();
    info.proc_speed = sps / static_cast<double>(train.batch_size);
    info.num_batches = train.batches_per_round;
    info.tau_solo = static_cast<double>(info.num_batches) / info.proc_speed;
    participants.push_back(a);
  }
  core::PairingResult plan;
  {
    const ScopedSpan s(&tracer_, span::kPairing, parent, round);
    plan = core::pair_agents(profile_, infos, topology_, train.batch_size,
                             participants);
  }
  PairingRound pr;
  pr.pairs = static_cast<int64_t>(plan.pairs.size());
  for (const auto& p : plan.pairs)
    pr.offloaded_fraction += profile_.offloaded_fraction(p.cut);
  pr.offloaded_fraction /= static_cast<double>(agents);
  pairings_.push_back(pr);

  // Local training: one task per pair or solo agent, fanned out on the
  // pool like the fleet's round.
  const size_t n_pairs = plan.pairs.size();
  const size_t n_tasks = n_pairs + plan.solo.size();
  std::vector<Rng> task_rngs;
  for (size_t t = 0; t < n_tasks; ++t) task_rngs.push_back(rng_.fork());
  std::vector<int64_t> task_samples(n_tasks, 0);
  {
    const ScopedSpan training(&tracer_, span::kTraining, parent, round);
    const int64_t tp = training.id();
    const auto train_full = [&](int64_t agent, int64_t& samples) {
      nn::Sequential& model = *replicas_[static_cast<size_t>(agent)];
      nn::SGD opt(model.parameters(), train.sgd);
      for (int64_t b = 0; b < train.batches_per_round; ++b) {
        data::Batch batch;
        {
          const ScopedSpan s(&tracer_, span::kNextBatch, tp, round);
          batch = batchers_[static_cast<size_t>(agent)]->next();
        }
        const ScopedSpan s(&tracer_, span::kTrainFull, tp, round);
        (void)nn::train_batch_full(model, opt, batch.x, batch.y);
        samples += batch.x.shape()[0];
      }
    };
    core::parallel_for(
        0, static_cast<int64_t>(n_tasks), 1, [&](int64_t lo, int64_t hi) {
          for (int64_t t = lo; t < hi; ++t) {
            const auto ti = static_cast<size_t>(t);
            int64_t& samples = task_samples[ti];
            if (ti >= n_pairs) {
              train_full(plan.solo[ti - n_pairs], samples);
              continue;
            }
            const auto& pair = plan.pairs[ti];
            nn::LocalLossSplitTrainer split(
                *replicas_[static_cast<size_t>(pair.slow_agent)], pair.cut,
                in_shape_, in_.classes, task_rngs[ti], train.sgd);
            for (int64_t b = 0; b < train.batches_per_round; ++b) {
              data::Batch batch;
              {
                const ScopedSpan s(&tracer_, span::kNextBatch, tp, round);
                batch =
                    batchers_[static_cast<size_t>(pair.slow_agent)]->next();
              }
              const ScopedSpan s(&tracer_, span::kTrainSplit, tp, round);
              (void)split.train_batch(batch.x, batch.y);
              samples += batch.x.shape()[0];
            }
            train_full(pair.fast_agent, samples);
          }
        });
  }
  for (const int64_t s : task_samples)
    nn_flops_ += static_cast<double>(s) * flops_per_sample_;

  // Aggregation: the workload's flat halving/doubling collective over its
  // agents and element count, with the workload's codec and fault plan,
  // executed on InProcTransport and modeled on SimTransport.
  for (int64_t a = 0; a < agents; ++a)
    comm::flatten_state(nn::state_of(*replicas_[static_cast<size_t>(a)]),
                        buffers_[static_cast<size_t>(a)].data());
  const comm::Codec* codec = in_.options.comms.bucket_codec();
  comm::FaultPlan faults;
  faults.drop_prob = in_.options.faults.message_drop_prob;
  faults.seed = in_.options.seed + static_cast<uint64_t>(round);
  const comm::LinkGrid grid =
      core::bottleneck_grid(topology_, in_.options.comms.latency_sec);
  comm::CollectiveRequest req;
  req.elems = elems_;
  for (auto& b : buffers_) req.buffers.push_back(b.data());
  const comm::Collective& hd =
      comm::collective(comm::Protocol::kHalvingDoublingAllReduce);
  comm::InProcTransport inproc(grid, codec, faults);
  {
    const ScopedSpan s(&tracer_, span::kCollectiveRun, parent, round);
    (void)hd.run(inproc, req);
  }
  comm::SimTransport sim(grid, codec, faults);
  {
    comm::CollectiveRequest timing;
    timing.elems = elems_;
    const ScopedSpan s(&tracer_, span::kCollectiveModel, -1, round);
    (void)hd.run(sim, timing);
  }
  const comm::TransportStats& st = inproc.stats();
  CollectiveRound cr;
  cr.modeled_s = sim.stats().seconds;
  cr.messages = st.messages;
  cr.steps = st.steps;
  cr.wire_bytes = st.total_wire_bytes;
  cr.goodput_bytes = st.goodput_bytes();
  cr.dropped = st.dropped_messages;
  cr.retransmit_bytes = st.retransmit_wire_bytes;
  collectives_.push_back(cr);

  // The bucket codec, where the workload's buckets use one.
  if (codec != nullptr) {
    std::vector<double> bucket(buffers_.front().begin(),
                               buffers_.front().begin() +
                                   std::min<int64_t>(kBucketElems, elems_));
    const ScopedSpan s(&tracer_, span::kCodecEncode, parent, round);
    (void)codec->encode(bucket.data(), static_cast<int64_t>(bucket.size()));
  }
}

double codec_encode_gbps(int reps, uint64_t seed, Tracer* tracer) {
  Rng rng(seed);
  std::vector<double> source(kBucketElems);
  for (double& v : source) v = rng.normal(0.0f, 1.0f);
  std::vector<double> bucket(source.size());
  std::vector<double> seconds;
  const comm::Codec& codec = comm::quantized_codec();
  Tracer local;
  for (int r = 0; r < reps; ++r) {
    std::copy(source.begin(), source.end(), bucket.begin());
    const double t0 = local.now();
    {
      const ScopedSpan s(tracer, span::kCodecEncode);
      (void)codec.encode(bucket.data(), kBucketElems);
    }
    seconds.push_back(local.now() - t0);
  }
  return static_cast<double>(kBucketElems * 4) / median(seconds) / 1e9;
}

}  // namespace perfbench
