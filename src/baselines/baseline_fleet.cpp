#include "baselines/baseline_fleet.hpp"

#include <algorithm>

#include "comm/link.hpp"
#include "sim/resources.hpp"

namespace comdml::baselines {

comm::LinkGrid param_server_grid(
    const std::vector<sim::ResourceProfile>& profiles,
    const std::vector<int64_t>& selected, double server_mbps,
    double latency_sec) {
  COMDML_CHECK(!selected.empty());
  COMDML_CHECK(server_mbps > 0.0);
  const double share = server_mbps / static_cast<double>(selected.size());
  std::vector<double> rates(profiles.size(), 0.0);
  for (const int64_t idx : selected) {
    COMDML_CHECK(idx >= 0 && idx < static_cast<int64_t>(profiles.size()));
    const auto& p = profiles[static_cast<size_t>(idx)];
    COMDML_REQUIRE(p.connected(), "selected agent " << idx
                                                    << " has no uplink");
    rates[static_cast<size_t>(idx)] = std::min(p.mbps, share);
  }
  return comm::LinkGrid::star(rates, latency_sec);
}

BaselineFleet::BaselineFleet(Method method, const nn::ArchitectureSpec& spec,
                             FleetOptions options, sim::Topology topology,
                             std::vector<int64_t> shard_sizes)
    : method_(method),
      options_(std::move(options)),
      topology_(std::move(topology)),
      shard_sizes_(std::move(shard_sizes)),
      flops_per_sample_(spec.total_flops()),
      model_bytes_(spec.total_param_bytes()),
      rng_(options_.seed) {
  COMDML_REQUIRE(method != Method::kComDML,
                 "use core::SimulatedFleet for ComDML itself");
  options_.validate();
  COMDML_CHECK(static_cast<int64_t>(shard_sizes_.size()) ==
               topology_.agents());
}

std::vector<double> BaselineFleet::solo_times(
    const std::vector<int64_t>& participants) const {
  const double overhead =
      (method_ == Method::kFedProx ? kFedProxComputeOverhead : 1.0) *
      learncurve::privacy_compute_overhead(options_.privacy.technique);
  std::vector<double> times;
  times.reserve(participants.size());
  for (const int64_t id : participants) {
    const double sps =
        sim::samples_per_sec(topology_.profile(id), flops_per_sample_);
    times.push_back(overhead *
                    static_cast<double>(shard_sizes_[static_cast<size_t>(id)]) /
                    sps);
  }
  return times;
}

RoundRecord BaselineFleet::step() {
  if (options_.scale.reshuffle_period > 0 && round_ > 0 &&
      round_ % options_.scale.reshuffle_period == 0) {
    auto profiles = topology_.profiles();
    sim::reshuffle_profiles(profiles, options_.scale.reshuffle_fraction, rng_);
    topology_.set_profiles(std::move(profiles));
  }

  const auto participants = core::sample_participants(
      topology_.agents(), options_.scale.participation, rng_);
  const auto compute = solo_times(participants);
  const double slowest =
      *std::max_element(compute.begin(), compute.end());

  RoundRecord rec;
  rec.round = round_;
  rec.compute_time = slowest;

  switch (method_) {
    case Method::kFedAvg:
    case Method::kFedProx: {
      comm::SimTransport transport(param_server_grid(
          topology_.profiles(), participants, options_.comms.server_mbps,
          options_.comms.latency_sec));
      comm::CollectiveRequest req;
      req.elems = comm::fp32_wire_elems(model_bytes_);
      req.participants = participants;
      (void)comm::collective(comm::Protocol::kParamServer).run(transport, req);
      // Each agent waits for its own download + upload.
      const comm::TransportStats& st = transport.stats();
      double worst = 0.0;
      for (size_t i = 0; i < participants.size(); ++i) {
        const auto id = static_cast<size_t>(participants[i]);
        worst = std::max(worst, compute[i] + (st.send_seconds[id] +
                                              st.recv_seconds[id]));
      }
      rec.aggregation_time = worst - slowest;
      rec.round_time = worst;
      break;
    }
    case Method::kGossip: {
      // Gossip learning is asynchronous (Hegedus et al. [11]): nobody waits
      // for the global straggler, but an exchange blocks on its partner.
      // The effective round duration is the mean over agents of
      // max(own compute, partner compute) + model push.
      // One collective run yields both the partner draw and the per-agent
      // push times, so the compute-wait and transfer terms below describe
      // the same partners (the old two-draw version paired them
      // inconsistently).
      comm::SimTransport transport(
          comm::LinkGrid::from_topology(topology_, options_.comms.latency_sec));
      comm::CollectiveRequest req;
      req.elems = comm::fp32_wire_elems(model_bytes_);
      req.rng = &rng_;
      const auto rep =
          comm::collective(comm::Protocol::kGossip).run(transport, req);
      const auto& partners = rep.partners;
      const auto& exch = transport.stats().send_seconds;
      double total = 0.0;
      for (size_t i = 0; i < participants.size(); ++i) {
        const auto id = static_cast<size_t>(participants[i]);
        double pair_compute = compute[i];
        if (partners[id]) {
          // Partner may be outside the participant sample; estimate its
          // compute from its profile.
          const int64_t p = *partners[id];
          const double sps = sim::samples_per_sec(topology_.profile(p),
                                                  flops_per_sample_);
          pair_compute = std::max(
              pair_compute,
              static_cast<double>(shard_sizes_[static_cast<size_t>(p)]) /
                  sps);
        }
        total += pair_compute + exch[id];
      }
      rec.round_time = total / static_cast<double>(participants.size());
      rec.aggregation_time =
          std::max(0.0, rec.round_time - slowest);
      break;
    }
    case Method::kBrainTorrent: {
      // One agent plays server for the round (Roy et al. [10]); the fleet
      // elects the best-connected participant as aggregator so the
      // (K-1)-model drain rides the widest available downlink. Peers push
      // in parallel over their own uplinks; the refreshed model returns the
      // same way.
      int64_t coord = participants.front();
      for (const int64_t id : participants)
        if (topology_.profile(id).mbps > topology_.profile(coord).mbps)
          coord = id;
      const double coord_bw = topology_.profile(coord).mbps;
      COMDML_REQUIRE(coord_bw > 0.0, "coordinator has no uplink");
      const auto peers = static_cast<double>(participants.size() - 1);
      double slowest_peer = 0.0;
      for (const int64_t id : participants) {
        if (id == coord) continue;
        slowest_peer = std::max(
            slowest_peer,
            comm::transfer_seconds(model_bytes_,
                                   topology_.profile(id).mbps,
                                   options_.comms.latency_sec));
      }
      const double coord_drain =
          peers * static_cast<double>(model_bytes_) /
          comm::bytes_per_sec(coord_bw);
      const double one_way = std::max(slowest_peer, coord_drain);
      rec.aggregation_time = 2.0 * one_way;
      rec.round_time = slowest + rec.aggregation_time;
      break;
    }
    case Method::kAllReduceDML: {
      const auto min_bw = topology_.min_link_bandwidth();
      COMDML_REQUIRE(min_bw.has_value(), "topology has no usable link");
      comm::SimTransport transport(comm::LinkGrid::uniform(
          static_cast<int64_t>(participants.size()), *min_bw,
          options_.comms.latency_sec));
      comm::CollectiveRequest req;
      req.elems = comm::fp32_wire_elems(model_bytes_);
      (void)comm::collective(options_.comms.aggregation).run(transport, req);
      rec.aggregation_time = transport.stats().seconds;
      rec.round_time = slowest + rec.aggregation_time;
      break;
    }
    case Method::kComDML:
      COMDML_CHECK(false);  // rejected in constructor
  }

  // All of these methods leave faster agents idle while the straggler
  // finishes its full-model update.
  for (const double t : compute) rec.idle_time += slowest - t;
  rec.unbalanced_time = rec.round_time;
  ++round_;
  return rec;
}

RunSummary BaselineFleet::run(int64_t rounds) {
  COMDML_CHECK(rounds > 0);
  RunSummary summary;
  for (int64_t r = 0; r < rounds; ++r) summary.add(step());
  return summary;
}

}  // namespace comdml::baselines
