// Fig. 1 reproduction: the with/without workload-balancing timeline for one
// slow/fast agent pair — training spans, idle spans and the communication
// overhead that balancing introduces.
#include "bench_util.hpp"
#include "core/execution.hpp"

int main() {
  using namespace comdml;
  using namespace comdml::bench;
  print_header("Fig. 1: workload balancing timeline, 2 agents",
               "ICDCS'24 ComDML, Fig. 1");

  const auto spec = nn::resnet56_spec();
  const auto profile = core::SplitProfile::from_spec(
      spec, 0,
      core::FleetOptions::paper_defaults().comms.activation_compression);
  const int64_t batch = 100;

  core::AgentInfo slow, fast;
  const double fps = profile.full_flops_per_sample();
  slow.id = 0;
  slow.proc_speed = 0.2 * sim::kReferenceFlopsPerSec / fps / double(batch);
  slow.num_batches = 50;
  slow.tau_solo = double(slow.num_batches) / slow.proc_speed;
  fast.id = 1;
  fast.proc_speed = 4.0 * sim::kReferenceFlopsPerSec / fps / double(batch);
  fast.num_batches = 50;
  fast.tau_solo = double(fast.num_batches) / fast.proc_speed;

  std::printf("\nWithout workload balancing:\n");
  std::printf("  agent 1 (slow) trains model w        : %7.1f s\n",
              slow.tau_solo);
  std::printf("  agent 2 (fast) trains model w        : %7.1f s\n",
              fast.tau_solo);
  std::printf("  agent 2 idle waiting for agent 1     : %7.1f s\n",
              slow.tau_solo - fast.tau_solo);
  std::printf("  round span                           : %7.1f s\n",
              slow.tau_solo);

  const auto choice = core::best_split(profile, slow, fast, 100.0, batch);
  if (!choice) {
    std::printf("no beneficial split found\n");
    return 1;
  }
  const auto exec =
      core::execute_pair(profile, slow, fast, choice->cut, 100.0, batch);

  std::printf("\nWith workload balancing (split m* = cut %zu):\n",
              choice->cut);
  std::printf("  agent 1 trains slow side w_s         : %7.1f s\n",
              exec.slow_finish);
  std::printf("  agent 2 trains own w + offloaded w_f : %7.1f s\n",
              exec.fast_train_time);
  std::printf("  communication overhead               : %7.1f s\n",
              exec.link_busy);
  std::printf("  combined idle                        : %7.1f s\n",
              exec.slow_idle + exec.fast_idle);
  std::printf("  round span                           : %7.1f s\n",
              exec.pair_time);
  std::printf("\ntraining-time reduction with balancing: %.0f%% (paper "
              "illustrates a qualitative reduction)\n",
              100.0 * (1.0 - exec.pair_time / slow.tau_solo));

  const bool shape_ok = exec.pair_time < slow.tau_solo &&
                        exec.slow_idle + exec.fast_idle <
                            (slow.tau_solo - fast.tau_solo);
  std::printf("shape checks: balanced span shorter, idle time shrinks -> %s\n",
              shape_ok ? "OK" : "VIOLATED");
  return shape_ok ? 0 : 1;
}
