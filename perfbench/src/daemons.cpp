#include "daemons.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// `cpus` empty leaves the child on every CPU.
pid_t spawn(const std::string& bin, const std::vector<std::string>& args,
            int threads, const std::vector<int>& cpus) {
  // Everything the child needs is built before fork(): the benchmark is
  // multi-threaded, so the child may only make async-signal-safe calls.
  std::vector<std::string> argv_s = {bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<std::string> env_s = {"COMDML_NUM_THREADS=" +
                                    std::to_string(threads)};
  for (char** e = environ; *e != nullptr; ++e)
    if (std::string_view(*e).rfind("COMDML_NUM_THREADS=", 0) != 0)
      env_s.emplace_back(*e);
  std::vector<char*> argv, envp;
  for (std::string& a : argv_s) argv.push_back(a.data());
  for (std::string& e : env_s) envp.push_back(e.data());
  argv.push_back(nullptr);
  envp.push_back(nullptr);
  cpu_set_t cpu_set;
  CPU_ZERO(&cpu_set);
  for (const int c : cpus) CPU_SET(c, &cpu_set);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    if (!cpus.empty()) (void)::sched_setaffinity(0, sizeof cpu_set, &cpu_set);
    // Child: die with the benchmark; keep stdout (the result line) clean.
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    (void)::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execve(bin.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  return pid;
}

/// waitpid with a deadline; SIGKILLs on timeout. True on a clean exit 0.
bool reap(pid_t pid, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (r < 0) return false;
    if (Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (void)::kill(pid, SIGKILL);
  (void)::waitpid(pid, &status, 0);
  return false;
}

}  // namespace

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

DaemonFleet::DaemonFleet(const std::string& fleetd, const std::string& dir,
                         const comdml::daemon::FleetSpec& spec, int workers,
                         int threads)
    : dir_(dir) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  const std::string addr = "unix:" + dir_ + "/control.sock";
  std::ostringstream scales;
  scales.precision(17);
  for (size_t i = 0; i < spec.compute_scales.size(); ++i)
    scales << (i == 0 ? "" : ",") << spec.compute_scales[i];
  std::ostringstream mbps, lr;
  mbps.precision(17);
  lr.precision(9);
  mbps << spec.mbps;
  lr << spec.lr;
  try {
    pids_.push_back(spawn(
        fleetd,
        {"--listen", addr, "--workers", std::to_string(workers), "--agents",
         std::to_string(spec.agents), "--seed", std::to_string(spec.seed),
         "--batches", std::to_string(spec.batches_per_round),
         "--batch-size", std::to_string(spec.batch_size), "--lr", lr.str(),
         "--mbps", mbps.str(), "--scale", scales.str()},
        threads, {}));
    // Each worker gets its own `threads` CPUs when there are enough: left
    // to the scheduler, two pools migrating over shared cores make the
    // round time swing by a third from second to second.
    const bool pin = static_cast<int>(std::thread::hardware_concurrency()) >=
                     workers * threads;
    for (int w = 0; w < workers; ++w) {
      std::vector<int> cpus;
      for (int c = 0; pin && c < threads; ++c) cpus.push_back(w * threads + c);
      pids_.push_back(spawn(fleetd,
                            {"--worker", "--index", std::to_string(w),
                             "--connect", addr},
                            threads, cpus));
    }
    const auto t0 = Clock::now();
    client_ = std::make_unique<comdml::daemon::FleetClient>(addr, 30.0);
    connect_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
    // A client that connects while workers join is parked until the mesh
    // is up; one answered RPC means the first round can be issued.
    (void)client_->stats();
  } catch (...) {
    shutdown();
    throw;
  }
}

DaemonFleet::~DaemonFleet() { shutdown(); }

double DaemonFleet::peak_rss_mb() const {
  double peak = 0.0;
  for (const pid_t p : pids_) peak = std::max(peak, process_peak_rss_mb(p));
  return peak;
}

bool DaemonFleet::shutdown() {
  bool clean = true;
  const bool asked = client_ != nullptr;
  if (client_) {
    try {
      client_->shutdown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fleet shutdown RPC failed: %s\n",
                   e.what());
      clean = false;
    }
    client_.reset();
  }
  // Without a client nothing asked the daemons to stop: kill at once.
  const double grace = asked ? 10.0 : 0.0;
  for (const pid_t p : pids_) clean = reap(p, grace) && clean;
  pids_.clear();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  return clean;
}

}  // namespace perfbench
