// A fleetd coordinator plus workers on unix sockets, owned by one object.
//
// Every process is reaped on every exit path: the destructor asks the
// fleet to shut down, waits, then SIGKILLs and reaps stragglers and
// removes the socket directory; each child also dies with the benchmark
// (PR_SET_PDEATHSIG), so a killed benchmark leaves no daemon behind.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "daemon/fleetd.hpp"

namespace perfbench {

class DaemonFleet {
 public:
  /// Spawn `fleetd` (coordinator + `workers` workers with
  /// COMDML_NUM_THREADS=`threads`, each worker pinned to its own `threads`
  /// CPUs when the machine has enough) for `spec` under directory `dir`,
  /// then connect a client and wait until the fleet answers. Throws (after
  /// tearing down whatever started) when the fleet does not come up.
  DaemonFleet(const std::string& fleetd, const std::string& dir,
              const comdml::daemon::FleetSpec& spec, int workers,
              int threads);
  ~DaemonFleet();
  DaemonFleet(const DaemonFleet&) = delete;
  DaemonFleet& operator=(const DaemonFleet&) = delete;

  [[nodiscard]] comdml::daemon::FleetClient& client() { return *client_; }
  /// Seconds the FleetClient constructor took (connect + hello).
  [[nodiscard]] double connect_seconds() const noexcept {
    return connect_s_;
  }
  /// Largest peak resident set (VmHWM) of the daemon processes, MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Shut the fleet down and reap every process; idempotent. Returns true
  /// when every daemon exited with status 0 on its own.
  bool shutdown();

 private:
  std::string dir_;
  std::vector<pid_t> pids_;
  std::unique_ptr<comdml::daemon::FleetClient> client_;
  double connect_s_ = 0.0;
};

/// Peak resident set (VmHWM) of a live process, MiB; 0 if unreadable.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

}  // namespace perfbench
