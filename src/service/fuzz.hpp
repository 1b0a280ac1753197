// Seeded fault sweeps over the session pool — the service leg of
// gothic_fuzz and the engine of the concurrent-session stress test.
//
// One run builds a SessionManager (pool shape from the seed), submits a
// mixed batch of scenario-registry sessions, injects one fault family —
// launch-body throws / lane stalls via testkit::FaultController on the
// pool devices, or process-wide arena OOM via testkit::ArenaFaultGuard —
// and asserts the isolation contract after wait_all():
//
//   * every session is terminal (the pool drained; nothing wedged),
//   * every failed session carries an error (injected fault / bad_alloc),
//   * stalls fail nobody,
//   * every *survivor's* final state is bit-identical to a solo run of
//     the same scenario+seed (references are computed before any fault
//     machinery is installed).
//
// Which session a device-level fault lands on is scheduler-dependent —
// deliberately so: the contract under test is that it does not matter.
// The seed alone reproduces the run (pool shape, batch, fault family and
// fault ids all derive from it).
#pragma once

#include "service/session_manager.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace gothic::service {

/// Workload shape of one seeded service run.
struct ServiceFuzzConfig {
  std::size_t n = 192;  ///< particles per session
  int steps = 4;        ///< steps per session
  int workers = 2;      ///< per-device workers
  int min_sessions = 4; ///< batch size range the seed picks from
  int max_sessions = 6;
};

/// Outcome of one seeded run against the isolation contract.
struct ServiceFaultOutcome {
  int devices = 1;
  int sessions = 0;
  const char* kind = ""; ///< "throw", "stall" or "arena-oom"
  int fired = 0;         ///< injected faults that actually hit
  std::size_t failed = 0;
  std::size_t completed = 0;
  std::string detail;    ///< contract violation (empty when ok)

  [[nodiscard]] bool ok() const { return detail.empty(); }
};

/// Drive one seed through the pool. The seed encodes device count,
/// session count, the per-session scenarios/seeds, the fault family and
/// the fault ids.
ServiceFaultOutcome run_service_fault(const ServiceFuzzConfig& cfg,
                                      std::uint64_t seed);

struct ServiceSweepReport {
  std::size_t runs = 0;
  std::size_t faulted_sessions = 0;
  std::size_t completed_sessions = 0;
  std::vector<std::string> failures; ///< one line per failing seed

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// N independent run_service_fault runs over consecutive seeds.
ServiceSweepReport sweep_service_faults(const ServiceFuzzConfig& cfg,
                                        std::uint64_t base_seed,
                                        std::size_t count);

} // namespace gothic::service
