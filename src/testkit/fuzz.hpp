// Schedule-fuzz and fault-sweep drivers over the step engine.
//
// One controlled run executes a deterministic workload (fixed particle
// cloud, fixed rebuild cadence) on a fresh async Device driven by a
// schedule controller, and compares the final particle state bit-for-bit
// against the synchronous (GOTHIC_ASYNC=0 semantics) reference run of the
// identical workload. Two sweep strategies share that runner:
//
//  * sweep_seeds — N independent SeededSchedule runs; any failure is
//    reproducible from the failing 64-bit seed alone (replay_seed).
//  * enumerate_schedules — depth-first exhaustion of the schedule tree via
//    ScriptedSchedule::next_path; every run is a distinct interleaving, so
//    the distinct-signature count lower-bounds the coverage directly.
//
// sweep_faults drives randomized FaultPlans (launch-body exceptions and
// lane stalls) through a small cross-stream launch DAG on a raw Device,
// asserting the error contract per plan: exactly one first-wins error, and
// a reusable device afterwards.
//
// Shared by tests/test_testkit.cpp and the tools/gothic_fuzz driver.
#pragma once

#include "nbody/simulation.hpp"
#include "scenario/registry.hpp"
#include "testkit/fault.hpp"
#include "testkit/schedule.hpp"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace gothic::testkit {

/// Workload of the fuzz legs; a seed replays only under the same values.
/// Every device the legs build runs Device::kLanes stream lanes, whatever
/// `workers` is.
struct FuzzConfig {
  std::size_t n = 192;      ///< particles of the fuzz workload
  int steps = 10;           ///< steps per controlled run
  int workers = 2;          ///< device worker pool
  int rebuild_interval = 1; ///< fixed rebuild cadence (1 = every step)
  std::uint64_t workload_seed = 7; ///< particle-cloud seed
};

/// Deterministic uniform cloud (equal masses), the fuzz workload.
nbody::Particles fuzz_cloud(std::size_t n, std::uint64_t seed);
/// Deterministic step configuration: fixed cadence, shared global steps.
nbody::SimConfig fuzz_sim_config(int rebuild_interval);
/// Pack the integration state for exact (bitwise) comparison.
std::vector<real> pack_state(const nbody::Particles& p);

/// Run cfg.steps steps of the fuzz workload on a fresh device and return
/// the packed final state. `async` false with a null controller is the
/// synchronous reference; `async` true runs the stream scheduler under
/// `controller` (may be null for a free-running async run).
std::vector<real> run_controlled(const FuzzConfig& cfg, bool async,
                                 runtime::ScheduleController* controller);

/// Outcome of one controlled schedule run.
struct RunOutcome {
  std::string signature;
  std::size_t decision_points = 0;
  bool bit_identical = false;
  std::vector<std::string> violations;
};

/// Replay one seed against a reference state (from run_controlled(cfg,
/// false, nullptr)). Deterministic: equal seeds yield equal signatures.
/// The seed is the whole replay token: it drives the SeededSchedule
/// controller, and bit 4 pins the SIMD substrate, so sweeps cross-check
/// the AVX2 and scalar paths against one reference (a no-op on hosts
/// without AVX2).
RunOutcome replay_seed(const FuzzConfig& cfg, std::uint64_t seed,
                       const std::vector<real>& reference);

/// Aggregate of a schedule sweep.
struct SweepReport {
  std::size_t runs = 0;
  std::set<std::string> signatures; ///< distinct interleavings executed
  std::size_t decision_points_total = 0;
  std::vector<std::uint64_t> failing_seeds; ///< seeded sweeps only
  std::vector<std::string> failures; ///< one line per failing run

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

SweepReport sweep_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                        std::size_t count);
SweepReport enumerate_schedules(const FuzzConfig& cfg, std::size_t max_runs);

/// Launches of the fixed fault DAG run_fault_plan issues (ids 1..k, two
/// cross-dependent streams). FaultPlans should target ids in this range;
/// the post-fault reuse launch takes the next id.
inline constexpr std::uint64_t kFaultLaunches = 8;

/// "0x%016x" rendering of a seed — the replay token sweeps print.
std::string hex_seed(std::uint64_t seed);

/// Outcome of one fault plan against the error contract.
struct FaultOutcome {
  int injected_throws = 0;
  int injected_stalls = 0;
  bool error_thrown = false;    ///< synchronize raised an InjectedFault
  bool single_error = false;    ///< the next synchronize was clean
  bool device_reusable = false; ///< a post-fault launch ran to completion
  bool bodies_consistent = false; ///< non-faulted bodies all executed
  std::string detail;           ///< failure description (empty when ok)

  [[nodiscard]] bool ok() const { return detail.empty(); }
};

/// Drive one plan through a fixed cross-stream launch DAG on a raw device.
FaultOutcome run_fault_plan(const FuzzConfig& cfg, const FaultPlan& plan);

/// Randomized fault plans (throw-only, stall-only, and mixed) derived from
/// `base_seed`.
struct FaultSweepReport {
  std::size_t plans = 0;
  std::size_t with_throws = 0;
  std::size_t with_stalls = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

FaultSweepReport sweep_faults(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count);

// --- Sharded pipeline sweeps ----------------------------------------------

/// Outcome of one sharded controlled run against the one-shard
/// synchronous reference.
struct ShardRunOutcome {
  int shards = 1;
  bool async = false;
  std::string signature; ///< per-shard schedule signatures, '|'-joined
  std::size_t decision_points = 0;
  bool bit_identical = false;
  std::vector<std::string> violations;
};

/// Run the fuzz workload through the step engine. The seed is the full
/// replay token: async mode from (seed >> 2) & 1, shard count K in
/// {1, 2, 4} from (seed >> 3) % 3, the SIMD substrate from (seed >> 5) & 1,
/// and one SeededSchedule stream controller per shard device derived from
/// (seed, shard). Bits 0-1 are unused; the other fields keep their bits
/// so every printed seed keeps decoding to the same run. Compares
/// bit-for-bit against `reference` (from run_controlled(cfg, false,
/// nullptr) — the unsharded synchronous run).
ShardRunOutcome run_sharded(const FuzzConfig& cfg, std::uint64_t seed,
                            const std::vector<real>& reference);

/// N independent run_sharded runs; failures are reproducible from the
/// failing seed alone.
SweepReport sweep_shard_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count);

// --- Scenario-registry sweeps ---------------------------------------------

/// A scenario's SimConfig with the fuzz determinism constraints re-pinned
/// on top (shared steps, fixed dt and rebuild cadence): the scenario picks
/// the force law and accuracy, the fuzzer keeps the launch DAG identical
/// across runs so stream schedules stay the only degree of freedom.
nbody::SimConfig scenario_fuzz_config(const scenario::Scenario& sc,
                                      int rebuild_interval);

/// Synchronous unsharded reference state of a scenario's fuzz workload
/// (sc.make(cfg.n, cfg.workload_seed), cfg.steps steps).
std::vector<real> scenario_reference(const FuzzConfig& cfg,
                                     const scenario::Scenario& sc);

/// Outcome of one scenario-parameterized controlled run.
struct ScenarioRunOutcome : ShardRunOutcome {
  std::string scenario; ///< registry entry the seed selected
};

/// One scenario leg: the seed is the full replay token — the *scenario*
/// comes from scenario::scenario_from_seed(seed) (hashed, so consecutive
/// seeds land on different registry entries) and the async/shard-count/
/// SIMD bits follow run_sharded's encoding. Compares the
/// final state bit-for-bit against `reference` (scenario_reference of the
/// same scenario); a printed seed therefore reproduces workload (ICs +
/// force law) and schedule together.
ScenarioRunOutcome run_scenario(const FuzzConfig& cfg, std::uint64_t seed,
                                const std::vector<real>& reference);

/// Replay one scenario seed, computing its own reference (the repro entry
/// point of gothic_fuzz --replay-scenario).
ScenarioRunOutcome replay_scenario_seed(const FuzzConfig& cfg,
                                        std::uint64_t seed);

/// N independent run_scenario runs; synchronous references are computed
/// once per distinct scenario hit by the seed range.
SweepReport sweep_scenario_seeds(const FuzzConfig& cfg,
                                 std::uint64_t base_seed, std::size_t count);

/// Outcome of one fault plan injected into one shard of a sharded step.
struct ShardFaultOutcome {
  int shards = 0;
  int target_shard = 0;
  int injected_throws = 0;
  bool error_thrown = false;     ///< step() raised an InjectedFault
  bool devices_reusable = false; ///< every shard device ran post-fault work
  std::string detail;            ///< failure description (empty when ok)

  [[nodiscard]] bool ok() const { return detail.empty(); }
};

/// Build a sharded simulation (K in {2, 3, 4} from the seed; shard devices
/// follow the GOTHIC_ASYNC environment), inject a launch-body throw into
/// one shard's device mid-step, and assert the isolation contract: step()
/// surfaces the injected fault exactly when it fired, and *every* shard
/// device — including the faulted one — accepts and completes new work
/// afterwards (one shard's failure must not poison the others).
ShardFaultOutcome run_shard_fault(const FuzzConfig& cfg, std::uint64_t seed);

FaultSweepReport sweep_shard_faults(const FuzzConfig& cfg,
                                    std::uint64_t base_seed,
                                    std::size_t count);

} // namespace gothic::testkit
