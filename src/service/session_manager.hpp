// service::SessionManager — the multi-tenant session layer: many
// independent step engines multiplexed onto a shared pool of
// runtime::Devices (DESIGN.md, "Session layer & multi-tenancy").
//
// The ROADMAP's serving shape is thousands of small scenarios in flight,
// not one big N. The manager runs one host driver thread per pool device;
// a fair scheduler hands each driver the next runnable session, the
// driver claims it exclusively, installs a ScopedDevice and advances it
// by exactly one quantum (construction, or one step()). Sessions are not
// pinned: the runtime's bit-identity contract (results independent of
// worker count and schedule) makes device migration invisible, so any
// driver may pick up any runnable session.
//
// Scheduling is weighted round-robin over *measured* step cost: every
// quantum's wall seconds accumulate into the session's virtual time, and
// the scheduler picks the runnable session with the least virtual time
// (new sessions start at the current runnable minimum, so a late arrival
// cannot monopolize the pool). A starvation bound backs the weights: any
// session passed over for more than starvation_bound() consecutive
// scheduling decisions is force-picked, so
//   wait_max <= starvation_bound_max + submitted sessions
// holds as a hard invariant (asserted in tests/test_service.cpp).
//
// Isolation extends the PR 4 fault contract from launches to sessions: a
// session whose quantum throws (launch-body fault, arena OOM, bootstrap
// failure) is marked Failed with the error text, its device is drained
// and stays reusable, and every sibling keeps stepping — each survivor's
// final state is bit-identical to a solo run of the same scenario+seed
// (the service fuzz leg and the stress test assert this under
// FaultController / ArenaFaultGuard). Stalls only slow the stalled
// session down; the per-device drivers keep the rest of the pool moving.
//
// Quota: each session carries an optional arena quota. A quantum charges
// the session the arena-capacity *growth* it forced on its device(s);
// exceeding the quota fails that session (reject-on-exceed) instead of
// letting one runaway workload drive the shared pool toward a global
// OOM. Since arenas retain capacity, a session stepping entirely within
// capacity a predecessor already paid for charges nothing — the quota
// bounds each session's marginal footprint.
#pragma once

#include "nbody/simulation.hpp"
#include "scenario/registry.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gothic::service {

/// Shape of the shared device pool. `devices` is the driver/device count;
/// `workers` forwards to each runtime::Device constructor (0 = the
/// GOTHIC_THREADS default). Every device runs Device::kLanes stream
/// lanes.
struct PoolOptions {
  int devices = 1;
  int workers = 0;
};

enum class SessionState { Pending, Running, Completed, Failed };
[[nodiscard]] const char* session_state_name(SessionState s);

/// One tenant: a scenario-registry workload plus per-session knobs.
struct SessionConfig {
  /// Display / stream-prefix / flight-dump-tag name; submit() defaults it
  /// to "s<id>" when empty.
  std::string name;
  scenario::Scenario scenario;
  std::size_t n = 0;          ///< 0 = scenario.default_n
  std::uint64_t seed = 0;     ///< 0 = scenario.default_seed
  int steps = 8;              ///< quanta to completion
  /// Shard count K of the session's engine. K = 1 runs on whichever pool
  /// device steps the session (nbody::Simulation); K > 1 constructs K
  /// devices of its own, shaped like the pool's. The manager schedules,
  /// meters, quota-charges and fault-isolates both alike.
  int shards = 1;
  /// 0 = unlimited. Otherwise the session fails once the arena growth
  /// charged to it exceeds this many bytes (reject-on-exceed).
  std::size_t arena_quota_bytes = 0;
  /// Fixed rebuild cadence of the deterministic session config (the
  /// wall-clock-fed auto-tuner would break the solo bit-identity oracle).
  int rebuild_interval = 8;
  /// Per-session observability: non-empty paths attach a trace::Session
  /// (Perfetto trace / JSONL telemetry) for this session only.
  std::string trace_path;
  std::string telemetry_path;
  /// Checkpoint streaming: every `snapshot_every` steps the driver writes
  /// a binary snapshot to `snapshot_path` + final state on completion.
  int snapshot_every = 0;
  std::string snapshot_path;
};

/// Public view of one session (copied out under the manager lock).
struct SessionInfo {
  std::uint64_t id = 0;
  std::string name;
  std::string scenario;
  SessionState state = SessionState::Pending;
  int steps_done = 0;
  int steps_target = 0;
  double busy_seconds = 0.0;      ///< measured quantum cost, accumulated
  std::size_t quota_bytes = 0;
  std::size_t charged_bytes = 0;  ///< arena growth charged to the session
  std::uint64_t picks = 0;        ///< scheduling quanta granted
  std::uint64_t wait_max = 0;     ///< worst runnable-but-passed-over streak
  int last_device = -1;
  std::string error;              ///< non-empty iff state == Failed
};

/// Pool-level aggregates (one consistent snapshot under the lock).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t active = 0;       ///< submitted − terminal
  std::uint64_t steps_total = 0;
  std::uint64_t decisions = 0;    ///< scheduling decisions taken
  double busy_seconds_total = 0.0;
  double busy_seconds_max = 0.0;  ///< busiest single session
  std::size_t charged_high_water = 0; ///< largest per-session charge
  std::uint64_t wait_max = 0;
  std::uint64_t starvation_bound_max = 0; ///< largest bound ever enforced
};

/// The exact SimConfig a session runs under — also the solo-oracle
/// config: solo_final_state() and the pooled run share it, which is what
/// makes the bit-identity contract assertable.
[[nodiscard]] nbody::SimConfig session_sim_config(const SessionConfig& cfg);

/// Resolved workload of a session: scenario.make(n or default_n, seed or
/// default_seed).
[[nodiscard]] nbody::Particles session_workload(const SessionConfig& cfg);

/// Pack the integration state for exact (bitwise) comparison — the same
/// fields testkit::pack_state compares.
[[nodiscard]] std::vector<real> packed_state(const nbody::Particles& p);

/// Reference run of one session on a private device: the state every
/// pooled survivor must match bit-for-bit.
[[nodiscard]] std::vector<real> solo_final_state(const SessionConfig& cfg);

class SessionManager {
public:
  /// Scheduler aging constant: starvation_bound() =
  /// kStarvationSlack * active_sessions + kStarvationSlack.
  static constexpr std::uint64_t kStarvationSlack = 4;

  explicit SessionManager(PoolOptions opt = {});
  /// Stops the drivers (the quantum in flight completes) and joins them.
  /// Sessions still runnable are abandoned mid-state; call wait_all()
  /// first for a clean drain.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Enqueue a session; returns its id. Thread-safe.
  std::uint64_t submit(SessionConfig cfg);

  /// Block until every submitted session is terminal.
  void wait_all();
  /// Block until session `id` is terminal; returns its final state.
  SessionState wait(std::uint64_t id);

  [[nodiscard]] SessionInfo info(std::uint64_t id) const;
  [[nodiscard]] std::vector<SessionInfo> sessions() const;
  [[nodiscard]] ServiceStats stats() const;

  /// The starvation bound currently in force (depends on active count).
  [[nodiscard]] std::uint64_t starvation_bound() const;

  [[nodiscard]] int device_count() const;
  /// Pool device i — for tests installing schedule/fault controllers.
  /// Install only while the pool is idle (before submit / after
  /// wait_all), exactly like Device::set_schedule_controller requires.
  [[nodiscard]] runtime::Device& pool_device(int i);

  /// Packed final integration state of a *terminal* session that got far
  /// enough to own an engine; throws std::logic_error otherwise.
  [[nodiscard]] std::vector<real> final_state(std::uint64_t id) const;

  /// Fold a pool sample into a metrics registry (service footer gauges).
  void observe(trace::MetricsRegistry& m) const;

private:
  struct Session {
    std::uint64_t id = 0;
    SessionConfig cfg;
    SessionState state = SessionState::Pending;
    bool stepping = false; ///< claimed by a driver (exclusive ownership)
    int steps_done = 0;
    double vtime = 0.0;    ///< scheduler key: accumulated measured cost
    double busy_seconds = 0.0;
    std::size_t charged = 0;
    std::uint64_t wait = 0;
    std::uint64_t wait_max = 0;
    std::uint64_t picks = 0;
    int last_device = -1;
    std::string error;
    // Engine state: touched only by the claiming driver (the claim
    // handoff under the manager mutex provides the happens-before).
    std::unique_ptr<nbody::ShardedSimulation> sim;
    std::unique_ptr<trace::Session> observer;
  };

  /// What one quantum did; applied to the shared fields under the lock.
  struct Outcome {
    double seconds = 0.0;
    std::size_t charged_add = 0;
    int steps_add = 0;
    SessionState next = SessionState::Running;
    std::string error;
  };

  void driver(int device_index);
  [[nodiscard]] Session* pick_locked();
  [[nodiscard]] std::uint64_t starvation_bound_locked() const;
  Outcome advance(Session& s, runtime::Device& dev);
  void construct(Session& s);
  [[nodiscard]] std::size_t engine_capacity(const Session& s,
                                            runtime::Device& dev) const;
  void finish_observability(Session& s);
  [[nodiscard]] const Session& session_at(std::uint64_t id) const;
  [[nodiscard]] SessionInfo info_locked(const Session& s) const;

  PoolOptions opt_;
  std::vector<std::unique_ptr<runtime::Device>> devices_;
  std::vector<std::thread> drivers_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_; ///< drivers: a session became runnable
  std::condition_variable done_cv_; ///< waiters: a session went terminal
  std::vector<std::unique_ptr<Session>> sessions_;
  bool stopping_ = false;
  std::uint64_t decisions_ = 0;
  std::uint64_t wait_max_ = 0;
  std::uint64_t bound_max_ = 0;
};

} // namespace gothic::service
