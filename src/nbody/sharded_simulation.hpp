// The GOTHIC step engine: makeTree / calcNode / walkTree / predict+correct
// with block time steps and auto-tuned rebuild intervals — the system
// whose per-function times the paper measures (Figs 3-5) — run over K
// shards (DESIGN.md, "Step engine").
//
// Each shard owns a contiguous range of the SFC-sorted bodies (split at
// walk-group granularity, weighted by measured per-group walk cost) and
// a runtime::Device. Per step, every shard predicts its slice, summarises
// its owned tree nodes, imports the local essential tree each remote
// shard's MAC can reach, walks its own groups, and corrects its slice.
// One step loop serves every K through two rules:
//
//  1. A dependency on an event of the launching shard's own device stays
//     a device-side edge; only another device's event is waited for on
//     the host (the cross-shard joins at permute, top summarise and LET
//     import).
//  2. With one shard there is nothing to import: no LET bounds, no
//     letImport launch and no NaN-poisoned view. The walk reads the tree
//     and the predicted positions directly.
//
// K=1 therefore issues GOTHIC's single-device DAG: predict ∥ makeTree,
// calcNode, walkTree, correct, on streams "tree" and "integrate".
//
// Contract: results are bit-identical for any shard count, worker count,
// scheduler mode and schedule seed — every kernel computes exactly what
// its one-shard counterpart computes, only *where* it runs changes. The
// LET import set is conservative and everything outside it is
// NaN-poisoned, so an insufficiency would surface as NaN accelerations in
// the bit-identity oracle, never as a silently wrong force.
#pragma once

#include "gravity/let.hpp"
#include "gravity/walk_tree.hpp"
#include "nbody/block_steps.hpp"
#include "nbody/diagnostics.hpp"
#include "nbody/particles.hpp"
#include "nbody/rebuild_policy.hpp"
#include "octree/calc_node.hpp"
#include "octree/partition.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "trace/flight_recorder.hpp"
#include "util/timer.hpp"

#include <array>
#include <exception>
#include <memory>
#include <string>
#include <vector>

namespace gothic::nbody {

struct SimConfig {
  gravity::WalkConfig walk{};
  octree::BuildConfig build{};
  octree::CalcNodeConfig calc{};

  /// Time-step accuracy eta of dt = eta sqrt(eps/|a|).
  double eta = 0.25;
  /// Largest (level 0) block time step.
  double dt_max = 1.0 / 32.0;
  /// Depth of the block hierarchy (dt_min = dt_max/2^max_level).
  int max_level = 8;
  /// false = shared global time step (every particle fires every step).
  bool block_time_steps = true;

  /// true = GOTHIC's auto-tuned rebuild interval; false = fixed interval.
  bool auto_rebuild = true;
  int fixed_rebuild_interval = 8;
  RebuildPolicy::Config policy{};

  /// Name of the scenario-registry entry this configuration came from
  /// (src/scenario); empty for hand-built configs. A workload label only —
  /// carried into bench scale fingerprints and error messages, never read
  /// by the step loop — so nbody stays independent of the registry.
  std::string scenario;

  /// Prefix of this simulation's stream names: "tree"/"integrate" become
  /// "<prefix>tree"/"<prefix>integrate" (K > 1: "<prefix>shardK/tree").
  /// trace::TraceWriter keys Perfetto tracks by stream name, so a service
  /// pool running many simulations sets a per-session prefix ("s3/") and
  /// gets one clearly-labelled track group per session. Purely a label:
  /// stream *identity* (and thus lane mapping) is per-Stream-object
  /// either way.
  std::string stream_prefix;

  /// Set the simt scheduling mode of every kernel at once.
  void set_mode(simt::ExecMode mode) {
    walk.mode = mode;
    build.mode = mode;
    calc.mode = mode;
  }
};

/// Per-step record: what ran, how long it took (wall clock) and what it
/// executed (nvprof-style counts) — the raw material of every figure.
struct StepReport {
  double time = 0.0; ///< simulation time after the step
  double dt = 0.0;   ///< physical time advanced
  std::size_t n_active = 0;
  bool rebuilt = false;
  std::array<double, static_cast<std::size_t>(Kernel::Count)> seconds{};
  std::array<simt::OpCounts, static_cast<std::size_t>(Kernel::Count)> ops{};
  gravity::WalkStats walk_stats{};
  /// Span from the first launch body start to the last body end over
  /// every shard — the step's launch wall time under concurrent streams,
  /// equal to its StepMark's t_end - t_begin.
  double wall_seconds = 0.0;

  [[nodiscard]] double total_seconds() const {
    double s = 0;
    for (double v : seconds) s += v;
    return s;
  }

  /// Kernel seconds hidden by stream overlap this step (>= 0): the gap
  /// between sum-of-kernel-times and launch wall time.
  [[nodiscard]] double overlap_seconds() const {
    const double o = raw_overlap_seconds();
    return o > 0.0 ? o : 0.0;
  }

  /// The same gap, signed. It reads negative when the step's wall span
  /// exceeds its summed launch bodies: the dispatch time between dependent
  /// launches, which the clamped accessor hides and the metrics registry
  /// counts.
  [[nodiscard]] double raw_overlap_seconds() const {
    return total_seconds() - wall_seconds;
  }
};

/// Device shape of an engine with its own devices. `shards` is K;
/// `workers` is forwarded to each shard's runtime::Device constructor
/// (0 = the GOTHIC_THREADS default).
struct ShardOptions {
  int shards = 1;
  int workers = 0;
};

/// Cross-shard observability of the most recent step. A shard's busy
/// time is its summed launch-body seconds.
struct ShardStepStats {
  double busy_max = 0.0;
  double busy_mean = 0.0;
  /// LET cells / bodies imported this step (all shards, all sources).
  std::uint64_t let_cells_total = 0;
  std::uint64_t let_bodies_total = 0;

  /// Cross-shard busy-time imbalance: max/mean, 1 = perfect balance.
  [[nodiscard]] double imbalance() const {
    return busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
  }
};

/// The step engine over K shards, each on a device of its own (see
/// nbody::Simulation for one shard on the caller's device).
class ShardedSimulation {
public:
  /// Takes ownership of the particle set (any order), creates one device
  /// per shard and runs the initial build + bootstrap force evaluation
  /// (opening-angle MAC, since no previous-step acceleration exists yet
  /// for Eq. 2) on shard 0's device. The bootstrap walk's measured
  /// per-group costs seed the first partition.
  ShardedSimulation(Particles particles, SimConfig cfg, ShardOptions opt = {});
  ~ShardedSimulation();
  ShardedSimulation(ShardedSimulation&&) noexcept;
  ShardedSimulation& operator=(ShardedSimulation&&) noexcept;

  /// Advance one block step (or one shared step). Returns the report: the
  /// per-kernel sums of the step's launch records.
  StepReport step();
  void run(int n);

  /// Recompute forces/potentials of all particles at the current state
  /// (diagnostics; one whole-tree walk on shard 0's device with the
  /// acceleration MAC and current aold — the same for every K).
  void refresh_forces();

  [[nodiscard]] const Particles& particles() const { return particles_; }
  [[nodiscard]] Particles& particles() { return particles_; }
  [[nodiscard]] const octree::Octree& tree() const { return tree_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] double time() const { return steps_.time(); }
  [[nodiscard]] const RebuildPolicy& rebuild_policy() const { return policy_; }
  [[nodiscard]] int rebuild_count() const { return rebuilds_; }
  [[nodiscard]] int step_count() const { return step_count_; }
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }

  /// Shard s's device — for tests installing schedule/fault controllers
  /// and for gauges. A Simulation's one shard answers Device::current().
  [[nodiscard]] runtime::Device& shard_device(int s);
  /// Every shard's device in shard order: the devices a run's gauges sum
  /// over (trace::Session::finish).
  [[nodiscard]] std::vector<const runtime::Device*> devices() const;

  /// Shard s's instrumentation sink: its records span the most recent
  /// step() or refresh_forces(). Before the first of those it holds the
  /// constructor's records (the bootstrap build and force evaluation),
  /// which no listener received: a caller that wants them replays them.
  [[nodiscard]] const runtime::InstrumentationSink& sink(int s = 0) const;

  /// Cross-shard busy time and LET traffic of the most recent step().
  [[nodiscard]] const ShardStepStats& last_shard_stats() const {
    return last_stats_;
  }

  /// K+1 body boundaries of the current partition (SFC order).
  [[nodiscard]] const std::vector<index_t>& body_bounds() const {
    return body_bounds_;
  }
  /// K+1 walk-group boundaries of the current partition.
  [[nodiscard]] const std::vector<std::size_t>& group_bounds() const {
    return group_bounds_;
  }

  /// Attach (or detach, with nullptr) an observability hook (e.g.
  /// trace::Session). After each step's join, on the thread that called
  /// step(), `l` receives the step's LaunchRecords (shard by shard, each
  /// in issue order) and then one StepMark; refresh_forces() hands over
  /// its records the same way. Every shard stamps its records on the
  /// process clock, so K > 1 traces share one time axis. The listener
  /// must outlive its attachment; set only between steps. The flight
  /// recorder, when enabled, is fed beside it, first.
  void set_instrumentation_listener(runtime::RecordListener* l) {
    listener_ = l;
  }

  /// The GOTHIC_FLIGHT incident recorder; null when the env var is unset.
  /// Every error path (construction, step issue, step join,
  /// refresh_forces) feeds it the aborted phase's records, which no
  /// listener receives, and dumps it; callers may dump() on demand
  /// (gothic_run --flight-dump).
  [[nodiscard]] trace::FlightRecorder* flight_recorder() {
    return flight_.get();
  }

  [[nodiscard]] Energies energies() const {
    return compute_energies(particles_);
  }
  [[nodiscard]] Momenta momenta() const { return compute_momenta(particles_); }

protected:
  struct AmbientDevice {};
  /// One shard with no device of its own: every call launches on
  /// runtime::Device::current() (nbody::Simulation).
  ShardedSimulation(Particles particles, SimConfig cfg, AmbientDevice);

private:
  struct Shard;

  ShardedSimulation(Particles particles, SimConfig cfg, ShardOptions opt,
                    bool ambient);
  /// Rule 2: a shard imports local essential trees only when another
  /// shard exists.
  [[nodiscard]] bool imports() const { return shards_.size() > 1; }
  /// Issue the rebuild pair on shard 0's tree stream: a read-only
  /// makeTree build (overlaps the in-flight predicts) and a
  /// makeTree(permute) join behind every shard's predict. Returns the
  /// permute's event.
  runtime::Event launch_rebuild(bool with_pred);
  /// calcNode + walkTree over the whole tree on shard 0's device, into
  /// particles_.{ax,ay,az,pot}: the bootstrap force evaluation and
  /// refresh_forces().
  void whole_tree_forces(bool bootstrap);
  /// Recompute the partition (group/body boundaries, owned/top node
  /// ranges, per-shard cost slices and, with imports, views) from
  /// group_cost_. Called after every rebuild's permute join.
  void refresh_partition();
  /// Copy cell geometry / body positions into shard `sh`'s poisoned view
  /// (the body of the letImport launch, running on sh's device).
  void let_import(Shard& sh);
  /// Hand the sinks' records (then `mark`, if any) to the flight recorder
  /// and then the listener on the calling thread.
  void deliver(const runtime::StepMark* mark);
  /// Synchronize every shard's device, past a failing one, so no device
  /// is left running; returns the first error.
  std::exception_ptr join();
  /// The error path of every phase: drain every device, feed the sinks'
  /// records to the flight recorder alone (the listener never sees an
  /// aborted phase), dump it with `reason`, and rethrow `err`.
  [[noreturn]] void fail(std::exception_ptr err, const std::string& reason);

  Particles particles_;
  SimConfig cfg_;
  octree::Octree tree_;
  BlockTimeSteps steps_;
  RebuildPolicy policy_;
  int rebuilds_ = 0;
  int step_count_ = 0;
  int steps_since_rebuild_ = 0;

  // Scratch (predicted positions, fresh accelerations) — global arrays;
  // shards write disjoint slices / group slots.
  std::vector<real> px_, py_, pz_;
  std::vector<real> nax_, nay_, naz_, npot_;
  /// Rebuild scratch: the sort permutation handed from the build launch
  /// to the permute launch and the per-body costs it carries group_cost_
  /// through.
  std::vector<index_t> perm_;
  std::vector<double> body_cost_;

  /// Global walk-group decomposition (refreshed on rebuild; shards take
  /// contiguous sub-spans) and per-step activity flags.
  std::vector<gravity::GroupSpan> groups_;
  std::vector<std::uint8_t> group_active_;
  /// Measured per-group walk cost (deterministic interaction + MAC
  /// counts), recorded by each shard's walk straight into its slice. It
  /// is carried through every rebuild — scattered to bodies, permuted,
  /// summed per new group — so the shard cuts start from measured costs.
  std::vector<double> group_cost_;

  // Partition state (refreshed each rebuild).
  std::vector<index_t> body_bounds_;
  std::vector<std::size_t> group_bounds_;
  std::vector<octree::NodeRange> top_;
  std::vector<gravity::LetRange> top_leaf_;
  std::size_t top_count_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// The incident ring (GOTHIC_FLIGHT set) and the user's listener, fed in
  /// that order.
  std::unique_ptr<trace::FlightRecorder> flight_;
  runtime::RecordListener* listener_ = nullptr;
  ShardStepStats last_stats_;
};

} // namespace gothic::nbody
