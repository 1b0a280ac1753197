// Shared machinery of the figure/table benches: run the GOTHIC pipeline on
// the M31 workload, collect per-step nvprof-style counts, and convert them
// to predicted per-step times on each GPU descriptor.
//
// Problem sizes default to laptop scale (the paper uses N = 2^23 on a
// Tesla V100; a two-core container profiles N = 2^14 with identical
// per-step *shapes*) and are overridable:
//   GOTHIC_BENCH_N          particle count (suffix k/m allowed)
//   GOTHIC_BENCH_STEPS      measured steps per configuration
//   GOTHIC_BENCH_DACC_MIN   most accurate dacc exponent (default 16 => 2^-16)
#pragma once

#include "galaxy/m31.hpp"
#include "gravity/walk_tree.hpp"
#include "nbody/simulation.hpp"
#include "perfmodel/exec_model.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "perfmodel/tuning.hpp"
#include "util/table.hpp"

#include <vector>

namespace gothic::bench {

/// Bench-wide defaults (env-overridable).
struct BenchScale {
  std::size_t n;        ///< particles
  int steps;            ///< measured steps per configuration
  int dacc_min_exp;     ///< sweep reaches 2^-dacc_min_exp
  int threads;          ///< runtime::Device workers (GOTHIC_THREADS override)
  bool simd;            ///< AVX2 lane substrate in effect (GOTHIC_SIMD)
  static BenchScale from_env();
};

/// The per-step execution profile of one configuration, measured in
/// Volta-mode counts (Pascal-mode counts = same arithmetic with the
/// synchronisation fields cleared, as verified by the test suite).
struct StepProfile {
  std::size_t n = 0;
  double dacc = 0.0;
  simt::OpCounts walk, calc, make_raw, pred; ///< per step; make_raw = one rebuild
  gravity::WalkStats walk_stats;
  double rebuild_interval = 8.0; ///< modelled steps between rebuilds

  /// Measured host-side launch timing of the profiled steps (per-step
  /// averages): the sum of kernel body seconds vs the first-start-to-
  /// last-end wall span of the step's launch DAG. Their gap is the overlap
  /// the asynchronous stream scheduler achieved on this machine.
  double measured_kernel_seconds = 0.0;
  double measured_wall_seconds = 0.0;

  /// make amortised over the rebuild interval.
  [[nodiscard]] simt::OpCounts make_amortized() const;

  /// Kernel seconds hidden by concurrent streams per step (>= 0).
  [[nodiscard]] double measured_overlap_seconds() const {
    const double o = measured_raw_overlap_seconds();
    return o > 0.0 ? o : 0.0;
  }

  /// The same gap, signed; a negative value is the dispatch time between
  /// dependent launches, which the clamped accessor hides (counted by
  /// trace::MetricsRegistry).
  [[nodiscard]] double measured_raw_overlap_seconds() const {
    return measured_kernel_seconds - measured_wall_seconds;
  }
};

/// The M31 realisation used by every bench (deterministic seed).
nbody::Particles m31_workload(std::size_t n);

/// Profile `steps` GOTHIC steps at the given accuracy on `init`
/// (copied internally). Counts are per step, measured in Volta mode.
/// A non-null `listener` (e.g. a trace::Session) observes every launch
/// and step of the internal Simulation, warm-up step included.
StepProfile profile_step(const nbody::Particles& init, double dacc,
                         int steps, int list_capacity = 128,
                         runtime::RecordListener* listener = nullptr);

/// Strip the synchronisation events: the Pascal-mode view of a profile.
simt::OpCounts pascal_view(const simt::OpCounts& volta_counts);

/// Predicted per-step kernel times on one GPU.
struct GpuStepTime {
  double walk = 0, calc = 0, make = 0, pred = 0;
  [[nodiscard]] double total() const { return walk + calc + make + pred; }
};

/// `volta_mode` selects whether the sync-bearing counts are used (only
/// meaningful on the Volta descriptor; pre-Volta GPUs always take the
/// Pascal view).
GpuStepTime predict_step_time(const StepProfile& p,
                              const perfmodel::GpuSpec& gpu,
                              bool volta_mode);

/// Measured host-side walkTree comparison of the two warp substrates:
/// the same workload walked with GOTHIC_SIMD off then on, forces and op
/// tallies cross-checked bit-for-bit (DESIGN.md "SIMD substrate"). This
/// is a *host* measurement — the perf-model predictions elsewhere in the
/// benches are substrate-independent by construction (identical counts).
struct SimdWalkSpeedup {
  bool simd_available = false;    ///< AVX2 compiled in and supported
  double scalar_seconds = 0.0;    ///< walk seconds, scalar substrate
  double simd_seconds = 0.0;      ///< walk seconds, AVX2 substrate
  bool ops_identical = false;     ///< OpCounts equal between the paths
  bool forces_identical = false;  ///< accelerations bit-equal
  [[nodiscard]] double speedup() const {
    return simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 0.0;
  }
};

/// Walk the workload `steps` times under each substrate (opening-angle
/// MAC, fiducial softening) and return the timed comparison.
SimdWalkSpeedup measure_simd_walk_speedup(const nbody::Particles& init,
                                          int steps);

/// The dacc sweep grid of Figs 1-2 and 4-10: 2^-1 .. 2^-dacc_min_exp.
std::vector<double> dacc_sweep(int min_exp, int stride = 1);

/// Paper-style dacc label ("2^-9").
std::string dacc_label(double dacc);

} // namespace gothic::bench
