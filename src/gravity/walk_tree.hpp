// walkTree: gravity by warp-cooperative breadth-first tree traversal —
// GOTHIC's dominant kernel (§1, Figs 3-4) and the subject of the paper's
// instruction-level analysis (§4.2).
//
// A warp owns 32 consecutive bodies of the Morton-sorted order. It builds
// a small interaction list shared by the 32 lanes (in shared memory on the
// device): each MAC-accepted node contributes its pseudo-particle; leaves
// that fail the MAC spill their bodies. When the list reaches capacity the
// warp computes the gravity of the listed sources on its 32 bodies and
// flushes (§1). MAC evaluations are dominated by integer work while the
// flush is dominated by FP32 work — alternating them is what gives the
// Volta INT/FP overlap its opportunity (§4.2).
#pragma once

#include "gravity/mac.hpp"
#include "octree/tree.hpp"
#include "simt/op_counter.hpp"
#include "simt/warp.hpp"

#include <span>
#include <vector>

namespace gothic::gravity {

/// Interaction law evaluated by the flush kernel. The traversal machinery
/// (group decomposition, frontier batching, list flushing, the work
/// queue, sharding) is shared; only the per-node acceptance test and the
/// per-pair kernel change — the seam exafmm's van-der-Waals traversal
/// demonstrates.
enum class ForceLaw : int {
  /// Plummer-softened monopole (optionally quadrupole) gravity, Eq. 1,
  /// with MAC-accepted pseudo-particles (MacParams decides acceptance).
  Gravity = 0,
  /// Truncated 12-6 Lennard-Jones over the same tree walk. There are no
  /// pseudo-particles: a node is *culled* when its whole subtree provably
  /// lies beyond the cutoff (deff > cutoff + bmax, the "cutoff MAC"),
  /// otherwise it is opened; reached leaves spill bodies and every pair is
  /// re-tested against the cutoff exactly, so culling only needs to be
  /// conservative. MacParams and use_quadrupole are ignored/rejected.
  LennardJones = 1,
};

[[nodiscard]] constexpr const char* force_law_name(ForceLaw law) {
  switch (law) {
    case ForceLaw::LennardJones: return "lj";
    case ForceLaw::Gravity: default: return "gravity";
  }
}

/// Lennard-Jones parameters (ForceLaw::LennardJones). Pair energy is
/// mass-weighted so Newton's third law holds for unequal masses:
///   U_ij = 4 eps_lj m_i m_j [ (sigma/r)^12 - (sigma/r)^6 ],  r <= cutoff
/// and the walk stores specific potentials pot_i = sum_j m_j 4 eps_lj
/// (s12 - s6), so nbody's W = 1/2 sum m_i pot_i convention is unchanged.
/// `cutoff` is an absolute distance (conventionally ~2.5 sigma).
struct LJParams {
  real sigma = real(1);
  real epsilon = real(1);
  real cutoff = real(2.5);
};

struct WalkConfig {
  /// Scheduling mode (§2.1); affects synchronisation counts only.
  simt::ExecMode mode = simt::ExecMode::Pascal;
  MacParams mac{};
  /// Plummer softening of Eq. 1.
  real eps = real(0.01);
  /// Gravitational constant (1 in simulation units).
  real g = real(1);
  /// Interaction-list entries per warp (sized from the shared-memory
  /// carve-out, §2.1; 128 float4 = 2 KiB per warp).
  int list_capacity = 128;
  /// Accumulate specific potentials alongside accelerations.
  bool compute_potential = true;
  /// Evaluate the quadrupole term of MAC-accepted pseudo-particles (the
  /// tree must have been built with CalcNodeConfig::compute_quadrupole).
  /// Raises per-interaction cost but lets a coarser dacc reach the same
  /// force accuracy (bench_ablation_quadrupole).
  bool use_quadrupole = false;
  /// Which pairwise law the flush kernel evaluates (see ForceLaw).
  ForceLaw law = ForceLaw::Gravity;
  /// Lennard-Jones parameters; read only when law == LennardJones.
  LJParams lj{};
};

/// Traversal statistics per walk (drives Figs 6-10 via the cost model).
struct WalkStats {
  std::uint64_t groups = 0;
  std::uint64_t mac_evals = 0;        ///< (group, node) MAC evaluations
  std::uint64_t nodes_opened = 0;     ///< rejected internal nodes
  std::uint64_t pseudo_appended = 0;  ///< accepted pseudo-particles
  std::uint64_t body_appended = 0;    ///< spilled leaf bodies
  std::uint64_t interactions = 0;     ///< (body, list entry) force pairs
  std::uint64_t flushes = 0;

  // Per-worker busy time of the walk's parallel region (timing only —
  // never feeds back into the numerics). `workers` counts every worker of
  // the executing context, including ones that claimed no group, so the
  // imbalance ratio penalizes idle workers.
  double worker_max_seconds = 0.0; ///< busiest worker's walk seconds
  double worker_sum_seconds = 0.0; ///< summed walk seconds over workers
  std::uint64_t workers = 0;       ///< context workers (accumulated)

  /// Load-imbalance ratio of the walk: max worker time / mean worker
  /// time. 1 is perfect balance; `nw` means one worker carried the whole
  /// walk while nw-1 idled. 0 when no timing was recorded.
  [[nodiscard]] double imbalance() const {
    if (workers == 0 || !(worker_sum_seconds > 0.0)) return 0.0;
    return worker_max_seconds /
           (worker_sum_seconds / static_cast<double>(workers));
  }

  WalkStats& operator+=(const WalkStats& o) {
    groups += o.groups;
    mac_evals += o.mac_evals;
    nodes_opened += o.nodes_opened;
    pseudo_appended += o.pseudo_appended;
    body_appended += o.body_appended;
    interactions += o.interactions;
    flushes += o.flushes;
    worker_max_seconds = worker_max_seconds > o.worker_max_seconds
                             ? worker_max_seconds
                             : o.worker_max_seconds;
    worker_sum_seconds += o.worker_sum_seconds;
    workers += o.workers;
    return *this;
  }
};

/// Compute accelerations (and optionally potentials) of all bodies.
/// Arrays are in tree (Morton-sorted) order; `aold_mag` holds |a_i| of the
/// previous step for the acceleration MAC (may be empty, in which case the
/// acceleration MAC degenerates to near-direct summation — callers
/// bootstrap with MacType::OpeningAngle instead).
/// A warp's body group: a contiguous run of tree-ordered bodies, at most
/// 32 long, derived from the tree leaves so groups stay spatially compact
/// (GOTHIC's tree-driven grouping; a plain 32-consecutive split would
/// produce huge bounding spheres in sparse regions and defeat the MAC).
struct GroupSpan {
  index_t first = 0;
  index_t count = 0;
};

/// The deterministic group decomposition walk_tree uses for `tree`:
/// leaf-seeded runs, merged up to a warp while spatially compact (every
/// merged leaf within one level of both the shallowest and the deepest
/// leaf already in the run, so a chain of merges cannot drift the run
/// across distant depths), and recursively split whenever the bounding
/// radius of a run exceeds `max_radius_fraction` of the root box edge
/// (sparse regions fall back to few-body groups; a huge group sphere would
/// force near-direct summation through the leaf-spill path). Callers that
/// pass `group_active` flags must index them against this decomposition.
/// Empty spans yield an empty decomposition; spans disagreeing with each
/// other or with the tree's body count throw std::invalid_argument.
[[nodiscard]] std::vector<GroupSpan> walk_groups(
    const octree::Octree& tree, std::span<const real> x,
    std::span<const real> y, std::span<const real> z,
    real max_radius_fraction = real(1.0 / 128.0));

/// Bounding radius of the body run [first, first+count) about its double-
/// precision centroid (returned through cx/cy/cz) — the sphere the
/// compactness rule of walk_groups certifies. The radius is computed in
/// double and rounded **up** to float (`std::nextafterf` toward +inf when
/// the cast rounded down), so the float sphere always covers every body of
/// the run: a round-to-nearest cast can shrink the radius by half an ulp,
/// letting the compactness rule certify a group slightly wider than its
/// bound and the MAC then judge cells against an undersized sphere.
[[nodiscard]] float group_bounding_radius(std::span<const real> x,
                                          std::span<const real> y,
                                          std::span<const real> z,
                                          index_t first, index_t count,
                                          double& cx, double& cy, double& cz);

/// `group_active`, when non-empty, holds one flag per walk group; the
/// walk skips inactive groups entirely (their outputs are untouched).
/// This is how the block time step (§1) reduces per-step gravity work:
/// only groups containing a particle due for correction are walked.
/// The flags must be sized to walk_groups(tree).size().
/// `groups`, when non-empty, supplies the decomposition to traverse
/// (callers with block-step activity flags compute it once per rebuild via
/// walk_groups); when empty it is derived internally from the positions.
/// `group_cost`, when non-empty, holds one slot per walk group: each
/// walked group records its measured cost (interactions + MAC
/// evaluations) into its slot, and inactive groups' slots are untouched.
/// The sharded engine cuts its shards on these costs
/// (octree::partition_weighted). Any size other than the group count
/// throws std::invalid_argument. The recording is race-free because each
/// group owns its slot exclusively.
///
/// The group loop runs on Device::parallel_dynamic (DESIGN.md "Load
/// balancing"): workers claim chunks of groups from one work queue, the
/// chunk sized from the *active* group count. Which worker walks which
/// group varies from run to run, but each group writes only its own
/// output slots and the per-worker tallies merge commutatively, so
/// results and op counts are bit-identical for any worker count.
void walk_tree(const octree::Octree& tree, std::span<const real> x,
               std::span<const real> y, std::span<const real> z,
               std::span<const real> m, std::span<const real> aold_mag,
               const WalkConfig& cfg, std::span<real> ax, std::span<real> ay,
               std::span<real> az, std::span<real> pot = {},
               simt::OpCounts* ops = nullptr, WalkStats* stats = nullptr,
               std::span<const std::uint8_t> group_active = {},
               std::span<const GroupSpan> groups = {},
               std::span<double> group_cost = {});

} // namespace gothic::gravity
