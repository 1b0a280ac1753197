// walkTree correctness: tree forces against the double-precision direct
// reference, MAC accuracy ordering, and mode accounting.
#include "gravity/direct.hpp"
#include "gravity/walk_tree.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace gothic::gravity {
namespace {

using octree::BuildConfig;
using octree::build_tree;
using octree::calc_node;
using octree::Octree;

struct System {
  std::vector<real> x, y, z, m;
  Octree tree;

  void build() {
    std::vector<index_t> perm;
    build_tree(x, y, z, tree, perm, BuildConfig{});
    auto apply = [&perm](std::vector<real>& v) {
      std::vector<real> out(v.size());
      octree::gather(v, perm, out);
      v = std::move(out);
    };
    apply(x);
    apply(y);
    apply(z);
    apply(m);
    calc_node(tree, x, y, z, m);
  }

  [[nodiscard]] std::size_t n() const { return x.size(); }
};

/// Plummer sphere — centrally concentrated like real stellar systems, so
/// the tree is deep where it matters.
System plummer(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  System s;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(1e-6, 0.999);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    double ux, uy, uz;
    rng.unit_vector(ux, uy, uz);
    s.x[i] = static_cast<real>(r * ux);
    s.y[i] = static_cast<real>(r * uy);
    s.z[i] = static_cast<real>(r * uz);
  }
  return s;
}

struct ForceResult {
  std::vector<real> ax, ay, az, pot;
};

ForceResult run_walk(System& s, const WalkConfig& cfg,
                     std::span<const real> aold = {},
                     simt::OpCounts* ops = nullptr,
                     WalkStats* stats = nullptr) {
  ForceResult r;
  r.ax.resize(s.n());
  r.ay.resize(s.n());
  r.az.resize(s.n());
  r.pot.resize(s.n());
  walk_tree(s.tree, s.x, s.y, s.z, s.m, aold, cfg, r.ax, r.ay, r.az, r.pot,
            ops, stats);
  return r;
}

/// Median relative force error against the double-precision direct sum.
double median_force_error(const System& s, const ForceResult& r,
                          double eps) {
  const std::size_t n = s.n();
  std::vector<double> ax(n), ay(n), az(n);
  direct_forces_ref(s.x, s.y, s.z, s.m, eps, 1.0, ax, ay, az);
  std::vector<double> err(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = r.ax[i] - ax[i];
    const double dy = r.ay[i] - ay[i];
    const double dz = r.az[i] - az[i];
    const double ref = std::sqrt(ax[i] * ax[i] + ay[i] * ay[i] + az[i] * az[i]);
    err[i] = std::sqrt(dx * dx + dy * dy + dz * dz) / std::max(ref, 1e-12);
  }
  std::nth_element(err.begin(), err.begin() + static_cast<long>(n / 2),
                   err.end());
  return err[n / 2];
}

constexpr real kEps = real(0.03);

/// Every OpCounts field, then the WalkStats counters groups, mac_evals,
/// nodes_opened, pseudo_appended, body_appended, interactions, flushes.
using Tallies = std::array<std::uint64_t, 20>;

Tallies tallies_of(const simt::OpCounts& o, const WalkStats& st) {
  return {o.int_ops,       o.fp32_fma,         o.fp32_mul,
          o.fp32_add,      o.fp32_special,     o.bytes_load,
          o.bytes_store,   o.syncwarp,         o.tile_sync,
          o.block_sync,    o.global_barrier,   o.shfl,
          o.ballot,        st.groups,          st.mac_evals,
          st.nodes_opened, st.pseudo_appended, st.body_appended,
          st.interactions, st.flushes};
}

/// Quiet-NaN node geometry, the way a shard view poisons what its walk
/// may not read. The root's eight children (one run of consecutive
/// siblings: the first eight lanes of every group's second frontier,
/// which the 8-wide MAC sweep loads as one vector) lose com and bmax, and
/// every seventh deeper node loses one of com_x, com_y, com_z, bmax in
/// turn (lanes the sweep gathers). Both packs must open or spill a
/// poisoned node, never accept or cull it. Returns whether the run of
/// eight was poisoned.
bool poison_geometry(Octree& tree) {
  const real qnan = std::numeric_limits<real>::quiet_NaN();
  const bool run = tree.child_count[0] == 8;
  if (run) {
    for (index_t c = tree.child_first[0]; c < tree.child_first[0] + 8; ++c) {
      tree.com_x[c] = tree.com_y[c] = tree.com_z[c] = tree.bmax[c] = qnan;
    }
  }
  std::vector<real>* const fields[] = {&tree.com_x, &tree.com_y,
                                       &tree.com_z, &tree.bmax};
  for (index_t node = 9; node < tree.num_nodes(); node += 7) {
    (*fields[(node / 7) % 4])[node] = qnan;
  }
  return run;
}

TEST(WalkTree, OpeningAngleMatchesDirectToMacAccuracy) {
  System s = plummer(4096, 1);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = real(0.5);
  const ForceResult r = run_walk(s, cfg);
  EXPECT_LT(median_force_error(s, r, kEps), 2e-3);
}

TEST(WalkTree, AccelerationMacMatchesDirect) {
  System s = plummer(4096, 2);
  s.build();
  // Bootstrap |a| with an opening-angle walk, as the Simulation driver does.
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  boot.mac.theta = real(0.8);
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::Acceleration;
  cfg.mac.dacc = real(1.0 / 512); // the paper's fiducial 2^-9
  const ForceResult r = run_walk(s, cfg, amag);
  EXPECT_LT(median_force_error(s, r, kEps), 2e-3);
}

TEST(WalkTree, ErrorDecreasesWithDacc) {
  System s = plummer(4096, 3);
  s.build();
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  double prev = 1e9;
  for (const double dacc : {0.5, 1.0 / 32, 1.0 / 512, 1.0 / 8192}) {
    WalkConfig cfg;
    cfg.eps = kEps;
    cfg.mac.dacc = static_cast<real>(dacc);
    const ForceResult r = run_walk(s, cfg, amag);
    const double err = median_force_error(s, r, kEps);
    EXPECT_LT(err, prev * 1.5) << "dacc=" << dacc; // no error regression
    prev = err;
  }
  EXPECT_LT(prev, 5e-4); // the tightest setting is nearly exact
}

TEST(WalkTree, InteractionsGrowAsDaccShrinks) {
  System s = plummer(8192, 4);
  s.build();
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  std::uint64_t prev = 0;
  for (const double dacc : {0.5, 1.0 / 512, 1.0 / 65536}) {
    WalkConfig cfg;
    cfg.eps = kEps;
    cfg.mac.dacc = static_cast<real>(dacc);
    WalkStats stats;
    (void)run_walk(s, cfg, amag, nullptr, &stats);
    EXPECT_GT(stats.interactions, prev);
    prev = stats.interactions;
  }
  // The tightest walk still does far fewer interactions than direct N^2.
  EXPECT_LT(prev, static_cast<std::uint64_t>(s.n()) * s.n());
}

TEST(WalkTree, PotentialMatchesDirectReference) {
  System s = plummer(2048, 5);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = real(0.4);
  const ForceResult r = run_walk(s, cfg);
  std::vector<double> ax(s.n()), ay(s.n()), az(s.n()), pot(s.n());
  direct_forces_ref(s.x, s.y, s.z, s.m, kEps, 1.0, ax, ay, az, pot);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < s.n(); ++i) {
    num += std::fabs(r.pot[i] - pot[i]);
    den += std::fabs(pot[i]);
  }
  EXPECT_LT(num / den, 2e-3);
}

TEST(WalkTree, TotalMomentumNearlyConserved) {
  // Newton's third law holds exactly for direct; the tree walk breaks
  // pairwise symmetry only at MAC level.
  System s = plummer(4096, 6);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = real(0.5);
  const ForceResult r = run_walk(s, cfg);
  double fx = 0, fy = 0, fz = 0, fnorm = 0;
  for (std::size_t i = 0; i < s.n(); ++i) {
    fx += s.m[i] * r.ax[i];
    fy += s.m[i] * r.ay[i];
    fz += s.m[i] * r.az[i];
    fnorm += s.m[i] * std::sqrt(r.ax[i] * r.ax[i] + r.ay[i] * r.ay[i] +
                                r.az[i] * r.az[i]);
  }
  const double drift = std::sqrt(fx * fx + fy * fy + fz * fz) / fnorm;
  EXPECT_LT(drift, 1e-2);
}

TEST(WalkTree, GadgetMacNeedsMoreInteractionsForSameError) {
  // The acceleration MAC reaches a given accuracy with fewer interactions
  // than the cell-edge (Gadget-style) variant — the advantage [14, 18]
  // report and §1 cites.
  System s = plummer(8192, 7);
  s.build();
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }

  WalkConfig acc;
  acc.eps = kEps;
  acc.mac.type = MacType::Acceleration;
  acc.mac.dacc = real(1.0 / 512);
  WalkStats acc_stats;
  const ForceResult ra = run_walk(s, acc, amag, nullptr, &acc_stats);
  const double err_acc = median_force_error(s, ra, kEps);

  WalkConfig gad = acc;
  gad.mac.type = MacType::Gadget;
  WalkStats gad_stats;
  const ForceResult rg = run_walk(s, gad, amag, nullptr, &gad_stats);
  const double err_gad = median_force_error(s, rg, kEps);

  // Same parameter: the cell edge over-estimates the group size, so the
  // Gadget variant is at least as accurate but strictly more expensive.
  EXPECT_LE(err_gad, err_acc * 1.5);
  EXPECT_GT(gad_stats.interactions, acc_stats.interactions);
}

TEST(WalkTree, VoltaModeCountsSyncsOnly) {
  System s = plummer(4096, 8);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  simt::OpCounts pascal, volta;
  cfg.mode = simt::ExecMode::Pascal;
  (void)run_walk(s, cfg, {}, &pascal);
  cfg.mode = simt::ExecMode::Volta;
  (void)run_walk(s, cfg, {}, &volta);
  EXPECT_EQ(pascal.syncwarp, 0u);
  EXPECT_GT(volta.syncwarp, 0u);
  EXPECT_EQ(pascal.fp32_fma, volta.fp32_fma);
  EXPECT_EQ(pascal.fp32_mul, volta.fp32_mul);
  EXPECT_EQ(pascal.int_ops, volta.int_ops);
}

TEST(WalkTree, StatsAreInternallyConsistent) {
  System s = plummer(4096, 9);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  WalkStats stats;
  simt::OpCounts ops;
  (void)run_walk(s, cfg, {}, &ops, &stats);
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);
  EXPECT_EQ(stats.groups, groups.size());
  // Tree-derived groups cover every body exactly once.
  std::size_t covered = 0;
  for (const GroupSpan& g : groups) {
    EXPECT_LE(g.count, static_cast<index_t>(kWarpSize));
    covered += g.count;
  }
  EXPECT_EQ(covered, s.n());
  // Every appended source is consumed by at least one interaction row.
  EXPECT_EQ(stats.interactions % 1, 0u);
  EXPECT_GT(stats.mac_evals, 0u);
  EXPECT_GT(stats.pseudo_appended, 0u);
  EXPECT_GT(stats.body_appended, 0u);
  // Interactions = sum over flushes of gn * list_size <= gn * appended.
  EXPECT_LE(stats.interactions,
            (stats.pseudo_appended + stats.body_appended) * kWarpSize);
  // The FP32 FMA count is dominated by pairs * kPairFma.
  EXPECT_GE(ops.fp32_fma, stats.interactions * 6);
}

TEST(WalkTree, ListCapacitySweepsAreEquivalent) {
  System s = plummer(2048, 10);
  s.build();
  WalkConfig a;
  a.eps = kEps;
  a.mac.type = MacType::OpeningAngle;
  a.list_capacity = 64;
  WalkConfig b = a;
  b.list_capacity = 512;
  WalkStats sa, sb;
  const ForceResult ra = run_walk(s, a, {}, nullptr, &sa);
  const ForceResult rb = run_walk(s, b, {}, nullptr, &sb);
  // Same interactions, different flush granularity.
  EXPECT_EQ(sa.interactions, sb.interactions);
  EXPECT_GT(sa.flushes, sb.flushes);
  for (std::size_t i = 0; i < s.n(); i += 97) {
    EXPECT_NEAR(ra.ax[i], rb.ax[i], 1e-4 * (std::fabs(ra.ax[i]) + 1e-3));
  }
}

TEST(WalkTree, EmptyAoldDegeneratesToNearDirect) {
  System s = plummer(512, 11);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::Acceleration;
  WalkStats stats;
  const ForceResult r = run_walk(s, cfg, {}, nullptr, &stats);
  // amin = 0 rejects every node with a non-zero size; only single-body
  // leaves (bmax = 0, exact as pseudo-particles) can be accepted, so the
  // result is accurate to FP32 round-off.
  EXPECT_LT(stats.pseudo_appended, stats.body_appended);
  EXPECT_LT(median_force_error(s, r, kEps), 1e-4);
}

TEST(WalkTree, RejectsNonPositiveEps) {
  System s = plummer(256, 13);
  s.build();
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  for (const real eps :
       {real(0), real(-1), std::numeric_limits<real>::quiet_NaN()}) {
    WalkConfig cfg;
    cfg.eps = eps;
    EXPECT_THROW(walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az),
                 std::invalid_argument)
        << "eps = " << eps;
  }
}

// The walk's one schedule, the work queue, hands groups to whichever
// worker frees up; nothing it computes may depend on the worker count
// or on how few groups are active.
TEST(WalkTree, SchedulesAreBitIdenticalAcrossWorkerCounts) {
  System s = plummer(4096, 14);
  s.build();
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);

  // Rank bodies by |a| from an opening-angle walk, as bench_balance does:
  // the most strongly accelerated fire most often under block time
  // steps, so the active set clusters in the dense bulk.
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  std::vector<std::size_t> by_amag(s.n());
  std::iota(by_amag.begin(), by_amag.end(), std::size_t{0});
  std::sort(by_amag.begin(), by_amag.end(),
            [&](std::size_t i, std::size_t j) { return amag[i] > amag[j]; });

  WalkConfig cfg;
  cfg.eps = kEps;
  constexpr double kUntouched = -1.0;
  struct Run {
    ForceResult f;
    simt::OpCounts ops;
    WalkStats stats;
    std::vector<double> cost;
  };
  auto run = [&](int workers, std::span<const std::uint8_t> active) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    Run r;
    for (auto* v : {&r.f.ax, &r.f.ay, &r.f.az, &r.f.pot}) {
      v->assign(s.n(), real(0));
    }
    r.cost.assign(groups.size(), kUntouched);
    walk_tree(s.tree, s.x, s.y, s.z, s.m, amag, cfg, r.f.ax, r.f.ay, r.f.az,
              r.f.pot, &r.ops, &r.stats, active, groups, r.cost);
    return r;
  };

  for (const double frac : {1.0, 0.2, 0.05}) {
    std::vector<std::uint8_t> body_active(s.n(), 0);
    const auto n_active = static_cast<std::size_t>(frac * s.n());
    for (std::size_t i = 0; i < n_active; ++i) body_active[by_amag[i]] = 1;
    std::vector<std::uint8_t> active(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t lo = groups[g].first;
      for (std::size_t i = lo; i < lo + groups[g].count; ++i) {
        active[g] = static_cast<std::uint8_t>(active[g] | body_active[i]);
      }
    }
    const auto n_groups = static_cast<std::size_t>(
        std::count(active.begin(), active.end(), 1));
    ASSERT_GT(n_groups, 0u);
    if (frac < 1.0) {
      ASSERT_LT(n_groups, groups.size());
    }

    const Run ref = run(1, active);
    for (const int workers : {1, 2, 3, 4}) {
      const Run r = run(workers, active);
      EXPECT_TRUE(r.f.ax == ref.f.ax && r.f.ay == ref.f.ay &&
                  r.f.az == ref.f.az && r.f.pot == ref.f.pot)
          << "workers = " << workers << ", activity = " << frac;
      EXPECT_EQ(r.ops, ref.ops)
          << "workers = " << workers << ", activity = " << frac;
      EXPECT_EQ(r.stats.interactions, ref.stats.interactions);
      EXPECT_EQ(r.stats.mac_evals, ref.stats.mac_evals);
      EXPECT_EQ(r.stats.groups, ref.stats.groups);
      EXPECT_EQ(r.cost, ref.cost)
          << "workers = " << workers << ", activity = " << frac;
    }
  }
}

TEST(WalkTree, CostVectorIsRecordedReseededAndRetained) {
  System s = plummer(2048, 15);
  s.build();
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);
  ASSERT_GE(groups.size(), 4u);
  // Block-step-style activity: one group in three inactive.
  std::vector<std::uint8_t> active(groups.size(), 1);
  for (std::size_t g = 1; g < active.size(); g += 3) active[g] = 0;

  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  runtime::Device dev(3);
  runtime::ScopedDevice scope(dev);
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  auto walk = [&](std::span<double> cost) {
    walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az, {}, nullptr,
              nullptr, active, groups, cost);
  };

  // Every walked group records a cost (at least one MAC evaluation); no
  // inactive slot is written.
  constexpr double kUntouched = -1.0;
  std::vector<double> cost(groups.size(), kUntouched);
  walk(cost);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (active[g] != 0) {
      EXPECT_GT(cost[g], 0.0) << "group " << g;
    } else {
      EXPECT_EQ(cost[g], kUntouched) << "group " << g;
    }
  }

  // Re-seeded by the caller, the span gets the same deterministic cost
  // back on every walked group and keeps the seed on every inactive one.
  const std::vector<double> first = cost;
  constexpr double kSeed = 7.5;
  std::fill(cost.begin(), cost.end(), kSeed);
  walk(cost);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(cost[g], active[g] != 0 ? first[g] : kSeed) << "group " << g;
  }

  // A cost span must hold one slot per group, like the activity flags.
  for (const std::size_t size : {std::size_t{1}, groups.size() - 1,
                                 groups.size() + 1}) {
    std::vector<double> wrong(size);
    EXPECT_THROW(walk(wrong), std::invalid_argument) << "cost size " << size;
  }
}

TEST(WalkTree, StatsReportWorkerTimingAndImbalance) {
  System s = plummer(4096, 16);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  WalkStats stats;
  (void)run_walk(s, cfg, {}, nullptr, &stats);
  EXPECT_GT(stats.workers, 0u);
  EXPECT_GT(stats.worker_sum_seconds, 0.0);
  EXPECT_GE(stats.worker_max_seconds, stats.worker_sum_seconds /
                                          static_cast<double>(stats.workers));
  // max/mean >= 1 by construction whenever timing was recorded.
  EXPECT_GE(stats.imbalance(), 1.0);
  EXPECT_LE(stats.imbalance(), static_cast<double>(stats.workers) + 1e-9);
}

TEST(WalkTree, ThrowsWithoutCalcNode) {
  System s = plummer(256, 12);
  std::vector<index_t> perm;
  build_tree(s.x, s.y, s.z, s.tree, perm, BuildConfig{});
  // calc_node not run: geometry arrays are zeroed but sized; mass[0]==0
  // would silently produce garbage, so size check alone is insufficient —
  // the zero-mass root is however rejected by every MAC and the walk
  // still terminates; we only require no crash here.
  WalkConfig cfg;
  cfg.eps = kEps;
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  EXPECT_NO_THROW(
      walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az));
}

TEST(WalkTree, SimdAndScalarWalksAreBitIdenticalWithEqualCounts) {
  // GOTHIC_SIMD=1 vs =0 must be invisible: accelerations, potentials, op
  // tallies and traversal stats all bit/count-identical. The kernels are
  // one source, so this checks what only the 8-wide pack does (masked
  // remainders, sibling-run loads, left-packed staging) against the 1-wide
  // pack. Sizes are chosen so groups hit every block shape of the 8-wide
  // flush — n=5 is a lone remainder, n=61 mixes whole 8-lane blocks with
  // remainders, the larger ones exercise full 32-lane groups — with the
  // quadrupole term both off and on, on clean and on NaN-poisoned
  // geometry.
  if (!simt::simd_available()) {
    GTEST_SKIP() << "no 8-wide pack in this build";
  }
  int poisoned_runs = 0;
  for (const std::size_t n : {std::size_t{5}, std::size_t{61},
                              std::size_t{1000}, std::size_t{4096}}) {
    System s = plummer(n, 9100 + n);
    std::vector<index_t> perm;
    build_tree(s.x, s.y, s.z, s.tree, perm, BuildConfig{});
    auto apply = [&perm](std::vector<real>& v) {
      std::vector<real> out(v.size());
      octree::gather(v, perm, out);
      v = std::move(out);
    };
    apply(s.x);
    apply(s.y);
    apply(s.z);
    apply(s.m);
    octree::CalcNodeConfig nc;
    nc.compute_quadrupole = true;
    calc_node(s.tree, s.x, s.y, s.z, s.m, nc);
    std::uint64_t clean_evals[2] = {};
    for (const bool poison : {false, true}) {
      if (poison) poisoned_runs += poison_geometry(s.tree) ? 1 : 0;
      for (const bool quad : {false, true}) {
        WalkConfig cfg;
        cfg.mac.type = MacType::OpeningAngle;
        cfg.use_quadrupole = quad;
        simt::OpCounts scalar_ops, simd_ops;
        WalkStats scalar_stats, simd_stats;
        ForceResult scalar_r, simd_r;
        {
          simt::ScopedSimd off(false);
          scalar_r = run_walk(s, cfg, {}, &scalar_ops, &scalar_stats);
        }
        {
          simt::ScopedSimd on(true);
          simd_r = run_walk(s, cfg, {}, &simd_ops, &simd_stats);
        }
        const auto where = [&] {
          return "n=" + std::to_string(n) + " quad=" + std::to_string(quad) +
                 " poison=" + std::to_string(poison);
        };
        ASSERT_EQ(tallies_of(scalar_ops, scalar_stats),
                  tallies_of(simd_ops, simd_stats))
            << where();
        if (!poison) {
          clean_evals[quad] = scalar_stats.mac_evals;
        } else if (n >= 1000) {
          // Poisoned nodes the clean walk accepted are opened instead.
          EXPECT_GT(scalar_stats.mac_evals, clean_evals[quad]) << where();
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(scalar_r.ax[i], simd_r.ax[i]) << where() << " i=" << i;
          ASSERT_EQ(scalar_r.ay[i], simd_r.ay[i]) << where() << " i=" << i;
          ASSERT_EQ(scalar_r.az[i], simd_r.az[i]) << where() << " i=" << i;
          ASSERT_EQ(scalar_r.pot[i], simd_r.pot[i]) << where() << " i=" << i;
        }
      }
    }
  }
  EXPECT_GT(poisoned_runs, 0) << "no input poisoned a run of eight siblings";
}

TEST(WalkTree, StagedAcceptsAreBitIdenticalAcrossFlushesAndCapacities) {
  // The MAC sweep stages accepted pseudo-particles past the list's end
  // and, when they do not fit, the flush runs first and the staged run
  // moves to the front. The 8-wide pack's left-packed staging must match
  // the 1-wide pack's lane-by-lane staging bit for bit for both MACs that
  // stage (opening angle, and acceleration with a non-empty aold).
  // Capacities 32 and 40 make staged runs straddle flushes and, when fewer
  // entries were listed than were staged, overlap the front.
  if (!simt::simd_available()) {
    GTEST_SKIP() << "no 8-wide pack in this build";
  }
  for (const std::size_t n : {std::size_t{61}, std::size_t{4096}}) {
    System s = plummer(n, 9300 + n);
    s.build();
    WalkConfig probe;
    probe.eps = kEps;
    const ForceResult first = run_walk(s, probe);
    std::vector<real> aold(n);
    for (std::size_t i = 0; i < n; ++i) {
      aold[i] = std::sqrt(first.ax[i] * first.ax[i] +
                          first.ay[i] * first.ay[i] +
                          first.az[i] * first.az[i]);
    }
    for (const bool poison : {false, true}) {
      if (poison) (void)poison_geometry(s.tree);
      for (const MacType mac : {MacType::OpeningAngle, MacType::Acceleration}) {
        for (const int cap : {32, 40, 128}) {
          WalkConfig cfg;
          cfg.eps = kEps;
          cfg.mac.type = mac;
          cfg.list_capacity = cap;
          simt::OpCounts scalar_ops, simd_ops;
          WalkStats scalar_stats, simd_stats;
          ForceResult scalar_r, simd_r;
          {
            simt::ScopedSimd off(false);
            scalar_r = run_walk(s, cfg, aold, &scalar_ops, &scalar_stats);
          }
          {
            simt::ScopedSimd on(true);
            simd_r = run_walk(s, cfg, aold, &simd_ops, &simd_stats);
          }
          const auto where = [&] {
            return "n=" + std::to_string(n) +
                   " mac=" + std::to_string(static_cast<int>(mac)) +
                   " cap=" + std::to_string(cap) +
                   " poison=" + std::to_string(poison);
          };
          ASSERT_EQ(tallies_of(scalar_ops, scalar_stats),
                    tallies_of(simd_ops, simd_stats))
              << where();
          ASSERT_GT(scalar_stats.pseudo_appended, 0u) << where();
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(scalar_r.ax[i], simd_r.ax[i]) << where() << " i=" << i;
            ASSERT_EQ(scalar_r.ay[i], simd_r.ay[i]) << where() << " i=" << i;
            ASSERT_EQ(scalar_r.az[i], simd_r.az[i]) << where() << " i=" << i;
            ASSERT_EQ(scalar_r.pot[i], simd_r.pot[i])
                << where() << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(WalkTree, GroupBoundingRadiusRoundsUpAtTheFloatBoundary) {
  // The double→float cast of the group radius rounds to nearest, so about
  // half of all runs used to report a radius *below* the true double
  // radius — the compactness rule then certified slightly-too-wide groups
  // and the MAC judged cells against an undersized sphere. The fixed
  // radius must always cover the exact double radius, taking the next
  // float up exactly when (and only when) the plain cast rounds down.
  Xoshiro256 rng(20260808);
  int rounded_up = 0;
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<real> x(3), y(3), z(3);
    for (int i = 0; i < 3; ++i) {
      x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
      y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
      z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    }
    double cx, cy, cz;
    const float r = group_bounding_radius(x, y, z, 0, 3, cx, cy, cz);
    // Exact double radius, recomputed the same way.
    double r2 = 0;
    for (int i = 0; i < 3; ++i) {
      const double dx = x[i] - cx, dy = y[i] - cy, dz = z[i] - cz;
      r2 = std::max(r2, dx * dx + dy * dy + dz * dz);
    }
    const double rd = std::sqrt(r2);
    ASSERT_GE(static_cast<double>(r), rd) << "trial " << trial;
    const float cast = static_cast<float>(rd);
    if (static_cast<double>(cast) < rd) {
      // The boundary case the old code got wrong.
      ++rounded_up;
      EXPECT_EQ(r, std::nextafterf(cast,
                                   std::numeric_limits<float>::infinity()))
          << "trial " << trial;
    } else {
      EXPECT_EQ(r, cast) << "trial " << trial;
    }
  }
  // Round-to-nearest rounds down about half the time; 256 random radii
  // must produce many boundary cases or the regression test tests nothing.
  EXPECT_GT(rounded_up, 32);
}

// --- Lennard-Jones over the same tree walk --------------------------------
// The force-law seam (ForceLaw::LennardJones): culling with the cutoff MAC
// must stay conservative, the flush kernel must reproduce the direct pair
// sum exactly up to summation order, and the 8-wide pack must remain
// bit-identical to the 1-wide one (the same contract gravity has).

System uniform_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  System s;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    s.y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    s.z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
  }
  return s;
}

WalkConfig lj_config() {
  WalkConfig cfg;
  cfg.law = ForceLaw::LennardJones;
  cfg.lj.sigma = real(0.1);
  cfg.lj.epsilon = real(1);
  cfg.lj.cutoff = real(0.25);
  return cfg;
}

TEST(WalkTreeLJ, MatchesDirectSummationUpToOrder) {
  System s = uniform_cloud(1024, 11);
  s.build();
  const WalkConfig cfg = lj_config();
  const ForceResult r = run_walk(s, cfg);

  const std::size_t n = s.n();
  std::vector<real> ax(n), ay(n), az(n), pot(n);
  direct_forces_lj(s.x, s.y, s.z, s.m, cfg.lj, cfg.g, ax, ay, az, pot);

  double a_rms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a_rms += static_cast<double>(ax[i]) * ax[i] +
             static_cast<double>(ay[i]) * ay[i] +
             static_cast<double>(az[i]) * az[i];
  }
  a_rms = std::sqrt(a_rms / static_cast<double>(n));
  ASSERT_GT(a_rms, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = r.ax[i] - ax[i];
    const double dy = r.ay[i] - ay[i];
    const double dz = r.az[i] - az[i];
    const double ref = std::sqrt(static_cast<double>(ax[i]) * ax[i] +
                                 static_cast<double>(ay[i]) * ay[i] +
                                 static_cast<double>(az[i]) * az[i]);
    EXPECT_LT(std::sqrt(dx * dx + dy * dy + dz * dz) /
                  std::max(ref, 0.05 * a_rms),
              1e-4)
        << "particle " << i;
    EXPECT_NEAR(r.pot[i], pot[i],
                1e-4 * (std::fabs(pot[i]) + 1e-6))
        << "particle " << i;
  }
}

TEST(WalkTreeLJ, BodiesBeyondCutoffContributeExactlyZero) {
  // A compact cloud plus one probe far outside the cutoff: truncation is
  // exact (not a smooth decay), so the probe's force and potential must be
  // exactly zero — any drip-through means the cutoff MAC over-accepted.
  System s = uniform_cloud(256, 12);
  s.x.push_back(real(10));
  s.y.push_back(real(0));
  s.z.push_back(real(0));
  s.m.push_back(real(1.0 / 256.0));
  s.build();
  const ForceResult r = run_walk(s, lj_config());
  // Locate the probe in the Morton-sorted order.
  std::size_t probe = s.n();
  for (std::size_t i = 0; i < s.n(); ++i) {
    if (s.x[i] == real(10)) probe = i;
  }
  ASSERT_LT(probe, s.n());
  EXPECT_EQ(r.ax[probe], real(0));
  EXPECT_EQ(r.ay[probe], real(0));
  EXPECT_EQ(r.az[probe], real(0));
  EXPECT_EQ(r.pot[probe], real(0));
}

TEST(WalkTreeLJ, ScalarAndSimdSubstratesBitIdentical) {
  // Clean geometry, then NaN-poisoned geometry: a poisoned node must be
  // descended on both substrates, never culled.
  System s = uniform_cloud(768, 13);
  s.build();
  const WalkConfig cfg = lj_config();
  std::uint64_t clean_evals = 0;
  for (const bool poison : {false, true}) {
    if (poison) {
      ASSERT_TRUE(poison_geometry(s.tree));
    }
    simt::OpCounts scalar_ops, simd_ops;
    WalkStats scalar_stats, simd_stats;
    ForceResult scalar, simd;
    {
      simt::ScopedSimd off(false);
      scalar = run_walk(s, cfg, {}, &scalar_ops, &scalar_stats);
    }
    {
      simt::ScopedSimd on(true); // no-op in builds without the 8-wide pack
      simd = run_walk(s, cfg, {}, &simd_ops, &simd_stats);
    }
    ASSERT_EQ(tallies_of(scalar_ops, scalar_stats),
              tallies_of(simd_ops, simd_stats))
        << "poison=" << poison;
    if (!poison) {
      clean_evals = scalar_stats.mac_evals;
    } else {
      // Poisoned nodes the clean walk culled are descended instead.
      EXPECT_GT(scalar_stats.mac_evals, clean_evals);
    }
    for (std::size_t i = 0; i < s.n(); ++i) {
      ASSERT_EQ(scalar.ax[i], simd.ax[i]) << "poison=" << poison << " " << i;
      ASSERT_EQ(scalar.ay[i], simd.ay[i]) << "poison=" << poison << " " << i;
      ASSERT_EQ(scalar.az[i], simd.az[i]) << "poison=" << poison << " " << i;
      ASSERT_EQ(scalar.pot[i], simd.pot[i]) << "poison=" << poison << " " << i;
    }
  }
}

TEST(WalkTreeLJ, RejectsQuadrupoleAndNonPositiveParameters) {
  System s = uniform_cloud(64, 14);
  s.build();
  WalkConfig quad = lj_config();
  quad.use_quadrupole = true;
  EXPECT_THROW((void)run_walk(s, quad), std::invalid_argument);
  WalkConfig sig = lj_config();
  sig.lj.sigma = real(0);
  EXPECT_THROW((void)run_walk(s, sig), std::invalid_argument);
  WalkConfig cut = lj_config();
  cut.lj.cutoff = real(-1);
  EXPECT_THROW((void)run_walk(s, cut), std::invalid_argument);
}

// --- Pinned tallies ---------------------------------------------------------
// Figs 6-10 and the §4.2 model are built from the walk's OpCounts and
// WalkStats. Both packs share the per-batch lane-mask bookkeeping, so the
// substrate-parity tests above cannot see a tally drift in it; these
// constants can. They were recorded from the walk whose bookkeeping still
// ran on per-lane bool/int arrays, and every substrate and mode must keep
// reproducing them.

/// A uniform box plus a dense clump, equal masses: the box's groups accept
/// distant cells, the clump's groups spill leaves and open deep cells.
System box_and_clump() {
  Xoshiro256 rng(20261017);
  constexpr std::size_t kBox = 2048;
  constexpr std::size_t kClump = 1024;
  System s;
  s.m.assign(kBox + kClump, real(1.0 / static_cast<double>(kBox + kClump)));
  for (std::size_t i = 0; i < kBox; ++i) {
    s.x.push_back(static_cast<real>(rng.uniform(-1.0, 1.0)));
    s.y.push_back(static_cast<real>(rng.uniform(-1.0, 1.0)));
    s.z.push_back(static_cast<real>(rng.uniform(-1.0, 1.0)));
  }
  for (std::size_t i = 0; i < kClump; ++i) {
    s.x.push_back(static_cast<real>(rng.normal(0.35, 0.04)));
    s.y.push_back(static_cast<real>(rng.normal(-0.2, 0.04)));
    s.z.push_back(static_cast<real>(rng.normal(0.1, 0.04)));
  }
  s.build();
  return s;
}

TEST(WalkTree, TalliesEqualThePinnedParentValues) {
  System s = box_and_clump();
  WalkConfig theta;
  theta.eps = kEps;
  theta.mac.type = MacType::OpeningAngle;
  theta.mac.theta = real(0.7);
  const ForceResult first = run_walk(s, theta);
  std::vector<real> aold(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    aold[i] = std::sqrt(first.ax[i] * first.ax[i] +
                        first.ay[i] * first.ay[i] +
                        first.az[i] * first.az[i]);
  }
  WalkConfig acc = theta;
  acc.mac.type = MacType::Acceleration;
  WalkConfig gadget = theta;
  gadget.mac.type = MacType::Gadget;
  const WalkConfig lj = lj_config();

  // The modes differ only in the syncwarp tally (index 7): zero under
  // Pascal, `volta_syncwarp` under Volta.
  struct Case {
    const char* name;
    const WalkConfig* cfg;
    Tallies pascal;
    std::uint64_t volta_syncwarp;
  };
  const Case cases[] = {
      {"acceleration", &acc,
       {13236402, 10985175, 6557824, 9323974, 1987550, 3377724, 1254004, 0,
        0, 0, 0, 3252992, 822464, 982, 302195, 38901, 240176, 131889,
        1678229, 3499},
       140209},
      {"opening-angle", &theta,
       {6514415, 5715408, 3327986, 5130848, 1024262, 1402214, 574056, 0, 0,
        0, 0, 2083520, 432640, 982, 132208, 16847, 107609, 44261, 884928,
        1678},
       85390},
      {"gadget", &gadget,
       {15256514, 13063212, 7734249, 10866368, 2353519, 4335013, 1411040, 0,
        0, 0, 0, 3492416, 902272, 982, 341454, 44060, 255067, 214744,
        2004939, 4276},
       151432},
      {"lennard-jones", &lj,
       {11573590, 7516482, 14865292, 11595512, 1570068, 2972153, 690832, 0,
        0, 0, 0, 2305856, 506752, 982, 161402, 20854, 0, 213139, 1404612,
        2093},
       95812},
  };
  for (const Case& c : cases) {
    Tallies volta = c.pascal;
    volta[7] = c.volta_syncwarp;
    for (const simt::ExecMode mode :
         {simt::ExecMode::Pascal, simt::ExecMode::Volta}) {
      for (const bool simd : {false, true}) {
        simt::ScopedSimd substrate(simd);
        WalkConfig cfg = *c.cfg;
        cfg.mode = mode;
        simt::OpCounts ops;
        WalkStats stats;
        (void)run_walk(s, cfg, aold, &ops, &stats);
        EXPECT_EQ(tallies_of(ops, stats),
                  mode == simt::ExecMode::Pascal ? c.pascal : volta)
            << c.name << " " << simt::exec_mode_name(mode)
            << (simd ? " simd" : " scalar");
      }
    }
  }
}

/// FNV-1a over 32-bit words.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint32_t word) {
    h ^= word;
    h *= 0x100000001b3ull;
  }
};

/// The bit patterns of every acceleration and potential, hashed in order.
std::uint64_t force_checksum(const ForceResult& r) {
  Fnv64 f;
  for (const std::vector<real>* v : {&r.ax, &r.ay, &r.az, &r.pot}) {
    for (const real a : *v) f.add(std::bit_cast<std::uint32_t>(a));
  }
  return f.h;
}

/// The CPU's rsqrtss estimate over every float in [1, 4): one binade of
/// each exponent parity, which is the whole table the estimate reads.
std::uint64_t rsqrt_table_digest() {
  Fnv64 f;
  for (std::uint32_t bits = 0x3f800000u; bits < 0x40800000u; ++bits) {
    const float y =
        _mm_cvtss_f32(_mm_rsqrt_ss(_mm_set_ss(std::bit_cast<float>(bits))));
    f.add(std::bit_cast<std::uint32_t>(y));
  }
  return f.h;
}

TEST(WalkTree, ForcesEqualThePinnedParentChecksums) {
  // The tallies above pin what the walk counted; these pin what it
  // computed: one hash of the bits of ax, ay, az and pot per case, recorded
  // from the walk whose lane kernels were still written twice (a scalar
  // loop and an AVX2 copy), so the one-source kernels must reproduce it on
  // both substrates. Gravity's pair runs the rsqrt estimate, whose table is
  // the CPU vendor's (DESIGN.md, "Bit-identity contract"): its cases run
  // only where the estimate matches the recording CPU's. Lennard-Jones
  // uses IEEE division and always runs.
  constexpr std::uint64_t kRsqrtDigest = 0xb5f59e23cb722325ull;
  const std::uint64_t digest = rsqrt_table_digest();
  const bool same_table = digest == kRsqrtDigest;

  System s = box_and_clump();
  System sq = s;
  octree::CalcNodeConfig nc;
  nc.compute_quadrupole = true;
  calc_node(sq.tree, sq.x, sq.y, sq.z, sq.m, nc);
  WalkConfig theta;
  theta.eps = kEps;
  theta.mac.type = MacType::OpeningAngle;
  theta.mac.theta = real(0.7);
  const ForceResult first = run_walk(s, theta);
  std::vector<real> aold(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    aold[i] = std::sqrt(first.ax[i] * first.ax[i] +
                        first.ay[i] * first.ay[i] +
                        first.az[i] * first.az[i]);
  }
  WalkConfig acc = theta;
  acc.mac.type = MacType::Acceleration;
  WalkConfig gadget = theta;
  gadget.mac.type = MacType::Gadget;
  WalkConfig quad = acc;
  quad.use_quadrupole = true;
  const WalkConfig lj = lj_config();

  struct Case {
    const char* name;
    System* sys;
    const WalkConfig* cfg;
    bool gravity;
    std::uint64_t checksum;
  };
  const Case cases[] = {
      {"acceleration", &s, &acc, true, 0xd996a8a6c8aec224ull},
      {"opening-angle", &s, &theta, true, 0xb121572b4388ca92ull},
      {"gadget", &s, &gadget, true, 0x1d019a7d369ca9dcull},
      {"acceleration+quadrupole", &sq, &quad, true,
       0xa4daf77a154c1b72ull},
      {"lennard-jones", &s, &lj, false, 0xe9756c9ef8aa6c01ull},
  };
  for (const Case& c : cases) {
    if (c.gravity && !same_table) continue;
    for (const bool simd : {false, true}) {
      simt::ScopedSimd substrate(simd);
      const ForceResult r = run_walk(*c.sys, *c.cfg, aold);
      EXPECT_EQ(force_checksum(r), c.checksum)
          << c.name << (simd ? " simd" : " scalar") << std::hex
          << " checksum 0x" << force_checksum(r);
    }
  }
  if (!same_table) {
    GTEST_SKIP() << "gravity cases skipped: rsqrt table digest 0x" << std::hex
                 << digest << ", pinned on a CPU with 0x" << kRsqrtDigest;
  }
}

} // namespace
} // namespace gothic::gravity
