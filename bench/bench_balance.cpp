// Load balancing — the gravity walk's work queue across block-time-step
// activity fractions.
//
// GOTHIC's walkTree gets its balance from the GPU's block scheduler,
// which hands tree-walk groups to whichever SM frees up (Miki & Umemura
// 2017). The CPU walk does the same with one chunked work queue
// (Device::parallel_dynamic): idle workers keep claiming chunks of groups,
// the chunk sized from the *active* group count so a sparse block step
// still spreads its few active groups over every worker. With block time
// steps the active groups cluster in the dense bulk — the case any
// up-front partition gets wrong.
//
// Which worker walks which group is numerically invisible (each group
// writes disjoint output slots) — this bench asserts that bitwise against
// a 1-worker run and reports walk seconds plus the imbalance ratio (max
// worker time / mean worker time) per activity fraction.
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "gravity/walk_tree.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  const int reps = std::max(2, scale.steps);
  auto p = m31_workload(scale.n);
  octree::Octree tree;
  std::vector<index_t> perm;
  octree::build_tree(p.x, p.y, p.z, tree, perm, octree::BuildConfig{});
  p.apply_permutation(perm);
  octree::calc_node(tree, p.x, p.y, p.z, p.m);

  const std::size_t n = p.size();
  std::vector<real> ax(n), ay(n), az(n);
  gravity::WalkConfig boot;
  boot.eps = real(0.0156);
  boot.mac.type = gravity::MacType::OpeningAngle;
  gravity::walk_tree(tree, p.x, p.y, p.z, p.m, {}, boot, ax, ay, az);
  std::vector<real> amag(n);
  for (std::size_t i = 0; i < n; ++i) {
    amag[i] = std::sqrt(ax[i] * ax[i] + ay[i] * ay[i] + az[i] * az[i]);
  }

  const auto groups = gravity::walk_groups(tree, p.x, p.y, p.z);

  gravity::WalkConfig cfg;
  cfg.eps = real(0.0156);
  cfg.mac.dacc = real(1.0 / 512);

  const int workers = runtime::Device::current().workers();
  std::cout << "# runtime workers = " << workers
            << " (override with GOTHIC_THREADS), groups = " << groups.size()
            << ", reps = " << reps << "\n";
  BenchReport rep("balance");
  rep.set_scale(scale);
  Table t("walk work queue: seconds per walk and imbalance ratio "
          "(M31, N = " + std::to_string(scale.n) + ", dacc = 2^-9)",
          {"active frac", "active groups", "walk [s]", "imbalance",
           "identical"});

  // Block-time-step proxy: the f*n particles with the largest |a| have the
  // smallest required time step, so they fire (and their groups walk) most
  // often. Ranking by |a| concentrates the active set in the dense bulk —
  // the worst case for an equal-count partition.
  std::vector<std::size_t> by_amag(n);
  std::iota(by_amag.begin(), by_amag.end(), std::size_t{0});
  std::sort(by_amag.begin(), by_amag.end(),
            [&](std::size_t a, std::size_t b) { return amag[a] > amag[b]; });

  struct Forces {
    std::vector<real> ax, ay, az, pot;
    simt::OpCounts ops;
    bool operator==(const Forces&) const = default;
  };
  auto walk = [&](Forces& f, std::span<const std::uint8_t> active,
                  gravity::WalkStats* stats) {
    f.ax.assign(n, real(0));
    f.ay.assign(n, real(0));
    f.az.assign(n, real(0));
    f.pot.assign(n, real(0));
    f.ops = simt::OpCounts{};
    gravity::walk_tree(tree, p.x, p.y, p.z, p.m, amag, cfg, f.ax, f.ay, f.az,
                       f.pot, &f.ops, stats, active, groups);
  };

  bool all_identical = true;
  for (const double frac : {1.0, 0.5, 0.2, 0.05}) {
    const auto n_active =
        std::max<std::size_t>(1, static_cast<std::size_t>(frac * n));
    std::vector<std::uint8_t> body_active(n, 0);
    for (std::size_t i = 0; i < n_active; ++i) body_active[by_amag[i]] = 1;
    std::vector<std::uint8_t> group_active(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t lo = groups[g].first;
      const std::size_t hi = lo + groups[g].count;
      for (std::size_t i = lo; i < hi; ++i) {
        if (body_active[i] != 0) {
          group_active[g] = 1;
          break;
        }
      }
    }

    Forces ref;
    {
      runtime::Device one(1);
      runtime::ScopedDevice scope(one);
      walk(ref, group_active, nullptr);
    }

    // Warm-up walk: grows the worker arenas, the steady state a
    // simulation reaches after its bootstrap walk.
    Forces f;
    walk(f, group_active, nullptr);
    double seconds = 0.0;
    double imb_sum = 0.0;
    bool identical = f == ref;
    for (int i = 0; i < reps; ++i) {
      // Fresh stats per rep: imbalance() is a per-walk ratio, and
      // accumulating reps first would compare reps to each other
      // instead of workers within one walk.
      gravity::WalkStats s;
      const Stopwatch clock;
      walk(f, group_active, &s);
      seconds += clock.seconds();
      imb_sum += s.imbalance();
      identical = identical && f == ref;
    }
    all_identical = all_identical && identical;
    t.add_row({Table::fix(frac, 2),
               std::to_string(std::count(group_active.begin(),
                                         group_active.end(), 1)),
               Table::sci(seconds / reps), Table::fix(imb_sum / reps, 3),
               identical ? "yes" : "NO"});
  }

  t.print(std::cout);
  std::cout << "imbalance = busiest worker / mean worker (1 = perfect, "
            << workers
            << " = serialized); identical = forces, potentials and op "
               "counts bitwise equal to a 1-worker run.\n";
  const std::string verdict =
      std::string("bitwise identity with the 1-worker run: ") +
      (all_identical ? "PASS" : "FAIL");
  std::cout << verdict << "\n";

  rep.add_table(t);
  rep.add_note(verdict);
  rep.write(std::cout);
  return all_identical ? 0 : 1;
}
