// Properties of the tree-derived warp-group decomposition (the piece that
// keeps the group-shared MAC effective, see walk_tree.hpp).
#include "gravity/walk_tree.hpp"
#include "galaxy/spherical_sampler.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "tree_phase_pins.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace gothic::gravity {
namespace {

struct Cloud {
  std::vector<real> x, y, z, m;
  octree::Octree tree;

  void build(int leaf_capacity = 16) {
    std::vector<index_t> perm;
    octree::BuildConfig cfg;
    cfg.leaf_capacity = leaf_capacity;
    octree::build_tree(x, y, z, tree, perm, cfg);
    auto apply = [&perm](std::vector<real>& v) {
      std::vector<real> out(v.size());
      octree::gather(v, perm, out);
      v = std::move(out);
    };
    apply(x);
    apply(y);
    apply(z);
    apply(m);
  }
};

Cloud uniform_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Cloud c;
  c.x.resize(n);
  c.y.resize(n);
  c.z.resize(n);
  c.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    c.x[i] = static_cast<real>(rng.uniform());
    c.y[i] = static_cast<real>(rng.uniform());
    c.z[i] = static_cast<real>(rng.uniform());
  }
  return c;
}

/// Dense core + a handful of extreme outliers: the regime the compactness
/// rule exists for.
Cloud core_halo_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Cloud c;
  c.x.resize(n);
  c.y.resize(n);
  c.z.resize(n);
  c.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    const bool outlier = (i % 37 == 0);
    const double s = outlier ? 100.0 : 1.0;
    c.x[i] = static_cast<real>(rng.normal(0.0, s));
    c.y[i] = static_cast<real>(rng.normal(0.0, s));
    c.z[i] = static_cast<real>(rng.normal(0.0, s));
  }
  return c;
}

void check_partition(const std::vector<GroupSpan>& groups, std::size_t n) {
  std::vector<int> covered(n, 0);
  for (const GroupSpan& g : groups) {
    ASSERT_GE(g.count, 1u);
    ASSERT_LE(g.count, static_cast<index_t>(kWarpSize));
    for (index_t i = g.first; i < g.first + g.count; ++i) {
      ASSERT_LT(i, n);
      ++covered[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(covered[i], 1) << "body " << i;
  }
}

TEST(WalkGroups, PartitionUniform) {
  Cloud c = uniform_cloud(10000, 1);
  c.build();
  check_partition(walk_groups(c.tree, c.x, c.y, c.z), c.x.size());
}

TEST(WalkGroups, PartitionCoreHalo) {
  Cloud c = core_halo_cloud(10000, 2);
  c.build();
  check_partition(walk_groups(c.tree, c.x, c.y, c.z), c.x.size());
}

TEST(WalkGroups, PartitionWithOversizedLeaf) {
  // 200 identical positions: one max-depth leaf larger than a warp must be
  // chopped into warp-sized runs.
  Cloud c;
  c.x.assign(200, real(0.5));
  c.y.assign(200, real(0.5));
  c.z.assign(200, real(0.5));
  c.m.assign(200, real(1.0 / 200));
  c.build(8);
  const auto groups = walk_groups(c.tree, c.x, c.y, c.z);
  check_partition(groups, 200);
  EXPECT_GE(groups.size(), 200u / kWarpSize);
}

TEST(WalkGroups, UniformCloudsGetNearFullWarps) {
  Cloud c = uniform_cloud(32768, 3);
  c.build(32);
  const auto groups = walk_groups(c.tree, c.x, c.y, c.z);
  const double mean = static_cast<double>(c.x.size()) / groups.size();
  // Dense, uniform distributions keep multi-body groups; the compactness
  // rule still splits near the global centroid (distance -> 0 leaves only
  // the absolute floor), so the mean sits below a full warp.
  EXPECT_GT(mean, 6.0);
}

TEST(WalkGroups, OutliersBecomeSmallGroupsCoreStaysLarge) {
  Cloud c = core_halo_cloud(20000, 4);
  c.build();
  const auto groups = walk_groups(c.tree, c.x, c.y, c.z);
  // Classify groups by centroid radius.
  double core_size = 0, halo_size = 0;
  std::size_t core_n = 0, halo_n = 0;
  for (const GroupSpan& g : groups) {
    double cx = 0, cy = 0, cz = 0;
    for (index_t i = g.first; i < g.first + g.count; ++i) {
      cx += c.x[i];
      cy += c.y[i];
      cz += c.z[i];
    }
    cx /= g.count;
    cy /= g.count;
    cz /= g.count;
    const double r = std::sqrt(cx * cx + cy * cy + cz * cz);
    if (r < 5.0) {
      core_size += g.count;
      ++core_n;
    } else {
      halo_size += g.count;
      ++halo_n;
    }
  }
  ASSERT_GT(core_n, 0u);
  ASSERT_GT(halo_n, 0u);
  EXPECT_GT(core_size / core_n, 2.0 * halo_size / halo_n);
}

TEST(WalkGroups, CompactnessRuleBoundsRadiusOverDistance) {
  Cloud c = core_halo_cloud(20000, 5);
  c.build();
  const auto groups = walk_groups(c.tree, c.x, c.y, c.z);
  // Global centroid.
  double mx = 0, my = 0, mz = 0;
  for (std::size_t i = 0; i < c.x.size(); ++i) {
    mx += c.x[i];
    my += c.y[i];
    mz += c.z[i];
  }
  mx /= static_cast<double>(c.x.size());
  my /= static_cast<double>(c.x.size());
  mz /= static_cast<double>(c.x.size());
  const double floor_r = c.tree.box.edge / 128.0;
  for (const GroupSpan& g : groups) {
    if (g.count <= 1) continue; // singletons have zero radius by definition
    double cx = 0, cy = 0, cz = 0;
    for (index_t i = g.first; i < g.first + g.count; ++i) {
      cx += c.x[i];
      cy += c.y[i];
      cz += c.z[i];
    }
    cx /= g.count;
    cy /= g.count;
    cz /= g.count;
    double rgrp = 0;
    for (index_t i = g.first; i < g.first + g.count; ++i) {
      const double dx = c.x[i] - cx, dy = c.y[i] - cy, dz = c.z[i] - cz;
      rgrp = std::max(rgrp, std::sqrt(dx * dx + dy * dy + dz * dz));
    }
    const double dx = cx - mx, dy = cy - my, dz = cz - mz;
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    EXPECT_LE(rgrp, std::max(floor_r, 0.2 * dist) * 1.0001)
        << "group at " << g.first;
  }
}

TEST(WalkGroups, DeterministicForFixedInput) {
  Cloud c = uniform_cloud(5000, 6);
  c.build();
  const auto a = walk_groups(c.tree, c.x, c.y, c.z);
  const auto b = walk_groups(c.tree, c.x, c.y, c.z);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

Cloud plummer_cloud(std::size_t n, std::uint64_t seed) {
  const nbody::Particles p = galaxy::make_plummer(n, 1.0, 1.0, seed);
  Cloud c;
  c.x = p.x;
  c.y = p.y;
  c.z = p.z;
  c.m = p.m;
  return c;
}

/// Groups must be sorted and contiguous in tree (Morton) order: the first
/// group starts at body 0, each group starts where the previous ended, and
/// the last ends at n. Together with check_partition this pins the exact
/// decomposition shape walk_tree's disjoint-output argument relies on.
void check_sorted_contiguous(const std::vector<GroupSpan>& groups,
                             std::size_t n) {
  ASSERT_FALSE(groups.empty());
  EXPECT_EQ(groups.front().first, 0u);
  for (std::size_t g = 1; g < groups.size(); ++g) {
    EXPECT_EQ(groups[g].first, groups[g - 1].first + groups[g - 1].count)
        << "gap or overlap before group " << g;
  }
  EXPECT_EQ(groups.back().first + groups.back().count, n);
}

/// Depth spread of a run of merged leaves: the merge rule documents that a
/// group stays within ~one parent cell, i.e. every merged leaf within one
/// level of both the run's shallowest and deepest leaf — a spread of at
/// most 2 levels.
int max_group_depth_spread(const octree::Octree& tree,
                           const std::vector<GroupSpan>& groups) {
  int worst = 0;
  for (const GroupSpan& g : groups) {
    const index_t lo = g.first;
    const index_t hi = g.first + g.count;
    int dmin = 0, dmax = 0;
    bool any = false;
    for (index_t node = 0; node < tree.num_nodes(); ++node) {
      if (!tree.is_leaf(node) || tree.body_count[node] == 0) continue;
      const index_t lfirst = tree.body_first[node];
      const index_t lend = lfirst + tree.body_count[node];
      if (lfirst >= hi || lend <= lo) continue;
      const int d = tree.depth[node];
      dmin = any ? std::min(dmin, d) : d;
      dmax = any ? std::max(dmax, d) : d;
      any = true;
    }
    if (any) worst = std::max(worst, dmax - dmin);
  }
  return worst;
}

/// The pre-fix merge rule: a single depth anchor, compared against with
/// |depth - anchor| <= 1 and updated with min(). Returns the largest depth
/// spread any run reached — the drift the fixed rule forbids.
int old_rule_max_spread(const octree::Octree& tree) {
  std::vector<index_t> leaves;
  for (index_t node = 0; node < tree.num_nodes(); ++node) {
    if (tree.is_leaf(node) && tree.body_count[node] > 0) {
      leaves.push_back(node);
    }
  }
  std::sort(leaves.begin(), leaves.end(), [&tree](index_t a, index_t b) {
    return tree.body_first[a] < tree.body_first[b];
  });
  int worst = 0;
  index_t cur_count = 0;
  int cur_depth = 0, run_min = 0, run_max = 0;
  for (const index_t leaf : leaves) {
    const index_t remain = tree.body_count[leaf];
    if (remain > static_cast<index_t>(kWarpSize)) {
      cur_count = 0; // oversized leaves split plainly and end the run
      continue;
    }
    const int depth = tree.depth[leaf];
    const bool fits = cur_count + remain <= static_cast<index_t>(kWarpSize);
    const bool compact = cur_count == 0 || std::abs(depth - cur_depth) <= 1;
    if (cur_count > 0 && fits && compact) {
      cur_count += remain;
      cur_depth = std::min(cur_depth, depth);
      run_min = std::min(run_min, depth);
      run_max = std::max(run_max, depth);
    } else {
      cur_count = remain;
      cur_depth = depth;
      run_min = depth;
      run_max = depth;
    }
    worst = std::max(worst, run_max - run_min);
  }
  return worst;
}

TEST(WalkGroups, EmptyInputYieldsEmptyDecomposition) {
  const octree::Octree tree;
  EXPECT_TRUE(walk_groups(tree, {}, {}, {}).empty());
}

TEST(WalkGroups, SpanMismatchThrows) {
  Cloud c = uniform_cloud(256, 11);
  c.build();
  const std::vector<real> shorter(c.x.begin(), c.x.end() - 1);
  // Positions shorter than the tree's body count: stale spans from before
  // a rebuild must be rejected, not walked.
  EXPECT_THROW((void)walk_groups(c.tree, shorter, c.y, c.z),
               std::invalid_argument);
  // Spans disagreeing with each other.
  EXPECT_THROW((void)walk_groups(c.tree, c.x, shorter, c.z),
               std::invalid_argument);
  EXPECT_THROW((void)walk_groups(c.tree, c.x, c.y, shorter),
               std::invalid_argument);
  // Empty positions against a non-empty tree are a mismatch, not the
  // empty-decomposition case.
  EXPECT_THROW((void)walk_groups(c.tree, {}, {}, {}), std::invalid_argument);
}

TEST(WalkGroups, SortedContiguousPartitionOnPlummerAndUniform) {
  for (const std::uint64_t seed : {12u, 13u}) {
    Cloud c = plummer_cloud(8192, seed);
    c.build();
    const auto groups = walk_groups(c.tree, c.x, c.y, c.z);
    check_partition(groups, c.x.size());
    check_sorted_contiguous(groups, c.x.size());
  }
  Cloud u = uniform_cloud(8192, 14);
  u.build();
  const auto groups = walk_groups(u.tree, u.x, u.y, u.z);
  check_partition(groups, u.x.size());
  check_sorted_contiguous(groups, u.x.size());
}

TEST(WalkGroups, DepthSpreadBoundedOnPlummerAndUniform) {
  Cloud p = plummer_cloud(16384, 15);
  p.build(8);
  EXPECT_LE(max_group_depth_spread(p.tree,
                                   walk_groups(p.tree, p.x, p.y, p.z)),
            2);
  Cloud u = uniform_cloud(16384, 16);
  u.build(8);
  EXPECT_LE(max_group_depth_spread(u.tree,
                                   walk_groups(u.tree, u.x, u.y, u.z)),
            2);
}

TEST(WalkGroups, DepthAnchorNoLongerDrifts) {
  // Clusters of three bodies at geometrically shrinking distance from the
  // box corner: Morton order visits the corner-most (deepest) leaf first,
  // then each next cluster one level shallower. Every step keeps
  // |depth - anchor| <= 1, so the old min()-anchored rule chain-merged the
  // whole gradient into one run spanning many levels.
  Cloud c;
  Xoshiro256 rng(17);
  for (int k = 11; k >= 2; --k) {
    const double base = std::ldexp(1.0, -k);
    for (int j = 0; j < 3; ++j) {
      const double jitter = base * 0.01 * rng.uniform();
      c.x.push_back(static_cast<real>(base + jitter));
      c.y.push_back(static_cast<real>(base + jitter));
      c.z.push_back(static_cast<real>(base + jitter));
      c.m.push_back(real(1.0 / 30.0));
    }
  }
  c.build(4);
  // Non-vacuous: the graded chain really made the old rule drift past the
  // two-level bound the merge rule documents.
  ASSERT_GT(old_rule_max_spread(c.tree), 2);
  const auto groups = walk_groups(c.tree, c.x, c.y, c.z);
  check_partition(groups, c.x.size());
  EXPECT_LE(max_group_depth_spread(c.tree, groups), 2);
}

TEST(WalkGroups, ExplicitGroupsMatchInternalComputation) {
  Cloud c = uniform_cloud(4096, 7);
  c.build();
  octree::calc_node(c.tree, c.x, c.y, c.z, c.m);
  const auto groups = walk_groups(c.tree, c.x, c.y, c.z);

  WalkConfig cfg;
  cfg.eps = real(0.02);
  cfg.mac.type = MacType::OpeningAngle;
  std::vector<real> a1(c.x.size()), a2(c.x.size()), dummy(c.x.size());
  WalkStats s1, s2;
  walk_tree(c.tree, c.x, c.y, c.z, c.m, {}, cfg, a1, dummy, dummy, {},
            nullptr, &s1);
  walk_tree(c.tree, c.x, c.y, c.z, c.m, {}, cfg, a2, dummy, dummy, {},
            nullptr, &s2, {}, groups);
  EXPECT_EQ(s1.interactions, s2.interactions);
  for (std::size_t i = 0; i < c.x.size(); i += 173) {
    EXPECT_FLOAT_EQ(a1[i], a2[i]);
  }
}

TEST(WalkGroups, SpansEqualThePinnedParentValues) {
  // The decomposition of each pinned scenario's tree (bodies in tree
  // order), recorded from the serial leaf scan, sort and compaction; it
  // must hold on every worker count.
  struct Pin {
    const char* scenario;
    octree::SpaceFillingCurve curve;
    std::size_t groups;
    std::uint64_t spans;
  };
  const Pin pins_[] = {
      {"m31", octree::SpaceFillingCurve::Morton, 1860, 0xe5b70142525ce814},
      {"m31", octree::SpaceFillingCurve::Hilbert, 1618, 0x703dfbd19e91e1e7},
      {"lj-box", octree::SpaceFillingCurve::Morton, 564, 0x3569c77c22bf8a43},
      {"lj-box", octree::SpaceFillingCurve::Hilbert, 569, 0x5156c8317fa0150a},
      {"uniform-box", octree::SpaceFillingCurve::Morton, 1288, 0xb492b7702c657d93},
      {"uniform-box", octree::SpaceFillingCurve::Hilbert, 1042, 0x29dff6de579b86b0},
  };
  for (const int workers : pins::kWorkerCounts) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    for (const Pin& pin : pins_) {
      const nbody::Particles& p = pins::input(pin.scenario);
      octree::Octree tree;
      std::vector<index_t> perm;
      octree::BuildConfig cfg;
      cfg.curve = pin.curve;
      octree::build_tree(p.x, p.y, p.z, tree, perm, cfg);
      std::vector<real> x(p.size()), y(p.size()), z(p.size());
      octree::gather(p.x, perm, x);
      octree::gather(p.y, perm, y);
      octree::gather(p.z, perm, z);
      const std::vector<GroupSpan> groups = walk_groups(tree, x, y, z);
      const std::string where =
          std::string(pin.scenario) +
          (pin.curve == octree::SpaceFillingCurve::Morton ? " morton"
                                                          : " hilbert") +
          " workers " + std::to_string(workers);
      EXPECT_EQ(groups.size(), pin.groups) << where;
      EXPECT_EQ(pins::hex(pins::digest(groups)), pins::hex(pin.spans)) << where;
    }
  }
}

} // namespace
} // namespace gothic::gravity
