// SFC domain decomposition invariants (octree/partition.hpp) and local
// essential tree sufficiency (gravity/let.hpp): boundaries are contiguous,
// disjoint, deterministic and cover every particle; owned + top node sets
// tile the tree exactly; and a walk over a NaN-poisoned shard view that
// imports only its LET reproduces the full-tree forces bit-for-bit.
#include "gravity/let.hpp"
#include "gravity/walk_tree.hpp"
#include "octree/calc_node.hpp"
#include "octree/partition.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace gothic::octree {
namespace {

struct System {
  std::vector<real> x, y, z, m;
  Octree tree;

  void build() {
    std::vector<index_t> perm;
    build_tree(x, y, z, tree, perm, BuildConfig{});
    auto apply = [&perm](std::vector<real>& v) {
      std::vector<real> out(v.size());
      gather(v, perm, out);
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

System uniform_box(std::size_t n, std::uint64_t seed) {
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

void expect_valid_bounds(const std::vector<std::size_t>& b, int shards,
                         std::size_t n) {
  ASSERT_EQ(b.size(), static_cast<std::size_t>(shards) + 1);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), n);
  for (std::size_t s = 0; s + 1 < b.size(); ++s) {
    EXPECT_LE(b[s], b[s + 1]); // contiguous and disjoint by construction
  }
}

TEST(Partition, BoundariesContiguousDisjointAndCovering) {
  // Uniform, heavily skewed, and zero weight vectors across shard counts.
  std::vector<double> uniform(97, 1.0);
  std::vector<double> skewed(97, 0.0);
  for (std::size_t i = 0; i < skewed.size(); ++i) {
    skewed[i] = i < 8 ? 1000.0 : 1.0;
  }
  std::vector<double> zeros(97, 0.0);
  for (const auto* w : {&uniform, &skewed, &zeros}) {
    for (const int shards : {1, 2, 3, 4, 7}) {
      expect_valid_bounds(partition_weighted(*w, shards), shards, w->size());
    }
  }
  // Skewed weights pull the first boundary into the heavy prefix.
  const auto b = partition_weighted(skewed, 2);
  EXPECT_LE(b[1], 9u);
}

TEST(Partition, BalancesTotalWeightAcrossShards) {
  std::vector<double> w(200, 0.0);
  Xoshiro256 rng(3);
  double total = 0.0;
  for (double& v : w) {
    v = rng.uniform(0.5, 4.0);
    total += v;
  }
  const int shards = 4;
  const auto b = partition_weighted(w, shards);
  expect_valid_bounds(b, shards, w.size());
  const double ideal = total / shards;
  const double heaviest = 4.0; // max item weight
  for (int s = 0; s < shards; ++s) {
    double ws = 0.0;
    for (std::size_t i = b[static_cast<std::size_t>(s)];
         i < b[static_cast<std::size_t>(s) + 1]; ++i) {
      ws += w[i];
    }
    // Prefix-threshold splits miss the ideal by at most one item.
    EXPECT_LE(ws, ideal + heaviest + 1e-9) << "shard " << s;
  }
}

TEST(Partition, DeterministicAcrossWorkerCounts) {
  std::vector<double> w(150, 0.0);
  Xoshiro256 rng(11);
  for (double& v : w) v = rng.uniform(0.1, 5.0);

  std::vector<std::vector<std::size_t>> results;
  for (const int workers : {1, 3, 4}) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    results.push_back(partition_weighted(w, 3));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Partition, MoreShardsThanItemsYieldsEmptyTrailingRanges) {
  std::vector<double> w(3, 1.0);
  const int shards = 8;
  const auto b = partition_weighted(w, shards);
  expect_valid_bounds(b, shards, w.size());
  std::size_t non_empty = 0;
  for (int s = 0; s < shards; ++s) {
    if (b[static_cast<std::size_t>(s)] < b[static_cast<std::size_t>(s) + 1]) {
      ++non_empty;
    }
  }
  EXPECT_LE(non_empty, w.size());
  // Zero items: every shard is empty but the shape contract holds.
  expect_valid_bounds(partition_weighted(std::vector<double>{}, 4), 4, 0);
}

TEST(Partition, ShardOfBodyMatchesBounds) {
  const std::vector<index_t> bounds{0, 10, 10, 25};
  EXPECT_EQ(shard_of_body(bounds, 0), 0);
  EXPECT_EQ(shard_of_body(bounds, 9), 0);
  EXPECT_EQ(shard_of_body(bounds, 10), 2); // shard 1 is empty
  EXPECT_EQ(shard_of_body(bounds, 24), 2);
  EXPECT_EQ(shard_of_body(bounds, 25), 2); // end anchor resolves last
}

/// Body bounds at walk-group granularity, the sharded pipeline's rule.
std::vector<index_t> group_body_bounds(
    const std::vector<gravity::GroupSpan>& groups, std::size_t n,
    int shards) {
  std::vector<double> w(groups.size(), 1.0);
  const auto gb = partition_weighted(w, shards);
  std::vector<index_t> bounds(gb.size());
  for (std::size_t s = 0; s < gb.size(); ++s) {
    bounds[s] = gb[s] < groups.size()
                    ? static_cast<index_t>(groups[gb[s]].first)
                    : static_cast<index_t>(n);
  }
  return bounds;
}

TEST(Partition, OwnedAndTopNodesTileTheTreeExactly) {
  System s = plummer(4096, 21);
  s.build();
  const auto groups = gravity::walk_groups(s.tree, s.x, s.y, s.z);

  for (const int shards : {1, 2, 3, 4}) {
    const auto bounds = group_body_bounds(groups, s.n(), shards);
    const std::size_t num_nodes = s.tree.num_nodes();
    std::vector<int> seen(num_nodes, 0);

    for (int sh = 0; sh < shards; ++sh) {
      for (const NodeRange& r : owned_node_ranges(s.tree, bounds, sh)) {
        for (index_t node = r.begin; node < r.end; ++node) {
          ++seen[node];
          // Owned: body range inside the shard's bounds.
          const index_t first = s.tree.body_first[node];
          const index_t end = first + s.tree.body_count[node];
          EXPECT_GE(first, bounds[static_cast<std::size_t>(sh)]);
          EXPECT_LE(end, bounds[static_cast<std::size_t>(sh) + 1]);
        }
      }
    }
    std::size_t top_count = 0;
    for (const NodeRange& r : top_node_ranges(s.tree, bounds)) {
      for (index_t node = r.begin; node < r.end; ++node) {
        ++seen[node];
        ++top_count;
        // Top: at least one interior boundary strictly inside the range.
        const index_t first = s.tree.body_first[node];
        const index_t end = first + s.tree.body_count[node];
        bool straddles = false;
        for (std::size_t b = 1; b + 1 < bounds.size(); ++b) {
          if (bounds[b] > first && bounds[b] < end) straddles = true;
        }
        EXPECT_TRUE(straddles) << "node " << node << ", K = " << shards;
      }
    }
    for (std::size_t node = 0; node < num_nodes; ++node) {
      EXPECT_EQ(seen[node], 1) << "node " << node << ", K = " << shards;
    }
    if (shards == 1) {
      EXPECT_EQ(top_count, 0u); // no interior boundary to straddle
    } else {
      EXPECT_GE(top_count, 1u); // the root straddles any interior split
    }
  }
}

/// Walk one destination shard over a NaN-poisoned copy of the tree that
/// keeps only what the sharded pipeline replicates — the shard's own
/// bodies and nodes, the top set, and each remote shard's LET export —
/// and compare against the full-tree reference. A single missing cell
/// poisons the result with NaN, so bit-equality proves sufficiency.
/// `simd_export`/`simd_walk` pin GOTHIC_SIMD for the export side
/// (let_bounds + build_let) and the destination walk respectively —
/// crossing them asserts the bounds stay sufficient when exporter and
/// destination run different substrate paths; unset keeps the ambient
/// setting.
void expect_let_sufficient(System& s, int shards,
                           std::optional<bool> simd_export = {},
                           std::optional<bool> simd_walk = {}) {
  auto with_simd = [](std::optional<bool> on, auto&& fn) {
    if (on.has_value()) {
      simt::ScopedSimd guard(*on);
      fn();
    } else {
      fn();
    }
  };
  const auto groups = gravity::walk_groups(s.tree, s.x, s.y, s.z);
  const auto bounds = group_body_bounds(groups, s.n(), shards);
  std::vector<double> w(groups.size(), 1.0);
  const auto gb = partition_weighted(w, shards);

  gravity::WalkConfig cfg;
  cfg.eps = real(0.03);
  cfg.mac.type = gravity::MacType::OpeningAngle;
  cfg.mac.theta = real(0.5);

  // Full-tree reference over all groups.
  std::vector<real> rax(s.n()), ray(s.n()), raz(s.n()), rpot(s.n());
  gravity::walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, rax, ray, raz,
                     rpot, nullptr, nullptr, {}, groups);

  const auto top = top_node_ranges(s.tree, bounds);
  const real qnan = std::numeric_limits<real>::quiet_NaN();
  std::uint64_t exported_cells = 0;

  for (int dst = 0; dst < shards; ++dst) {
    const std::span<const gravity::GroupSpan> dst_groups(
        groups.data() + gb[static_cast<std::size_t>(dst)],
        gb[static_cast<std::size_t>(dst) + 1] -
            gb[static_cast<std::size_t>(dst)]);
    if (dst_groups.empty()) continue;

    Octree view = s.tree;
    std::vector<real> vx = s.x, vy = s.y, vz = s.z;
    std::fill(view.mass.begin(), view.mass.end(), qnan);
    std::fill(view.com_x.begin(), view.com_x.end(), qnan);
    std::fill(view.com_y.begin(), view.com_y.end(), qnan);
    std::fill(view.com_z.begin(), view.com_z.end(), qnan);
    std::fill(view.bmax.begin(), view.bmax.end(), qnan);
    std::fill(vx.begin(), vx.end(), qnan);
    std::fill(vy.begin(), vy.end(), qnan);
    std::fill(vz.begin(), vz.end(), qnan);

    auto copy_cell = [&](index_t node) {
      view.mass[node] = s.tree.mass[node];
      view.com_x[node] = s.tree.com_x[node];
      view.com_y[node] = s.tree.com_y[node];
      view.com_z[node] = s.tree.com_z[node];
      view.bmax[node] = s.tree.bmax[node];
    };
    auto copy_bodies = [&](index_t first, index_t count) {
      for (index_t i = first; i < first + count; ++i) {
        vx[i] = s.x[i];
        vy[i] = s.y[i];
        vz[i] = s.z[i];
      }
    };

    // Own slice + own nodes; top nodes and top-leaf bodies everywhere.
    copy_bodies(bounds[static_cast<std::size_t>(dst)],
                bounds[static_cast<std::size_t>(dst) + 1] -
                    bounds[static_cast<std::size_t>(dst)]);
    for (const NodeRange& r : owned_node_ranges(s.tree, bounds, dst)) {
      for (index_t node = r.begin; node < r.end; ++node) copy_cell(node);
    }
    for (const NodeRange& r : top) {
      for (index_t node = r.begin; node < r.end; ++node) {
        copy_cell(node);
        if (s.tree.is_leaf(node) && s.tree.body_count[node] > 0) {
          copy_bodies(s.tree.body_first[node], s.tree.body_count[node]);
        }
      }
    }

    // Import each remote shard's LET export (under the export-side SIMD
    // setting when pinned).
    with_simd(simd_export, [&] {
      const gravity::LetBounds db = gravity::let_bounds(
          s.x, s.y, s.z, {}, dst_groups, {}, cfg.mode);
      ASSERT_TRUE(db.any);
      for (int src = 0; src < shards; ++src) {
        if (src == dst) continue;
        gravity::LetExport exp;
        gravity::build_let(s.tree, cfg,
                           bounds[static_cast<std::size_t>(src)],
                           bounds[static_cast<std::size_t>(src) + 1], db,
                           exp);
        for (index_t node : exp.cells) copy_cell(node);
        for (const gravity::LetRange& r : exp.bodies) {
          copy_bodies(r.first, r.count);
        }
        exported_cells += exp.cells.size();
      }
    });

    // Walk only the destination's groups over the poisoned view (under
    // the walk-side SIMD setting when pinned).
    std::vector<real> ax(s.n(), real(0)), ay(s.n(), real(0));
    std::vector<real> az(s.n(), real(0)), pot(s.n(), real(0));
    with_simd(simd_walk, [&] {
      gravity::walk_tree(view, vx, vy, vz, s.m, {}, cfg, ax, ay, az, pot,
                         nullptr, nullptr, {}, dst_groups);
    });
    for (index_t i = bounds[static_cast<std::size_t>(dst)];
         i < bounds[static_cast<std::size_t>(dst) + 1]; ++i) {
      ASSERT_TRUE(std::isfinite(ax[i]))
          << "NaN leak at body " << i << ", dst " << dst << ", K " << shards;
      ASSERT_EQ(ax[i], rax[i]) << "body " << i << ", dst " << dst;
      ASSERT_EQ(ay[i], ray[i]) << "body " << i << ", dst " << dst;
      ASSERT_EQ(az[i], raz[i]) << "body " << i << ", dst " << dst;
      ASSERT_EQ(pot[i], rpot[i]) << "body " << i << ", dst " << dst;
    }
  }

  // The export prunes: far subtrees collapse to one accepted cell, so the
  // traffic is well below replicating every remote node.
  if (shards > 1) {
    EXPECT_GT(exported_cells, 0u);
    EXPECT_LT(exported_cells, static_cast<std::uint64_t>(shards) *
                                  s.tree.num_nodes());
  }
}

TEST(Let, ExportIsSufficientOnPlummerSphere) {
  System s = plummer(4096, 22);
  s.build();
  expect_let_sufficient(s, 2);
  expect_let_sufficient(s, 4);
}

TEST(Let, ExportIsSufficientOnUniformBox) {
  System s = uniform_box(4096, 23);
  s.build();
  expect_let_sufficient(s, 2);
  expect_let_sufficient(s, 3);
}

TEST(Let, ExportStaysSufficientAcrossSimdPathsAtTheRadiusBoundary) {
  // Two tightenings of the sufficiency oracle. (1) Radius boundary:
  // random positions put roughly half of all decomposition radii on the
  // double→float rounding boundary that group_bounding_radius now rounds
  // up — assert the decomposition actually contains such groups, so the
  // poisoned-view walk exercises the boundary case rather than testing
  // nothing. (2) Crossed substrate paths: export under one GOTHIC_SIMD
  // setting and walk under the other — bounds computed by one path must
  // stay sufficient for a destination running the other.
  if (!simt::simd_available()) {
    GTEST_SKIP() << "AVX2 unavailable on this host";
  }
  System s = plummer(2048, 31);
  s.build();

  const auto groups = gravity::walk_groups(s.tree, s.x, s.y, s.z);
  int boundary_groups = 0;
  for (const gravity::GroupSpan& g : groups) {
    if (g.count < 2) continue;
    double cx, cy, cz;
    const float r = gravity::group_bounding_radius(s.x, s.y, s.z, g.first,
                                                   g.count, cx, cy, cz);
    double r2 = 0;
    for (index_t i = g.first; i < g.first + g.count; ++i) {
      const double dx = s.x[i] - cx, dy = s.y[i] - cy, dz = s.z[i] - cz;
      r2 = std::max(r2, dx * dx + dy * dy + dz * dz);
    }
    const double rd = std::sqrt(r2);
    ASSERT_GE(static_cast<double>(r), rd);
    if (static_cast<double>(static_cast<float>(rd)) < rd) ++boundary_groups;
  }
  EXPECT_GT(boundary_groups, 0)
      << "decomposition hit no rounding-boundary radii; the boundary case "
         "is untested";

  expect_let_sufficient(s, 2, /*simd_export=*/true, /*simd_walk=*/false);
  expect_let_sufficient(s, 2, /*simd_export=*/false, /*simd_walk=*/true);
}

TEST(Let, EmptyDestinationExportsNothing) {
  System s = plummer(512, 24);
  s.build();
  gravity::LetBounds none; // any == false: destination walks nothing
  gravity::LetExport exp;
  gravity::build_let(s.tree, gravity::WalkConfig{}, 0,
                     static_cast<index_t>(s.n()), none, exp);
  EXPECT_TRUE(exp.cells.empty());
  EXPECT_TRUE(exp.bodies.empty());
}

} // namespace
} // namespace gothic::octree
