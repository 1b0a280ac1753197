// Morton keys, radix sort, tree construction and calcNode.
#include "octree/calc_node.hpp"
#include "octree/morton.hpp"
#include "octree/radix_sort.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "tree_phase_pins.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>

namespace gothic::octree {
namespace {

TEST(Morton, EncodeDecodeRoundTrips) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto ix = static_cast<std::uint32_t>(rng.next() & 0x1fffff);
    const auto iy = static_cast<std::uint32_t>(rng.next() & 0x1fffff);
    const auto iz = static_cast<std::uint32_t>(rng.next() & 0x1fffff);
    std::uint32_t ox, oy, oz;
    morton_decode(morton_encode(ix, iy, iz), ox, oy, oz);
    EXPECT_EQ(ox, ix);
    EXPECT_EQ(oy, iy);
    EXPECT_EQ(oz, iz);
  }
}

TEST(Morton, ExpandBitsSpacing) {
  // Bit k of the input lands at bit 3k of the output.
  for (int k = 0; k < 21; ++k) {
    EXPECT_EQ(expand_bits_3(1u << k), std::uint64_t{1} << (3 * k));
  }
}

TEST(Morton, DigitExtractionMatchesTopDownOctants) {
  // A point in the upper octant on all axes has digit 7 at depth 0.
  const std::uint64_t key = morton_encode(0x1fffff, 0x1fffff, 0x1fffff);
  EXPECT_EQ(morton_digit(key, 0), 7u);
  const std::uint64_t zero = morton_encode(0, 0, 0);
  for (int d = 0; d < kMaxDepth; ++d) EXPECT_EQ(morton_digit(zero, d), 0u);
}

TEST(Morton, KeysOrderedAlongSpaceFillingCurve) {
  // x-major ordering is not guaranteed, but the key of the cell containing
  // the origin is minimal and the far corner maximal.
  BoundingCube box{0, 0, 0, 1};
  const auto lo = morton_key(box, 0.0f, 0.0f, 0.0f);
  const auto hi = morton_key(box, 0.999f, 0.999f, 0.999f);
  EXPECT_LT(lo, hi);
  EXPECT_EQ(lo, 0u);
}

TEST(Morton, BoundingCubeCoversAllPoints) {
  Xoshiro256 rng(7);
  std::vector<real> x(500), y(500), z(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<real>(rng.uniform(-3, 9));
    y[i] = static_cast<real>(rng.uniform(5, 6));
    z[i] = static_cast<real>(rng.uniform(-100, 100));
  }
  const BoundingCube box = compute_bounding_cube(x, y, z);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x[i], box.min_x);
    EXPECT_LT(x[i], box.min_x + box.edge);
    EXPECT_GE(y[i], box.min_y);
    EXPECT_LT(y[i], box.min_y + box.edge);
    EXPECT_GE(z[i], box.min_z);
    EXPECT_LT(z[i], box.min_z + box.edge);
  }
}

class RadixSortSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixSortSizes, SortsKeysAndCarriesPayload) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  std::vector<std::uint64_t> expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<index_t> payload(n);
  std::iota(payload.begin(), payload.end(), index_t{0});

  std::vector<std::uint64_t> orig = keys;
  radix_sort_pairs(keys, payload);
  ASSERT_TRUE(is_sorted_keys(keys));
  EXPECT_EQ(keys, expect);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(orig[payload[i]], keys[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortSizes,
                         ::testing::Values(2, 3, 31, 32, 1000, 65536));

TEST(RadixSort, StableWithinEqualKeys) {
  // Equal keys must preserve payload order (required for deterministic
  // trees when particles share a Morton cell).
  const std::size_t n = 1000;
  std::vector<std::uint64_t> keys(n);
  std::vector<index_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = i % 7;
    payload[i] = static_cast<index_t>(i);
  }
  radix_sort_pairs(keys, payload);
  for (std::size_t i = 1; i < n; ++i) {
    if (keys[i] == keys[i - 1]) {
      EXPECT_GT(payload[i], payload[i - 1]);
    }
  }
}

TEST(RadixSort, LimitedBitsSortLowDigitsOnly) {
  std::vector<std::uint64_t> keys = {0x200000005ull, 0x100000001ull};
  std::vector<index_t> payload = {0, 1};
  // Only 8 low bits participate: order by 5 vs 1.
  radix_sort_pairs(keys, payload, 8);
  EXPECT_EQ(keys[0], 0x100000001ull);
  EXPECT_EQ(payload[0], 1u);
}

TEST(RadixSort, AccountsMemoryTraffic) {
  std::vector<std::uint64_t> keys(256);
  std::vector<index_t> payload(256);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = 255 - i;
    payload[i] = static_cast<index_t>(i);
  }
  simt::OpCounts ops;
  radix_sort_pairs(keys, payload, 64, &ops);
  // 8 passes x 256 pairs x 12 bytes in each direction.
  EXPECT_EQ(ops.bytes_load, 8u * 256u * 12u);
  EXPECT_EQ(ops.bytes_store, 8u * 256u * 12u);
}

// --- tree construction -------------------------------------------------------

struct Cloud {
  std::vector<real> x, y, z, m;
};

Cloud random_cloud(std::size_t n, std::uint64_t seed, bool clustered = false) {
  Xoshiro256 rng(seed);
  Cloud c;
  c.x.resize(n);
  c.y.resize(n);
  c.z.resize(n);
  c.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    if (clustered && i % 2 == 0) {
      c.x[i] = static_cast<real>(rng.normal(0.5, 0.02));
      c.y[i] = static_cast<real>(rng.normal(0.5, 0.02));
      c.z[i] = static_cast<real>(rng.normal(0.5, 0.02));
    } else {
      c.x[i] = static_cast<real>(rng.uniform());
      c.y[i] = static_cast<real>(rng.uniform());
      c.z[i] = static_cast<real>(rng.uniform());
    }
  }
  return c;
}

void sort_cloud(Cloud& c, Octree& tree, std::vector<index_t>& perm,
                const BuildConfig& cfg = {}) {
  build_tree(c.x, c.y, c.z, tree, perm, cfg);
  Cloud s = c;
  gather(c.x, perm, s.x);
  gather(c.y, perm, s.y);
  gather(c.z, perm, s.z);
  gather(c.m, perm, s.m);
  c = s;
}

TEST(TreeBuild, RootCoversAllBodies) {
  Cloud c = random_cloud(1000, 1);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  EXPECT_EQ(tree.body_first[0], 0u);
  EXPECT_EQ(tree.body_count[0], 1000u);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(TreeBuild, PermutationIsABijection) {
  Cloud c = random_cloud(4096, 2);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  std::vector<index_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<index_t>(i));
  }
}

TEST(TreeBuild, ChildrenPartitionParentRange) {
  Cloud c = random_cloud(8192, 3, /*clustered=*/true);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  for (index_t node = 0; node < tree.num_nodes(); ++node) {
    if (tree.is_leaf(node)) continue;
    index_t covered = 0;
    index_t cursor = tree.body_first[node];
    for (int k = 0; k < tree.child_count[node]; ++k) {
      const index_t child = tree.child_first[node] + static_cast<index_t>(k);
      EXPECT_EQ(tree.body_first[child], cursor)
          << "child ranges must be contiguous";
      cursor += tree.body_count[child];
      covered += tree.body_count[child];
    }
    EXPECT_EQ(covered, tree.body_count[node]);
  }
}

TEST(TreeBuild, LeavesRespectCapacity) {
  const int cap = 24;
  Cloud c = random_cloud(10000, 4);
  Octree tree;
  std::vector<index_t> perm;
  BuildConfig cfg;
  cfg.leaf_capacity = cap;
  sort_cloud(c, tree, perm, cfg);
  for (index_t node = 0; node < tree.num_nodes(); ++node) {
    if (tree.is_leaf(node)) {
      EXPECT_LE(tree.body_count[node], static_cast<index_t>(cap));
    }
  }
}

TEST(TreeBuild, LevelsAreContiguousAndDeepening) {
  Cloud c = random_cloud(5000, 5);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  ASSERT_GE(tree.num_levels(), 2);
  for (int lv = 0; lv < tree.num_levels(); ++lv) {
    for (index_t node = tree.level_offset[lv]; node < tree.level_offset[lv + 1];
         ++node) {
      EXPECT_EQ(tree.depth[node], lv);
    }
  }
}

TEST(TreeBuild, IdenticalPositionsTerminate) {
  // All bodies at one point: the build must stop at kMaxDepth with one
  // over-full leaf rather than recursing forever.
  Cloud c;
  c.x.assign(100, real(0.25));
  c.y.assign(100, real(0.5));
  c.z.assign(100, real(0.75));
  c.m.assign(100, real(0.01));
  Octree tree;
  std::vector<index_t> perm;
  BuildConfig cfg;
  cfg.leaf_capacity = 8;
  build_tree(c.x, c.y, c.z, tree, perm, cfg);
  index_t max_leaf = 0;
  for (index_t node = 0; node < tree.num_nodes(); ++node) {
    if (tree.is_leaf(node)) max_leaf = std::max(max_leaf, tree.body_count[node]);
  }
  EXPECT_EQ(max_leaf, 100u);
}

TEST(TreeBuild, MortonOrderGroupsNearbyBodies) {
  Cloud c = random_cloud(4096, 6, /*clustered=*/true);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  // Consecutive bodies in tree order should be much closer on average than
  // random pairs (the property walkTree's 32-body groups rely on).
  double near = 0, far = 0;
  Xoshiro256 rng(9);
  const std::size_t n = c.x.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double dx = c.x[i + 1] - c.x[i];
    const double dy = c.y[i + 1] - c.y[i];
    const double dz = c.z[i + 1] - c.z[i];
    near += std::sqrt(dx * dx + dy * dy + dz * dz);
    const auto j = static_cast<std::size_t>(rng.uniform(0, static_cast<double>(n)));
    const auto k = static_cast<std::size_t>(rng.uniform(0, static_cast<double>(n)));
    const double rx = c.x[j] - c.x[k];
    const double ry = c.y[j] - c.y[k];
    const double rz = c.z[j] - c.z[k];
    far += std::sqrt(rx * rx + ry * ry + rz * rz);
  }
  EXPECT_LT(near, 0.25 * far);
}

// --- calcNode ----------------------------------------------------------------

class CalcNodeTsub : public ::testing::TestWithParam<int> {};

TEST_P(CalcNodeTsub, MassAndComMatchDirectSummation) {
  Cloud c = random_cloud(3000, 10, /*clustered=*/true);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  CalcNodeConfig cfg;
  cfg.tsub = GetParam();
  calc_node(tree, c.x, c.y, c.z, c.m, cfg);

  for (index_t node = 0; node < tree.num_nodes(); ++node) {
    double mm = 0, mx = 0, my = 0, mz = 0;
    for (index_t b = tree.body_first[node];
         b < tree.body_first[node] + tree.body_count[node]; ++b) {
      mm += c.m[b];
      mx += c.m[b] * c.x[b];
      my += c.m[b] * c.y[b];
      mz += c.m[b] * c.z[b];
    }
    ASSERT_GT(mm, 0.0);
    EXPECT_NEAR(tree.mass[node], mm, 1e-5 * mm);
    EXPECT_NEAR(tree.com_x[node], mx / mm, 2e-4);
    EXPECT_NEAR(tree.com_y[node], my / mm, 2e-4);
    EXPECT_NEAR(tree.com_z[node], mz / mm, 2e-4);
  }
}

TEST_P(CalcNodeTsub, BmaxBoundsEveryBodyDistance) {
  Cloud c = random_cloud(2000, 11);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  CalcNodeConfig cfg;
  cfg.tsub = GetParam();
  calc_node(tree, c.x, c.y, c.z, c.m, cfg);

  for (index_t node = 0; node < tree.num_nodes(); ++node) {
    for (index_t b = tree.body_first[node];
         b < tree.body_first[node] + tree.body_count[node]; ++b) {
      const double dx = c.x[b] - tree.com_x[node];
      const double dy = c.y[b] - tree.com_y[node];
      const double dz = c.z[b] - tree.com_z[node];
      const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
      EXPECT_LE(d, tree.bmax[node] * (1.0 + 1e-4) + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CalcNodeTsub, ::testing::Values(4, 8, 16, 32));

TEST(CalcNode, RootMassEqualsTotal) {
  Cloud c = random_cloud(5000, 12);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);
  calc_node(tree, c.x, c.y, c.z, c.m);
  double total = 0;
  for (real mi : c.m) total += mi;
  EXPECT_NEAR(tree.mass[0], total, 1e-5 * total);
}

TEST(CalcNode, VoltaModeCountsSyncsPascalDoesNot) {
  Cloud c = random_cloud(2000, 13);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);

  simt::OpCounts pascal, volta;
  CalcNodeConfig cfg;
  cfg.mode = simt::ExecMode::Pascal;
  calc_node(tree, c.x, c.y, c.z, c.m, cfg, &pascal);
  cfg.mode = simt::ExecMode::Volta;
  calc_node(tree, c.x, c.y, c.z, c.m, cfg, &volta);

  EXPECT_EQ(pascal.syncwarp, 0u);
  EXPECT_GT(volta.syncwarp, 0u);
  // Identical arithmetic in both modes (§4.1: only the sync count differs).
  EXPECT_EQ(pascal.fp32_fma, volta.fp32_fma);
  EXPECT_EQ(pascal.fp32_add, volta.fp32_add);
  EXPECT_EQ(pascal.bytes_load, volta.bytes_load);
}

TEST(CalcNode, SmallerTsubUsesFewerReductionStages) {
  Cloud c = random_cloud(2000, 14);
  Octree tree;
  std::vector<index_t> perm;
  sort_cloud(c, tree, perm);

  simt::OpCounts t8, t32;
  CalcNodeConfig cfg;
  cfg.mode = simt::ExecMode::Volta;
  cfg.tsub = 8;
  calc_node(tree, c.x, c.y, c.z, c.m, cfg, &t8);
  cfg.tsub = 32;
  calc_node(tree, c.x, c.y, c.z, c.m, cfg, &t32);
  // Tsub=8 packs 4 nodes per warp: fewer warp-invocations of log2(width)
  // stages, hence fewer total shuffles and syncs.
  EXPECT_LT(t8.shfl, t32.shfl);
  EXPECT_LT(t8.syncwarp, t32.syncwarp);
}

// --- the tree phase, pinned to the serial implementation -------------------
// build_tree and calc_node run on the worker pool; every topology array,
// permutation, moment and op tally must equal what the original serial
// build and all-lane calcNode loops produced. The constants were recorded
// from that implementation and must hold on every worker count.

/// Every OpCounts field, declaration order.
using Tallies = std::array<std::uint64_t, 13>;

Tallies tallies_of(const simt::OpCounts& o) {
  return {o.int_ops,     o.fp32_fma,  o.fp32_mul,       o.fp32_add,
          o.fp32_special, o.bytes_load, o.bytes_store,  o.syncwarp,
          o.tile_sync,   o.block_sync, o.global_barrier, o.shfl,
          o.ballot};
}

struct SortedInput {
  Octree tree;
  std::vector<index_t> perm;
  std::vector<real> x, y, z, m;
};

/// The Morton tree of a pinned scenario, with its bodies in tree order.
SortedInput sorted_input(const char* scenario) {
  const nbody::Particles& p = pins::input(scenario);
  SortedInput s;
  build_tree(p.x, p.y, p.z, s.tree, s.perm);
  for (auto [src, dst] : {std::pair{&p.x, &s.x}, std::pair{&p.y, &s.y},
                          std::pair{&p.z, &s.z}, std::pair{&p.m, &s.m}}) {
    dst->resize(src->size());
    gather(*src, s.perm, *dst);
  }
  return s;
}

TEST(TreeBuild, TopologyEqualsThePinnedParentValues) {
  // Volta differs from Pascal only in the tile_sync tally (index 8).
  struct Pin {
    const char* scenario;
    SpaceFillingCurve curve;
    index_t nodes;
    int levels;
    std::uint64_t topology;
    std::uint64_t perm;
    Tallies pascal;
    std::uint64_t volta_tile_sync;
  };
  const Pin pins_[] = {
      {"m31", SpaceFillingCurve::Morton, 1077, 11, 0x6416b8dc964a1c4d, 0x30f37ede876e4be1,
       {564790, 12288, 0, 0, 0, 802816, 447524, 0, 0, 0, 0, 0, 0},
       2154},
      {"m31", SpaceFillingCurve::Hilbert, 1077, 11, 0x097d4a8b45ee2af2, 0xbb4a4066c048fd09,
       {564790, 12288, 0, 0, 0, 802816, 447524, 0, 0, 0, 0, 0, 0},
       2154},
      {"lj-box", SpaceFillingCurve::Morton, 585, 4, 0xe3ada877dceb6dfa, 0x96dd443c225a2c25,
       {492686, 12288, 0, 0, 0, 573440, 437684, 0, 0, 0, 0, 0, 0},
       1170},
      {"lj-box", SpaceFillingCurve::Hilbert, 585, 4, 0xe3ada877dceb6dfa, 0xfa8e81e567e58e55,
       {492686, 12288, 0, 0, 0, 573440, 437684, 0, 0, 0, 0, 0, 0},
       1170},
      {"uniform-box", SpaceFillingCurve::Morton, 593, 5, 0x4bae91fe493502cb, 0x0ed5f1c4c94a8d39,
       {501118, 12288, 0, 0, 0, 606208, 437844, 0, 0, 0, 0, 0, 0},
       1186},
      {"uniform-box", SpaceFillingCurve::Hilbert, 593, 5, 0x635eeeefa3a5daa0, 0x3aba0a80d9b67465,
       {501118, 12288, 0, 0, 0, 606208, 437844, 0, 0, 0, 0, 0, 0},
       1186},
  };
  for (const int workers : pins::kWorkerCounts) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    for (const Pin& pin : pins_) {
      const nbody::Particles& p = pins::input(pin.scenario);
      for (const simt::ExecMode mode :
           {simt::ExecMode::Pascal, simt::ExecMode::Volta}) {
        BuildConfig cfg;
        cfg.curve = pin.curve;
        cfg.mode = mode;
        Octree tree;
        std::vector<index_t> perm;
        simt::OpCounts ops;
        build_tree(p.x, p.y, p.z, tree, perm, cfg, &ops);
        Tallies want = pin.pascal;
        if (mode == simt::ExecMode::Volta) want[8] = pin.volta_tile_sync;
        const std::string where =
            std::string(pin.scenario) +
            (pin.curve == SpaceFillingCurve::Morton ? " morton " : " hilbert ") +
            simt::exec_mode_name(mode) + " workers " +
            std::to_string(workers);
        EXPECT_EQ(tree.num_nodes(), pin.nodes) << where;
        EXPECT_EQ(tree.num_levels(), pin.levels) << where;
        EXPECT_EQ(pins::hex(pins::topology_digest(tree)), pins::hex(pin.topology))
            << where;
        EXPECT_EQ(pins::hex(pins::digest(perm)), pins::hex(pin.perm)) << where;
        EXPECT_EQ(tallies_of(ops), want) << where;
      }
    }
  }
}

TEST(CalcNode, MomentsAndTalliesEqualThePinnedParentValues) {
  // Quadrupoles on, so all three passes run. The moments depend on the
  // scenario and tsub only; Volta differs from Pascal only in the syncwarp
  // tally (index 7).
  struct Pin {
    const char* scenario;
    int tsub;
    std::uint64_t moments;
    Tallies pascal;
    std::uint64_t volta_syncwarp;
  };
  const Pin pins_[] = {
      {"m31", 2, 0xd0b37f60269aeead,
       {62064, 93096, 44607, 78492, 6249, 1075776, 133548, 0, 0, 0, 11, 25696, 0},
       803},
      {"m31", 8, 0x10f82c8b5c4a2ca5,
       {62064, 93096, 44607, 340028, 6249, 1075776, 133548, 0, 0, 0, 11, 287232, 0},
       8976},
      {"m31", 32, 0x10f82c8b5c4a2ca5,
       {62064, 93096, 44607, 1948316, 6249, 1075776, 133548, 0, 0, 0, 11, 1895520, 0},
       59235},
      {"lj-box", 2, 0x90f63ae89197fddb,
       {56160, 84240, 39195, 60760, 5265, 973440, 72540, 0, 0, 0, 4, 13376, 0},
       418},
      {"lj-box", 8, 0xb6bac1cc828da75d,
       {56160, 84240, 39195, 202616, 5265, 973440, 72540, 0, 0, 0, 4, 155232, 0},
       4851},
      {"lj-box", 32, 0xb6bac1cc828da75d,
       {56160, 84240, 39195, 1076984, 5265, 973440, 72540, 0, 0, 0, 4, 1029600, 0},
       32175},
      {"uniform-box", 2, 0x6f554ef001fb7ee3,
       {56256, 84384, 39283, 61200, 5281, 975104, 73532, 0, 0, 0, 5, 13728, 0},
       429},
      {"uniform-box", 8, 0x9b226542286698af,
       {56256, 84384, 39283, 204816, 5281, 975104, 73532, 0, 0, 0, 5, 157344, 0},
       4917},
      {"uniform-box", 32, 0x9b226542286698af,
       {56256, 84384, 39283, 1091152, 5281, 975104, 73532, 0, 0, 0, 5, 1043680, 0},
       32615},
  };
  for (const int workers : pins::kWorkerCounts) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    for (const Pin& pin : pins_) {
      SortedInput s = sorted_input(pin.scenario);
      for (const simt::ExecMode mode :
           {simt::ExecMode::Pascal, simt::ExecMode::Volta}) {
        for (const bool simd : {false, true}) {
          simt::ScopedSimd substrate(simd);
          CalcNodeConfig cfg;
          cfg.mode = mode;
          cfg.tsub = pin.tsub;
          cfg.compute_quadrupole = true;
          simt::OpCounts ops;
          calc_node(s.tree, s.x, s.y, s.z, s.m, cfg, &ops);
          const Octree& t = s.tree;
          std::uint64_t h = pins::digest(t.com_x);
          for (const std::vector<real>* v :
               {&t.com_y, &t.com_z, &t.mass, &t.bmax, &t.quad_xx, &t.quad_xy,
                &t.quad_xz, &t.quad_yy, &t.quad_yz, &t.quad_zz}) {
            h = pins::digest(*v, h);
          }
          Tallies want = pin.pascal;
          if (mode == simt::ExecMode::Volta) want[7] = pin.volta_syncwarp;
          const std::string where =
              std::string(pin.scenario) + " tsub " +
              std::to_string(pin.tsub) + " " + simt::exec_mode_name(mode) +
              (simd ? " simd" : " scalar") + " workers " +
              std::to_string(workers);
          EXPECT_EQ(pins::hex(h), pins::hex(pin.moments)) << where;
          EXPECT_EQ(tallies_of(ops), want) << where;
        }
      }
    }
  }
}

} // namespace
} // namespace gothic::octree
