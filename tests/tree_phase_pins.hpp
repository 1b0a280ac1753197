// Shared inputs of the tree-phase pins (test_octree, test_walk_groups):
// three registry scenarios at N = 4096 and an FNV-1a digest of raw array
// bytes, so one 64-bit constant pins a whole set of arrays bit for bit.
#pragma once

#include "nbody/particles.hpp"
#include "octree/tree.hpp"
#include "scenario/registry.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace gothic::pins {

/// The pins cover m31 (a deep, graded tree), lj-box (a shallow lattice
/// tree with many equal keys per cell) and uniform-box (a random cube).
inline constexpr std::size_t kN = 4096;
inline constexpr std::array<int, 3> kWorkerCounts = {1, 2, 4};

/// Initial conditions of `name` at N = 4096, seed 1 (memoised: the M31
/// sampler is the slowest part of these tests; map nodes keep returned
/// references valid).
inline const nbody::Particles& input(const std::string& name) {
  static std::map<std::string, nbody::Particles> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, scenario::find_scenario(name).make(kN, 1)).first;
  }
  return it->second;
}

/// FNV-1a over the raw bytes of `v`, chained onto `h`.
template <typename T>
std::uint64_t digest(const std::vector<T>& v,
                     std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

/// Every topology array of `tree` plus its bounding cube.
inline std::uint64_t topology_digest(const octree::Octree& tree) {
  std::uint64_t h = digest(tree.child_first);
  h = digest(tree.child_count, h);
  h = digest(tree.body_first, h);
  h = digest(tree.body_count, h);
  h = digest(tree.depth, h);
  h = digest(tree.level_offset, h);
  const std::vector<real> box = {tree.box.min_x, tree.box.min_y,
                                 tree.box.min_z, tree.box.edge};
  return digest(box, h);
}

/// "0x..." for failure messages (the pins are written in hex).
inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

} // namespace gothic::pins
