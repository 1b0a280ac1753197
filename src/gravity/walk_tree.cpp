#include "gravity/walk_tree.hpp"

#include "gravity/cost_model.hpp"
#include "runtime/device.hpp"
#include "simt/scan.hpp"
#include "simt/simd.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace gothic::gravity {

namespace {

using octree::Octree;
using simt::LaneArray;
using simt::Warp;

/// The warp's shared-memory interaction list (SoA so the flush loop
/// vectorises over entries). Lives in the owning worker's arena — one
/// carve-out per worker, reused across every group and every launch, the
/// way GOTHIC sizes its shared-memory lists once at start-up (§2.1).
/// sx..sm carry kWarpSize entries of slack past `cap`, where the AVX2 MAC
/// sweep stages a batch's accepted pseudo-particles (mac_eval_avx2).
struct InteractionList {
  InteractionList(runtime::Arena& arena, int capacity, bool with_quad)
      : cap(capacity), has_quad(with_quad) {
    const auto n = static_cast<std::size_t>(capacity);
    sx = arena.alloc_span<real>(n + kWarpSize);
    sy = arena.alloc_span<real>(n + kWarpSize);
    sz = arena.alloc_span<real>(n + kWarpSize);
    sm = arena.alloc_span<real>(n + kWarpSize);
    if (with_quad) {
      qxx = arena.alloc_span<real>(n);
      qxy = arena.alloc_span<real>(n);
      qxz = arena.alloc_span<real>(n);
      qyy = arena.alloc_span<real>(n);
      qyz = arena.alloc_span<real>(n);
      qzz = arena.alloc_span<real>(n);
    }
  }
  int cap;
  bool has_quad;
  int size = 0;
  std::span<real> sx, sy, sz, sm;
  // Quadrupole moments of pseudo-particle entries (zero for spilled
  // bodies); carved out only when the walk evaluates them.
  std::span<real> qxx, qxy, qxz, qyy, qyz, qzz;

  void push(real px, real py, real pz, real pm) {
    sx[size] = px;
    sy[size] = py;
    sz[size] = pz;
    sm[size] = pm;
    if (has_quad) {
      qxx[size] = qxy[size] = qxz[size] = real(0);
      qyy[size] = qyz[size] = qzz[size] = real(0);
    }
    ++size;
  }

  /// Moves `n` entries staged at [from, from + n) to the front after a
  /// flush emptied the list; at small capacities the two runs overlap.
  void move_staged_to_front(int from, int n) {
    const auto bytes = static_cast<std::size_t>(n) * sizeof(real);
    for (const std::span<real> a : {sx, sy, sz, sm}) {
      std::memmove(a.data(), a.data() + from, bytes);
    }
  }

#if GOTHIC_SIMD_AVX2
  /// Bulk body append for the spill path: `nb` bodies (and zero
  /// quadrupoles), byte-identical to `nb` push() calls. Inline 8-float
  /// register copies with a masked tail, so a leaf of a few dozen bodies
  /// costs no library call. Neither side is touched past its last element:
  /// the source ends at the leaf's last body (the last leaf's at the end
  /// of the position spans) and the caller keeps size + nb <= cap.
  void append_bodies(const real* px, const real* py, const real* pz,
                     const real* pm, index_t nb) {
    namespace v = simt::simd;
    const int n = static_cast<int>(nb);
    const int full = n & ~7;
    const v::i32x8 tm = v::tail_mask8(n - full);
    const auto copy = [&](real* dst, const real* src) {
      for (int k = 0; k < full; k += 8) v::store8(dst + k, v::load8(src + k));
      if (full < n) {
        _mm256_maskstore_ps(dst + full, tm,
                            _mm256_maskload_ps(src + full, tm));
      }
    };
    const auto zero = [&](real* dst) {
      for (int k = 0; k < full; k += 8) v::store8(dst + k, _mm256_setzero_ps());
      if (full < n) _mm256_maskstore_ps(dst + full, tm, _mm256_setzero_ps());
    };
    copy(sx.data() + size, px);
    copy(sy.data() + size, py);
    copy(sz.data() + size, pz);
    copy(sm.data() + size, pm);
    if (has_quad) {
      zero(qxx.data() + size);
      zero(qxy.data() + size);
      zero(qxz.data() + size);
      zero(qyy.data() + size);
      zero(qyz.data() + size);
      zero(qzz.data() + size);
    }
    size += n;
  }
#endif

  void push_quad(real px, real py, real pz, real pm, real xx, real xy,
                 real xz, real yy, real yz, real zz) {
    sx[size] = px;
    sy[size] = py;
    sz[size] = pz;
    sm[size] = pm;
    qxx[size] = xx;
    qxy[size] = xy;
    qxz[size] = xz;
    qyy[size] = yy;
    qyz[size] = yz;
    qzz[size] = zz;
    ++size;
  }
};

/// Per-warp traversal workspace, reused across groups handled by the same
/// device worker. The frontiers grow in the worker's arena during warm-up
/// and reuse the retained capacity afterwards.
struct Workspace {
  explicit Workspace(runtime::Arena& arena) : cur(arena), nxt(arena) {}
  runtime::ArenaVector<index_t> cur, nxt;
};

struct GroupTask {
  const Octree* tree;
  std::span<const real> x, y, z, m, aold;
  const WalkConfig* cfg;
  std::span<real> ax, ay, az, pot;
};

/// Compactness rule: a group's sphere must stay small relative to its
/// distance from the mass concentration (here the global centroid), with
/// an absolute floor. A sphere overlapping the dense bulk forces every
/// bulk body through the leaf-spill path (near-direct summation); a wide
/// group far out in the sparse halo is harmless because everything it
/// sees is already distant.
struct CompactRule {
  double com_x = 0, com_y = 0, com_z = 0;
  float floor_radius = 0;
  float eta = 0.2f;

  [[nodiscard]] bool ok(float rgrp, double cx, double cy, double cz) const {
    const double dx = cx - com_x, dy = cy - com_y, dz = cz - com_z;
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    return rgrp <= std::max(static_cast<double>(floor_radius), eta * dist);
  }
};

/// Split `run` recursively while it violates the compactness rule
/// (Morton-contiguous halves stay spatially coherent). Each resulting
/// group's size is stored at the slot of its first body; returns how many
/// groups the run became.
index_t emit_compact(std::span<const real> x, std::span<const real> y,
                     std::span<const real> z, GroupSpan run,
                     const CompactRule& rule, std::span<index_t> size_at) {
  double cx, cy, cz;
  const float rgrp =
      group_bounding_radius(x, y, z, run.first, run.count, cx, cy, cz);
  if (run.count <= 1 || rule.ok(rgrp, cx, cy, cz)) {
    size_at[run.first] = run.count;
    return 1;
  }
  const index_t half = run.count / 2;
  return emit_compact(x, y, z, {run.first, half}, rule, size_at) +
         emit_compact(x, y, z,
                      {run.first + half, static_cast<index_t>(run.count - half)},
                      rule, size_at);
}

} // namespace

float group_bounding_radius(std::span<const real> x, std::span<const real> y,
                            std::span<const real> z, index_t first,
                            index_t count, double& cx, double& cy,
                            double& cz) {
  cx = cy = cz = 0;
  for (index_t i = first; i < first + count; ++i) {
    cx += x[i];
    cy += y[i];
    cz += z[i];
  }
  cx /= count;
  cy /= count;
  cz /= count;
  double r2 = 0;
  for (index_t i = first; i < first + count; ++i) {
    const double dx = x[i] - cx, dy = y[i] - cy, dz = z[i] - cz;
    r2 = std::max(r2, dx * dx + dy * dy + dz * dz);
  }
  const double rd = std::sqrt(r2);
  float r = static_cast<float>(rd);
  // Round-to-nearest can round the double radius DOWN to float; round up
  // so the float sphere is conservative (see the header contract).
  if (static_cast<double>(r) < rd) {
    r = std::nextafterf(r, std::numeric_limits<float>::infinity());
  }
  return r;
}

/// GOTHIC derives the 32-body warp groups from the tree structure so a
/// group never straddles spatially distant cells. We take each leaf as a
/// seed group, greedily merge Morton-adjacent leaves while the merged
/// group stays within a warp and within roughly a parent-cell extent, and
/// finally split any run wider than the compactness cap.
std::vector<GroupSpan> walk_groups(const Octree& tree,
                                   std::span<const real> x,
                                   std::span<const real> y,
                                   std::span<const real> z,
                                   real max_radius_fraction) {
  std::vector<GroupSpan> groups;
  walk_groups(tree, x, y, z, groups, max_radius_fraction);
  return groups;
}

void walk_groups(const Octree& tree, std::span<const real> x,
                 std::span<const real> y, std::span<const real> z,
                 std::vector<GroupSpan>& groups, real max_radius_fraction) {
  // The root (node 0) covers every body of the sorted order, so its count
  // is the body total the position spans must agree with. (Without the
  // guard, empty spans reached the centroid division below and the public
  // API returned NaN-compact groups.)
  const std::size_t n_tree =
      tree.num_nodes() > 0 ? static_cast<std::size_t>(tree.body_count[0]) : 0;
  if (y.size() != x.size() || z.size() != x.size() || x.size() != n_tree) {
    throw std::invalid_argument(
        "walk_groups: position spans disagree with the tree's body count");
  }
  groups.clear();
  if (x.empty()) return;

  // Scratch (the merged runs, the group sizes) lives in the context
  // workers' arenas, retained across rebuilds; like every arena-using
  // kernel, this one rewinds them first and owns them until it returns.
  runtime::Device& dev = runtime::Device::current();
  for (int t = 0; t < dev.workers(); ++t) dev.context_worker(t).arena.reset();
  runtime::Arena& scratch = dev.context_worker(0).arena;
  runtime::ArenaVector<GroupSpan> runs(scratch);

  GroupSpan cur{};
  int cur_min_depth = 0;
  int cur_max_depth = 0;
  auto merge_leaf = [&](index_t leaf) {
    index_t first = tree.body_first[leaf];
    index_t remain = tree.body_count[leaf];
    // Oversized leaves (identical positions at max depth) split plainly.
    while (remain > static_cast<index_t>(kWarpSize)) {
      if (cur.count > 0) {
        runs.push_back(cur);
        cur = GroupSpan{};
      }
      runs.push_back({first, static_cast<index_t>(kWarpSize)});
      first += kWarpSize;
      remain -= kWarpSize;
    }
    if (remain == 0) return;
    const int depth = tree.depth[leaf];
    const bool fits = cur.count + remain <= static_cast<index_t>(kWarpSize);
    // Same-or-adjacent depth keeps the union within ~one parent cell. The
    // merged leaf must sit within one level of both the shallowest and the
    // deepest leaf already in the run: anchoring on a single drifting
    // depth (the old `min(cur_depth, depth)` rule) let a graded chain of
    // leaves — each adjacent to the *current* anchor — walk the run
    // arbitrarily far from where it started, silently breaking the
    // one-parent-cell invariant this rule documents. The two-sided bound
    // caps a run's depth spread at 2 levels no matter how it was built.
    const bool compact =
        cur.count == 0 ||
        (depth >= cur_max_depth - 1 && depth <= cur_min_depth + 1);
    if (cur.count > 0 && fits && compact) {
      cur.count += remain;
      cur_min_depth = std::min(cur_min_depth, depth);
      cur_max_depth = std::max(cur_max_depth, depth);
    } else {
      if (cur.count > 0) runs.push_back(cur);
      cur = {first, remain};
      cur_min_depth = depth;
      cur_max_depth = depth;
    }
  };

  // Leaves in body order, merged as they come: a depth-first walk that
  // visits each node's children in order (children are contiguous and
  // ordered by body range). Each level leaves at most 7 siblings pending.
  std::array<index_t, 8 * (octree::kMaxDepth + 1)> stack;
  std::size_t top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const index_t node = stack[--top];
    if (tree.is_leaf(node)) {
      if (tree.body_count[node] > 0) merge_leaf(node);
      continue;
    }
    for (index_t k = tree.child_count[node]; k-- > 0;) {
      stack[top++] = tree.child_first[node] + k;
    }
  }
  if (cur.count > 0) runs.push_back(cur);

  // Compactness pass (see CompactRule). The global centroid stands in for
  // the mass concentration; equal particle masses make it the exact COM.
  CompactRule rule;
  rule.floor_radius = static_cast<float>(tree.box.edge * max_radius_fraction);
  double sx = 0, sy = 0, sz = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sz += z[i];
  }
  rule.com_x = sx / static_cast<double>(x.size());
  rule.com_y = sy / static_cast<double>(x.size());
  rule.com_z = sz / static_cast<double>(x.size());

  // Runs split independently: each writes its groups' sizes at their
  // first bodies' slots and its group count at its own index; packing the
  // runs in order then reproduces the serial emission order.
  const std::span<index_t> size_at = scratch.alloc_span<index_t>(x.size());
  const std::span<index_t> run_groups = scratch.alloc_span<index_t>(runs.size());
  dev.parallel_dynamic(0, runs.size(), 0, [&](runtime::Worker&,
                                              std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      run_groups[r] = emit_compact(x, y, z, runs[r], rule, size_at);
    }
  });
  std::size_t total = 0;
  for (const index_t count : run_groups) total += count;
  groups.resize(total);
  std::size_t g = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    index_t first = runs[r].first;
    for (index_t k = 0; k < run_groups[r]; ++k) {
      groups[g++] = {first, size_at[first]};
      first += size_at[first];
    }
  }
}

namespace {

// The pairwise kernel accumulates in float on both paths; the SIMD lane
// registers are __m256 (8 floats), so `real` widening would silently fork
// the two paths' numerics.
static_assert(std::is_same_v<real, float>,
              "flush_list lane kernels assume real == float");

#if GOTHIC_SIMD_AVX2
/// AVX2 lane kernel of flush_list: eight group bodies per register, one
/// broadcast source per inner iteration — the SoA lane mapping of
/// DESIGN.md "SIMD substrate". Executes *exactly* the scalar per-pair
/// operation sequence below (the same hand-placed FMAs, simd::rinv for
/// simt::rinv, -ffp-contract=off build), so each lane's accumulator is
/// bit-identical to the scalar loop's. The remainder block (gn not a
/// multiple of 8) runs masked — loads and stores touch only the live
/// lanes, dead lanes compute on zeros and are discarded — so every lane is
/// covered and the caller's scalar loop never runs when this kernel does.
/// Returns gn.
int flush_list_avx2(const GroupTask& t, const InteractionList& list, int gn,
                    std::size_t g0, LaneArray<float>& acc_x,
                    LaneArray<float>& acc_y, LaneArray<float>& acc_z,
                    LaneArray<float>& acc_p) {
  namespace v = simt::simd;
  const float eps2 = t.cfg->eps * t.cfg->eps;
  const int ls = list.size;
  const bool quad = t.cfg->use_quadrupole;
  const v::f32x8 eps2v = v::broadcast(eps2);
  const auto kernel = [&](v::f32x8 xi, v::f32x8 yi, v::f32x8 zi,
                          v::f32x8& sx, v::f32x8& sy, v::f32x8& sz,
                          v::f32x8& sp) {
    for (int j = 0; j < ls; ++j) {
      const v::f32x8 dx = v::sub(v::broadcast(list.sx[j]), xi);
      const v::f32x8 dy = v::sub(v::broadcast(list.sy[j]), yi);
      const v::f32x8 dz = v::sub(v::broadcast(list.sz[j]), zi);
      const v::f32x8 r2 =
          v::fma(dz, dz, v::fma(dy, dy, v::fma(dx, dx, eps2v)));
      const v::f32x8 rinv = v::rinv(r2);
      const v::f32x8 rinv2 = v::mul(rinv, rinv);
      const v::f32x8 mr = v::mul(v::broadcast(list.sm[j]), rinv);
      const v::f32x8 s = v::mul(mr, rinv2);
      sx = v::fma(s, dx, sx);
      sy = v::fma(s, dy, sy);
      sz = v::fma(s, dz, sz);
      sp = v::sub(sp, mr);
      if (quad) {
        const v::f32x8 qvx =
            v::add(v::add(v::mul(v::broadcast(list.qxx[j]), dx),
                          v::mul(v::broadcast(list.qxy[j]), dy)),
                   v::mul(v::broadcast(list.qxz[j]), dz));
        const v::f32x8 qvy =
            v::add(v::add(v::mul(v::broadcast(list.qxy[j]), dx),
                          v::mul(v::broadcast(list.qyy[j]), dy)),
                   v::mul(v::broadcast(list.qyz[j]), dz));
        const v::f32x8 qvz =
            v::add(v::add(v::mul(v::broadcast(list.qxz[j]), dx),
                          v::mul(v::broadcast(list.qyz[j]), dy)),
                   v::mul(v::broadcast(list.qzz[j]), dz));
        const v::f32x8 dq = v::add(
            v::add(v::mul(dx, qvx), v::mul(dy, qvy)), v::mul(dz, qvz));
        const v::f32x8 rinv5 = v::mul(v::mul(rinv2, rinv2), rinv);
        const v::f32x8 rinv7 = v::mul(rinv5, rinv2);
        const v::f32x8 coef =
            v::mul(v::mul(v::broadcast(2.5f), dq), rinv7);
        sx = v::add(sx, v::sub(v::mul(coef, dx), v::mul(qvx, rinv5)));
        sy = v::add(sy, v::sub(v::mul(coef, dy), v::mul(qvy, rinv5)));
        sz = v::add(sz, v::sub(v::mul(coef, dz), v::mul(qvz, rinv5)));
        sp = v::sub(sp, v::mul(v::mul(v::broadcast(0.5f), dq), rinv5));
      }
    }
  };
  const int full = gn & ~7;
  for (int lane = 0; lane < full; lane += 8) {
    const v::f32x8 xi = v::load8(t.x.data() + g0 + lane);
    const v::f32x8 yi = v::load8(t.y.data() + g0 + lane);
    const v::f32x8 zi = v::load8(t.z.data() + g0 + lane);
    v::f32x8 sx = _mm256_setzero_ps();
    v::f32x8 sy = _mm256_setzero_ps();
    v::f32x8 sz = _mm256_setzero_ps();
    v::f32x8 sp = _mm256_setzero_ps();
    kernel(xi, yi, zi, sx, sy, sz, sp);
    v::store8(acc_x.data() + lane, v::add(v::load8(acc_x.data() + lane), sx));
    v::store8(acc_y.data() + lane, v::add(v::load8(acc_y.data() + lane), sy));
    v::store8(acc_z.data() + lane, v::add(v::load8(acc_z.data() + lane), sz));
    v::store8(acc_p.data() + lane, v::add(v::load8(acc_p.data() + lane), sp));
  }
  if (const int rn = gn - full; rn > 0) {
    // Masked remainder: live lanes see exactly the scalar operation
    // sequence; dead lanes load as zero, compute garbage and are never
    // stored. acc_* are 32-wide LaneArrays and full <= 24 here, so the
    // unmasked accumulator loads stay in bounds.
    const v::i32x8 tm = v::tail_mask8(rn);
    const v::f32x8 xi = _mm256_maskload_ps(t.x.data() + g0 + full, tm);
    const v::f32x8 yi = _mm256_maskload_ps(t.y.data() + g0 + full, tm);
    const v::f32x8 zi = _mm256_maskload_ps(t.z.data() + g0 + full, tm);
    v::f32x8 sx = _mm256_setzero_ps();
    v::f32x8 sy = _mm256_setzero_ps();
    v::f32x8 sz = _mm256_setzero_ps();
    v::f32x8 sp = _mm256_setzero_ps();
    kernel(xi, yi, zi, sx, sy, sz, sp);
    _mm256_maskstore_ps(acc_x.data() + full, tm,
                        v::add(v::load8(acc_x.data() + full), sx));
    _mm256_maskstore_ps(acc_y.data() + full, tm,
                        v::add(v::load8(acc_y.data() + full), sy));
    _mm256_maskstore_ps(acc_z.data() + full, tm,
                        v::add(v::load8(acc_z.data() + full), sz));
    _mm256_maskstore_ps(acc_p.data() + full, tm,
                        v::add(v::load8(acc_p.data() + full), sp));
  }
  return gn;
}
/// AVX2 lane kernel of flush_list_lj: the Lennard-Jones mirror of
/// flush_list_avx2, executing *exactly* the scalar per-pair sequence below
/// (same mul association, IEEE division for 1/r2, -ffp-contract=off).
/// Out-of-range and self pairs are masked with _mm256_and_ps, whose
/// all-zero lanes produce the same +0.0f the scalar ternary's literal
/// does — including when the unmasked product is inf/NaN (r2 == 0) — so
/// the masked select-then-add matches the scalar loop bit for bit.
/// Returns gn.
int flush_list_lj_avx2(const GroupTask& t, const InteractionList& list,
                       int gn, std::size_t g0, LaneArray<float>& acc_x,
                       LaneArray<float>& acc_y, LaneArray<float>& acc_z,
                       LaneArray<float>& acc_p) {
  namespace v = simt::simd;
  const float sig2 = t.cfg->lj.sigma * t.cfg->lj.sigma;
  const float rc2 = t.cfg->lj.cutoff * t.cfg->lj.cutoff;
  const float ecoef = 24.0f * t.cfg->lj.epsilon;
  const float e4 = 4.0f * t.cfg->lj.epsilon;
  const int ls = list.size;
  const v::f32x8 sig2v = v::broadcast(sig2);
  const v::f32x8 rc2v = v::broadcast(rc2);
  const v::f32x8 ecoefv = v::broadcast(ecoef);
  const v::f32x8 e4v = v::broadcast(e4);
  const v::f32x8 one = v::broadcast(1.0f);
  const v::f32x8 zero = _mm256_setzero_ps();
  const auto kernel = [&](v::f32x8 xi, v::f32x8 yi, v::f32x8 zi,
                          v::f32x8& sx, v::f32x8& sy, v::f32x8& sz,
                          v::f32x8& sp) {
    for (int j = 0; j < ls; ++j) {
      const v::f32x8 smj = v::broadcast(list.sm[j]);
      const v::f32x8 dx = v::sub(v::broadcast(list.sx[j]), xi);
      const v::f32x8 dy = v::sub(v::broadcast(list.sy[j]), yi);
      const v::f32x8 dz = v::sub(v::broadcast(list.sz[j]), zi);
      const v::f32x8 r2 = v::add(
          v::add(v::mul(dx, dx), v::mul(dy, dy)), v::mul(dz, dz));
      // in-range mask: r2 > 0 drops self pairs (the group's own spilled
      // bodies), r2 <= rc2 is the exact per-pair cutoff. Ordered-quiet
      // compares reject NaN like the scalar &&.
      const v::f32x8 in =
          _mm256_and_ps(_mm256_cmp_ps(r2, zero, _CMP_GT_OQ),
                        _mm256_cmp_ps(r2, rc2v, _CMP_LE_OQ));
      const v::f32x8 inv = _mm256_div_ps(one, r2);
      const v::f32x8 s2 = v::mul(sig2v, inv);
      const v::f32x8 s6 = v::mul(v::mul(s2, s2), s2);
      const v::f32x8 s12 = v::mul(s6, s6);
      const v::f32x8 coef = v::mul(
          v::mul(ecoefv, smj),
          v::mul(v::sub(s6, v::add(s12, s12)), inv));
      const v::f32x8 vpair = v::mul(v::mul(e4v, smj), v::sub(s12, s6));
      sx = v::add(sx, _mm256_and_ps(in, v::mul(coef, dx)));
      sy = v::add(sy, _mm256_and_ps(in, v::mul(coef, dy)));
      sz = v::add(sz, _mm256_and_ps(in, v::mul(coef, dz)));
      sp = v::add(sp, _mm256_and_ps(in, vpair));
    }
  };
  const int full = gn & ~7;
  for (int lane = 0; lane < full; lane += 8) {
    const v::f32x8 xi = v::load8(t.x.data() + g0 + lane);
    const v::f32x8 yi = v::load8(t.y.data() + g0 + lane);
    const v::f32x8 zi = v::load8(t.z.data() + g0 + lane);
    v::f32x8 sx = _mm256_setzero_ps();
    v::f32x8 sy = _mm256_setzero_ps();
    v::f32x8 sz = _mm256_setzero_ps();
    v::f32x8 sp = _mm256_setzero_ps();
    kernel(xi, yi, zi, sx, sy, sz, sp);
    v::store8(acc_x.data() + lane, v::add(v::load8(acc_x.data() + lane), sx));
    v::store8(acc_y.data() + lane, v::add(v::load8(acc_y.data() + lane), sy));
    v::store8(acc_z.data() + lane, v::add(v::load8(acc_z.data() + lane), sz));
    v::store8(acc_p.data() + lane, v::add(v::load8(acc_p.data() + lane), sp));
  }
  if (const int rn = gn - full; rn > 0) {
    // Masked remainder, as in flush_list_avx2: dead lanes load zeros
    // (r2 = 0 there masks their garbage out anyway) and are never stored.
    const v::i32x8 tm = v::tail_mask8(rn);
    const v::f32x8 xi = _mm256_maskload_ps(t.x.data() + g0 + full, tm);
    const v::f32x8 yi = _mm256_maskload_ps(t.y.data() + g0 + full, tm);
    const v::f32x8 zi = _mm256_maskload_ps(t.z.data() + g0 + full, tm);
    v::f32x8 sx = _mm256_setzero_ps();
    v::f32x8 sy = _mm256_setzero_ps();
    v::f32x8 sz = _mm256_setzero_ps();
    v::f32x8 sp = _mm256_setzero_ps();
    kernel(xi, yi, zi, sx, sy, sz, sp);
    _mm256_maskstore_ps(acc_x.data() + full, tm,
                        v::add(v::load8(acc_x.data() + full), sx));
    _mm256_maskstore_ps(acc_y.data() + full, tm,
                        v::add(v::load8(acc_y.data() + full), sy));
    _mm256_maskstore_ps(acc_z.data() + full, tm,
                        v::add(v::load8(acc_z.data() + full), sz));
    _mm256_maskstore_ps(acc_p.data() + full, tm,
                        v::add(v::load8(acc_p.data() + full), sp));
  }
  return gn;
}
#endif // GOTHIC_SIMD_AVX2

#if GOTHIC_SIMD_AVX2
/// AVX2 lane kernel of the per-batch MAC sweep: eight frontier nodes per
/// iteration — centre-of-mass/mass/bmax loaded by node index, distance,
/// deff and the decision evaluated in lane registers with the exact
/// operation sequence of the scalar loop (correctly-rounded sqrt, same mul
/// association, ordered-quiet compares so NaN geometry never accepts and
/// never culls, exactly like the scalar `!(deff > bsize)` and `>`). The
/// frontier is built from contiguous child ranges, so eight nodes are
/// often one run of consecutive siblings: those load with plain vector
/// loads at the run's first node (the same values; every index is a node
/// of the tree, so the load stays in bounds), others gather. The Gadget
/// MAC derives bsize from the per-node depth instead of bmax and stays on
/// the scalar loop. The remainder block runs with a masked index load
/// (dead lanes read index 0, gather the root and are masked off), so all
/// bn nodes are handled here and the caller's scalar loop never runs; all
/// op tallies are charged by the caller in bulk per batch and are
/// path-independent. With a `stage` list (gravity without quadrupoles)
/// the sweep also does the accept push: each block left-packs its
/// accepted lanes' com and mass from the registers it holds and stores
/// them at stage->size onward, into the list's slack past cap, in lane
/// order; the caller commits the run (or flushes first and moves it to
/// the front) and leaves stage->size untouched until then. Returns the
/// accepted (gravity) or culled (Lennard-Jones) lanes, bit k = nodes[k].
simt::lane_mask mac_eval_avx2(const Octree& tree, const WalkConfig& cfg,
                              float ctr_x, float ctr_y, float ctr_z,
                              float rgrp, float amin, const index_t* nodes,
                              int bn, InteractionList* stage) {
  namespace v = simt::simd;
  const v::f32x8 cxv = v::broadcast(ctr_x);
  const v::f32x8 cyv = v::broadcast(ctr_y);
  const v::f32x8 czv = v::broadcast(ctr_z);
  const v::f32x8 rgv = v::broadcast(rgrp);
  const v::f32x8 zero = _mm256_setzero_ps();
  // Scalar pre-products mirror the scalar mac_accept's association:
  // p.dacc * amin * d4 groups as (p.dacc * amin) * d4.
  const v::f32x8 gv = v::broadcast(cfg.g);
  const v::f32x8 dav = v::broadcast(cfg.mac.dacc * amin);
  const v::f32x8 thv = v::broadcast(cfg.mac.theta);
  const v::f32x8 cutv = v::broadcast(cfg.lj.cutoff);
  const bool lj = cfg.law == ForceLaw::LennardJones;
  simt::lane_mask passed = 0;
  int staged = 0;
  for (int b = 0; b < bn; b += 8) {
    const int n = std::min(8, bn - b);
    const v::i32x8 idx =
        (n == 8) ? _mm256_loadu_si256(
                       reinterpret_cast<const __m256i*>(nodes + b))
                 : _mm256_maskload_epi32(
                       reinterpret_cast<const int*>(nodes + b),
                       v::tail_mask8(n));
    const index_t first = nodes[b];
    const bool run =
        n == 8 && _mm256_movemask_epi8(_mm256_cmpeq_epi32(
                      idx, v::index_run8(static_cast<int>(first)))) == -1;
    const auto load = [&](const std::vector<real>& a) {
      return run ? v::load8(a.data() + first)
                 : _mm256_i32gather_ps(a.data(), idx, 4);
    };
    const v::f32x8 comx = load(tree.com_x);
    const v::f32x8 comy = load(tree.com_y);
    const v::f32x8 comz = load(tree.com_z);
    const v::f32x8 bsize = load(tree.bmax);
    v::f32x8 mass = zero; // loaded by the MACs that read it
    const v::f32x8 dx = v::sub(comx, cxv);
    const v::f32x8 dy = v::sub(comy, cyv);
    const v::f32x8 dz = v::sub(comz, czv);
    const v::f32x8 d = _mm256_sqrt_ps(
        v::add(v::add(v::mul(dx, dx), v::mul(dy, dy)), v::mul(dz, dz)));
    // max(first=0, second=d-rgrp) keeps the second operand on NaN and on
    // +-0 ties — exactly std::max(d - rgrp, 0.0f).
    const v::f32x8 deff = _mm256_max_ps(zero, v::sub(d, rgv));
    v::f32x8 okv;
    if (lj) {
      // Cutoff MAC: culled when deff > cutoff + bmax, the scalar loop's
      // operand order.
      okv = _mm256_cmp_ps(deff, v::add(cutv, bsize), _CMP_GT_OQ);
    } else if (cfg.mac.type == MacType::OpeningAngle) {
      okv = _mm256_and_ps(
          _mm256_cmp_ps(deff, bsize, _CMP_GT_OQ),
          _mm256_cmp_ps(bsize, v::mul(thv, deff), _CMP_LT_OQ));
    } else { // Acceleration (Gadget never reaches this kernel)
      mass = load(tree.mass);
      const v::f32x8 d2 = v::mul(deff, deff);
      const v::f32x8 d4 = v::mul(d2, d2);
      const v::f32x8 lhs = v::mul(v::mul(v::mul(gv, mass), bsize), bsize);
      okv = _mm256_and_ps(_mm256_cmp_ps(deff, bsize, _CMP_GT_OQ),
                          _mm256_cmp_ps(lhs, v::mul(dav, d4), _CMP_LE_OQ));
    }
    const auto okbits =
        static_cast<simt::lane_mask>(_mm256_movemask_ps(okv)) &
        ((1u << n) - 1u);
    passed |= okbits << b;
    if (stage != nullptr && okbits != 0) {
      if (cfg.mac.type == MacType::OpeningAngle) mass = load(tree.mass);
      const v::i32x8 pack = v::left_pack_index(okbits);
      const int at = stage->size + staged;
      v::store8(stage->sx.data() + at, _mm256_permutevar8x32_ps(comx, pack));
      v::store8(stage->sy.data() + at, _mm256_permutevar8x32_ps(comy, pack));
      v::store8(stage->sz.data() + at, _mm256_permutevar8x32_ps(comz, pack));
      v::store8(stage->sm.data() + at, _mm256_permutevar8x32_ps(mass, pack));
      staged += std::popcount(okbits);
    }
  }
  return passed;
}
#endif // GOTHIC_SIMD_AVX2

/// Flush (ForceLaw::LennardJones): truncated 12-6 forces of all listed
/// bodies on the group's bodies. The list holds only spilled leaf bodies
/// (the cutoff MAC never appends pseudo-particles), and every pair is
/// re-tested against the cutoff here, so the tree result equals the
/// direct sum up to summation order. Self pairs (r2 == 0) mask to zero —
/// that is also what keeps the group's own spilled bodies harmless.
void flush_list_lj(const GroupTask& t, InteractionList& list, int gn,
                   std::size_t g0, LaneArray<float>& acc_x,
                   LaneArray<float>& acc_y, LaneArray<float>& acc_z,
                   LaneArray<float>& acc_p, simt::OpCounts& counts,
                   WalkStats& stats) {
  const float sig2 = t.cfg->lj.sigma * t.cfg->lj.sigma;
  const float rc2 = t.cfg->lj.cutoff * t.cfg->lj.cutoff;
  const float ecoef = 24.0f * t.cfg->lj.epsilon;
  const float e4 = 4.0f * t.cfg->lj.epsilon;
  const int ls = list.size;
  int lane0 = 0;
#if GOTHIC_SIMD_AVX2
  if (simt::simd_enabled()) {
    lane0 = flush_list_lj_avx2(t, list, gn, g0, acc_x, acc_y, acc_z, acc_p);
  }
#endif
  for (int lane = lane0; lane < gn; ++lane) {
    const float xi = t.x[g0 + lane];
    const float yi = t.y[g0 + lane];
    const float zi = t.z[g0 + lane];
    float sx = 0, sy = 0, sz = 0, sp = 0;
    for (int j = 0; j < ls; ++j) {
      const float dx = list.sx[j] - xi;
      const float dy = list.sy[j] - yi;
      const float dz = list.sz[j] - zi;
      const float r2 = dx * dx + dy * dy + dz * dz;
      const bool in = r2 > 0.0f && r2 <= rc2;
      const float inv = 1.0f / r2;
      const float s2 = sig2 * inv;
      const float s6 = (s2 * s2) * s2;
      const float s12 = s6 * s6;
      // a_i += m_j 24 eps (s6 - 2 s12) / r2 * d  (d points from i to j, so
      // a positive coefficient is attractive); pot_i += m_j 4 eps (s12-s6).
      const float coef = (ecoef * list.sm[j]) * ((s6 - (s12 + s12)) * inv);
      const float vpair = (e4 * list.sm[j]) * (s12 - s6);
      sx += in ? coef * dx : 0.0f;
      sy += in ? coef * dy : 0.0f;
      sz += in ? coef * dz : 0.0f;
      sp += in ? vpair : 0.0f;
    }
    acc_x[lane] += sx;
    acc_y[lane] += sy;
    acc_z[lane] += sz;
    acc_p[lane] += sp;
  }
  const auto pairs = static_cast<std::uint64_t>(gn) * ls;
  counts.fp32_add += pairs * cost::kLjPairAdd;
  counts.fp32_fma += pairs * cost::kLjPairFma;
  counts.fp32_mul += pairs * cost::kLjPairMul;
  counts.fp32_special += pairs * cost::kLjPairSpecial;
  counts.int_ops += pairs * cost::kLjPairInt;
  stats.interactions += pairs;
  stats.flushes += 1;
  list.size = 0;
}

/// Flush: gravity of all listed sources on the group's bodies.
void flush_list(const GroupTask& t, InteractionList& list, int gn,
                std::size_t g0, LaneArray<float>& acc_x,
                LaneArray<float>& acc_y, LaneArray<float>& acc_z,
                LaneArray<float>& acc_p, simt::OpCounts& counts,
                WalkStats& stats) {
  if (list.size == 0) return;
  if (t.cfg->law == ForceLaw::LennardJones) {
    flush_list_lj(t, list, gn, g0, acc_x, acc_y, acc_z, acc_p, counts,
                  stats);
    return;
  }
  // Accumulators and lane stores are float end to end (explicitly, not via
  // `real`): eps2, the per-pair temporaries and the acc_* updates below
  // narrow nowhere, so the scalar and SIMD paths cannot diverge on a store.
  const float eps2 = t.cfg->eps * t.cfg->eps;
  const int ls = list.size;
  const bool quad = t.cfg->use_quadrupole;
  int lane0 = 0;
#if GOTHIC_SIMD_AVX2
  if (simt::simd_enabled()) {
    lane0 = flush_list_avx2(t, list, gn, g0, acc_x, acc_y, acc_z, acc_p);
  }
#endif
  for (int lane = lane0; lane < gn; ++lane) {
    const float xi = t.x[g0 + lane];
    const float yi = t.y[g0 + lane];
    const float zi = t.z[g0 + lane];
    float sx = 0, sy = 0, sz = 0, sp = 0;
    for (int j = 0; j < ls; ++j) {
      const float dx = list.sx[j] - xi;
      const float dy = list.sy[j] - yi;
      const float dz = list.sz[j] - zi;
      // The paper's pair: r2 and the accumulators as FMAs, rinv as the
      // hardware estimate plus one Newton step (simt::rinv).
      const float r2 =
          std::fmaf(dz, dz, std::fmaf(dy, dy, std::fmaf(dx, dx, eps2)));
      const float rinv = simt::rinv(r2);
      const float rinv2 = rinv * rinv;
      const float mr = list.sm[j] * rinv;
      const float s = mr * rinv2;
      sx = std::fmaf(s, dx, sx);
      sy = std::fmaf(s, dy, sy);
      sz = std::fmaf(s, dz, sz);
      sp -= mr;
      if (quad) {
        // a += 2.5 (d.Qd) d / d^7 - Qd / d^5;  pot -= (d.Qd) / (2 d^5).
        const float qvx =
            list.qxx[j] * dx + list.qxy[j] * dy + list.qxz[j] * dz;
        const float qvy =
            list.qxy[j] * dx + list.qyy[j] * dy + list.qyz[j] * dz;
        const float qvz =
            list.qxz[j] * dx + list.qyz[j] * dy + list.qzz[j] * dz;
        const float dq = dx * qvx + dy * qvy + dz * qvz;
        const float rinv5 = rinv2 * rinv2 * rinv;
        const float rinv7 = rinv5 * rinv2;
        const float coef = 2.5f * dq * rinv7;
        sx += coef * dx - qvx * rinv5;
        sy += coef * dy - qvy * rinv5;
        sz += coef * dz - qvz * rinv5;
        sp -= 0.5f * dq * rinv5;
      }
    }
    acc_x[lane] += sx;
    acc_y[lane] += sy;
    acc_z[lane] += sz;
    acc_p[lane] += sp;
  }
  const auto pairs = static_cast<std::uint64_t>(gn) * ls;
  counts.fp32_add += pairs * cost::kPairAdd;
  counts.fp32_fma += pairs * cost::kPairFma;
  counts.fp32_mul += pairs * cost::kPairMul;
  counts.fp32_special += pairs * cost::kPairSpecial;
  counts.int_ops += pairs * cost::kPairInt;
  if (quad) {
    counts.fp32_fma += pairs * cost::kQuadFma;
    counts.fp32_mul += pairs * cost::kQuadMul;
  }
  stats.interactions += pairs;
  stats.flushes += 1;
  list.size = 0;
}

/// Traverse the tree for one group of up to 32 consecutive bodies.
void walk_group(const GroupTask& t, std::size_t g0, int gn, Workspace& ws,
                InteractionList& list, simt::OpCounts& counts,
                WalkStats& stats) {
  const Octree& tree = *t.tree;
  const WalkConfig& cfg = *t.cfg;
  const bool lj = cfg.law == ForceLaw::LennardJones;
  // The selector changes only while the device is idle, so one read
  // serves the whole group.
  [[maybe_unused]] const bool simd = simt::simd_enabled();
  Warp w(cfg.mode, counts);
  stats.groups += 1;

  // --- group bounding sphere and minimum old acceleration -----------------
  const auto [ctr_x, ctr_y, ctr_z, rgrp, amin] =
      summarize_group(w, t.x, t.y, t.z, t.aold, g0, gn);

  // --- breadth-first traversal with the shared interaction list ----------
  LaneArray<float> acc_x{}, acc_y{}, acc_z{}, acc_p{};
  ws.cur.clear();
  ws.nxt.clear();
  ws.cur.push_back(0); // root

  while (!ws.cur.empty()) {
    for (std::size_t batch = 0; batch < ws.cur.size(); batch += kWarpSize) {
      const int bn = static_cast<int>(
          std::min<std::size_t>(kWarpSize, ws.cur.size() - batch));

      // The MAC sweep leaves one bit per lane: accepted (gravity) or
      // culled (Lennard-Jones) nodes. The AVX2 sweep of gravity without
      // quadrupoles has already staged the accepted pseudo-particles.
      simt::lane_mask passed = 0;
      int mac_lane0 = 0;
      bool staged = false;
#if GOTHIC_SIMD_AVX2
      if (simd && (lj || cfg.mac.type != MacType::Gadget)) {
        staged = !lj && !cfg.use_quadrupole;
        passed = mac_eval_avx2(tree, cfg, ctr_x, ctr_y, ctr_z, rgrp, amin,
                               &ws.cur[batch], bn, staged ? &list : nullptr);
        mac_lane0 = bn;
      }
#endif
      if (lj) {
        // Cutoff MAC (no pseudo-particles): a node is culled — dropped
        // entirely — when every body below it provably lies beyond the
        // cutoff of every group body: deff lower-bounds the group-to-com
        // distance and bmax bounds the subtree's spread about its com, so
        // deff > cutoff + bmax implies every pair distance > cutoff.
        // Culling is only an optimisation: reached pairs re-test the
        // cutoff exactly in the flush, so a non-culled far node changes
        // nothing. NaN geometry (a poisoned shard view) compares false,
        // descends, and surfaces as NaN forces — never a silent cull.
        // mac_eval_avx2 runs the same compare; this loop is its
        // GOTHIC_SIMD=0 oracle.
        for (int lane = mac_lane0; lane < bn; ++lane) {
          const index_t node = ws.cur[batch + lane];
          const float dx = tree.com_x[node] - ctr_x;
          const float dy = tree.com_y[node] - ctr_y;
          const float dz = tree.com_z[node] - ctr_z;
          const float d = std::sqrt(dx * dx + dy * dy + dz * dz);
          const float deff = std::max(d - rgrp, 0.0f);
          const bool culled = deff > cfg.lj.cutoff + tree.bmax[node];
          passed |= simt::lane_mask{culled} << lane;
        }
      } else {
        for (int lane = mac_lane0; lane < bn; ++lane) {
          const index_t node = ws.cur[batch + lane];
          const float dx = tree.com_x[node] - ctr_x;
          const float dy = tree.com_y[node] - ctr_y;
          const float dz = tree.com_z[node] - ctr_z;
          const float d = std::sqrt(dx * dx + dy * dy + dz * dz);
          const float deff = std::max(d - rgrp, 0.0f);
          // The Gadget MAC opens by cell edge length; the others use bmax.
          const float bsize =
              cfg.mac.type == MacType::Gadget
                  ? tree.box.edge / static_cast<float>(1u << tree.depth[node])
                  : tree.bmax[node];
          const bool ok = mac_accept(cfg.mac, deff, tree.mass[node], bsize,
                                     amin, cfg.g);
          passed |= simt::lane_mask{ok} << lane;
        }
      }
      counts.bytes_load += static_cast<std::uint64_t>(
          static_cast<double>(bn) * cost::kNodeBytes *
          cost::kNodeDramFraction);
      counts.fp32_add += static_cast<std::uint64_t>(bn) * cost::kMacAdd;
      counts.fp32_fma += static_cast<std::uint64_t>(bn) * cost::kMacFma;
      counts.fp32_mul += static_cast<std::uint64_t>(bn) * cost::kMacMul;
      counts.fp32_special +=
          static_cast<std::uint64_t>(bn) * cost::kMacSpecial;
      counts.int_ops += static_cast<std::uint64_t>(bn) * cost::kMacInt;
      stats.mac_evals += static_cast<std::uint64_t>(bn);

      // Only the rejected lanes are sorted: leaves spill their bodies,
      // internal nodes (child_count > 0) open and add their children to
      // the next frontier's size.
      const simt::lane_mask accepted = lj ? 0 : passed;
      simt::lane_mask spill_leaf = 0;
      simt::lane_mask opened = 0;
      std::size_t n_children = 0;
      for (simt::lane_mask r = simt::lanemask_lt(bn) & ~passed; r != 0;
           r &= r - 1) {
        const int lane = std::countr_zero(r);
        const index_t node = ws.cur[batch + lane];
        if (tree.is_leaf(node)) {
          spill_leaf |= simt::lane_bit(lane);
        } else {
          opened |= simt::lane_bit(lane);
          n_children += tree.child_count[node];
        }
      }

      // Accepted nodes append their pseudo-particles (warp-compacted). A
      // staged run lies at [list.size, list.size + n_acc): committing it
      // is a size bump, after a flush a move to the front, so the list's
      // order and flush boundaries are the scalar push's.
      const simt::lane_mask acc_mask = w.ballot(accepted);
      const int n_acc = simt::popc(acc_mask);
      if (n_acc > 0) {
        if (list.size + n_acc > list.cap) {
          const int staged_at = list.size;
          flush_list(t, list, gn, g0, acc_x, acc_y, acc_z, acc_p, counts,
                     stats);
          if (staged) list.move_staged_to_front(staged_at, n_acc);
        }
        if (staged) {
          list.size += n_acc;
        } else {
          // The scalar push: the staged run's oracle, and the path of the
          // Gadget MAC and of quadrupole entries.
          for (simt::lane_mask a = acc_mask; a != 0; a &= a - 1) {
            const index_t node = ws.cur[batch + std::countr_zero(a)];
            if (cfg.use_quadrupole) {
              list.push_quad(tree.com_x[node], tree.com_y[node],
                             tree.com_z[node], tree.mass[node],
                             tree.quad_xx[node], tree.quad_xy[node],
                             tree.quad_xz[node], tree.quad_yy[node],
                             tree.quad_yz[node], tree.quad_zz[node]);
            } else {
              list.push(tree.com_x[node], tree.com_y[node],
                        tree.com_z[node], tree.mass[node]);
            }
          }
        }
        // One compaction slot per appending lane (simt::compact_slot's
        // popc of the ballot below the lane), charged for the batch.
        counts.int_ops += static_cast<std::uint64_t>(n_acc);
        counts.int_ops += static_cast<std::uint64_t>(n_acc) * 2;
        if (cfg.use_quadrupole) {
          counts.bytes_load += static_cast<std::uint64_t>(n_acc) *
                               cost::kQuadBytes;
        }
        stats.pseudo_appended += static_cast<std::uint64_t>(n_acc);
      }

      // Rejected leaves spill their bodies into the list (warp-cooperative
      // copy on the device; may straddle several flushes).
      const simt::lane_mask spill_mask = w.ballot(spill_leaf);
      for (simt::lane_mask sp = spill_mask; sp != 0; sp &= sp - 1) {
        const index_t node = ws.cur[batch + std::countr_zero(sp)];
        index_t b = tree.body_first[node];
        index_t remain = tree.body_count[node];
        while (remain > 0) {
          if (list.size == list.cap) {
            flush_list(t, list, gn, g0, acc_x, acc_y, acc_z, acc_p, counts,
                       stats);
          }
          const index_t take = std::min<index_t>(
              remain, static_cast<index_t>(list.cap - list.size));
          index_t k = 0;
#if GOTHIC_SIMD_AVX2
          if (simd) {
            // Byte-identical bulk copy (zero quadrupoles included).
            list.append_bodies(t.x.data() + b, t.y.data() + b,
                               t.z.data() + b, t.m.data() + b, take);
            k = take;
          }
#endif
          for (; k < take; ++k) {
            list.push(t.x[b + k], t.y[b + k], t.z[b + k], t.m[b + k]);
          }
          counts.bytes_load += static_cast<std::uint64_t>(
              static_cast<double>(take) * cost::kListEntryBytes *
              cost::kBodyDramFraction);
          counts.int_ops += static_cast<std::uint64_t>(take) * 2;
          stats.body_appended += take;
          b += take;
          remain -= take;
        }
      }

      // Rejected internal nodes enqueue their children. On the device the
      // slot base is a warp exclusive scan of the child counts (the
      // frontier allocation); here one running slot over the opened lanes
      // in lane order writes the same entries, and the scan is charged.
      simt::charge_exclusive_scan<int>(w, kWarpSize, simt::kFullMask,
                                       /*with_total=*/true);
      if (n_children > 0) {
        std::size_t slot = ws.nxt.size();
        ws.nxt.resize(slot + n_children);
        for (simt::lane_mask o = opened; o != 0; o &= o - 1) {
          const index_t node = ws.cur[batch + std::countr_zero(o)];
          const index_t first = tree.child_first[node];
          const int nc = tree.child_count[node]; // 1..8 octants
          int c = 0;
#if GOTHIC_SIMD_AVX2
          if (simd) {
            // The child run in one store masked to the child count.
            namespace v = simt::simd;
            _mm256_maskstore_epi32(reinterpret_cast<int*>(&ws.nxt[slot]),
                                   v::tail_mask8(nc),
                                   v::index_run8(static_cast<int>(first)));
            c = nc;
          }
#endif
          for (; c < nc; ++c) {
            ws.nxt[slot + static_cast<std::size_t>(c)] =
                first + static_cast<index_t>(c);
          }
          slot += static_cast<std::size_t>(nc);
        }
        stats.nodes_opened += static_cast<std::uint64_t>(simt::popc(opened));
        counts.int_ops += static_cast<std::uint64_t>(n_children);
        counts.bytes_store +=
            static_cast<std::uint64_t>(n_children) * sizeof(index_t);
        counts.bytes_load +=
            static_cast<std::uint64_t>(n_children) * sizeof(index_t);
      }

      // GOTHIC re-synchronises the warp before the shared list is reused
      // (explicit __syncwarp in the Volta mode, §2.1).
      w.syncwarp();
    }
    std::swap(ws.cur, ws.nxt);
    ws.nxt.clear();
  }

  flush_list(t, list, gn, g0, acc_x, acc_y, acc_z, acc_p, counts, stats);

  // --- store results -------------------------------------------------------
  const real g = cfg.g;
  for (int lane = 0; lane < gn; ++lane) {
    t.ax[g0 + lane] = g * acc_x[lane];
    t.ay[g0 + lane] = g * acc_y[lane];
    t.az[g0 + lane] = g * acc_z[lane];
    if (!t.pot.empty()) {
      // Gravity: remove the self-interaction potential introduced by the
      // group's own leaf spill (force contribution is exactly zero).
      // Lennard-Jones masks self pairs to zero in the flush, so there is
      // nothing to correct.
      t.pot[g0 + lane] =
          lj ? g * acc_p[lane]
             : g * (acc_p[lane] + t.m[g0 + lane] / cfg.eps);
    }
  }
  counts.fp32_mul += static_cast<std::uint64_t>(gn) * 3;
  counts.bytes_store += static_cast<std::uint64_t>(gn) * 16;
  if (!t.pot.empty() && !lj) {
    counts.fp32_add += static_cast<std::uint64_t>(gn);
    counts.fp32_special += static_cast<std::uint64_t>(gn);
  }
}

} // namespace

// Out of line on purpose: inlined into walk_group, it slowed the walk's
// traversal loop (m31-shared on a 4-core Xeon: 4.8 % fewer updates/s);
// one call per group costs nothing measurable.
[[gnu::noinline]] GroupSummary summarize_group(simt::Warp& w,
                                               std::span<const real> x,
                                               std::span<const real> y,
                                               std::span<const real> z,
                                               std::span<const real> aold,
                                               std::size_t g0, int gn) {
  LaneArray<float> gx{}, gy{}, gz{};
  LaneArray<float> amin_l{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (lane < gn) {
      gx[lane] = x[g0 + lane];
      gy[lane] = y[g0 + lane];
      gz[lane] = z[g0 + lane];
      amin_l[lane] =
          aold.empty() ? 0.0f : static_cast<float>(aold[g0 + lane]);
    } else {
      amin_l[lane] = std::numeric_limits<float>::max();
    }
  }
  simt::OpCounts& counts = w.counts();
  counts.bytes_load += static_cast<std::uint64_t>(gn) * 20;

  GroupSummary g;
  LaneArray<float> cx = gx, cy = gy, cz = gz;
  simt::reduce_add(w, cx, kWarpSize);
  simt::reduce_add(w, cy, kWarpSize);
  simt::reduce_add(w, cz, kWarpSize);
  const float inv_n = 1.0f / static_cast<float>(gn);
  g.ctr_x = cx[0] * inv_n;
  g.ctr_y = cy[0] * inv_n;
  g.ctr_z = cz[0] * inv_n;
  counts.fp32_mul += 3;
  counts.fp32_special += 1;

  LaneArray<float> dist{};
  for (int lane = 0; lane < gn; ++lane) {
    const float dx = gx[lane] - g.ctr_x;
    const float dy = gy[lane] - g.ctr_y;
    const float dz = gz[lane] - g.ctr_z;
    dist[lane] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
  counts.fp32_add += static_cast<std::uint64_t>(gn) * 3;
  counts.fp32_fma += static_cast<std::uint64_t>(gn) * 3;
  counts.fp32_special += static_cast<std::uint64_t>(gn);
  simt::reduce_max(w, dist, kWarpSize);
  g.rgrp = dist[0];
  simt::reduce_min(w, amin_l, kWarpSize);
  g.amin = amin_l[0];
  return g;
}

void walk_tree(const Octree& tree, std::span<const real> x,
               std::span<const real> y, std::span<const real> z,
               std::span<const real> m, std::span<const real> aold_mag,
               const WalkConfig& cfg, std::span<real> ax, std::span<real> ay,
               std::span<real> az, std::span<real> pot,
               simt::OpCounts* ops, WalkStats* stats,
               std::span<const std::uint8_t> group_active,
               std::span<const GroupSpan> groups,
               std::span<double> group_cost) {
  const std::size_t n = x.size();
  if (y.size() != n || z.size() != n || m.size() != n || ax.size() != n ||
      ay.size() != n || az.size() != n ||
      (!pot.empty() && pot.size() != n) ||
      (!aold_mag.empty() && aold_mag.size() != n)) {
    throw std::invalid_argument("walk_tree: span size mismatch");
  }
  if (cfg.list_capacity < kWarpSize) {
    throw std::invalid_argument("walk_tree: list capacity below warp size");
  }
  // eps = 0 makes the self-interaction potential correction (m / eps)
  // infinite and zeroes the Plummer softening that keeps coincident-body
  // force pairs finite; negative or NaN eps is equally meaningless.
  if (!(cfg.eps > real(0))) {
    throw std::invalid_argument("walk_tree: eps must be positive");
  }
  if (tree.num_nodes() == 0 || tree.mass.size() != tree.num_nodes()) {
    throw std::invalid_argument("walk_tree: tree geometry missing (run calc_node)");
  }
  if (cfg.use_quadrupole && !tree.has_quadrupole()) {
    throw std::invalid_argument(
        "walk_tree: use_quadrupole requires calc_node with "
        "compute_quadrupole");
  }
  if (cfg.law == ForceLaw::LennardJones) {
    if (cfg.use_quadrupole) {
      throw std::invalid_argument(
          "walk_tree: Lennard-Jones has no quadrupole term");
    }
    if (!(cfg.lj.sigma > real(0)) || !(cfg.lj.epsilon > real(0)) ||
        !(cfg.lj.cutoff > real(0))) {
      throw std::invalid_argument(
          "walk_tree: Lennard-Jones requires positive sigma, epsilon and "
          "cutoff");
    }
  }

  GroupTask task{&tree, x, y, z, m, aold_mag, &cfg, ax, ay, az, pot};

  std::vector<GroupSpan> own_groups;
  if (groups.empty()) {
    own_groups = walk_groups(tree, x, y, z);
    groups = own_groups;
  }
  if (!group_active.empty() && group_active.size() != groups.size()) {
    throw std::invalid_argument("walk_tree: group_active size mismatch");
  }
  if (!group_cost.empty() && group_cost.size() != groups.size()) {
    throw std::invalid_argument("walk_tree: group_cost size mismatch");
  }

  runtime::Device& dev = runtime::Device::current();

  // Per-worker scratch (interaction list + frontiers) plus tallies, built
  // lazily in the worker's arena: parallel_dynamic hands a worker many
  // small ranges, so setup must be once per worker, not once per range.
  // The slot array is indexed by the context-local worker id — each slot
  // is touched by exactly one thread during the collective, and the
  // fork/join handshake orders those writes before the calling thread's
  // merge loop, so no mutex is needed anywhere.
  struct WorkerState {
    Workspace ws;
    InteractionList list;
    simt::OpCounts counts;
    WalkStats local;
    double busy_seconds = 0.0;
    WorkerState(runtime::Arena& arena, int cap, bool quad)
        : ws(arena), list(arena, cap, quad) {}
  };
  WorkerState* states[runtime::Device::kMaxWorkers] = {};
  auto run_range = [&](runtime::Worker& w, std::size_t lo, std::size_t hi) {
    WorkerState*& st = states[w.id];
    if (st == nullptr) {
      w.arena.reset();
      void* mem = w.arena.allocate(sizeof(WorkerState), alignof(WorkerState));
      st = ::new (mem) WorkerState(w.arena, cfg.list_capacity,
                                   cfg.use_quadrupole);
    }
    const Stopwatch clock;
    for (std::size_t gi = lo; gi < hi; ++gi) {
      if (!group_active.empty() && group_active[gi] == 0) continue;
      const std::uint64_t before = st->local.interactions + st->local.mac_evals;
      walk_group(task, groups[gi].first, static_cast<int>(groups[gi].count),
                 st->ws, st->list, st->counts, st->local);
      if (!group_cost.empty()) {
        // Race-free: group gi is run by exactly one worker and owns its
        // slot. Inactive groups keep their previous cost, so a group
        // waking up is cut into a shard by what it cost when last walked.
        group_cost[gi] = static_cast<double>(
            st->local.interactions + st->local.mac_evals - before);
      }
    }
    st->busy_seconds += clock.seconds();
  };

  // One work queue over all groups, its chunk sized from the active
  // count: sized from the total, a sparse block step's few active groups
  // would land in one or two chunks and serialize the walk.
  std::size_t active = groups.size();
  if (!group_active.empty()) {
    active -= static_cast<std::size_t>(
        std::count(group_active.begin(), group_active.end(), 0));
  }
  dev.parallel_dynamic(0, groups.size(), dev.dynamic_chunk_size(active),
                       run_range);

  simt::OpCounts total_ops;
  WalkStats total_stats;
  for (int i = 0; i < dev.workers(); ++i) {
    WorkerState* st = states[i];
    if (st == nullptr) continue;
    total_ops += st->counts;
    total_stats += st->local;
    total_stats.worker_sum_seconds += st->busy_seconds;
    total_stats.worker_max_seconds =
        std::max(total_stats.worker_max_seconds, st->busy_seconds);
  }
  // Count every context worker, including ones that claimed no group, so
  // imbalance() penalizes idleness rather than hiding it.
  total_stats.workers = static_cast<std::uint64_t>(dev.workers());

  if (ops != nullptr) *ops += total_ops;
  if (stats != nullptr) *stats += total_stats;
}

} // namespace gothic::gravity
