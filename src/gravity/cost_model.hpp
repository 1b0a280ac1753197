// Instruction-mix constants of the gravity kernels (DESIGN.md,
// "Calibrated constants").
//
// The per-interaction force kernel (Eq. 1, with potential) executes, per
// (i, j) pair:
//   dx,dy,dz = r_j - r_i                 -> 3 FP32 add
//   r2 = eps^2 + dx^2 + dy^2 + dz^2      -> 3 FP32 FMA
//   rinv = rsqrtf(r2)                    -> 1 SFU (counts 4 Flop, §4.2)
//   rinv2 = rinv*rinv; mr = m_j*rinv     -> 2 FP32 mul
//   s = mr*rinv2                         -> 1 FP32 mul
//   a += s*{dx,dy,dz}                    -> 3 FP32 FMA
//   pot -= mr                            -> 1 FP32 add
// plus shared-memory list indexing       -> ~3 integer instructions
// (loop counter, bounds test, address). This mix gives the fp:int ratio of
// roughly 4:1 in the interaction-dominated regime seen in Fig 6. The host
// executes this tallied 6 FMA / 3 mul / 4 add per pair on both substrates
// (walk_tree.cpp's flush_gravity); its rinv, the rsqrt estimate plus one
// Newton step (2 mul + 1 FMA more), stands in for the SFU op.
//
// The MAC evaluation (Eq. 2, rearranged to G m_J b_J^2 <= dacc |a| d^4 to
// avoid the division) executes per (group, node) pair:
//   d vector to group centre             -> 3 FP32 add
//   d2 = dx^2+dy^2+dz^2                  -> 3 FP32 FMA
//   d = sqrtf(d2); deff = max(d-rgrp,0)  -> 1 SFU + 2 FP32 add
//   deff^4, G m b^2, dacc*amin*deff^4    -> 5 FP32 mul, compare -> 1 add
// plus node indexing, link chasing, ballot/scan bookkeeping
//                                        -> ~12 integer instructions
// MAC evaluations dominate integer work; as dacc grows (lower accuracy)
// interactions shrink faster than MAC evaluations, raising the integer
// share exactly as Figs 6-7 show.
#pragma once

#include <cstdint>

namespace gothic::gravity::cost {

// Force kernel, per pair.
inline constexpr std::uint64_t kPairAdd = 4;  // 3 diff + 1 pot
inline constexpr std::uint64_t kPairFma = 6;  // 3 r2 + 3 acc
inline constexpr std::uint64_t kPairMul = 3;
inline constexpr std::uint64_t kPairSpecial = 1;
inline constexpr std::uint64_t kPairInt = 3;

// Optional quadrupole term per pair (WalkConfig::use_quadrupole):
//   qv = Q d (3 mul + 6 FMA), d.qv (3 FMA), rinv5/rinv7 (3 mul),
//   a += 2.5 (d.qv) rinv7 d - qv rinv5 (2 mul + 6 FMA),
//   pot -= 0.5 (d.qv) rinv5 (1 mul + 1 FMA).
inline constexpr std::uint64_t kQuadFma = 16;
inline constexpr std::uint64_t kQuadMul = 9;
/// Extra shared-memory footprint / load per pseudo-particle with moments.
inline constexpr std::uint64_t kQuadBytes = 24;

// Lennard-Jones force kernel (ForceLaw::LennardJones), per pair:
//   dx,dy,dz = r_j - r_i                  -> 3 FP32 add
//   r2 = dx^2 + dy^2 + dz^2               -> 1 mul + 2 FMA
//   cutoff/self test (r2 > 0, r2 <= rc2)  -> 2 compares (int below)
//   inv = 1/r2                            -> 1 division (SFU class)
//   s2 = sig2*inv; s6 = (s2*s2)*s2; s12   -> 4 mul
//   coef = 24 eps m_j (s6 - 2 s12) inv    -> 2 add + 4 mul
//   vpair = 4 eps m_j (s12 - s6)          -> 1 add + 2 mul
//   a += coef*{dx,dy,dz} (masked)         -> 3 FMA
//   pot += vpair (masked)                 -> 1 add
// plus list indexing and the two masks    -> ~5 integer instructions.
inline constexpr std::uint64_t kLjPairAdd = 7;
inline constexpr std::uint64_t kLjPairFma = 5;
inline constexpr std::uint64_t kLjPairMul = 10;
inline constexpr std::uint64_t kLjPairSpecial = 1;
inline constexpr std::uint64_t kLjPairInt = 5;

// MAC evaluation, per (group, node).
inline constexpr std::uint64_t kMacAdd = 6;
inline constexpr std::uint64_t kMacFma = 3;
inline constexpr std::uint64_t kMacMul = 5;
inline constexpr std::uint64_t kMacSpecial = 1;
inline constexpr std::uint64_t kMacInt = 12;

// Device-memory traffic per appended pseudo-particle / body (float4) and
// per examined node (com float4 + bmax + child link/count).
inline constexpr std::uint64_t kListEntryBytes = 16;
inline constexpr std::uint64_t kNodeBytes = 28;

// Fraction of node loads that reach DRAM. Thousands of warps examine the
// same upper-tree nodes each step and V100's 6 MiB L2 holds the hot part
// of the tree, so most node reads hit cache; only ~1/8 miss to DRAM
// (consistent with walkTree sustaining ~45% of SP peak in Fig 9, which a
// full-traffic kernel could not).
inline constexpr double kNodeDramFraction = 0.125;

// Spilled leaf bodies are read in Morton order with moderate reuse across
// neighbouring groups; charge half the traffic to DRAM.
inline constexpr double kBodyDramFraction = 0.5;

} // namespace gothic::gravity::cost
