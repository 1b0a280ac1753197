// Property-based tests for the warp collectives: random lane values and
// active masks across every tile width (2..32), checking the algebraic
// contracts (segment prefix sums, segment reductions, dense compaction
// slots), bit-identical Pascal/Volta results on identical inputs, the
// Volta syncwarp counts against the log2(width) stage formula, and the
// mask-coverage pitfall (§2.1) under both modes.
#include "simt/scan.hpp"
#include "simt/simd.hpp"
#include "simt/warp.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace gothic::simt {
namespace {

constexpr std::array<int, 5> kWidths{2, 4, 8, 16, 32};

std::uint64_t stages(int width) {
  return static_cast<std::uint64_t>(
      std::countr_zero(static_cast<unsigned>(width)));
}

LaneArray<int> random_ints(Xoshiro256& rng) {
  LaneArray<int> v{};
  for (auto& x : v) x = static_cast<int>(rng.next() % 201) - 100;
  return v;
}

LaneArray<float> random_floats(Xoshiro256& rng) {
  LaneArray<float> v{};
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

lane_mask random_mask(Xoshiro256& rng) {
  const auto m = static_cast<lane_mask>(rng.next());
  return m == 0 ? lane_mask{1} : m;
}

TEST(WarpProperties, InclusiveScanMatchesSequentialPrefixForEveryWidth) {
  Xoshiro256 rng(101);
  for (int width : kWidths) {
    for (int trial = 0; trial < 8; ++trial) {
      OpCounts c;
      Warp w(ExecMode::Volta, c);
      LaneArray<int> v = random_ints(rng);
      const LaneArray<int> orig = v;
      inclusive_scan_add(w, v, width);
      for (int lane = 0; lane < kWarpSize; ++lane) {
        int expect = 0;
        for (int j = (lane / width) * width; j <= lane; ++j) {
          expect += orig[j];
        }
        ASSERT_EQ(v[lane], expect) << "width " << width << " lane " << lane;
      }
    }
  }
}

TEST(WarpProperties, ExclusiveScanYieldsOffsetsAndSegmentTotals) {
  Xoshiro256 rng(102);
  for (int width : kWidths) {
    for (int trial = 0; trial < 8; ++trial) {
      OpCounts c;
      Warp w(ExecMode::Volta, c);
      LaneArray<int> v = random_ints(rng);
      const LaneArray<int> orig = v;
      LaneArray<int> total{};
      exclusive_scan_add(w, v, width, kFullMask, &total);
      for (int lane = 0; lane < kWarpSize; ++lane) {
        const int base = (lane / width) * width;
        int expect = 0;
        for (int j = base; j < lane; ++j) expect += orig[j];
        int seg = 0;
        for (int j = base; j < base + width; ++j) seg += orig[j];
        ASSERT_EQ(v[lane], expect) << "width " << width << " lane " << lane;
        ASSERT_EQ(total[lane], seg) << "width " << width << " lane " << lane;
      }
    }
  }
}

TEST(WarpProperties, ReductionsMatchSegmentAggregatesForEveryWidth) {
  Xoshiro256 rng(103);
  for (int width : kWidths) {
    for (int trial = 0; trial < 8; ++trial) {
      OpCounts c;
      Warp w(ExecMode::Volta, c);
      const LaneArray<int> orig = random_ints(rng);
      LaneArray<int> sum = orig;
      LaneArray<int> lo = orig;
      LaneArray<int> hi = orig;
      reduce_add(w, sum, width);
      reduce_min(w, lo, width);
      reduce_max(w, hi, width);
      for (int lane = 0; lane < kWarpSize; ++lane) {
        const int base = (lane / width) * width;
        int s = 0;
        int mn = orig[base];
        int mx = orig[base];
        for (int j = base; j < base + width; ++j) {
          s += orig[j];
          mn = std::min(mn, orig[j]);
          mx = std::max(mx, orig[j]);
        }
        ASSERT_EQ(sum[lane], s) << "width " << width << " lane " << lane;
        ASSERT_EQ(lo[lane], mn) << "width " << width << " lane " << lane;
        ASSERT_EQ(hi[lane], mx) << "width " << width << " lane " << lane;
      }
    }
  }
}

TEST(WarpProperties, PascalAndVoltaAreBitIdenticalOnRandomMasks) {
  // The modes differ in synchronisation, never in data: identical inputs
  // (values, active mask, width) must produce identical registers on every
  // lane, including float operations (same order of operations).
  Xoshiro256 rng(202);
  for (int width : kWidths) {
    for (int trial = 0; trial < 16; ++trial) {
      const lane_mask active = random_mask(rng);
      const LaneArray<float> base = random_floats(rng);
      auto run = [&](ExecMode mode) {
        OpCounts c;
        Warp w(mode, c);
        w.diverge(active);
        LaneArray<float> v = base;
        switch (trial % 4) {
          case 0: inclusive_scan_add(w, v, width); break;
          case 1: {
            LaneArray<float> total{};
            exclusive_scan_add(w, v, width, kFullMask, &total);
            for (int lane = 0; lane < kWarpSize; ++lane) {
              v[lane] += total[lane];
            }
            break;
          }
          case 2: reduce_add(w, v, width); break;
          default: reduce_min(w, v, width); break;
        }
        return v;
      };
      const LaneArray<float> pascal = run(ExecMode::Pascal);
      const LaneArray<float> volta = run(ExecMode::Volta);
      for (int lane = 0; lane < kWarpSize; ++lane) {
        ASSERT_EQ(pascal[lane], volta[lane])
            << "width " << width << " trial " << trial << " lane " << lane;
      }
    }
  }
}

TEST(WarpProperties, VoltaSyncCountsMatchTheStageFormula) {
  // Every *_sync collective carries one implicit syncwarp; a width-w scan
  // or butterfly reduction is log2(w) shuffle stages, each charging one
  // shfl and one add (or compare) per executing lane. The exclusive scan
  // adds one subtraction per lane, and its segment-total broadcast one
  // more shfl stage. The formula holds for the whole-warp integer scan,
  // which moves its data in one pass, and for the staged loop that
  // partial masks run.
  Xoshiro256 rng(301);
  for (int width : kWidths) {
    const std::uint64_t log2w = stages(width);
    for (const lane_mask active : {kFullMask, random_mask(rng)}) {
      const auto lanes = static_cast<std::uint64_t>(popc(active));
      auto count = [&](auto&& op) {
        OpCounts c;
        Warp w(ExecMode::Volta, c);
        w.diverge(active);
        LaneArray<int> v = random_ints(rng);
        op(w, v);
        return c;
      };
      auto expect = [&](const char* what, const OpCounts& c,
                        std::uint64_t collectives, std::uint64_t adds) {
        SCOPED_TRACE(::testing::Message() << what << " width " << width
                                          << " active " << active);
        EXPECT_EQ(c.syncwarp, collectives);
        EXPECT_EQ(c.shfl, collectives * lanes);
        EXPECT_EQ(c.int_ops, adds * lanes);
      };
      expect("inclusive", count([&](Warp& w, LaneArray<int>& v) {
               inclusive_scan_add(w, v, width);
             }),
             log2w, log2w);
      expect("exclusive", count([&](Warp& w, LaneArray<int>& v) {
               exclusive_scan_add(w, v, width);
             }),
             log2w, log2w + 1);
      expect("exclusive+total", count([&](Warp& w, LaneArray<int>& v) {
               LaneArray<int> total{};
               exclusive_scan_add(w, v, width, kFullMask, &total);
             }),
             log2w + 1, log2w + 1);
      expect("reduce_add", count([&](Warp& w, LaneArray<int>& v) {
               reduce_add(w, v, width);
             }),
             log2w, log2w);
      expect("reduce_min", count([&](Warp& w, LaneArray<int>& v) {
               reduce_min(w, v, width);
             }),
             log2w, log2w);
      expect("reduce_max", count([&](Warp& w, LaneArray<int>& v) {
               reduce_max(w, v, width);
             }),
             log2w, log2w);
    }
  }
}

TEST(WarpProperties, PascalExecutesAndCountsZeroSynchronisation) {
  Xoshiro256 rng(302);
  for (int width : kWidths) {
    OpCounts c;
    Warp w(ExecMode::Pascal, c);
    LaneArray<int> v = random_ints(rng);
    inclusive_scan_add(w, v, width);
    reduce_add(w, v, width);
    LaneArray<int> total{};
    exclusive_scan_add(w, v, width, kFullMask, &total);
    EXPECT_EQ(c.syncwarp, 0u) << "width " << width;
    EXPECT_EQ(c.tile_sync, 0u) << "width " << width;
  }
}

TEST(WarpProperties, BallotCompactionAssignsDenseSlotsInLaneOrder) {
  Xoshiro256 rng(303);
  for (int trial = 0; trial < 16; ++trial) {
    OpCounts c;
    Warp w(ExecMode::Volta, c);
    LaneArray<bool> pred{};
    for (auto& p : pred) p = (rng.next() & 1u) != 0;
    const lane_mask votes = w.ballot(pred);
    EXPECT_EQ(c.syncwarp, 1u); // one implicit barrier per ballot
    // The packed-predicate form votes and counts alike.
    OpCounts packed_counts;
    Warp packed(ExecMode::Volta, packed_counts);
    EXPECT_EQ(packed.ballot(votes), votes);
    EXPECT_EQ(packed_counts, c);
    int rank = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      EXPECT_EQ(lane_active(votes, lane), pred[lane]) << "lane " << lane;
      if (pred[lane]) {
        EXPECT_EQ(compact_slot(w, votes, lane), rank) << "lane " << lane;
        ++rank;
      }
    }
    EXPECT_EQ(rank, popc(votes));
  }
}

TEST(WarpProperties, UndercoveringMaskThrowsUnderVoltaOnly) {
  // The paper's half-warp pitfall: a mask that misses an arriving lane is
  // undefined behaviour on Volta (modelled as WarpError) and harmless on
  // Pascal, which has no mask argument to get wrong.
  Xoshiro256 rng(404);
  for (int trial = 0; trial < 16; ++trial) {
    const lane_mask active = random_mask(rng) | 0x3u; // at least two lanes
    const lane_mask bad = active & ~lane_bit(lowest_lane(active));
    {
      OpCounts c;
      Warp w(ExecMode::Volta, c);
      w.diverge(active);
      LaneArray<int> v{};
      EXPECT_THROW(w.shfl_down(v, 1, kWarpSize, bad), WarpError);
      EXPECT_THROW((void)w.ballot(active, bad), WarpError);
    }
    {
      OpCounts c;
      Warp w(ExecMode::Pascal, c);
      w.diverge(active);
      LaneArray<int> v{};
      EXPECT_NO_THROW(w.shfl_down(v, 1, kWarpSize, bad));
      EXPECT_NO_THROW((void)w.ballot(active, bad));
    }
  }
}

TEST(WarpProperties, SimdAndScalarReductionsAreBitIdenticalOnRandomMasks) {
  // The AVX2 fast path of the float butterflies (simt/simd.hpp) must be a
  // pure implementation detail: same registers bit for bit — including
  // untouched inactive lanes and IEEE special values — and same op
  // tallies, for every width and random active mask.
  if (!simd_available()) GTEST_SKIP() << "AVX2 unavailable on this host";
  Xoshiro256 rng(505);
  for (int width : kWidths) {
    for (int trial = 0; trial < 32; ++trial) {
      const lane_mask active = random_mask(rng);
      LaneArray<float> base = random_floats(rng);
      // Sprinkle IEEE specials (canonical quiet NaN so payload picks can't
      // differ, infinities, signed zeros) over a few lanes.
      for (int k = 0; k < 4; ++k) {
        const int lane = static_cast<int>(rng.next() % kWarpSize);
        switch (rng.next() % 4) {
          case 0: base[lane] = std::numeric_limits<float>::quiet_NaN(); break;
          case 1: base[lane] = std::numeric_limits<float>::infinity(); break;
          case 2: base[lane] = -std::numeric_limits<float>::infinity(); break;
          default: base[lane] = -0.0f; break;
        }
      }
      const ExecMode mode =
          (trial & 1) != 0 ? ExecMode::Volta : ExecMode::Pascal;
      auto run = [&](bool use_simd, OpCounts& c) {
        ScopedSimd guard(use_simd);
        Warp w(mode, c);
        w.diverge(active);
        LaneArray<float> v = base;
        switch (trial % 3) {
          case 0: reduce_add(w, v, width); break;
          case 1: reduce_min(w, v, width); break;
          default: reduce_max(w, v, width); break;
        }
        return v;
      };
      OpCounts scalar_counts, simd_counts;
      const LaneArray<float> scalar = run(false, scalar_counts);
      const LaneArray<float> simd = run(true, simd_counts);
      ASSERT_EQ(scalar_counts, simd_counts)
          << "op tallies diverged at width " << width << " trial " << trial;
      for (int lane = 0; lane < kWarpSize; ++lane) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar[lane]),
                  std::bit_cast<std::uint32_t>(simd[lane]))
            << "width " << width << " trial " << trial << " lane " << lane
            << " scalar " << scalar[lane] << " simd " << simd[lane];
      }
    }
  }
}

TEST(WarpProperties, SimdSelectorReportsAndRestoresState) {
  // set_simd_enabled is clamped to availability and ScopedSimd restores
  // the previous state on every exit path.
  const bool initial = simd_enabled();
  {
    ScopedSimd off(false);
    EXPECT_FALSE(simd_enabled());
    {
      ScopedSimd on(true);
      EXPECT_EQ(simd_enabled(), simd_available());
    }
    EXPECT_FALSE(simd_enabled());
  }
  EXPECT_EQ(simd_enabled(), initial);
  if (!simd_compiled()) {
    EXPECT_FALSE(simd_available());
  }
}

} // namespace
} // namespace gothic::simt
