// Warp collective semantics, including the §2.1 mask rules the paper
// devotes its porting discussion to.
#include "simt/scan.hpp"
#include "simt/warp.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace gothic::simt {
namespace {

class WarpModes : public ::testing::TestWithParam<ExecMode> {
protected:
  OpCounts counts;
};

TEST_P(WarpModes, ShflBroadcastsSourceLane) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  std::iota(v.begin(), v.end(), 0);
  w.shfl(v, 7);
  for (int lane = 0; lane < kWarpSize; ++lane) EXPECT_EQ(v[lane], 7);
}

TEST_P(WarpModes, ShflRespectsWidthSegments) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  std::iota(v.begin(), v.end(), 0);
  w.shfl(v, 3, 8);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    EXPECT_EQ(v[lane], (lane / 8) * 8 + 3);
  }
}

TEST_P(WarpModes, ShflXorButterfly) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  std::iota(v.begin(), v.end(), 0);
  w.shfl_xor(v, 1);
  for (int lane = 0; lane < kWarpSize; ++lane) EXPECT_EQ(v[lane], lane ^ 1);
}

TEST_P(WarpModes, ShflXorAcrossSegmentBoundaryKeepsOwnValue) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  std::iota(v.begin(), v.end(), 0);
  // width 4, xor 4 would cross segments: every lane keeps its own value.
  w.shfl_xor(v, 4, 4);
  for (int lane = 0; lane < kWarpSize; ++lane) EXPECT_EQ(v[lane], lane);
}

TEST_P(WarpModes, ShflUpShiftsWithinSegment) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  std::iota(v.begin(), v.end(), 100);
  w.shfl_up(v, 1, 16);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const int expect = (lane % 16 == 0) ? 100 + lane : 100 + lane - 1;
    EXPECT_EQ(v[lane], expect);
  }
}

TEST_P(WarpModes, ShflDownShiftsWithinSegment) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  std::iota(v.begin(), v.end(), 0);
  w.shfl_down(v, 2, 8);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const int expect = (lane % 8 >= 6) ? lane : lane + 2;
    EXPECT_EQ(v[lane], expect);
  }
}

TEST_P(WarpModes, BallotCollectsPredicates) {
  Warp w(GetParam(), counts);
  LaneArray<bool> p{};
  for (int lane = 0; lane < kWarpSize; ++lane) p[lane] = (lane % 3 == 0);
  const lane_mask got = w.ballot(p);
  lane_mask want = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (lane % 3 == 0) want |= lane_bit(lane);
  }
  EXPECT_EQ(got, want);

  // The packed-predicate form: same mask, same ballot/int_ops/syncwarp
  // tallies as the per-lane form.
  OpCounts packed_counts;
  Warp packed(GetParam(), packed_counts);
  EXPECT_EQ(packed.ballot(want), want);
  EXPECT_EQ(packed_counts.ballot, counts.ballot);
  EXPECT_EQ(packed_counts.int_ops, counts.int_ops);
  EXPECT_EQ(packed_counts.syncwarp, counts.syncwarp);
}

TEST_P(WarpModes, AnyAllSemantics) {
  Warp w(GetParam(), counts);
  LaneArray<bool> none{};
  LaneArray<bool> all{};
  for (auto& b : all) b = true;
  LaneArray<bool> one{};
  one[13] = true;
  EXPECT_FALSE(w.any(none));
  EXPECT_TRUE(w.any(one));
  EXPECT_TRUE(w.any(all));
  EXPECT_FALSE(w.all(one));
  EXPECT_TRUE(w.all(all));
}

TEST_P(WarpModes, InclusiveScanMatchesSerialPrefixSum) {
  for (int width : {2, 4, 8, 16, 32}) {
    Warp w(GetParam(), counts);
    LaneArray<int> v{};
    for (int lane = 0; lane < kWarpSize; ++lane) v[lane] = lane + 1;
    inclusive_scan_add(w, v, width);
    for (int lane = 0; lane < kWarpSize; ++lane) {
      int expect = 0;
      for (int j = (lane / width) * width; j <= lane; ++j) expect += j + 1;
      EXPECT_EQ(v[lane], expect) << "width=" << width << " lane=" << lane;
    }
  }
}

TEST_P(WarpModes, ExclusiveScanReturnsSegmentTotals) {
  Warp w(GetParam(), counts);
  LaneArray<int> v{};
  for (int lane = 0; lane < kWarpSize; ++lane) v[lane] = 2;
  LaneArray<int> total{};
  exclusive_scan_add(w, v, 8, kFullMask, &total);
  for (int lane = 0; lane < kWarpSize; ++lane) {
    EXPECT_EQ(v[lane], 2 * (lane % 8));
    EXPECT_EQ(total[lane], 16);
  }
}

TEST_P(WarpModes, ReduceAddSumsSegments) {
  for (int width : {4, 16, 32}) {
    Warp w(GetParam(), counts);
    LaneArray<float> v{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
      v[lane] = static_cast<float>(lane);
    }
    reduce_add(w, v, width);
    for (int lane = 0; lane < kWarpSize; ++lane) {
      float expect = 0;
      const int base = (lane / width) * width;
      for (int j = base; j < base + width; ++j) expect += static_cast<float>(j);
      EXPECT_FLOAT_EQ(v[lane], expect);
    }
  }
}

TEST_P(WarpModes, ReduceMinMaxFindExtrema) {
  Warp w(GetParam(), counts);
  LaneArray<float> v{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    v[lane] = static_cast<float>((lane * 17) % 31);
  }
  LaneArray<float> mn = v, mx = v;
  reduce_min(w, mn, kWarpSize);
  reduce_max(w, mx, kWarpSize);
  float want_min = v[0], want_max = v[0];
  for (float f : v) {
    want_min = std::min(want_min, f);
    want_max = std::max(want_max, f);
  }
  for (int lane = 0; lane < kWarpSize; ++lane) {
    EXPECT_FLOAT_EQ(mn[lane], want_min);
    EXPECT_FLOAT_EQ(mx[lane], want_max);
  }
}

TEST_P(WarpModes, CompactSlotNumbersVotersInLaneOrder) {
  Warp w(GetParam(), counts);
  const lane_mask votes = 0b1011'0010'0000'0000'0000'0001'0100'1000u;
  int expect = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!lane_active(votes, lane)) continue;
    EXPECT_EQ(compact_slot(w, votes, lane), expect);
    ++expect;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, WarpModes,
                         ::testing::Values(ExecMode::Pascal, ExecMode::Volta),
                         [](const auto& param_info) {
                           return param_info.param == ExecMode::Pascal
                                      ? "Pascal"
                                      : "Volta";
                         });

// --- mode-specific behaviour ------------------------------------------------

TEST(WarpVolta, CollectivesCountImplicitSyncs) {
  OpCounts c;
  Warp w(ExecMode::Volta, c);
  LaneArray<int> v{};
  w.shfl(v, 0);
  w.shfl_xor(v, 1);
  LaneArray<bool> p{};
  (void)w.ballot(p);
  EXPECT_EQ(c.syncwarp, 3u);
}

TEST(WarpPascal, CollectivesAreSyncFree) {
  OpCounts c;
  Warp w(ExecMode::Pascal, c);
  LaneArray<int> v{};
  w.shfl(v, 0);
  w.syncwarp(); // compiles away under compute_60
  EXPECT_EQ(c.syncwarp, 0u);
  EXPECT_EQ(c.tile_sync, 0u);
}

TEST(WarpVolta, ExplicitSyncwarpCounted) {
  OpCounts c;
  Warp w(ExecMode::Volta, c);
  w.syncwarp();
  w.syncwarp();
  EXPECT_EQ(c.syncwarp, 2u);
}

TEST(WarpVolta, TileSyncCountedSeparately) {
  OpCounts c;
  Warp w(ExecMode::Volta, c);
  w.tile_sync(8);
  EXPECT_EQ(c.tile_sync, 1u);
  EXPECT_EQ(c.syncwarp, 0u);
}

// The paper's §2.1 example: when two half-warps reach a shuffle together
// under Volta scheduling, a 0xffff mask is wrong — the proper mask is
// 0xffffffff (or the value returned by __activemask()).
TEST(WarpVolta, HalfWarpMaskPitfallThrows) {
  OpCounts c;
  Warp w(ExecMode::Volta, c);
  LaneArray<int> v{};
  EXPECT_THROW(w.shfl_xor(v, 1, 16, 0xffffu), WarpError);
  EXPECT_NO_THROW(w.shfl_xor(v, 1, 16, kFullMask));
}

TEST(WarpVolta, ActivemaskGivesCorrectMaskAfterSchedulerSplit) {
  OpCounts c;
  Warp w(ExecMode::Volta, c);
  // Only one group of 16 arrives (independent scheduling split): now the
  // 0xffff mask is the correct one, as the paper explains.
  w.force_split(0xffffu);
  EXPECT_EQ(w.activemask(), 0xffffu);
  LaneArray<int> v{};
  EXPECT_NO_THROW(w.shfl_xor(v, 1, 16, w.activemask()));
  // After a synchronising collective the split heals.
  EXPECT_EQ(w.activemask(), kFullMask);
}

TEST(WarpPascal, MaskIgnoredPreVolta) {
  OpCounts c;
  Warp w(ExecMode::Pascal, c);
  LaneArray<int> v{};
  // Legacy __shfl has no mask; any value is accepted in Pascal mode.
  EXPECT_NO_THROW(w.shfl_xor(v, 1, 16, 0xffffu));
}

TEST(WarpVolta, DivergencePersistsUntilSync) {
  OpCounts c;
  Warp w(ExecMode::Volta, c);
  const lane_mask saved = w.diverge(0x0000ffffu);
  EXPECT_FALSE(w.converged());
  w.reconverge(saved);
  // Volta: still not converged after the branch end (whitepaper Fig 22).
  EXPECT_FALSE(w.converged());
  w.syncwarp();
  EXPECT_TRUE(w.converged());
}

TEST(WarpPascal, ReconvergenceIsImplicitAtBranchEnd) {
  OpCounts c;
  Warp w(ExecMode::Pascal, c);
  const lane_mask saved = w.diverge(0x0000ffffu);
  w.reconverge(saved);
  EXPECT_TRUE(w.converged()); // whitepaper Fig 20 behaviour
}

TEST(WarpCounts, ShflAndBallotTalliesPerLane) {
  OpCounts c;
  Warp w(ExecMode::Pascal, c);
  LaneArray<int> v{};
  w.shfl(v, 0);
  EXPECT_EQ(c.shfl, 32u);
  LaneArray<bool> p{};
  (void)w.ballot(p);
  EXPECT_EQ(c.ballot, 32u);
  // Votes execute on the integer pipe; shuffles on the MIO pipe, so only
  // the ballot contributes to inst_integer.
  EXPECT_EQ(c.int_ops, 32u);
}

TEST(WarpCounts, DivergedLanesDoNotCount) {
  OpCounts c;
  Warp w(ExecMode::Pascal, c);
  w.diverge(0xffu); // 8 active lanes
  LaneArray<int> v{};
  w.shfl(v, 0, 8);
  EXPECT_EQ(c.shfl, 8u);
}

} // namespace
} // namespace gothic::simt
