// Inter-block barrier correctness (Appendix A substrate): both algorithms
// must order operations across "blocks" (threads) and survive many rounds.
#include "simt/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace gothic::simt {
namespace {

/// All blocks increment a counter between barriers; after each episode,
/// every block must observe the full count — any missed release or early
/// passage shows up as a torn read.
void exercise_barrier(InterBlockBarrier& bar, int blocks, int rounds) {
  std::atomic<int> counter{0};
  std::vector<int> failures(blocks, 0);
  std::vector<std::thread> ts;
  ts.reserve(blocks);
  for (int b = 0; b < blocks; ++b) {
    ts.emplace_back([&, b] {
      for (int r = 0; r < rounds; ++r) {
        counter.fetch_add(1, std::memory_order_relaxed);
        bar.arrive_and_wait(b);
        if (counter.load(std::memory_order_relaxed) < (r + 1) * blocks) {
          ++failures[b];
        }
        bar.arrive_and_wait(b); // keep phases aligned before next round
      }
    });
  }
  for (auto& t : ts) t.join();
  for (int b = 0; b < blocks; ++b) {
    EXPECT_EQ(failures[b], 0) << "block " << b;
  }
  EXPECT_EQ(counter.load(), blocks * rounds);
}

TEST(LockFreeBarrierTest, OrdersAcrossBlocks) {
  LockFreeBarrier bar(4);
  exercise_barrier(bar, 4, 500);
}

TEST(LockFreeBarrierTest, TwoBlocksManyRounds) {
  LockFreeBarrier bar(2);
  exercise_barrier(bar, 2, 5000);
}

TEST(LockFreeBarrierTest, SingleBlockNeverBlocks) {
  LockFreeBarrier bar(1);
  for (int i = 0; i < 100; ++i) bar.arrive_and_wait(0);
  SUCCEED();
}

TEST(LockFreeBarrierTest, AbortReleasesWaitersAndResetRearms) {
  // Block 2 never arrives: abort() must free the master (block 0, waiting
  // on arrivals) and block 1 (waiting on its release); reset() then makes
  // the barrier whole for a normal run.
  LockFreeBarrier bar(3);
  std::atomic<int> released{0};
  std::vector<std::thread> ts;
  for (int b = 0; b < 2; ++b) {
    ts.emplace_back([&, b] {
      bar.arrive_and_wait(b);
      if (bar.aborted()) released.fetch_add(1);
    });
  }
  bar.abort();
  for (auto& t : ts) t.join();
  EXPECT_EQ(released.load(), 2);
  bar.reset();
  EXPECT_FALSE(bar.aborted());
  exercise_barrier(bar, 3, 200);
}

TEST(CentralizedBarrierTest, OrdersAcrossBlocks) {
  CentralizedBarrier bar(4);
  exercise_barrier(bar, 4, 500);
}

TEST(CentralizedBarrierTest, TwoBlocksManyRounds) {
  CentralizedBarrier bar(2);
  exercise_barrier(bar, 2, 5000);
}

TEST(CentralizedBarrierTest, SingleBlockNeverBlocks) {
  CentralizedBarrier bar(1);
  for (int i = 0; i < 100; ++i) bar.arrive_and_wait(0);
  SUCCEED();
}

/// Split-phase multiplexing: two threads each drive several blocks
/// (arrive all, then wait all, block 0 first) — the mode the Appendix A
/// bench uses to scale block counts past the core count.
template <typename BarrierT>
void exercise_multiplexed(int blocks, int rounds) {
  BarrierT bar(blocks);
  std::atomic<int> counter{0};
  std::vector<int> failures(2, 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < 2; ++t) {
    ts.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        for (int b = t; b < blocks; b += 2) {
          counter.fetch_add(1, std::memory_order_relaxed);
          bar.arrive(b);
        }
        for (int b = t; b < blocks; b += 2) bar.wait(b);
        if (counter.load(std::memory_order_relaxed) < (r + 1) * blocks) {
          ++failures[t];
        }
        for (int b = t; b < blocks; b += 2) bar.arrive(b);
        for (int b = t; b < blocks; b += 2) bar.wait(b);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(failures[0], 0);
  EXPECT_EQ(failures[1], 0);
  EXPECT_EQ(counter.load(), blocks * rounds);
}

TEST(LockFreeBarrierTest, MultiplexedBlocksPerThread) {
  exercise_multiplexed<LockFreeBarrier>(32, 300);
}

TEST(CentralizedBarrierTest, MultiplexedBlocksPerThread) {
  exercise_multiplexed<CentralizedBarrier>(32, 300);
}

} // namespace
} // namespace gothic::simt
