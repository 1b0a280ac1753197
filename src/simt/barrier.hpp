// Inter-block (grid-wide) software barriers — Appendix A of the paper.
//
// GOTHIC uses the GPU lock-free barrier of Xiao & Feng (2010) instead of
// CUDA 9 Cooperative-Groups grid synchronisation, because the former
// micro-benchmarks faster. We implement both algorithms over std::thread
// "blocks" so the Appendix A comparison can be re-run: the lock-free
// barrier uses per-block arrive/depart flag arrays (no atomic contention),
// the Cooperative-Groups stand-in uses a single shared arrival counter
// with sense reversal (centralised contention).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace gothic::simt {

/// Interface: every participating block calls arrive_and_wait(block_id)
/// once per barrier episode. The split arrive()/wait() pair exists so a
/// host with fewer cores than blocks can drive several blocks per thread
/// (arrive all owned blocks, then wait on them, block 0 first) — the way
/// the Appendix A bench scales the block count without oversubscribing.
class InterBlockBarrier {
public:
  explicit InterBlockBarrier(int num_blocks) : num_blocks_(num_blocks) {}
  virtual ~InterBlockBarrier() = default;
  virtual void arrive(int block) = 0;
  virtual void wait(int block) = 0;
  void arrive_and_wait(int block) {
    arrive(block);
    wait(block);
  }
  [[nodiscard]] int num_blocks() const { return num_blocks_; }

protected:
  int num_blocks_;
};

/// GPU lock-free synchronisation (Xiao & Feng 2010): block b publishes its
/// arrival in its own slot of `in_`; block 0 observes all slots, then
/// releases every block through its own slot of `out_`. Each block spins
/// only on its private cache line — no shared atomic RMW.
///
/// abort() is the escape hatch of a grid whose block failed: every pending
/// and later wait() returns at once, and aborted() tells the caller the
/// episode did not complete. reset() rearms the barrier once no block is
/// inside arrive() or wait().
class LockFreeBarrier final : public InterBlockBarrier {
public:
  explicit LockFreeBarrier(int num_blocks);
  void arrive(int block) override;
  void wait(int block) override;

  void abort() { aborted_.store(true, std::memory_order_release); }
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }
  /// Back to the constructed state (no episode pending, not aborted).
  void reset();

private:
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> value{0};
  };
  std::vector<Slot> in_;
  std::vector<Slot> out_;
  std::vector<Slot> local_goal_; // episodes each block has arrived at
  std::atomic<bool> aborted_{false};
};

/// Centralised sense-reversing barrier: the shape of CUDA 9 Cooperative
/// Groups' grid.sync() (single arrival counter, release broadcast). All
/// blocks RMW the same counter, which is what makes it slower under
/// contention in Appendix A.
class CentralizedBarrier final : public InterBlockBarrier {
public:
  explicit CentralizedBarrier(int num_blocks);
  void arrive(int block) override;
  void wait(int block) override;

private:
  std::atomic<int> count_{0};
  std::atomic<std::uint32_t> sense_{0};
  struct alignas(64) Local {
    std::uint32_t sense = 0;
  };
  std::vector<Local> local_;
};

} // namespace gothic::simt
