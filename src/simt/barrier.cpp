#include "simt/barrier.hpp"

#include <thread>

namespace gothic::simt {

namespace {
/// Bounded spin: pause a few hundred times, then yield so oversubscribed
/// hosts (more blocks than cores) still make progress. On the GPU the
/// analogue is the scheduler interleaving resident blocks.
class Backoff {
public:
  void pause() {
    if (++spins_ < 256) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    } else {
      spins_ = 0;
      std::this_thread::yield();
    }
  }

private:
  int spins_ = 0;
};
} // namespace

LockFreeBarrier::LockFreeBarrier(int num_blocks)
    : InterBlockBarrier(num_blocks),
      in_(static_cast<std::size_t>(num_blocks)),
      out_(static_cast<std::size_t>(num_blocks)),
      local_goal_(static_cast<std::size_t>(num_blocks)) {}

void LockFreeBarrier::arrive(int block) {
  auto& my_goal = local_goal_[static_cast<std::size_t>(block)].value;
  const std::uint32_t goal = my_goal.load(std::memory_order_relaxed) + 1;
  my_goal.store(goal, std::memory_order_relaxed);
  // Publish the arrival in the block's private slot (no shared RMW).
  in_[static_cast<std::size_t>(block)].value.store(goal,
                                                   std::memory_order_release);
}

void LockFreeBarrier::wait(int block) {
  const std::uint32_t goal =
      local_goal_[static_cast<std::size_t>(block)].value.load(
          std::memory_order_relaxed);
  if (block == 0) {
    // Block 0 plays the role of GOTHIC's master block: observe every
    // arrival slot, then release all blocks through their depart slots.
    Backoff bo;
    for (auto& s : in_) {
      while (s.value.load(std::memory_order_acquire) != goal) {
        if (aborted()) return;
        bo.pause();
      }
    }
    for (auto& s : out_) {
      s.value.store(goal, std::memory_order_release);
    }
  } else {
    auto& mine = out_[static_cast<std::size_t>(block)].value;
    Backoff bo;
    while (mine.load(std::memory_order_acquire) != goal) {
      if (aborted()) return;
      bo.pause();
    }
  }
}

void LockFreeBarrier::reset() {
  for (auto* slots : {&in_, &out_, &local_goal_}) {
    for (Slot& s : *slots) s.value.store(0, std::memory_order_relaxed);
  }
  aborted_.store(false, std::memory_order_relaxed);
}

CentralizedBarrier::CentralizedBarrier(int num_blocks)
    : InterBlockBarrier(num_blocks),
      local_(static_cast<std::size_t>(num_blocks)) {}

void CentralizedBarrier::arrive(int block) {
  auto& my_sense = local_[static_cast<std::size_t>(block)].sense;
  const std::uint32_t next = my_sense + 1;
  my_sense = next;
  // Every arrival read-modify-writes the same counter (the centralised
  // hot line); the last one releases everyone by flipping the sense.
  if (count_.fetch_add(1, std::memory_order_acq_rel) == num_blocks_ - 1) {
    count_.store(0, std::memory_order_relaxed);
    sense_.store(next, std::memory_order_release);
  }
}

void CentralizedBarrier::wait(int block) {
  const std::uint32_t next = local_[static_cast<std::size_t>(block)].sense;
  Backoff bo;
  while (sense_.load(std::memory_order_acquire) != next) bo.pause();
}

} // namespace gothic::simt
