// Wall-clock stopwatches and accumulating per-kernel timers.
//
// GOTHIC measures the elapsed time of each device function (walkTree,
// calcNode, makeTree, predict/correct) every step; the auto-tuner for the
// tree-rebuild interval feeds on those measurements. KernelTimers mirrors
// that bookkeeping.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace gothic {

/// Simple monotonic stopwatch.
class Stopwatch {
public:
  Stopwatch() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Steady seconds since the process's first call: the one clock every
/// LaunchRecord and StepMark is stamped on, so launches of every device
/// share one time axis.
[[nodiscard]] inline double process_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

/// The representative GOTHIC functions whose execution time the paper
/// breaks down (Figs 3-5).
enum class Kernel : int {
  WalkTree = 0,  ///< gravity calculation by tree traversal
  CalcNode,      ///< centre-of-mass / total mass of tree nodes
  MakeTree,      ///< tree construction (Morton keys + radix sort + linking)
  PredictCorrect,///< orbit integration (2nd-order Runge-Kutta)
  Count
};

[[nodiscard]] constexpr std::string_view kernel_name(Kernel k) {
  switch (k) {
    case Kernel::WalkTree: return "walkTree";
    case Kernel::CalcNode: return "calcNode";
    case Kernel::MakeTree: return "makeTree";
    case Kernel::PredictCorrect: return "pred/corr";
    default: return "?";
  }
}

/// Accumulates seconds and invocation counts per kernel.
class KernelTimers {
public:
  void add(Kernel k, double seconds) {
    auto i = static_cast<std::size_t>(k);
    seconds_[i] += seconds;
    calls_[i] += 1;
  }

  [[nodiscard]] double seconds(Kernel k) const {
    return seconds_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t calls(Kernel k) const {
    return calls_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double total_seconds() const {
    double s = 0.0;
    for (double v : seconds_) s += v;
    return s;
  }

  void reset() {
    seconds_.fill(0.0);
    calls_.fill(0);
  }

  /// Merge another set of timers into this one.
  KernelTimers& operator+=(const KernelTimers& o) {
    for (std::size_t i = 0; i < seconds_.size(); ++i) {
      seconds_[i] += o.seconds_[i];
      calls_[i] += o.calls_[i];
    }
    return *this;
  }

private:
  static constexpr std::size_t kN = static_cast<std::size_t>(Kernel::Count);
  std::array<double, kN> seconds_{};
  std::array<std::uint64_t, kN> calls_{};
};

} // namespace gothic
