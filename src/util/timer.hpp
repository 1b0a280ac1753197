// Wall-clock stopwatches, the process clock and the kernel buckets.
//
// GOTHIC measures the elapsed time of each device function (walkTree,
// calcNode, makeTree, predict/correct) every step; the auto-tuner for the
// tree-rebuild interval feeds on those measurements. Here every launch's
// runtime::LaunchRecord carries its Kernel bucket and body seconds; the
// step engine's StepReport and trace::MetricsRegistry are their sums.
#pragma once

#include <chrono>
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
/// breaks down (Figs 3-5), plus the sharded engine's LET import, which
/// gets its own bucket so that makeTree holds only the tree build.
enum class Kernel : int {
  WalkTree = 0,  ///< gravity calculation by tree traversal
  CalcNode,      ///< centre-of-mass / total mass of tree nodes
  MakeTree,      ///< tree construction (Morton keys + radix sort + linking)
  PredictCorrect,///< orbit integration (2nd-order Runge-Kutta)
  LetImport,     ///< sharded runs: copy of the local essential trees
  Count
};

[[nodiscard]] constexpr std::string_view kernel_name(Kernel k) {
  switch (k) {
    case Kernel::WalkTree: return "walkTree";
    case Kernel::CalcNode: return "calcNode";
    case Kernel::MakeTree: return "makeTree";
    case Kernel::PredictCorrect: return "pred/corr";
    case Kernel::LetImport: return "letImport";
    default: return "?";
  }
}

} // namespace gothic
