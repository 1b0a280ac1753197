// Warp-level SIMT execution model — the stand-in for CUDA warp execution
// on Tesla V100/P100 (DESIGN.md, substitution 1).
//
// A Warp holds 32 lanes with an active mask and executes warp collectives
// (shuffles, ballots) with the semantics of the two modes the paper
// compares (§2.1):
//
//  * ExecMode::Pascal  — compilation with -gencode arch=compute_60,
//    code=sm_70: implicit lockstep. Collectives ignore the mask argument
//    (pre-Volta __shfl has none) and no synchronisation is executed or
//    counted.
//  * ExecMode::Volta   — compute_70: independent thread scheduling.
//    Every *_sync collective carries an implicit convergence barrier,
//    counted as one syncwarp per warp-collective; explicit syncwarp()
//    calls are also counted. The mask argument is validated: it must name
//    exactly the lanes that reach the collective (the paper's half-warp
//    pitfall — two groups of 16 arriving together need 0xffffffff, not
//    0xffff), otherwise WarpError is thrown, modelling the undefined
//    behaviour/hang on real hardware.
//
// Collectives segment the warp by `width` (a power of two <= 32) exactly
// like CUDA's width parameter, which is how GOTHIC implements the Tsub
// sub-warp reductions of Table 2.
#pragma once

#include "simt/lane_mask.hpp"
#include "simt/op_counter.hpp"
#include "util/types.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace gothic::simt {

/// Compilation/scheduling mode of the simulated device code (§2.1).
enum class ExecMode {
  Pascal, ///< -gencode arch=compute_60,code=sm_70 (implicit warp sync)
  Volta,  ///< -gencode arch=compute_70,code=sm_70 (independent scheduling)
};

[[nodiscard]] constexpr const char* exec_mode_name(ExecMode m) {
  return m == ExecMode::Pascal ? "compute_60" : "compute_70";
}

/// Per-lane register file view: one value per lane.
template <typename T>
using LaneArray = std::array<T, kWarpSize>;

/// Thrown when a collective is invoked with a mask that does not match the
/// lanes that reach it (undefined behaviour on real Volta hardware).
class WarpError : public std::logic_error {
public:
  using std::logic_error::logic_error;
};

class Warp {
public:
  Warp(ExecMode mode, OpCounts& counts, lane_mask initial = kFullMask)
      : mode_(mode), counts_(&counts), active_(initial) {}

  [[nodiscard]] ExecMode mode() const { return mode_; }
  [[nodiscard]] lane_mask active() const { return active_; }
  [[nodiscard]] OpCounts& counts() { return *counts_; }

  /// Enter a divergent region: only `m & active()` lanes keep executing.
  /// Returns the previous mask for reconverge(). In Volta mode the warp is
  /// marked non-converged until an explicit or implicit synchronisation.
  lane_mask diverge(lane_mask m) {
    const lane_mask prev = active_;
    active_ &= m;
    if (mode_ == ExecMode::Volta && active_ != prev) converged_ = false;
    return prev;
  }

  /// Leave a divergent region, restoring the saved mask. On Pascal-mode
  /// hardware lanes reconverge immediately at the branch end (Fig 20 of
  /// the V100 whitepaper); on Volta they stay schedulable independently
  /// until a sync (Figs 22-23), which we track via the converged flag.
  void reconverge(lane_mask saved) {
    active_ = saved;
    if (mode_ == ExecMode::Pascal) converged_ = true;
  }

  /// __activemask(): the lanes that arrive together at this point.
  /// Test hooks can force a scheduler split (force_split) to reproduce the
  /// paper's half-warp mask pitfall; otherwise all active lanes arrive
  /// together.
  [[nodiscard]] lane_mask activemask() const {
    if (mode_ == ExecMode::Volta && split_ != 0) return split_ & active_;
    return active_;
  }

  /// Model an independent-scheduling split: the next collective sees only
  /// `group` lanes arriving (Volta mode only). Cleared by synchronisation.
  void force_split(lane_mask group) {
    if (mode_ == ExecMode::Volta) split_ = group;
  }

  [[nodiscard]] bool converged() const { return converged_; }

  /// __syncwarp(mask): explicit warp synchronisation. Counted (and
  /// needed) in Volta mode only; in Pascal mode it compiles away.
  void syncwarp(lane_mask mask = kFullMask) {
    if (mode_ == ExecMode::Volta) {
      validate_mask(mask, "syncwarp");
      counts_->syncwarp += 1;
      converged_ = true;
      split_ = 0;
    }
  }

  /// Cooperative-Groups tiled synchronisation for a tile of `width`
  /// threads (power of two <= 32), as used by makeTree (§2.1, §4.1).
  void tile_sync(int width) {
    if (mode_ == ExecMode::Volta) {
      counts_->tile_sync += 1;
      converged_ = true;
      split_ = 0;
    }
    (void)width;
  }

  // -- Warp collectives ----------------------------------------------------
  // All collectives operate on the lanes of activemask(); in Volta mode the
  // provided mask must name exactly those lanes.

  /// __shfl_sync: every lane of a width-segment reads lane `src` (segment-
  /// relative) of that segment.
  template <typename T>
  void shfl(LaneArray<T>& v, int src, int width = kWarpSize,
            lane_mask mask = kFullMask) {
    const lane_mask exec = begin_collective(mask, "shfl");
    LaneArray<T> out = v;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(exec, lane)) continue;
      const int base = (lane / width) * width;
      const int from = base + (src & (width - 1));
      out[lane] = v[from];
    }
    v = out;
    end_collective(exec, /*is_ballot=*/false);
  }

  /// __shfl_xor_sync: butterfly exchange with lane ^ lane_xor.
  template <typename T>
  void shfl_xor(LaneArray<T>& v, int lane_xor, int width = kWarpSize,
                lane_mask mask = kFullMask) {
    const lane_mask exec = begin_collective(mask, "shfl_xor");
    LaneArray<T> out = v;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(exec, lane)) continue;
      const int from = lane ^ lane_xor;
      // Exchanges crossing the segment boundary return the caller's value.
      if (from / width == lane / width) out[lane] = v[from];
    }
    v = out;
    end_collective(exec, false);
  }

  /// __shfl_up_sync: lane i reads lane i-delta of its segment; lanes whose
  /// source falls outside the segment keep their own value.
  template <typename T>
  void shfl_up(LaneArray<T>& v, int delta, int width = kWarpSize,
               lane_mask mask = kFullMask) {
    const lane_mask exec = begin_collective(mask, "shfl_up");
    LaneArray<T> out = v;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(exec, lane)) continue;
      const int base = (lane / width) * width;
      const int from = lane - delta;
      if (from >= base) out[lane] = v[from];
    }
    v = out;
    end_collective(exec, false);
  }

  /// __shfl_down_sync: lane i reads lane i+delta of its segment.
  template <typename T>
  void shfl_down(LaneArray<T>& v, int delta, int width = kWarpSize,
                 lane_mask mask = kFullMask) {
    const lane_mask exec = begin_collective(mask, "shfl_down");
    LaneArray<T> out = v;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (!lane_active(exec, lane)) continue;
      const int base = (lane / width) * width;
      const int from = lane + delta;
      if (from < base + width) out[lane] = v[from];
    }
    v = out;
    end_collective(exec, false);
  }

  /// __ballot_sync over a packed predicate (bit i = lane i's vote): the
  /// executing lanes whose bit is set.
  [[nodiscard]] lane_mask ballot(lane_mask pred, lane_mask mask = kFullMask) {
    const lane_mask exec = begin_collective(mask, "ballot");
    end_collective(exec, /*is_ballot=*/true);
    return pred & exec;
  }

  /// __ballot_sync over a per-lane predicate: packs it and runs the packed
  /// form, so both forms validate, synchronise and count alike.
  [[nodiscard]] lane_mask ballot(const LaneArray<bool>& pred,
                                 lane_mask mask = kFullMask) {
    lane_mask bits = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (pred[lane]) bits |= lane_bit(lane);
    }
    return ballot(bits, mask);
  }

  /// Count-only shfl-family collective: performs the mask validation, the
  /// implicit *_sync convergence barrier and the op tallies of one shuffle
  /// stage — without moving any data — and returns the executing lanes.
  /// The SIMD fast paths (simt/simd.hpp) move the data in vector registers
  /// instead of through the emulated crossbar; charging the collective
  /// through this hook keeps OpCounts bit-identical to the scalar path.
  lane_mask shfl_counted(lane_mask mask = kFullMask,
                         const char* what = "shfl_xor") {
    const lane_mask exec = begin_collective(mask, what);
    end_collective(exec, /*is_ballot=*/false);
    return exec;
  }

  /// __any_sync / __all_sync.
  [[nodiscard]] bool any(const LaneArray<bool>& pred,
                         lane_mask mask = kFullMask) {
    return ballot(pred, mask) != 0;
  }
  [[nodiscard]] bool all(const LaneArray<bool>& pred,
                         lane_mask mask = kFullMask) {
    const lane_mask exec = activemask();
    return (ballot(pred, mask) & exec) == exec;
  }

private:
  void validate_mask(lane_mask mask, const char* what) const {
    const lane_mask exec = activemask();
    if ((mask & exec) != exec) {
      throw WarpError(std::string(what) +
                      ": mask does not cover all arriving lanes (paper "
                      "S2.1 pitfall; pass __activemask() under Volta)");
    }
  }

  /// Common entry for collectives: validates the mask (Volta), applies the
  /// implicit convergence barrier of *_sync collectives, and returns the
  /// set of executing lanes.
  lane_mask begin_collective(lane_mask mask, const char* what) {
    if (mode_ == ExecMode::Volta) {
      validate_mask(mask, what);
      counts_->syncwarp += 1; // implicit barrier of the *_sync collective
      converged_ = true;
      split_ = 0;
    }
    return active_;
  }

  void end_collective(lane_mask exec, bool is_ballot) {
    const auto lanes = static_cast<std::uint64_t>(popc(exec));
    if (is_ballot) {
      // Ballots/votes execute on the integer pipe (nvprof folds them into
      // inst_integer).
      counts_->ballot += lanes;
      counts_->int_ops += lanes;
    } else {
      // Shuffles execute on the MIO (shared-memory) pipe on Volta, not on
      // the INT32 ALUs, so they are tracked separately and do not
      // contribute to inst_integer.
      counts_->shfl += lanes;
    }
  }

  ExecMode mode_;
  OpCounts* counts_;
  lane_mask active_;
  lane_mask split_ = 0;
  bool converged_ = true;
};

} // namespace gothic::simt
