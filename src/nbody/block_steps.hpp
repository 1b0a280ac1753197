// Hierarchical block time steps (McMillan 1986) — GOTHIC integrates with
// individual power-of-two time steps so dense regions step often while the
// halo steps rarely (§1).
//
// Time is discretised in ticks of dt_min = dt_max / 2^max_level. A
// particle at level l has step dt_max / 2^l and fires whenever the global
// tick count is a multiple of its step. Levels may only change when a
// particle fires, and a particle may move at most one level shallower per
// firing (the standard synchronisation rule that keeps the hierarchy
// consistent).
#pragma once

#include "util/types.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace gothic::nbody {

class BlockTimeSteps {
public:
  /// `max_level` bounds the depth of the hierarchy: dt_min = dt_max/2^max.
  BlockTimeSteps(double dt_max, int max_level);

  /// (Re)assign every particle the deepest level compatible with its
  /// required time step (dt_req <= dt of level). Resets the clock; call
  /// once at start-up.
  void initialize(std::span<const double> dt_required);

  /// The tick increment to the next firing time.
  [[nodiscard]] std::uint64_t ticks_to_next() const;

  /// Advance the clock to the next firing time; returns the elapsed
  /// physical time. After advance(), active(i) tells whether particle i
  /// fired and must be corrected.
  double advance();

  /// True when particle i fires at the current time.
  [[nodiscard]] bool active(std::size_t i) const;

  /// Number of particles firing at the current time.
  [[nodiscard]] std::size_t num_active() const;

  /// Update the level of a fired particle from its new required dt,
  /// enforcing the one-level-shallower-per-firing rule and tick alignment.
  void update_level(std::size_t i, double dt_required);

  /// Physical time since particle i's last correction.
  [[nodiscard]] double time_since_correction(std::size_t i) const;
  /// Record that particle i was corrected at the current time.
  void mark_corrected(std::size_t i);

  /// Reorder per-particle state after a tree rebuild:
  /// state[slot] = old_state[perm[slot]], through retained scratch (no
  /// heap traffic after the first rebuild).
  void apply_permutation(std::span<const index_t> perm);

  [[nodiscard]] double time() const;
  [[nodiscard]] double dt_max() const { return dt_max_; }
  [[nodiscard]] int max_level() const { return max_level_; }
  [[nodiscard]] int level(std::size_t i) const { return levels_[i]; }
  [[nodiscard]] std::size_t size() const { return levels_.size(); }

  /// Deepest level compatible with dt_required (clamped to [0,max_level]).
  [[nodiscard]] int level_for(double dt_required) const;

private:
  [[nodiscard]] std::uint64_t step_ticks(int level) const {
    return std::uint64_t{1} << (max_level_ - level);
  }

  double dt_max_;
  int max_level_;
  double dt_min_;
  std::uint64_t now_ = 0; ///< ticks
  std::vector<std::uint8_t> levels_;
  std::vector<std::uint64_t> last_corrected_;
  /// apply_permutation's gather buffers (ping-pong with the arrays above).
  std::vector<std::uint8_t> levels_scratch_;
  std::vector<std::uint64_t> corrected_scratch_;
};

} // namespace gothic::nbody
