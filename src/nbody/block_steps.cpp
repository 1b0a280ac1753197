#include "nbody/block_steps.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gothic::nbody {

BlockTimeSteps::BlockTimeSteps(double dt_max, int max_level)
    : dt_max_(dt_max), max_level_(max_level),
      dt_min_(dt_max / static_cast<double>(std::uint64_t{1} << max_level)) {
  if (!(dt_max > 0.0)) {
    throw std::invalid_argument("BlockTimeSteps: dt_max must be positive");
  }
  if (max_level < 0 || max_level > 62) {
    throw std::invalid_argument("BlockTimeSteps: max_level out of range");
  }
}

int BlockTimeSteps::level_for(double dt_required) const {
  if (!(dt_required > 0.0)) return max_level_;
  // Deepest level whose dt does not exceed the requirement.
  const double ratio = dt_max_ / dt_required;
  int level = 0;
  while (level < max_level_ &&
         (static_cast<double>(std::uint64_t{1} << level)) < ratio) {
    ++level;
  }
  return level;
}

void BlockTimeSteps::initialize(std::span<const double> dt_required) {
  levels_.resize(dt_required.size());
  last_corrected_.assign(dt_required.size(), 0);
  now_ = 0;
  for (std::size_t i = 0; i < dt_required.size(); ++i) {
    levels_[i] = static_cast<std::uint8_t>(level_for(dt_required[i]));
  }
}

std::uint64_t BlockTimeSteps::ticks_to_next() const {
  // The next firing time of level l is the next multiple of 2^(max-l).
  // The soonest is governed by the deepest occupied level.
  int deepest = 0;
  for (std::uint8_t l : levels_) deepest = std::max(deepest, static_cast<int>(l));
  const std::uint64_t ticks = step_ticks(deepest);
  return ticks - (now_ % ticks == 0 ? 0 : now_ % ticks);
}

double BlockTimeSteps::advance() {
  const std::uint64_t dt = ticks_to_next();
  now_ += dt;
  return static_cast<double>(dt) * dt_min_;
}

bool BlockTimeSteps::active(std::size_t i) const {
  return now_ % step_ticks(levels_[i]) == 0;
}

std::size_t BlockTimeSteps::num_active() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (active(i)) ++n;
  }
  return n;
}

void BlockTimeSteps::update_level(std::size_t i, double dt_required) {
  const int want = level_for(dt_required);
  const int cur = levels_[i];
  int next = want;
  if (want < cur) {
    // Shallower (longer dt) only one level at a time, and only when the
    // new step stays aligned with the tick grid.
    next = cur - 1;
    if (now_ % step_ticks(next) != 0) next = cur;
  }
  levels_[i] = static_cast<std::uint8_t>(next);
}

double BlockTimeSteps::time_since_correction(std::size_t i) const {
  return static_cast<double>(now_ - last_corrected_[i]) * dt_min_;
}

void BlockTimeSteps::mark_corrected(std::size_t i) {
  last_corrected_[i] = now_;
}

namespace {

/// v[slot] = old v[perm[slot]]: gathered into `scratch`, which then swaps
/// with `v`, so nothing is allocated once `scratch` has v's size.
template <typename T>
void permute_through(std::vector<T>& v, std::span<const index_t> perm,
                     std::vector<T>& scratch) {
  scratch.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) scratch[i] = v[perm[i]];
  v.swap(scratch);
}

} // namespace

void BlockTimeSteps::apply_permutation(std::span<const index_t> perm) {
  if (perm.size() != levels_.size()) {
    throw std::invalid_argument("BlockTimeSteps: permutation size mismatch");
  }
  permute_through(levels_, perm, levels_scratch_);
  permute_through(last_corrected_, perm, corrected_scratch_);
}

double BlockTimeSteps::time() const {
  return static_cast<double>(now_) * dt_min_;
}

} // namespace gothic::nbody
