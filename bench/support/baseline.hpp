// bench::BaselineStore + diff_baselines — the noise-aware perf-regression
// gate over BENCH_*.json trees (driven by tools/bench_diff and check.sh).
//
// A store is a directory of BENCH_<name>[.<variant>][.run<K>].json reports
// (the archived trajectory under bench-results/, or a fresh bench-smoke
// output tree). Reports sharing a canonical key — the filename minus the
// optional ".run<K>" repeat suffix and the ".json" extension — are
// aggregated per metric with MIN across the K runs: wall-clock noise is
// strictly additive, so the minimum is the noise-aware estimator of the
// true cost (the paper's own measurements are best-of-repeats for the
// same reason).
//
// diff_baselines pairs canonical keys across two stores and gates the
// timing metrics:
//   * profiles[label].measured.{kernel_seconds, wall_seconds}
//   * metrics.kernels[kernel].seconds
//   * numeric cells of table columns whose header names a time
//     ("second", "elapsed", "time", or the "[s]" unit suffix)
// A regression is candidate > baseline * (1 + threshold) AND
// candidate - baseline > abs_floor — the relative gate catches real
// slowdowns, the absolute floor keeps micro-second cells from tripping it.
// Deterministic counts (op tallies) and log2-quantized p50/p95 are
// compared informationally (notes, never failures). Reports whose scale
// stanza differs (n/steps/dacc sweep/simd) are skipped with a note:
// the trajectories are not comparable. Schema violations (not a BENCH
// report) are errors.
#pragma once

#include "util/minijson.hpp"

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace gothic::bench {

struct DiffOptions {
  /// Relative slowdown gate: regression when candidate exceeds
  /// baseline * (1 + threshold).
  double threshold = 0.5;
  /// Absolute noise floor in seconds: deltas at or below it never gate.
  double abs_floor = 2e-3;
};

struct DiffFinding {
  std::string report; ///< canonical key, e.g. "BENCH_balance"
  std::string metric; ///< dotted metric path within the report
  double baseline = 0.0;
  double candidate = 0.0;

  /// candidate/baseline slowdown ratio (inf-safe: 0 when baseline is 0).
  [[nodiscard]] double ratio() const {
    return baseline > 0.0 ? candidate / baseline : 0.0;
  }
};

struct DiffReport {
  std::vector<DiffFinding> regressions;
  std::vector<std::string> compared; ///< canonical keys gated
  std::vector<std::string> notes;    ///< skips + informational drift
  std::vector<std::string> errors;   ///< schema/parse failures

  [[nodiscard]] bool ok() const {
    return regressions.empty() && errors.empty();
  }
  /// Human-readable summary.
  void print(std::ostream& os, const DiffOptions& opt) const;
  /// Machine-readable summary (schema-pinned; see EXPERIMENTS.md).
  [[nodiscard]] std::string json(const DiffOptions& opt) const;
};

class BaselineStore {
public:
  /// Scans `dir` for BENCH_*.json (non-recursive). A missing directory is
  /// an empty store.
  explicit BaselineStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  /// Canonical key -> report files (repeat runs grouped together).
  [[nodiscard]] const std::map<std::string, std::vector<std::string>>&
  entries() const {
    return entries_;
  }

  /// "BENCH_shard.run3.json" -> "BENCH_shard".
  [[nodiscard]] static std::string canonical_key(const std::string& filename);

private:
  std::string dir_;
  std::map<std::string, std::vector<std::string>> entries_;
};

/// Gate `candidate` against `baseline` (see file comment for the rules).
[[nodiscard]] DiffReport diff_baselines(const BaselineStore& baseline,
                                        const BaselineStore& candidate,
                                        const DiffOptions& opt);

/// Archive every candidate report into the baseline directory (creating
/// it if needed, overwriting same-named files) — the --update-baseline
/// mode that commits a new point on the BENCH trajectory. Returns the
/// number of files copied.
std::size_t update_baseline(const BaselineStore& baseline,
                            const BaselineStore& candidate);

} // namespace gothic::bench
