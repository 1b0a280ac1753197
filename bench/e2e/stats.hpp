// The benchmark's statistics and result format: every rule a run or an
// A/B comparison applies lives here, so e2e_tests pins each one and the
// binary and run.py (through `gothic_e2e --judge`) share one definition.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// --- percentiles -------------------------------------------------------------

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n) of
/// the sorted samples (p in (0, 100]). Throws std::invalid_argument on an
/// empty sample set or p outside (0, 100].
[[nodiscard]] double nearest_rank(std::vector<double> samples, double p);

/// Samples ranked strictly above the nearest-rank p-th percentile of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Samples a reported percentile must leave beyond it to be trusted.
inline constexpr std::size_t kMinBeyond = 10;

/// True when the p-th percentile of n samples has at least kMinBeyond
/// samples beyond it (p90 needs n >= 100).
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// Quartiles of Python's statistics.quantiles(samples, n=4) (its default
/// 'exclusive' method), so C++ and the acceptance script agree on spread.
/// Needs at least two samples.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> samples);

// --- comparisons -------------------------------------------------------------

struct MetricSpec {
  std::string name;
  bool higher_is_better = false;
  /// Relative bound: a share of the base median.
  double bound = 0.1;
  /// Absolute floor in the metric's unit (0 = none).
  double floor = 0.0;

  /// The tolerated absolute change around `base`: the larger of
  /// bound * |base| and the floor.
  [[nodiscard]] double tolerance(double base) const;
  /// True when `value` is worse than `base` by more than the tolerance.
  [[nodiscard]] bool worse_beyond(double base, double value) const;
  /// True when `value` is better than `base` by more than the tolerance.
  [[nodiscard]] bool better_beyond(double base, double value) const;
};

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// What a comparison asks of a metric.
enum class Rule {
  /// The claimed metric: a gain needs >= 9/10 pair wins and a median
  /// difference larger than the parent's quartile spread.
  Claim,
  /// Any other metric: the change's median may be worse by at most the
  /// tolerance; a spread wider than the tolerance leaves it unresolved
  /// unless every change run beats every parent run.
  NoRegression,
  /// Self-agreement of two sets of the same code: medians within the
  /// tolerance in both directions.
  Agreement,
};

struct Verdict {
  Summary parent;
  Summary change;
  int wins = 0;    ///< pairs where the change is better (ties count neither)
  int losses = 0;
  /// gain | no-gain | ok | regressed | unresolved | agree | disagree
  std::string label;
};

/// Compare two sample sets. `parent[i]` and `change[i]` form pair i (the
/// sets must be equally long, at least two samples each).
[[nodiscard]] Verdict judge(const MetricSpec& m,
                            const std::vector<double>& parent,
                            const std::vector<double>& change, Rule rule);

/// Share of attempted operations that failed. Throws when attempted == 0
/// or failed > attempted.
[[nodiscard]] double failure_share(std::uint64_t attempted,
                                   std::uint64_t failed);

// --- accuracy ----------------------------------------------------------------

/// Relative force error of one particle, floored so near-zero reference
/// forces cannot blow it up: |a_tree - a_ref| / max(|a_ref|, floor).
[[nodiscard]] double force_error(const std::array<double, 3>& a_tree,
                                 const std::array<double, 3>& a_ref,
                                 double floor);

// --- result format -----------------------------------------------------------

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
[[nodiscard]] bool valid_metric_name(const std::string& name);
/// Units: 1-16 characters of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(const std::string& unit);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One run's result, written as a single JSON line (schema "gothic-e2e/1"):
///   {"schema", "workload", "seed", "traced", "fingerprint": {k: string},
///    "ops_attempted", "ops_failed", "failure_share",
///    "checks": [{"name", "ok", "detail"}],
///    "metrics": {name: {"value", "unit"}},   end-to-end
///    "layers":  {name: {"value", "unit"}}}   per-layer (traced runs)
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_failed = 0;
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  std::vector<Metric> layers;

  /// Record a check: one more attempted operation, and a failed one if
  /// !ok.
  void check(const std::string& name, bool ok, const std::string& detail);
};

/// Serialize; throws std::invalid_argument on an invalid metric name or
/// unit, a non-finite value or attempted == 0.
[[nodiscard]] std::string to_json(const Result& r);

/// JSON string literal with escapes.
[[nodiscard]] std::string json_quote(const std::string& s);

} // namespace e2e
