// The benchmark's workloads (README.md has the table of what each one
// stresses and why). Each runs in its own process, times its layers only
// from outside through the engine's public API, and checks its outputs.
#pragma once

#include "stats.hpp"

#include <cstdint>
#include <string>

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Seconds of timed requests, split evenly over the rounds; a round may
  /// run past its share to reach its minimum requests (README.md, "Run
  /// length").
  double seconds = 0.0;
  /// Chrome-trace destination; empty = untraced run.
  std::string trace_path;
};

/// Run one workload; throws std::invalid_argument for an unknown name.
/// The result carries the end-to-end metrics always, the per-layer
/// metrics on traced runs, every check and the devices' fingerprint.
[[nodiscard]] Result run_workload(const RunOptions& opt);

} // namespace e2e
