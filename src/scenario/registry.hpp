// The scenario registry: a name (or a small key=value config file) maps
// to an initial-conditions generator plus a force-law configuration — the
// workload matrix behind `gothic_run --scenario`, bench_scenario and the
// parameterized physics-oracle suite (tests/test_physics_invariance.cpp).
//
// The GOTHIC paper evaluates across multiple particle distributions
// because tree-walk cost and auto-tuner behaviour are distribution-
// dependent; exafmm's van-der-Waals traversal shows the same walk serving
// non-gravity laws. The registry encodes both axes: every entry carries a
// `make` (ICs) and a `configure` (force law + accuracy defaults), and
// every entry is automatically enrolled in the invariance suite, the
// shard/SIMD/schedule bit-identity tests and the gothic_fuzz scenario legs
// (scenario_from_seed).
#pragma once

#include "nbody/particles.hpp"
#include "nbody/simulation.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gothic::scenario {

struct Scenario {
  std::string name;
  std::string summary;
  /// Which pairwise law `configure` installs (duplicated here so callers
  /// can fingerprint reports without building a SimConfig).
  gravity::ForceLaw law = gravity::ForceLaw::Gravity;
  /// Workload size/seed when the caller does not override them.
  std::size_t default_n = 4096;
  std::uint64_t default_seed = 1;
  /// Physics-oracle bounds of the parameterized invariance suite: the
  /// worst-particle relative force error of the configured tree walk
  /// against the double-precision direct reference at small N, and the
  /// |dE/E| bound of a short shared-step integration. Per-scenario
  /// because accuracy is distribution-dependent (a truncated LJ cutoff
  /// drifts more than softened gravity, cold systems divide by small E).
  double force_tol = 0.02;
  double energy_tol = 2e-3;
  /// Momentum-conservation bound: |sum m a| / mean(m |a|) of one force
  /// evaluation must stay below this (Newton's third law survives the
  /// tree approximation only statistically, exactly for LJ pairs).
  double momentum_tol = 0.02;

  /// Draw the initial conditions. Deterministic in (n, seed).
  std::function<nbody::Particles(std::size_t n, std::uint64_t seed)> make;
  /// Apply the scenario's force law and accuracy defaults to a SimConfig
  /// (walk.law/lj/eps/mac, eta/dt; sets cfg.scenario = name). Fields the
  /// scenario does not own (schedules, rebuild policy, block steps) are
  /// left untouched so callers keep their own determinism constraints.
  std::function<void(nbody::SimConfig&)> configure;
};

/// The built-in matrix, construction-ordered (stable across a build):
/// m31, plummer, collision, uniform-box, cold-collapse, merger (gravity)
/// and lj-box (Lennard-Jones).
const std::vector<Scenario>& registry();

/// Names of every registered scenario, registry-ordered.
std::vector<std::string> scenario_names();

/// "m31, plummer, ..." — the one-line list error messages print.
std::string registered_names();

/// Look a scenario up by exact name; throws std::invalid_argument whose
/// one-line message lists the registered names.
const Scenario& find_scenario(const std::string& name);

/// Parse a key=value scenario config file (EXPERIMENTS.md grammar):
/// '#' comments, blank lines, `base = <registered name>` picks the entry
/// to derive from (default plummer), remaining keys override it. Unknown
/// keys, unparseable values and unreadable files throw
/// std::invalid_argument with a one-line message.
Scenario scenario_from_config_file(const std::string& path);

/// `--scenario <name|file>` resolution: an exact registered name wins;
/// otherwise the spec is opened as a config file; otherwise throws,
/// listing the registered names.
Scenario scenario_from_spec(const std::string& spec);

/// Deterministic seed-bits -> scenario map of the gothic_fuzz scenario
/// legs. The seed is hashed (splitmix64) before the modulo so consecutive
/// seeds land on different scenarios; a printed seed therefore fully
/// reproduces workload + schedule + faults.
const Scenario& scenario_from_seed(std::uint64_t seed);

/// Convenience: default SimConfig with `sc.configure` applied.
nbody::SimConfig scenario_sim_config(const Scenario& sc);

} // namespace gothic::scenario
