// Scenario matrix sweep — one golden-schema report per registered
// scenario (DESIGN.md, "Scenario registry").
//
// For every registry entry (or the subset named on the command line) this
// bench realises the scenario's initial conditions, applies its force-law
// configuration on a fixed rebuild cadence, advances GOTHIC_BENCH_STEPS
// shared steps, and writes BENCH_scenario_<name>.json whose scale
// fingerprint carries the scenario name and force law — so the bench_diff
// perf gate compares like with like and refuses cross-scenario diffs.
//
//   bench_scenario [name...]     default: the whole registry
//
// Physics columns (energy drift, momentum drift) are printed for eyeball
// sanity; the enforced physics-oracle bounds live in the parameterized
// test suite (tests/test_physics_invariance.cpp), not here. "walk [s]" sums
// the walkTree seconds of the advanced steps' reports; the bootstrap and
// the two energy refreshes are not in it.
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "nbody/simulation.hpp"
#include "scenario/registry.hpp"
#include "util/timer.hpp"

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace gothic;

double momentum_norm(const nbody::Momenta& m) {
  return std::sqrt(m.px * m.px + m.py * m.py + m.pz * m.pz);
}

} // namespace

int main(int argc, char** argv) {
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  const int steps = std::max(8, scale.steps);

  std::vector<scenario::Scenario> selected;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      try {
        selected.push_back(scenario::scenario_from_spec(argv[i]));
      } catch (const std::exception& e) {
        std::cerr << "bench_scenario: " << e.what() << "\n";
        return 2;
      }
    }
  } else {
    selected = scenario::registry();
  }

  std::cout << "# scenario matrix: N = " << scale.n << ", steps = " << steps
            << ", " << selected.size() << " scenarios\n";

  bool ok = true;
  for (const scenario::Scenario& sc : selected) {
    nbody::SimConfig cfg = scenario_sim_config(sc);
    // Fixed cadence and shared steps: reports stay comparable run-to-run
    // regardless of host timing (same contract as bench_shard).
    cfg.block_time_steps = false;
    cfg.auto_rebuild = false;
    cfg.fixed_rebuild_interval = 4;

    const Stopwatch make_clock;
    nbody::Particles ic = sc.make(scale.n, sc.default_seed);
    const double make_seconds = make_clock.seconds();

    const Stopwatch run_clock;
    nbody::Simulation sim(std::move(ic), cfg);
    sim.refresh_forces();
    const nbody::Energies e0 = sim.energies();
    const nbody::Momenta p0 = sim.momenta();
    double walk_seconds = 0.0;
    for (int s = 0; s < steps; ++s) {
      walk_seconds +=
          sim.step().seconds[static_cast<std::size_t>(Kernel::WalkTree)];
    }
    sim.refresh_forces();
    const nbody::Energies e1 = sim.energies();
    const nbody::Momenta p1 = sim.momenta();
    const double elapsed = run_clock.seconds();

    const double drift = std::fabs((e1.total() - e0.total()) /
                                   std::max(std::fabs(e0.total()), 1e-30));
    const double dp = std::sqrt(std::pow(p1.px - p0.px, 2) +
                                std::pow(p1.py - p0.py, 2) +
                                std::pow(p1.pz - p0.pz, 2));
    const double pref = std::max(momentum_norm(p0), 1e-30);

    const char* law = gravity::force_law_name(sc.law);
    BenchReport rep("scenario_" + sc.name);
    rep.set_scale(scale, sc.name, law);
    Table t("scenario " + sc.name + " [" + law + "]: " + sc.summary,
            {"n", "steps", "E0", "|dE/E|", "|dP|/max(|P0|,1)", "rebuilds",
             "walk [s]", "ic [s]", "elapsed [s]"});
    t.add_row({std::to_string(scale.n), std::to_string(steps),
               Table::sci(e0.total()), Table::sci(drift),
               Table::sci(dp / std::max(pref, 1.0)),
               std::to_string(sim.rebuild_count()),
               Table::sci(walk_seconds),
               Table::sci(make_seconds), Table::sci(elapsed)});
    t.print(std::cout);
    rep.add_table(t);
    rep.add_note("fixed rebuild cadence (interval 4), shared global steps");
    rep.add_note(std::string("force law: ") + law);
    ok = rep.write(std::cout) && ok;
  }

  return ok ? 0 : 1;
}
