// Sharded pipeline — K-shard SFC domain decomposition with local
// essential trees (DESIGN.md, "Step engine").
//
// Runs the M31 workload through ShardedSimulation for K in {1, 2, 4} on
// a fixed rebuild cadence and reports per-shard busy time, the
// cross-shard imbalance ratio (busiest shard / mean shard), and the LET
// traffic (exported cells and spilled bodies per step). Every K is
// compared bit-for-bit against the single-device Simulation reference —
// the sharding contract says only *where* kernels run changes, never
// what they compute.
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "nbody/sharded_simulation.hpp"
#include "nbody/simulation.hpp"
#include "util/timer.hpp"

#include <cstring>
#include <iostream>
#include <string>

namespace {

using namespace gothic;

/// Fixed rebuild cadence: bit-identity across runs requires the same
/// rebuild steps regardless of measured kernel times.
nbody::SimConfig shard_config() {
  nbody::SimConfig cfg;
  cfg.walk.eps = real(0.0156);
  cfg.walk.mac.dacc = real(1.0 / 512);
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 4;
  return cfg;
}

bool states_identical(const nbody::Particles& a, const nbody::Particles& b) {
  const std::size_t n = a.size();
  auto eq = [n](const std::vector<real>& u, const std::vector<real>& v) {
    return std::memcmp(u.data(), v.data(), n * sizeof(real)) == 0;
  };
  return eq(a.x, b.x) && eq(a.y, b.y) && eq(a.z, b.z) && eq(a.vx, b.vx) &&
         eq(a.vy, b.vy) && eq(a.vz, b.vz) && eq(a.ax, b.ax) &&
         eq(a.ay, b.ay) && eq(a.az, b.az) && eq(a.pot, b.pot);
}

} // namespace

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  // The oracle needs rebuilds in the measured window: >= 8 steps spans
  // two rebuilds at the fixed interval of 4.
  const int steps = std::max(8, scale.steps);

  std::cout << "# sharded pipeline: N = " << scale.n << ", steps = " << steps
            << ", workers/shard = " << scale.threads
            << " (override with GOTHIC_THREADS)\n";

  nbody::Simulation ref(m31_workload(scale.n), shard_config());
  {
    const Stopwatch clock;
    ref.run(steps);
    std::cout << "# reference (unsharded): " << Table::sci(clock.seconds())
              << " s\n";
  }

  BenchReport rep("shard");
  rep.set_scale(scale);
  Table t("SFC sharding with local essential trees (M31, N = " +
              std::to_string(scale.n) + ", " + std::to_string(steps) +
              " steps, fixed rebuild interval 4)",
          {"shards", "elapsed [s]", "busy max [s]", "busy mean [s]",
           "imbalance", "LET cells/step", "LET bodies/step", "identical"});

  bool all_identical = true;
  for (const int shards : {1, 2, 4}) {
    nbody::ShardOptions opt;
    opt.shards = shards;
    nbody::ShardedSimulation sim(m31_workload(scale.n), shard_config(), opt);

    double busy_max = 0.0, busy_mean = 0.0, imb_sum = 0.0;
    std::uint64_t let_cells = 0, let_bodies = 0;
    const Stopwatch clock;
    for (int i = 0; i < steps; ++i) {
      (void)sim.step();
      const nbody::ShardStepStats& st = sim.last_shard_stats();
      busy_max += st.busy_max;
      busy_mean += st.busy_mean;
      imb_sum += st.imbalance();
      let_cells += st.let_cells_total;
      let_bodies += st.let_bodies_total;
    }
    const double elapsed = clock.seconds();

    const bool identical = states_identical(sim.particles(), ref.particles());
    all_identical = all_identical && identical;
    t.add_row({std::to_string(shards), Table::sci(elapsed),
               Table::sci(busy_max / steps), Table::sci(busy_mean / steps),
               Table::fix(imb_sum / steps, 3),
               std::to_string(let_cells / static_cast<std::uint64_t>(steps)),
               std::to_string(let_bodies / static_cast<std::uint64_t>(steps)),
               identical ? "yes" : "NO"});
  }

  t.print(std::cout);
  std::cout << "imbalance = busiest shard busy seconds / mean shard busy "
               "seconds (1 = perfect balance).\n"
            << "LET cells/bodies = tree cells exported and leaf bodies "
               "spilled across all shard pairs per step.\n";
  std::cout << "bitwise identity vs the unsharded reference: "
            << (all_identical ? "PASS" : "FAIL") << "\n";

  rep.add_table(t);
  rep.add_note(std::string("bitwise identity vs unsharded reference: ") +
               (all_identical ? "PASS" : "FAIL"));
  rep.add_note("fixed rebuild cadence (interval 4) so every K replays the "
               "same rebuild steps");
  rep.write(std::cout);
  return all_identical ? 0 : 1;
}
