// Figure 1 — execution time per step as a function of the accuracy
// controlling parameter dacc, for Tesla V100 (Pascal and Volta modes),
// Tesla P100, GeForce GTX TITAN X, Tesla K20X and Tesla M2090.
//
// The paper's headline row (dacc = 2^-9, N = 2^23): 3.3e-2 s (V100
// compute_60), 3.8e-2 s (V100 compute_70), 7.4e-2 s (P100). Our counts
// are measured at bench scale; shapes and ratios are the reproduction
// target (EXPERIMENTS.md).
#include "support/experiment.hpp"
#include "support/report.hpp"

#include <iostream>

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  const auto init = m31_workload(scale.n);
  const auto gpus = perfmodel::all_gpus();

  std::cout << "# M31 model, N = " << scale.n
            << " (paper: 8388608), steps = " << scale.steps << "\n";
  BenchReport rep("fig01_elapsed_vs_macc");
  rep.set_scale(scale);
  Table t("Fig 1 - elapsed time per step [s] vs dacc",
          {"dacc", "V100 c60", "V100 c70", "P100", "TITAN X", "K20X",
           "M2090"});
  for (const double dacc : dacc_sweep(scale.dacc_min_exp)) {
    const StepProfile p = profile_step(init, dacc, scale.steps);
    rep.add_profile(dacc_label(dacc), p);
    std::vector<std::string> row{dacc_label(dacc)};
    // V100 Pascal mode, V100 Volta mode.
    row.push_back(Table::sci(predict_step_time(p, gpus[0], false).total()));
    row.push_back(Table::sci(predict_step_time(p, gpus[0], true).total()));
    for (std::size_t g = 1; g < gpus.size(); ++g) {
      row.push_back(Table::sci(predict_step_time(p, gpus[g], false).total()));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "expected shape: later GPUs always faster; V100 c60 always "
               "below c70; time rises steeply as dacc shrinks.\n";
  rep.add_table(t);
  rep.add_note("expected shape: later GPUs always faster; V100 c60 always "
               "below c70; time rises steeply as dacc shrinks.");

  // Host substrate check: the predictions above come from op counts that
  // are identical under GOTHIC_SIMD=0/1; record the measured host walk
  // speedup the AVX2 lanes deliver alongside them.
  const SimdWalkSpeedup sp = measure_simd_walk_speedup(init, scale.steps);
  Table st("walkTree substrate speedup (measured host seconds)",
           {"substrate", "walk seconds", "speedup", "ops identical",
            "forces identical"});
  st.add_row({"scalar", Table::sci(sp.scalar_seconds), "1.00", "-", "-"});
  st.add_row({"avx2", Table::sci(sp.simd_seconds),
              sp.simd_available ? Table::fix(sp.speedup(), 2) : "n/a",
              sp.ops_identical ? "yes" : "NO",
              sp.forces_identical ? "yes" : "NO"});
  st.print(std::cout);
  rep.add_table(st);

  rep.write(std::cout);
  // Substrate parity gates the exit status; the report is written first so
  // a failing run still leaves its evidence.
  return sp.ops_identical && sp.forces_identical ? 0 : 1;
}
