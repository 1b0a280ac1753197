// Figure 3 — dependence of the elapsed time per step on the total number
// of particles Ntot, with the per-function breakdown (V100, Pascal mode,
// dacc = 2^-9).
//
// Paper shape: walkTree dominates everywhere; calcNode is non-negligible
// at small Ntot; all curves flatten into the launch-latency floor below
// Ntot ~ 1e4. (Paper reaches 25*2^20 particles; bench scale is capped by
// the container, override with GOTHIC_BENCH_NMAX.)
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "perfmodel/capacity.hpp"
#include "runtime/device.hpp"
#include "trace/session.hpp"
#include "util/env.hpp"

#include <iostream>

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const auto v100 = perfmodel::tesla_v100();
  const double dacc = 1.0 / 512.0; // the paper's fiducial 2^-9
  const std::size_t n_max = env_size("GOTHIC_BENCH_NMAX", 131072);

  std::cout << "# runtime workers = " << BenchScale::from_env().threads
            << " (override with GOTHIC_THREADS)\n";
  BenchReport rep("fig03_scaling_n");
  rep.set_scale(BenchScale::from_env());
  // Observe every profiled launch: per-kernel latency histograms for the
  // report, plus a Perfetto trace when GOTHIC_TRACE is set.
  trace::Session session;
  Table t("Fig 3 - elapsed time per step [s] vs Ntot (V100 compute_60, "
          "dacc=2^-9)",
          {"Ntot", "total", "walkTree", "calcNode", "makeTree", "pred/corr"});
  Table ov("Achieved stream overlap per step [s] (this machine, "
           "stream scheduler)",
           {"Ntot", "kernel-sum", "step-wall", "overlap", "walk-imbalance"});
  double prev_total = 0.0;
  bool monotone = true;
  for (std::size_t n = 1024; n <= n_max; n *= 4) {
    const auto init = m31_workload(n);
    const StepProfile p = profile_step(init, dacc, 1, 128, &session);
    rep.add_profile("N=" + std::to_string(n), p);
    const GpuStepTime gt = predict_step_time(p, v100, false);
    t.add_row({Table::num(static_cast<long long>(n)),
               Table::sci(gt.total()), Table::sci(gt.walk),
               Table::sci(gt.calc), Table::sci(gt.make),
               Table::sci(gt.pred)});
    ov.add_row({Table::num(static_cast<long long>(n)),
                Table::sci(p.measured_kernel_seconds),
                Table::sci(p.measured_wall_seconds),
                Table::sci(p.measured_overlap_seconds()),
                Table::sci(p.walk_stats.imbalance())});
    if (gt.total() < prev_total) monotone = false;
    prev_total = gt.total();
  }
  t.print(std::cout);
  ov.print(std::cout);
  std::cout << "overlap = sum of kernel seconds - step wall span: the gap "
               "concurrent streams hide (an in-issue-order schedule "
               "serialises it away).\n";
  std::cout << "expected shape: gravity dominates; total "
            << (monotone ? "grows monotonically with Ntot"
                         : "NON-MONOTONE (unexpected)")
            << "; small-N region sits on the launch-latency floor.\n";

  // The capacity side of §3: fewer SMs leave more HBM2 for particles.
  std::cout << "capacity model (per-SM traversal buffers, §3): "
            << "V100 16GB -> " << perfmodel::max_particles(v100)
            << " particles (paper 26214400); P100 16GB -> "
            << perfmodel::max_particles(perfmodel::tesla_p100())
            << " (paper 31457280); V100 32GB -> "
            << perfmodel::max_particles(perfmodel::tesla_v100_32gb())
            << ".\n";
  session.finish({&runtime::Device::current()});
  if (session.tracing()) {
    std::cout << "perfetto trace: " << session.trace_path() << "\n";
  }
  rep.add_table(t);
  rep.add_table(ov);
  rep.add_metrics(session.metrics());
  rep.add_note("expected shape: gravity dominates; small-N region sits on "
               "the launch-latency floor");
  rep.write(std::cout);
  return 0;
}
