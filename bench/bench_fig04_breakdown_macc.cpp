// Figure 4 — per-function breakdown of the elapsed time per step as a
// function of dacc on Tesla V100 (Pascal mode).
//
// Paper shape: walkTree falls steeply as accuracy is relaxed; calcNode and
// pred/corr are independent of dacc; makeTree (amortised over the
// auto-tuned rebuild interval) follows the interval, which stretches from
// ~6 steps at the highest accuracy to ~30 at the lowest (§4.1).
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "runtime/device.hpp"
#include "trace/session.hpp"

#include <iostream>

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  const auto init = m31_workload(scale.n);
  const auto v100 = perfmodel::tesla_v100();

  std::cout << "# M31 model, N = " << scale.n << ", runtime workers = "
            << scale.threads << " (override with GOTHIC_THREADS)\n";
  BenchReport rep("fig04_breakdown_macc");
  rep.set_scale(scale);
  // Observe every profiled launch: per-kernel latency histograms for the
  // report, plus a Perfetto trace when GOTHIC_TRACE is set.
  trace::Session session;
  Table t("Fig 4 - breakdown of elapsed time per step [s] (V100 compute_60)",
          {"dacc", "total", "walkTree", "calcNode", "makeTree", "pred/corr",
           "rebuild-interval"});
  Table ov("Achieved stream overlap per step [s] (this machine, "
           "stream scheduler)",
           {"dacc", "kernel-sum", "step-wall", "overlap"});
  double calc_min = 1e30, calc_max = 0;
  for (const double dacc : dacc_sweep(scale.dacc_min_exp)) {
    const StepProfile p = profile_step(init, dacc, scale.steps, 128, &session);
    rep.add_profile(dacc_label(dacc), p);
    const GpuStepTime gt = predict_step_time(p, v100, false);
    t.add_row({dacc_label(dacc), Table::sci(gt.total()), Table::sci(gt.walk),
               Table::sci(gt.calc), Table::sci(gt.make), Table::sci(gt.pred),
               Table::fix(p.rebuild_interval, 0)});
    ov.add_row({dacc_label(dacc), Table::sci(p.measured_kernel_seconds),
                Table::sci(p.measured_wall_seconds),
                Table::sci(p.measured_overlap_seconds())});
    calc_min = std::min(calc_min, gt.calc);
    calc_max = std::max(calc_max, gt.calc);
  }
  t.print(std::cout);
  ov.print(std::cout);
  std::cout << "overlap = sum of kernel seconds - step wall span: the gap "
               "concurrent streams hide (an in-issue-order schedule "
               "serialises it away).\n";
  std::cout << "calcNode spread across the sweep: "
            << Table::fix(calc_max / calc_min, 2)
            << "x (paper: flat; walkTree and the rebuild interval carry all "
               "the dacc dependence).\n";
  session.finish(runtime::Device::current());
  if (session.tracing()) {
    std::cout << "perfetto trace: " << session.trace_path() << "\n";
  }
  rep.add_table(t);
  rep.add_table(ov);
  rep.add_metrics(session.metrics());
  rep.add_note("paper: walkTree falls steeply with dacc; calcNode and "
               "pred/corr flat; makeTree follows the rebuild interval");
  rep.write(std::cout);
  return 0;
}
