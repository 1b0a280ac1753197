#include "support/experiment.hpp"

#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gothic::bench {

namespace {
constexpr auto kWalk = static_cast<std::size_t>(Kernel::WalkTree);
constexpr auto kCalc = static_cast<std::size_t>(Kernel::CalcNode);
constexpr auto kPred = static_cast<std::size_t>(Kernel::PredictCorrect);

/// Fractional per-step growth of the walk cost as the tree ages — the
/// quantity GOTHIC's auto-tuner estimates from live timings (§4.1 reports
/// intervals of ~6 steps for accurate walks and ~30 for cheap ones, which
/// back-solves to about 0.2% per step).
constexpr double kWalkDecayPerStep = 0.002;
} // namespace

BenchScale BenchScale::from_env() {
  BenchScale s;
  s.n = env_size("GOTHIC_BENCH_N", 32768);
  s.steps = static_cast<int>(env_size("GOTHIC_BENCH_STEPS", 1));
  s.dacc_min_exp = static_cast<int>(env_size("GOTHIC_BENCH_DACC_MIN", 14));
  s.threads = runtime::Device::default_workers();
  s.simd = simt::simd_enabled();
  return s;
}

simt::OpCounts StepProfile::make_amortized() const {
  simt::OpCounts amortized;
  // Integer division of every field via the throughput trick: scale the
  // counts by 1/interval (rounded) — fields are independent tallies.
  const double inv = 1.0 / std::max(rebuild_interval, 1.0);
  auto scale = [inv](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * inv);
  };
  amortized.int_ops = scale(make_raw.int_ops);
  amortized.fp32_fma = scale(make_raw.fp32_fma);
  amortized.fp32_mul = scale(make_raw.fp32_mul);
  amortized.fp32_add = scale(make_raw.fp32_add);
  amortized.fp32_special = scale(make_raw.fp32_special);
  amortized.bytes_load = scale(make_raw.bytes_load);
  amortized.bytes_store = scale(make_raw.bytes_store);
  amortized.syncwarp = scale(make_raw.syncwarp);
  amortized.tile_sync = scale(make_raw.tile_sync);
  amortized.block_sync = scale(make_raw.block_sync);
  amortized.global_barrier = scale(make_raw.global_barrier);
  amortized.shfl = scale(make_raw.shfl);
  amortized.ballot = scale(make_raw.ballot);
  return amortized;
}

nbody::Particles m31_workload(std::size_t n) {
  return galaxy::build_m31(n, /*seed=*/20190805);
}

StepProfile profile_step(const nbody::Particles& init, double dacc,
                         int steps, int list_capacity,
                         runtime::RecordListener* listener) {
  nbody::SimConfig cfg;
  cfg.walk.mac.type = gravity::MacType::Acceleration;
  cfg.walk.mac.dacc = static_cast<real>(dacc);
  cfg.walk.eps = real(0.0156); // ~16 pc in kpc units, galaxy-scale softening
  cfg.walk.list_capacity = list_capacity;
  cfg.set_mode(simt::ExecMode::Volta); // superset counts; pascal_view strips
  cfg.block_time_steps = false;        // every particle active (full steps)
  cfg.dt_max = 1.0 / 4096;             // tiny drift during profiling
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 1 << 30; // rebuilds measured separately

  nbody::Simulation sim(init, cfg);
  if (listener != nullptr) sim.set_instrumentation_listener(listener);

  StepProfile p;
  p.n = init.size();
  p.dacc = dacc;

  // One rebuild: the constructor's makeTree records, still in the sink.
  for (const runtime::LaunchRecord& rec : sim.sink().step_records()) {
    if (rec.kernel == Kernel::MakeTree) p.make_raw += rec.ops;
  }

  // Warm step: establishes aold for the acceleration MAC and absorbs the
  // bootstrap opening-angle walk out of the measured window.
  (void)sim.step();

  simt::OpCounts walk, calc, pred;
  gravity::WalkStats stats;
  for (int s = 0; s < steps; ++s) {
    const nbody::StepReport r = sim.step();
    walk += r.ops[kWalk];
    calc += r.ops[kCalc];
    pred += r.ops[kPred];
    stats += r.walk_stats;
    p.measured_kernel_seconds += r.total_seconds();
    p.measured_wall_seconds += r.wall_seconds;
  }
  p.measured_kernel_seconds /= std::max(steps, 1);
  p.measured_wall_seconds /= std::max(steps, 1);
  auto per_step = [steps](simt::OpCounts c) {
    const auto div = static_cast<std::uint64_t>(steps);
    c.int_ops /= div;
    c.fp32_fma /= div;
    c.fp32_mul /= div;
    c.fp32_add /= div;
    c.fp32_special /= div;
    c.bytes_load /= div;
    c.bytes_store /= div;
    c.syncwarp /= div;
    c.tile_sync /= div;
    c.block_sync /= div;
    c.global_barrier /= div;
    c.shfl /= div;
    c.ballot /= div;
    return c;
  };
  p.walk = per_step(walk);
  p.calc = per_step(calc);
  p.pred = per_step(pred);
  p.walk_stats = stats;

  // GOTHIC's auto-tuned rebuild interval k* = sqrt(2 T_make / (alpha
  // T_walk)) from the modelled V100 times of the two kernels (§4.1: ~6
  // steps at the highest accuracy, ~30 at the lowest).
  const auto v100 = perfmodel::tesla_v100();
  perfmodel::KernelLaunchInfo make_info;
  make_info.resources =
      perfmodel::kernel_resources(perfmodel::GothicKernel::MakeTree, 512);
  perfmodel::KernelLaunchInfo walk_info;
  walk_info.resources =
      perfmodel::kernel_resources(perfmodel::GothicKernel::WalkTree, 512);
  const double t_make =
      perfmodel::predict_kernel_time(v100, pascal_view(p.make_raw), make_info)
          .total_s;
  const double t_walk =
      perfmodel::predict_kernel_time(v100, pascal_view(p.walk), walk_info)
          .total_s;
  const double k =
      std::sqrt(2.0 * t_make / (kWalkDecayPerStep * std::max(t_walk, 1e-12)));
  p.rebuild_interval = std::clamp(k, 2.0, 64.0);
  return p;
}

simt::OpCounts pascal_view(const simt::OpCounts& volta_counts) {
  simt::OpCounts c = volta_counts;
  c.syncwarp = 0;
  c.tile_sync = 0;
  return c;
}

GpuStepTime predict_step_time(const StepProfile& p,
                              const perfmodel::GpuSpec& gpu,
                              bool volta_mode) {
  using perfmodel::GothicKernel;
  const bool use_sync = volta_mode && gpu.arch == perfmodel::Arch::Volta;
  auto view = [use_sync](const simt::OpCounts& c) {
    return use_sync ? c : pascal_view(c);
  };

  auto time_of = [&](const simt::OpCounts& ops, GothicKernel k,
                     int invocations) {
    perfmodel::KernelLaunchInfo info;
    // Table 2 thread-block sizes (V100 column; the P100 optimum differs
    // only for calcNode's Ttot, a second-order effect on the model).
    const int ttot = (k == GothicKernel::CalcNode) ? 128 : 512;
    info.resources = perfmodel::kernel_resources(k, ttot);
    info.invocations = invocations;
    return perfmodel::predict_kernel_time(gpu, view(ops), info).total_s;
  };

  GpuStepTime t;
  t.walk = time_of(p.walk, GothicKernel::WalkTree, 1);
  t.calc = time_of(p.calc, GothicKernel::CalcNode, 1);
  // One rebuild every rebuild_interval steps: amortise both the work and
  // the launch.
  t.make = time_of(p.make_raw, GothicKernel::MakeTree, 1) /
           std::max(p.rebuild_interval, 1.0);
  t.pred = time_of(p.pred, GothicKernel::Predict, 2); // predict + correct
  return t;
}

SimdWalkSpeedup measure_simd_walk_speedup(const nbody::Particles& init,
                                          int steps) {
  SimdWalkSpeedup out;
  out.simd_available = simt::simd_available();

  // Tree-order the workload once; both substrates walk the same tree.
  std::vector<real> x = init.x, y = init.y, z = init.z, m = init.m;
  octree::Octree tree;
  std::vector<index_t> perm;
  octree::build_tree(x, y, z, tree, perm, octree::BuildConfig{});
  auto apply = [&perm](std::vector<real>& v) {
    std::vector<real> sorted(v.size());
    octree::gather(v, perm, sorted);
    v = std::move(sorted);
  };
  apply(x);
  apply(y);
  apply(z);
  apply(m);
  octree::calc_node(tree, x, y, z, m);

  gravity::WalkConfig cfg;
  cfg.mac.type = gravity::MacType::OpeningAngle;
  cfg.mac.theta = real(0.7);
  cfg.eps = real(0.0156);

  const std::size_t n = x.size();
  std::vector<real> sax(n), say(n), saz(n); // scalar forces
  std::vector<real> vax(n), vay(n), vaz(n); // simd forces
  simt::OpCounts scalar_ops, simd_ops;

  // Group construction is host bookkeeping the pipeline amortises across
  // steps (Simulation rebuilds groups only with the tree), so it stays
  // outside the timed region: this measures the walk kernel itself.
  const std::vector<gravity::GroupSpan> groups =
      gravity::walk_groups(tree, x, y, z);

  auto timed_walk = [&](bool use_simd, std::vector<real>& ax,
                        std::vector<real>& ay, std::vector<real>& az,
                        simt::OpCounts& ops) {
    simt::ScopedSimd guard(use_simd);
    const Stopwatch clock;
    for (int s = 0; s < steps; ++s) {
      gravity::walk_tree(tree, x, y, z, m, {}, cfg, ax, ay, az, {}, &ops,
                         nullptr, {}, groups);
    }
    return clock.seconds();
  };
  out.scalar_seconds = timed_walk(false, sax, say, saz, scalar_ops);
  out.simd_seconds = timed_walk(true, vax, vay, vaz, simd_ops);

  out.ops_identical = scalar_ops == simd_ops;
  out.forces_identical = sax == vax && say == vay && saz == vaz;
  return out;
}

std::vector<double> dacc_sweep(int min_exp, int stride) {
  std::vector<double> out;
  for (int e = 1; e <= min_exp; e += stride) {
    out.push_back(std::ldexp(1.0, -e));
  }
  return out;
}

std::string dacc_label(double dacc) {
  const int e = static_cast<int>(std::lround(-std::log2(dacc)));
  char buf[16];
  std::snprintf(buf, sizeof buf, "2^-%d", e);
  return buf;
}

} // namespace gothic::bench
