#include "workloads.hpp"

#include "bench_trace.hpp"
#include "host_probe.hpp"
#include "nbody/sharded_simulation.hpp"
#include "nbody/simulation.hpp"
#include "runtime/device.hpp"
#include "scenario/registry.hpp"
#include "service/session_manager.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <type_traits>

namespace e2e {

namespace {

namespace nbody = gothic::nbody;
namespace runtime = gothic::runtime;
namespace scenario = gothic::scenario;
namespace service = gothic::service;
using gothic::Kernel;
using gothic::real;

/// Worker threads of every workload. Fixed, so a result does not depend
/// on the core count of the host that measured it.
constexpr int kWorkers = 4;
/// A run is kRounds rounds, each an independent realisation (its own
/// seed) set up from scratch, and each timing an equal share of the run's
/// seconds. Latencies and throughput windows pool the rounds; setup_s is
/// the median of their set-ups; force_err_p99 pools their force errors,
/// which averages out some of the realisation-to-realisation spread of a
/// single p99.
constexpr int kRounds = 3;
/// Requests a run times at least, however slow the host: p90 then has ten
/// samples beyond it.
constexpr std::size_t kMinRequests = 100;
/// A round stops at this multiple of its minimum requests even with time
/// left, so a much faster engine stays inside the horizon the energy check
/// was sized for (at this cap every workload drifts below half its
/// energy_tol).
constexpr std::size_t kMaxRoundFactor = 3;
/// Steps per throughput window of a shared-step workload: one rebuild
/// interval of m31-shared, so each window holds the same mix of steps.
constexpr std::size_t kWindowSteps = 8;
/// Direct-sum pair evaluations the force check may spend per round: all
/// particles up to N = 16384, fewer (at least kMinForceSamples) above.
constexpr double kForcePairBudget = 16384.0 * 16384.0;
constexpr std::size_t kMinForceSamples = 4096;

constexpr std::size_t kind(Kernel k) { return static_cast<std::size_t>(k); }
constexpr std::size_t kKernels = kind(Kernel::Count);

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(const std::vector<double>& v) { return nearest_rank(v, 50.0); }

/// Minimum requests of one round: its share of kMinRequests, rounded up to
/// whole windows of `window` requests.
std::size_t min_round_requests(std::size_t window) {
  const std::size_t share = (kMinRequests + kRounds - 1) / kRounds;
  return (share + window - 1) / window * window;
}

/// Seed of one round: distinct over every (seed, round) pair.
std::uint64_t round_seed(std::uint64_t seed, int round) {
  return seed * kRounds + static_cast<std::uint64_t>(round) + 1;
}

/// The end-to-end samples of a run, pooled over its rounds. Durations are
/// in reference seconds (host_probe.hpp).
struct Samples {
  std::vector<double> setup;   ///< every set-up
  std::vector<double> latency; ///< every request
  /// Active-particle updates per second of every window. The median over
  /// windows, not the run's total over its time, is reported: a burst of
  /// host contention covering less than half the run then moves it far
  /// less than it would move the total.
  std::vector<double> window_rate;

  [[nodiscard]] std::vector<Metric> metrics(double force_err_p99) const {
    return {
        // No window completes only when the first request failed.
        {"updates_per_s", "1/s",
         window_rate.empty() ? 0.0 : median(window_rate)},
        {"latency_p50_ms", "ms", 1e3 * nearest_rank(latency, 50.0)},
        {"latency_p90_ms", "ms", 1e3 * nearest_rank(latency, 90.0)},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MiB", peak_rss_mib()},
        {"force_err_p99", "1", force_err_p99},
    };
  }
};

/// Run fn(k) for k in [0, n) on kWorkers benchmark threads.
template <typename Fn>
void parallel_for(std::size_t n, const Fn& fn) {
  std::vector<std::jthread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&fn, n, t] {
      for (std::size_t k = static_cast<std::size_t>(t); k < n; k += kWorkers) {
        fn(k);
      }
    });
  }
}

bool bit_equal(const std::vector<real>& a, const std::vector<real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

bool all_finite(const nbody::Particles& p) {
  for (const std::vector<real>* v :
       {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay, &p.az, &p.pot}) {
    for (const real x : *v) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

/// Double-precision acceleration of particle i summed directly over every
/// source: softened gravity, or Lennard-Jones inside the cutoff.
std::array<double, 3> reference_accel(const nbody::Particles& p,
                                      const gothic::gravity::WalkConfig& w,
                                      std::size_t i) {
  const std::size_t n = p.size();
  const double xi = p.x[i], yi = p.y[i], zi = p.z[i];
  double sx = 0, sy = 0, sz = 0;
  if (w.law == gothic::gravity::ForceLaw::LennardJones) {
    const float rc2 = w.lj.cutoff * w.lj.cutoff;
    const double sig2 = static_cast<double>(w.lj.sigma) * w.lj.sigma;
    const double e24 = 24.0 * static_cast<double>(w.lj.epsilon);
    for (std::size_t j = 0; j < n; ++j) {
      // The cutoff test repeats the kernel's float arithmetic, so both
      // sides sum the same pairs; the force itself is evaluated in double.
      const float fx = p.x[j] - p.x[i];
      const float fy = p.y[j] - p.y[i];
      const float fz = p.z[j] - p.z[i];
      const float r2f = fx * fx + fy * fy + fz * fz;
      if (!(r2f > 0.0f && r2f <= rc2)) continue;
      const double dx = p.x[j] - xi, dy = p.y[j] - yi, dz = p.z[j] - zi;
      const double r2 = dx * dx + dy * dy + dz * dz;
      const double s2 = sig2 / r2;
      const double s6 = s2 * s2 * s2;
      const double coef = e24 * p.m[j] * (s6 - 2.0 * s6 * s6) / r2;
      sx += coef * dx;
      sy += coef * dy;
      sz += coef * dz;
    }
  } else {
    const double eps2 = static_cast<double>(w.eps) * w.eps;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double dx = p.x[j] - xi, dy = p.y[j] - yi, dz = p.z[j] - zi;
      const double rinv = 1.0 / std::sqrt(eps2 + dx * dx + dy * dy + dz * dz);
      const double s = p.m[j] * rinv * rinv * rinv;
      sx += s * dx;
      sy += s * dy;
      sz += s * dz;
    }
  }
  const double g = w.g;
  return {g * sx, g * sy, g * sz};
}

/// Force error, against the direct reference, of every particle up to the
/// pair budget, else of a sample of particles drawn from `seed`. The
/// accelerations must be fresh (refresh_forces). The floor is 5% of the
/// RMS reference acceleration, the convention of the physics-oracle suite
/// (tests/test_physics_invariance.cpp); a floor of the full RMS makes p99
/// follow the few centre particles that dominate the RMS of a realisation,
/// not the tree's accuracy.
std::vector<double> force_errors(const nbody::Particles& p,
                                 const gothic::gravity::WalkConfig& w,
                                 std::uint64_t seed) {
  const std::size_t n = p.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const auto budget =
      static_cast<std::size_t>(kForcePairBudget / static_cast<double>(n));
  const std::size_t samples = std::min(n, std::max(budget, kMinForceSamples));
  std::mt19937_64 rng(seed);
  for (std::size_t k = 0; k < samples && samples < n; ++k) {
    std::uniform_int_distribution<std::size_t> pick(k, n - 1);
    std::swap(idx[k], idx[pick(rng)]);
  }
  idx.resize(samples);

  std::vector<std::array<double, 3>> ref(samples);
  parallel_for(samples,
               [&](std::size_t k) { ref[k] = reference_accel(p, w, idx[k]); });
  double sum_sq = 0.0;
  for (const auto& a : ref) sum_sq += a[0] * a[0] + a[1] * a[1] + a[2] * a[2];
  const double floor = 0.05 * std::sqrt(sum_sq / static_cast<double>(samples));
  std::vector<double> err(samples);
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t i = idx[k];
    err[k] = force_error({p.ax[i], p.ay[i], p.az[i]}, ref[k], floor);
  }
  return err;
}

/// Sums over a run's requests, from each step's StepReport.
struct StepTotals {
  std::uint64_t steps = 0;
  std::uint64_t updates = 0;        ///< active-particle updates
  std::uint64_t particle_steps = 0; ///< N per step
  std::uint64_t rebuilds = 0;
  double host_s = 0.0; ///< step() wall minus the launch span
  double span_s = 0.0;
  double overlap_s = 0.0;
  std::array<double, kKernels> kernel_s{};
  std::array<gothic::simt::OpCounts, kKernels> ops{};
  std::uint64_t interactions = 0;
  std::uint64_t mac_evals = 0;
  double walk_imbalance = 0.0; ///< summed per step
  std::uint64_t let_cells = 0;
  std::uint64_t let_bodies = 0;
  double shard_imbalance = 0.0; ///< summed per step

  void add(const nbody::StepReport& r, double wall_s, std::size_t n) {
    ++steps;
    updates += r.n_active;
    particle_steps += n;
    rebuilds += r.rebuilt ? 1 : 0;
    host_s += wall_s - r.wall_seconds;
    span_s += r.wall_seconds;
    overlap_s += r.overlap_seconds();
    for (std::size_t k = 0; k < kKernels; ++k) {
      kernel_s[k] += r.seconds[k];
      ops[k] += r.ops[k];
    }
    interactions += r.walk_stats.interactions;
    mac_evals += r.walk_stats.mac_evals;
    walk_imbalance += r.walk_stats.imbalance();
  }

  void add_shards(const nbody::ShardStepStats& s) {
    let_cells += s.let_cells_total;
    let_bodies += s.let_bodies_total;
    shard_imbalance += s.imbalance();
  }
};

/// Per-layer inputs a workload gathers; every field a workload has no
/// layer for stays 0. Times are measured seconds: the layers show where a
/// run spent its time, not a host-independent figure.
struct LayerInputs {
  std::vector<double> ic_s;        ///< per set-up
  std::vector<double> construct_s; ///< per set-up
  StepTotals steps;
  double energy_drift = 0.0;
  double wall_s = 0.0; ///< timed windows of every round
  double cpu_s = 0.0;  ///< process CPU seconds in those windows
  double busy_s = 0.0; ///< worker busy seconds in those windows
  std::uint64_t launches = 0;
  double arena_mib = 0.0;
  double ref_s = 0.0; ///< the timed windows in reference seconds
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const StepTotals& s = in.steps;
  const auto steps = static_cast<double>(s.steps);
  const auto updates = static_cast<double>(s.updates);
  const auto rebuilds = static_cast<double>(s.rebuilds);
  const gothic::simt::OpCounts& walk = s.ops[kind(Kernel::WalkTree)];
  const auto walk_int = static_cast<double>(walk.int_ops);
  const auto walk_fp = static_cast<double>(walk.fp32_core_instructions());
  const auto walk_sfu = static_cast<double>(walk.fp32_special);
  return {
      {"scenario.ic_s", "s", median(in.ic_s)},
      {"nbody.construct_s", "s", median(in.construct_s)},
      {"nbody.host_ms_per_step", "ms", 1e3 * ratio(s.host_s, steps)},
      {"nbody.predcorr_ms_per_step", "ms",
       1e3 * ratio(s.kernel_s[kind(Kernel::PredictCorrect)], steps)},
      {"nbody.active_fraction", "1",
       ratio(updates, static_cast<double>(s.particle_steps))},
      {"nbody.steps_per_rebuild", "1", ratio(steps, rebuilds)},
      {"nbody.energy_drift", "1", in.energy_drift},
      {"octree.make_ms_per_rebuild", "ms",
       1e3 * ratio(s.kernel_s[kind(Kernel::MakeTree)], rebuilds)},
      {"octree.make_bytes_per_rebuild", "B",
       ratio(static_cast<double>(s.ops[kind(Kernel::MakeTree)].total_bytes()),
             rebuilds)},
      {"octree.calc_ms_per_step", "ms",
       1e3 * ratio(s.kernel_s[kind(Kernel::CalcNode)], steps)},
      {"gravity.walk_ms_per_step", "ms",
       1e3 * ratio(s.kernel_s[kind(Kernel::WalkTree)], steps)},
      {"gravity.interactions_per_walk_s", "1/s",
       ratio(static_cast<double>(s.interactions),
             s.kernel_s[kind(Kernel::WalkTree)])},
      {"gravity.interactions_per_update", "count",
       ratio(static_cast<double>(s.interactions), updates)},
      {"gravity.mac_evals_per_update", "count",
       ratio(static_cast<double>(s.mac_evals), updates)},
      {"gravity.walk_imbalance", "1", ratio(s.walk_imbalance, steps)},
      {"gravity.let_cells_per_step", "count",
       ratio(static_cast<double>(s.let_cells), steps)},
      {"gravity.let_bodies_per_step", "count",
       ratio(static_cast<double>(s.let_bodies), steps)},
      {"gravity.shard_imbalance", "1", ratio(s.shard_imbalance, steps)},
      {"simt.walk_int_per_fp32", "1", ratio(walk_int, walk_fp)},
      {"simt.walk_ops_per_byte", "1/B",
       ratio(walk_int + walk_fp + walk_sfu,
             static_cast<double>(walk.total_bytes()))},
      {"runtime.launch_span_ms_per_step", "ms", 1e3 * ratio(s.span_s, steps)},
      {"runtime.overlap_ms_per_step", "ms", 1e3 * ratio(s.overlap_s, steps)},
      {"runtime.launches_per_step", "count",
       ratio(static_cast<double>(in.launches), steps)},
      {"runtime.cpu_util", "1", ratio(in.cpu_s, in.wall_s * kWorkers)},
      {"runtime.worker_busy_share", "1",
       ratio(in.busy_s, in.wall_s * kWorkers)},
      {"runtime.arena_mb", "MiB", in.arena_mib},
      {"host.scale", "1", ratio(in.ref_s, in.wall_s)},
  };
}

// --- device gauges -----------------------------------------------------------

struct Gauges {
  double busy_s = 0.0;
  std::uint64_t launches = 0;
  double arena_mib = 0.0;
};

Gauges read_gauges(const std::vector<runtime::Device*>& devices) {
  Gauges g;
  for (runtime::Device* d : devices) {
    g.busy_s += d->worker_busy_seconds_total();
    g.launches += d->launch_count();
    g.arena_mib += static_cast<double>(d->arena_capacity()) / (1024.0 * 1024.0);
  }
  return g;
}

void fingerprint_devices(Result& res,
                         const std::vector<runtime::Device*>& devices) {
  for (std::size_t i = 0; i < devices.size(); ++i) {
    runtime::Device& d = *devices[i];
    res.fingerprint.emplace_back(
        "device" + std::to_string(i),
        "workers=" + std::to_string(d.workers()) +
            " async=" + std::to_string(d.async() ? 1 : 0) +
            " lanes=" + std::to_string(d.lane_count()));
  }
}

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

// --- engine workloads --------------------------------------------------------

struct EngineSpec {
  const char* name;
  const char* scenario;
  std::size_t n;
  /// Block time steps; a request is then one block cycle (the steps up to
  /// the next time all particles are synchronised), else one step.
  bool block_steps;
  int rebuild_interval;
  int shards; ///< 1 = Simulation, >1 = ShardedSimulation
};

// README.md, "Workloads", has the measured layer shares at these sizes.
constexpr EngineSpec kEngines[] = {
    {"m31-shared", "m31", 65536, false, 8, 1},
    {"m31-block", "m31", 16384, true, 8, 1},
    {"m31-shared-k2", "m31", 65536, false, 8, 2},
    {"lj-rebuild", "lj-box", 65536, false, 1, 1},
};

nbody::SimConfig engine_config(const EngineSpec& spec,
                               const scenario::Scenario& sc) {
  nbody::SimConfig cfg = scenario::scenario_sim_config(sc);
  cfg.block_time_steps = spec.block_steps;
  if (spec.block_steps) {
    // gothic_run's dt_max, with the hierarchy capped at level 4: the few
    // particles a realisation puts deeper would otherwise double some
    // cycles (16 or 32 steps), so the work per cycle would follow the seed.
    cfg.dt_max = 1.0 / 8;
    cfg.max_level = 4;
  }
  // The wall-clock-fed rebuild tuner would make the work itself differ
  // between runs; the benchmark fixes the cadence.
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = spec.rebuild_interval;
  return cfg;
}

nbody::ShardOptions shard_options(int shards) {
  nbody::ShardOptions so;
  so.shards = shards;
  so.workers = kWorkers / shards;
  return so;
}

/// K=2 against K=1 over `steps` fresh steps: the packed states must be
/// equal bit for bit.
bool shard_identity(const scenario::Scenario& sc, const nbody::SimConfig& cfg,
                    std::size_t n, std::uint64_t seed, int steps) {
  std::vector<real> one;
  {
    runtime::Device dev(kWorkers);
    runtime::ScopedDevice scope(dev);
    nbody::Simulation sim(sc.make(n, seed), cfg);
    for (int i = 0; i < steps; ++i) (void)sim.step();
    one = service::packed_state(sim.particles());
  }
  nbody::ShardedSimulation sim(sc.make(n, seed), cfg, shard_options(2));
  for (int i = 0; i < steps; ++i) (void)sim.step();
  return bit_equal(one, service::packed_state(sim.particles()));
}

template <typename Engine>
void run_engine(const EngineSpec& spec, const RunOptions& opt, Tracer& tr,
                Result& res) {
  constexpr bool kSharded = std::is_same_v<Engine, nbody::ShardedSimulation>;
  const scenario::Scenario& sc = scenario::find_scenario(spec.scenario);
  const nbody::SimConfig cfg = engine_config(spec, sc);

  // A Simulation runs on this benchmark-owned device; a ShardedSimulation
  // builds one device per shard.
  std::unique_ptr<runtime::Device> dev;
  std::optional<runtime::ScopedDevice> scope;
  if constexpr (!kSharded) {
    dev = std::make_unique<runtime::Device>(kWorkers);
    scope.emplace(*dev);
  }

  // A round times whole windows for its share of the run's seconds, within
  // its request limits.
  const std::size_t window = spec.block_steps ? 1 : kWindowSteps;
  const std::size_t min_requests = min_round_requests(window);
  const std::size_t max_requests = kMaxRoundFactor * min_requests;
  const double round_seconds = opt.seconds / kRounds;

  Samples out;
  LayerInputs in;
  std::vector<double> errors;
  std::string energy_bad;
  bool finite = true;
  bool step_failed = false;
  std::uint64_t request = 0; // trace id, unique over the run
  for (int round = 0; round < kRounds && !step_failed; ++round) {
    const std::uint64_t seed = round_seed(opt.seed, round);
    const double setup_scale = host_scale();
    const double t0 = tr.now();
    nbody::Particles p = sc.make(spec.n, seed);
    const double t1 = tr.now();
    std::unique_ptr<Engine> sim;
    if constexpr (kSharded) {
      sim = std::make_unique<Engine>(std::move(p), cfg,
                                     shard_options(spec.shards));
    } else {
      sim = std::make_unique<Engine>(std::move(p), cfg);
    }
    const double t2 = tr.now();
    tr.span("scenario.make", t0, t1);
    tr.span("nbody.construct", t1, t2);
    in.ic_s.push_back(t1 - t0);
    in.construct_s.push_back(t2 - t1);
    out.setup.push_back(setup_scale * (t2 - t0));

    std::vector<runtime::Device*> devices;
    if constexpr (kSharded) {
      for (int s = 0; s < sim->shard_count(); ++s) {
        devices.push_back(&sim->shard_device(s));
      }
    } else {
      devices.push_back(dev.get());
    }
    if (round == 0) fingerprint_devices(res, devices);

    // One request; returns its active-particle updates. Request id 0 is
    // the untimed warm-up, which feeds no layer.
    auto advance = [&](std::uint64_t id) {
      double updates = 0.0;
      do {
        const double s0 = tr.now();
        const nbody::StepReport rep = sim->step();
        const double s1 = tr.now();
        updates += static_cast<double>(rep.n_active);
        if (id != 0) {
          tr.span("nbody.step", s0, s1, id);
          tr.align(s1);
          in.steps.add(rep, s1 - s0, spec.n);
          if constexpr (kSharded) in.steps.add_shards(sim->last_shard_stats());
        }
      } while (spec.block_steps && std::fmod(sim->time(), cfg.dt_max) != 0.0);
      return updates;
    };
    auto fail = [&](const std::exception& e) {
      std::cerr << "gothic_e2e: step of request " << request
                << " failed: " << e.what() << '\n';
      ++res.ops_failed;
      step_failed = true;
    };

    // Warm-up: the timed requests find the arenas grown and the caches
    // filled. The checks then start from this state, which depends on the
    // seed alone, so force_err_p99 does too.
    double t = tr.now();
    try {
      (void)advance(0);
    } catch (const std::exception& e) {
      fail(e);
    }
    tr.span("nbody.warmup", t, tr.now());

    t = tr.now();
    sim->refresh_forces();
    const double e0 = sim->energies().total();
    tr.span("verify.energy", t, tr.now());
    t = tr.now();
    const std::vector<double> e =
        force_errors(sim->particles(), cfg.walk, seed);
    errors.insert(errors.end(), e.begin(), e.end());
    tr.span("verify.force", t, tr.now());

    if (tr.enabled()) sim->set_instrumentation_listener(&tr);
    const Gauges g0 = read_gauges(devices);
    const double start = tr.now();
    std::size_t done = 0;
    while (!step_failed && done < max_requests &&
           (done < min_requests || tr.now() - start < round_seconds)) {
      double updates = 0.0;
      double ref_s = 0.0;
      for (std::size_t k = 0; k < window && !step_failed; ++k) {
        ++request;
        ++done;
        const double scale = host_scale();
        const double cpu0 = cpu_seconds();
        const double r0 = tr.now();
        try {
          updates += advance(request);
        } catch (const std::exception& ex) {
          fail(ex);
        }
        const double wall = tr.now() - r0;
        in.cpu_s += cpu_seconds() - cpu0;
        if (spec.block_steps) tr.span("nbody.cycle", r0, r0 + wall, request);
        out.latency.push_back(scale * wall);
        ref_s += scale * wall;
        in.wall_s += wall;
      }
      in.ref_s += ref_s;
      if (!step_failed) out.window_rate.push_back(updates / ref_s);
    }
    const Gauges g1 = read_gauges(devices);
    in.busy_s += g1.busy_s - g0.busy_s;
    in.launches += g1.launches - g0.launches;
    in.arena_mib = std::max(in.arena_mib, g1.arena_mib);
    sim->set_instrumentation_listener(nullptr);
    tr.flush_launches();
    res.ops_attempted += done;

    t = tr.now();
    sim->refresh_forces();
    const double drift = std::fabs((sim->energies().total() - e0) / e0);
    tr.span("verify.energy", t, tr.now());
    in.energy_drift = std::max(in.energy_drift, drift);
    if (!(drift <= sc.energy_tol)) {
      energy_bad +=
          " round" + std::to_string(round) + "=" + format_value(drift);
    }
    finite = finite && all_finite(sim->particles());
  }

  res.check("energy_drift", !step_failed && energy_bad.empty(),
            "every round within " + format_value(sc.energy_tol) + energy_bad);
  res.check("finite_state", finite, "no NaN or Inf");
  const double p99 = nearest_rank(errors, 99.0);
  res.check("force_err_p99", p99 <= sc.force_tol,
            format_value(p99) + " <= " + format_value(sc.force_tol));

  if constexpr (kSharded) {
    const double t = tr.now();
    res.check("shard_identity", shard_identity(sc, cfg, spec.n, opt.seed, 4),
              "K=2 equals K=1 bit for bit after 4 steps");
    tr.span("verify.shard_identity", t, tr.now());
  }

  res.metrics = out.metrics(p99);
  if (tr.enabled()) res.layers = layer_metrics(in);
}

} // namespace

Result run_workload(const RunOptions& opt) {
  Tracer tr(!opt.trace_path.empty());
  Result res;
  res.workload = opt.workload;
  res.seed = opt.seed;
  res.traced = tr.enabled();
  const EngineSpec* spec = nullptr;
  for (const EngineSpec& s : kEngines) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec != nullptr && spec->shards > 1) {
    run_engine<nbody::ShardedSimulation>(*spec, opt, tr, res);
  } else if (spec != nullptr) {
    run_engine<nbody::Simulation>(*spec, opt, tr, res);
  } else {
    std::string known;
    for (const EngineSpec& s : kEngines) known += " " + std::string(s.name);
    throw std::invalid_argument("unknown workload '" + opt.workload +
                                "' (known:" + known + ")");
  }
  if (tr.enabled() && !tr.write(opt.trace_path)) {
    res.check("trace_written", false, "cannot write " + opt.trace_path);
  }
  return res;
}

} // namespace e2e
