#include "testkit/fuzz.hpp"

#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "trace/flight_recorder.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>

namespace gothic::testkit {

std::string hex_seed(std::uint64_t seed) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

nbody::Particles fuzz_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  nbody::Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.vx[i] = static_cast<real>(rng.uniform(-0.1, 0.1));
    p.vy[i] = static_cast<real>(rng.uniform(-0.1, 0.1));
    p.vz[i] = static_cast<real>(rng.uniform(-0.1, 0.1));
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

nbody::SimConfig fuzz_sim_config(int rebuild_interval) {
  nbody::SimConfig cfg;
  // Shared global step with a fixed rebuild cadence: every run issues the
  // identical launch DAG, so stream schedules (and which worker walks
  // which group, numerically invisible) are the only degrees of freedom.
  cfg.block_time_steps = false;
  cfg.dt_max = 1.0 / 4096.0;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = rebuild_interval;
  return cfg;
}

std::vector<real> pack_state(const nbody::Particles& p) {
  std::vector<real> out;
  out.reserve(p.size() * 11);
  for (const std::vector<real>* v :
       {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay, &p.az, &p.pot,
        &p.aold_mag}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  return out;
}

namespace {

/// `cfg.steps` steps of `p` under `sim_cfg` on a one-shard engine over a
/// fresh device, optionally driven by `controller` from the first
/// bootstrap launch on; returns the packed final state.
std::vector<real> run_on_device(const FuzzConfig& cfg,
                                runtime::ScheduleController* controller,
                                nbody::Particles p,
                                const nbody::SimConfig& sim_cfg) {
  runtime::Device dev(cfg.workers);
  runtime::ScopedDevice scope(dev);
  if (controller != nullptr) dev.set_schedule_controller(controller);
  nbody::Simulation sim(std::move(p), sim_cfg);
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  // step() ends with a synchronize, so the device is idle here and the
  // controller can be detached before it goes out of the caller's scope.
  if (controller != nullptr) dev.set_schedule_controller(nullptr);
  return pack_state(sim.particles());
}

/// run_on_device under InOrderSchedule, keeping what its controller saw.
Reference run_in_order(const FuzzConfig& cfg, nbody::Particles p,
                       const nbody::SimConfig& sim_cfg) {
  InOrderSchedule ctrl;
  Reference ref;
  ref.state = run_on_device(cfg, &ctrl, std::move(p), sim_cfg);
  ref.violations = ctrl.violations();
  return ref;
}

} // namespace

std::vector<real> run_controlled(const FuzzConfig& cfg,
                                 runtime::ScheduleController* controller) {
  return run_on_device(cfg, controller, fuzz_cloud(cfg.n, cfg.workload_seed),
                       fuzz_sim_config(cfg.rebuild_interval));
}

Reference in_order_reference(const FuzzConfig& cfg) {
  return run_in_order(cfg, fuzz_cloud(cfg.n, cfg.workload_seed),
                      fuzz_sim_config(cfg.rebuild_interval));
}

RunOutcome replay_seed(const FuzzConfig& cfg, std::uint64_t seed,
                       const std::vector<real>& reference) {
  // Bit 4 picks the SIMD substrate, so a failing seed reproduces the
  // exact run with no extra state and every sweep cross-checks the AVX2
  // and scalar paths against the one reference (the bit is a no-op on
  // hosts without AVX2 — set_simd_enabled clamps to availability).
  simt::ScopedSimd simd(((seed >> 4) & 1) != 0);
  SeededSchedule ctrl(seed);
  const std::vector<real> state = run_controlled(cfg, &ctrl);
  RunOutcome out;
  out.signature = ctrl.signature();
  out.decision_points = ctrl.decision_points();
  out.bit_identical = state == reference;
  out.violations = ctrl.violations();
  return out;
}

namespace {

void append_run_failure(SweepReport& rep, const std::string& who,
                        bool bit_identical,
                        const std::vector<std::string>& violations) {
  std::string line = who;
  const char* sep = ": ";
  if (!bit_identical) {
    line += sep;
    line += "state diverged from the in-order reference";
    sep = "; ";
  }
  for (const std::string& v : violations) {
    line += sep;
    line += v;
    sep = "; ";
  }
  rep.failures.push_back(line);
}

/// A failing leg for a reference run whose controller saw violations.
void check_reference(SweepReport& rep, const std::string& who,
                     const Reference& ref) {
  if (!ref.violations.empty()) {
    append_run_failure(rep, who + " in-order reference", true,
                       ref.violations);
  }
}

} // namespace

SweepReport sweep_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                        std::size_t count) {
  SweepReport rep;
  const Reference ref = in_order_reference(cfg);
  check_reference(rep, "fuzz workload", ref);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const RunOutcome out = replay_seed(cfg, seed, ref.state);
    ++rep.runs;
    rep.signatures.insert(out.signature);
    rep.decision_points_total += out.decision_points;
    if (!out.bit_identical || !out.violations.empty()) {
      rep.failing_seeds.push_back(seed);
      append_run_failure(rep, "seed " + hex_seed(seed), out.bit_identical,
                         out.violations);
    }
  }
  return rep;
}

SweepReport enumerate_schedules(const FuzzConfig& cfg, std::size_t max_runs) {
  SweepReport rep;
  const Reference ref = in_order_reference(cfg);
  check_reference(rep, "fuzz workload", ref);
  std::vector<std::size_t> path;
  while (rep.runs < max_runs) {
    ScriptedSchedule ctrl(path);
    const std::vector<real> state = run_controlled(cfg, &ctrl);
    ++rep.runs;
    std::string who = "path [";
    for (std::size_t i = 0; i < ctrl.decisions().size(); ++i) {
      if (i != 0) who += ' ';
      who += std::to_string(ctrl.decisions()[i].chosen);
    }
    who += ']';
    // Distinct decision vectors pick a different launch at some grant, so
    // every DFS leaf must execute a signature never seen before.
    if (!rep.signatures.insert(ctrl.signature()).second) {
      rep.failures.push_back(who + ": interleaving repeated an earlier path");
    }
    rep.decision_points_total += ctrl.decisions().size();
    if (state != ref.state || !ctrl.violations().empty()) {
      append_run_failure(rep, who, state == ref.state, ctrl.violations());
    }
    auto next = ScriptedSchedule::next_path(ctrl.decisions());
    if (!next) break; // tree exhausted
    path = std::move(*next);
  }
  return rep;
}

namespace {

std::size_t count_in_dag(const std::vector<std::uint64_t>& ids) {
  std::size_t k = 0;
  for (std::uint64_t id : ids) k += (id >= 1 && id <= kFaultLaunches) ? 1 : 0;
  return k;
}

} // namespace

FaultOutcome run_fault_plan(const FuzzConfig& cfg, const FaultPlan& plan) {
  FaultOutcome out;
  FaultController ctrl(plan);
  runtime::Device dev(cfg.workers);
  dev.set_schedule_controller(&ctrl);

  // GOTHIC_FLIGHT turns every fault-plan failure into a self-describing
  // incident report: the recorder rides the device's default sink and is
  // dumped the moment an injected fault propagates, so the dump holds the
  // faulted launch with its stream and dependency edges.
  std::unique_ptr<trace::FlightRecorder> flight;
  if (trace::FlightRecorder::env_enabled()) {
    flight = std::make_unique<trace::FlightRecorder>();
    dev.sink().set_listener(flight.get());
  }

  runtime::Stream a("fault-a");
  runtime::Stream b("fault-b");
  std::atomic<int> ran{0};
  auto body = [&ran](simt::OpCounts&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  };
  auto issue = [&](const char* label, runtime::Stream* s, runtime::Event dep) {
    runtime::LaunchDesc desc;
    desc.label = label;
    desc.items = 1;
    desc.stream = s;
    desc.deps = {dep, runtime::Event{}, runtime::Event{}, runtime::Event{}};
    return dev.launch(desc, body);
  };

  // The fixed DAG (kFaultLaunches = 8): two streams with cross-stream
  // dependencies, so an injected stall or throw sits upstream of work on
  // the other lane.
  const runtime::Event e1 = issue("fault-a0", &a, runtime::Event{});
  const runtime::Event e2 = issue("fault-b0", &b, runtime::Event{});
  const runtime::Event e3 = issue("fault-a1", &a, e2);
  const runtime::Event e4 = issue("fault-b1", &b, e1);
  (void)issue("fault-a2", &a, runtime::Event{});
  (void)issue("fault-b2", &b, e3);
  (void)issue("fault-a3", &a, e4);
  (void)issue("fault-b3", &b, runtime::Event{});

  bool threw = false;
  bool foreign_error = false;
  std::uint64_t faulted_id = 0;
  try {
    dev.synchronize();
  } catch (const InjectedFault& f) {
    threw = true;
    faulted_id = f.launch_id();
    if (flight) {
      flight->dump("gothic_fuzz fault plan: injected fault at launch " +
                   std::to_string(faulted_id));
    }
  } catch (...) {
    foreign_error = true;
    if (flight) {
      flight->dump("gothic_fuzz fault plan: non-injected exception");
    }
  }

  bool second_clean = true;
  try {
    dev.synchronize();
  } catch (...) {
    second_clean = false;
  }

  bool reuse_ok = true;
  const int before_reuse = ran.load(std::memory_order_relaxed);
  try {
    const runtime::Event er = issue("fault-reuse", &a, runtime::Event{});
    dev.synchronize();
    reuse_ok = er.valid() &&
               ran.load(std::memory_order_relaxed) == before_reuse + 1;
  } catch (...) {
    reuse_ok = false;
  }
  dev.set_schedule_controller(nullptr);
  if (flight) dev.sink().set_listener(nullptr);

  out.injected_throws = ctrl.injected_throws();
  out.injected_stalls = ctrl.injected_stalls();
  out.error_thrown = threw;
  out.single_error = second_clean;
  out.device_reusable = reuse_ok;
  const auto expect_throws = static_cast<int>(count_in_dag(plan.throw_at));
  const auto expect_stalls = static_cast<int>(count_in_dag(plan.stall_at));
  const int expect_ran =
      static_cast<int>(kFaultLaunches) + 1 - out.injected_throws;
  out.bodies_consistent = ran.load(std::memory_order_relaxed) == expect_ran;

  std::string d;
  if (foreign_error) d += "synchronize raised a non-injected exception; ";
  if (threw != (expect_throws > 0)) {
    d += threw ? "synchronize raised an error with no throw planned; "
               : "planned throw did not propagate out of synchronize; ";
  }
  if (threw &&
      std::find(plan.throw_at.begin(), plan.throw_at.end(), faulted_id) ==
          plan.throw_at.end()) {
    d += "propagated fault id " + std::to_string(faulted_id) +
         " was not in the plan; ";
  }
  if (out.injected_throws != expect_throws) {
    d += "injected " + std::to_string(out.injected_throws) + " throws, plan " +
         std::to_string(expect_throws) + "; ";
  }
  if (out.injected_stalls != expect_stalls) {
    d += "injected " + std::to_string(out.injected_stalls) + " stalls, plan " +
         std::to_string(expect_stalls) + "; ";
  }
  if (!second_clean) d += "error propagated twice (second synchronize); ";
  if (!reuse_ok) d += "device not reusable after the fault; ";
  if (!out.bodies_consistent) {
    d += "ran " + std::to_string(ran.load(std::memory_order_relaxed)) +
         " bodies, expected " + std::to_string(expect_ran) + "; ";
  }
  if (d.size() >= 2) d.resize(d.size() - 2); // drop trailing "; "
  out.detail = d;
  return out;
}

FaultSweepReport sweep_faults(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count) {
  FaultSweepReport rep;
  Xoshiro256 rng(base_seed);
  auto pick_ids = [&rng](std::vector<std::uint64_t>& ids, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(1 + rng.next() % kFaultLaunches);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  for (std::size_t i = 0; i < count; ++i) {
    FaultPlan plan;
    // Cycle the fault classes: throw-only, stall-only, mixed.
    const std::size_t kind = i % 3;
    if (kind != 1) pick_ids(plan.throw_at, 1 + rng.next() % 2);
    if (kind != 0) pick_ids(plan.stall_at, 1 + rng.next() % 2);
    const FaultOutcome out = run_fault_plan(cfg, plan);
    ++rep.plans;
    if (!plan.throw_at.empty()) ++rep.with_throws;
    if (!plan.stall_at.empty()) ++rep.with_stalls;
    if (!out.ok()) {
      rep.failures.push_back("plan " + std::to_string(i) + " (base seed " +
                             hex_seed(base_seed) + "): " + out.detail);
    }
  }
  return rep;
}

// --- Sharded pipeline sweeps ----------------------------------------------

namespace {

/// The seeded engine run of the shard and scenario legs: low seed bits
/// pick the shard count (bits 3+) and SIMD substrate (bit 5, a no-op on
/// hosts without AVX2), so short sequential seed ranges already cover the
/// matrix; `p` runs `cfg.steps` steps under `sim_cfg` with one seeded
/// stream controller per shard device, and the packed final state is
/// compared with `reference`.
void run_seeded_engine(const FuzzConfig& cfg, std::uint64_t seed,
                       nbody::Particles p, const nbody::SimConfig& sim_cfg,
                       const std::vector<real>& reference,
                       ShardRunOutcome& out) {
  const int shard_choices[] = {1, 2, 4};
  out.shards = shard_choices[(seed >> 3) % 3];
  simt::ScopedSimd simd(((seed >> 5) & 1) != 0);

  nbody::ShardOptions opt;
  opt.shards = out.shards;
  opt.workers = cfg.workers;
  nbody::ShardedSimulation sim(std::move(p), sim_cfg, opt);

  // One seeded stream controller per shard device, installed between the
  // constructor's synchronize and the first step (devices are idle here).
  std::vector<std::unique_ptr<SeededSchedule>> ctrls;
  for (int s = 0; s < out.shards; ++s) {
    ctrls.push_back(std::make_unique<SeededSchedule>(
        seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(s + 1))));
    sim.shard_device(s).set_schedule_controller(ctrls.back().get());
  }
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  for (int s = 0; s < out.shards; ++s) {
    const SeededSchedule& ctrl = *ctrls[static_cast<std::size_t>(s)];
    sim.shard_device(s).set_schedule_controller(nullptr);
    if (s != 0) out.signature += '|';
    out.signature += ctrl.signature();
    out.decision_points += ctrl.decision_points();
    for (const std::string& v : ctrl.violations()) {
      out.violations.push_back("shard " + std::to_string(s) + ": " + v);
    }
  }
  out.bit_identical = pack_state(sim.particles()) == reference;
}

} // namespace

ShardRunOutcome run_sharded(const FuzzConfig& cfg, std::uint64_t seed,
                            const std::vector<real>& reference) {
  ShardRunOutcome out;
  run_seeded_engine(cfg, seed, fuzz_cloud(cfg.n, cfg.workload_seed),
                    fuzz_sim_config(cfg.rebuild_interval), reference, out);
  return out;
}

SweepReport sweep_shard_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count) {
  SweepReport rep;
  const Reference ref = in_order_reference(cfg);
  check_reference(rep, "fuzz workload", ref);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const ShardRunOutcome out = run_sharded(cfg, seed, ref.state);
    ++rep.runs;
    rep.signatures.insert(out.signature);
    rep.decision_points_total += out.decision_points;
    if (!out.bit_identical || !out.violations.empty()) {
      rep.failing_seeds.push_back(seed);
      append_run_failure(rep,
                         "seed " + hex_seed(seed) + " (K=" +
                             std::to_string(out.shards) + ")",
                         out.bit_identical, out.violations);
    }
  }
  return rep;
}

// --- Scenario-registry sweeps ---------------------------------------------

nbody::SimConfig scenario_fuzz_config(const scenario::Scenario& sc,
                                      int rebuild_interval) {
  nbody::SimConfig cfg = fuzz_sim_config(rebuild_interval);
  sc.configure(cfg);
  // The scenario owns the force law and accuracy; the fuzzer re-pins the
  // cadence fields so every run of a scenario issues the identical launch
  // DAG regardless of what the scenario's production defaults are.
  cfg.block_time_steps = false;
  cfg.dt_max = 1.0 / 4096.0;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = rebuild_interval;
  return cfg;
}

Reference scenario_reference(const FuzzConfig& cfg,
                             const scenario::Scenario& sc) {
  return run_in_order(cfg, sc.make(cfg.n, cfg.workload_seed),
                      scenario_fuzz_config(sc, cfg.rebuild_interval));
}

ScenarioRunOutcome run_scenario(const FuzzConfig& cfg, std::uint64_t seed,
                                const std::vector<real>& reference) {
  // Same seed-bit encoding as run_sharded, so one token language covers
  // both sweeps; the scenario is an independent hash of the whole seed.
  const scenario::Scenario& sc = scenario::scenario_from_seed(seed);
  ScenarioRunOutcome out;
  out.scenario = sc.name;
  run_seeded_engine(cfg, seed, sc.make(cfg.n, cfg.workload_seed),
                    scenario_fuzz_config(sc, cfg.rebuild_interval), reference,
                    out);
  return out;
}

ScenarioRunOutcome replay_scenario_seed(const FuzzConfig& cfg,
                                        std::uint64_t seed) {
  const Reference ref =
      scenario_reference(cfg, scenario::scenario_from_seed(seed));
  ScenarioRunOutcome out = run_scenario(cfg, seed, ref.state);
  for (const std::string& v : ref.violations) {
    out.violations.push_back("in-order reference: " + v);
  }
  return out;
}

SweepReport sweep_scenario_seeds(const FuzzConfig& cfg,
                                 std::uint64_t base_seed, std::size_t count) {
  SweepReport rep;
  // One in-order reference per scenario the seed range actually hits
  // (IC generation can dwarf the run itself, e.g. the M31 model).
  std::map<std::string, std::vector<real>> refs;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const scenario::Scenario& sc = scenario::scenario_from_seed(seed);
    auto it = refs.find(sc.name);
    if (it == refs.end()) {
      Reference ref = scenario_reference(cfg, sc);
      check_reference(rep, "scenario " + sc.name, ref);
      it = refs.emplace(sc.name, std::move(ref.state)).first;
    }
    const ScenarioRunOutcome out = run_scenario(cfg, seed, it->second);
    ++rep.runs;
    rep.signatures.insert(out.scenario + ":" + out.signature);
    rep.decision_points_total += out.decision_points;
    if (!out.bit_identical || !out.violations.empty()) {
      rep.failing_seeds.push_back(seed);
      append_run_failure(rep,
                         "seed " + hex_seed(seed) + " (scenario " +
                             out.scenario + ", K=" +
                             std::to_string(out.shards) + ")",
                         out.bit_identical, out.violations);
    }
  }
  return rep;
}

ShardFaultOutcome run_shard_fault(const FuzzConfig& cfg, std::uint64_t seed) {
  ShardFaultOutcome out;
  out.shards = 2 + static_cast<int>((seed >> 8) % 3); // 2..4
  out.target_shard = static_cast<int>(seed % static_cast<std::uint64_t>(
                                                 out.shards));

  nbody::ShardOptions opt;
  opt.shards = out.shards;
  opt.workers = cfg.workers;
  nbody::ShardedSimulation sim(fuzz_cloud(cfg.n, cfg.workload_seed),
                               fuzz_sim_config(cfg.rebuild_interval), opt);
  (void)sim.step(); // a healthy step first, so the fault hits steady state

  // Target one of the shard's upcoming step launches (its per-device
  // launch ids are monotonic; a step issues up to ~5 launches per shard).
  runtime::Device& target = sim.shard_device(out.target_shard);
  FaultPlan plan;
  plan.throw_at.push_back(target.launch_count() + 1 + seed % 4);
  FaultController ctrl(plan);
  target.set_schedule_controller(&ctrl);

  bool threw = false;
  bool foreign_error = false;
  try {
    (void)sim.step();
  } catch (const InjectedFault&) {
    threw = true;
  } catch (...) {
    foreign_error = true;
  }
  // step() synchronizes every device on both the clean and the error
  // path, so the devices are idle and the controller can be detached.
  target.set_schedule_controller(nullptr);
  out.injected_throws = ctrl.injected_throws();
  out.error_thrown = threw;

  // Every shard device — faulted one included — must accept and complete
  // new work: one shard's failure must not poison the other devices.
  bool reusable = true;
  std::string stuck;
  for (int s = 0; s < out.shards; ++s) {
    runtime::Stream probe("fault-probe");
    std::atomic<int> ran{0};
    runtime::LaunchDesc desc;
    desc.label = "fault-probe";
    desc.items = 1;
    desc.stream = &probe;
    try {
      (void)sim.shard_device(s).launch(desc, [&ran](simt::OpCounts&) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
      sim.shard_device(s).synchronize();
      if (ran.load(std::memory_order_relaxed) != 1) {
        reusable = false;
        stuck += " shard " + std::to_string(s) + " probe body did not run;";
      }
    } catch (...) {
      reusable = false;
      stuck += " shard " + std::to_string(s) + " raised on reuse;";
    }
  }
  out.devices_reusable = reusable;

  std::string d;
  if (foreign_error) d += "step raised a non-injected exception; ";
  if (threw != (out.injected_throws > 0)) {
    d += threw ? "step raised an error with no injected throw; "
               : "injected throw did not propagate out of step; ";
  }
  if (!reusable) d += "post-fault reuse failed:" + stuck + "; ";
  if (d.size() >= 2) d.resize(d.size() - 2);
  out.detail = d;
  return out;
}

FaultSweepReport sweep_shard_faults(const FuzzConfig& cfg,
                                    std::uint64_t base_seed,
                                    std::size_t count) {
  FaultSweepReport rep;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const ShardFaultOutcome out = run_shard_fault(cfg, seed);
    ++rep.plans;
    if (out.injected_throws > 0) ++rep.with_throws;
    if (!out.ok()) {
      rep.failures.push_back("shard-fault seed " + hex_seed(seed) + " (K=" +
                             std::to_string(out.shards) + ", target " +
                             std::to_string(out.target_shard) +
                             "): " + out.detail);
    }
  }
  return rep;
}

} // namespace gothic::testkit
