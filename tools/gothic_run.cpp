// gothic_run — the production driver: build or load initial conditions,
// evolve with the GOTHIC pipeline, checkpoint snapshots, and report
// per-kernel timings plus conservation diagnostics.
//
//   gothic_run --model=m31 --n=65536 --steps=256 --dacc=0.002
//              --snapshot-every=64 --out=run_
//   gothic_run --restart=run_00000192.snap --steps=64
//
// Options:
//   --model=m31|plummer|uniform   initial conditions (default m31)
//   --scenario=<name|file>        use a scenario-registry entry (or a
//                                 key=value config file) for both ICs and
//                                 force-law/accuracy defaults; individual
//                                 flags below still override. Mutually
//                                 exclusive with --model; unknown names
//                                 fail listing the registered ones.
//   --n=<int>                     particle count (default 32768, or the
//                                 scenario's default_n)
//   --seed=<int>                  RNG seed (default 1, or the scenario's
//                                 default_seed)
//   --steps=<int>                 block steps to advance (default 64)
//   --dacc=<float>                Eq. 2 accuracy parameter (default 2^-9)
//   --mac=acc|theta|gadget        MAC type (default acc)
//   --theta=<float>               opening angle for --mac=theta
//   --eps=<float>                 Plummer softening (default 0.0156)
//   --eta=<float>                 time-step accuracy (default 0.25)
//   --dt-max=<float>              level-0 block step (default 1/8)
//   --max-level=<int>             block hierarchy depth (default 6)
//   --mode=pascal|volta           simulated scheduling mode (default pascal)
//   --curve=morton|hilbert        space-filling curve (default morton)
//   --quadrupole                  evaluate quadrupole moments
//   --shared-steps                disable block time steps
//   --restart=<file>              resume from a snapshot
//   --snapshot-every=<int>        checkpoint cadence in steps (0 = off)
//   --out=<prefix>                snapshot file prefix (default gothic_)
//   --csv=<file>                  dump final state as CSV
//   --trace=<file>                write a Perfetto trace of the run's
//                                 launch DAG (default: $GOTHIC_TRACE)
//   --telemetry=<file>            stream one JSONL telemetry record per
//                                 step (default: $GOTHIC_TELEMETRY)
//   --flight-dump[=<file>]        enable the flight recorder (as if
//                                 GOTHIC_FLIGHT were set; default file
//                                 flight.json) and dump the launch/step
//                                 rings at the end of the run
//   --metrics                     print per-kernel latency histograms
//                                 (p50/p95/max) and arena gauges at exit
//   --shards=<int>                run the step engine over K per-shard
//                                 devices (default: $GOTHIC_SHARDS, else 1
//                                 = one shard on the shared device; results
//                                 are bit-identical for every K; at most
//                                 INT_MAX)
#include "galaxy/m31.hpp"
#include "galaxy/spherical_sampler.hpp"
#include "nbody/sharded_simulation.hpp"
#include "scenario/registry.hpp"
#include "nbody/simulation.hpp"
#include "nbody/snapshot.hpp"
#include "trace/session.hpp"
#include "util/args.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>

namespace {

using namespace gothic;

nbody::Particles make_initial(const Args& args,
                              const scenario::Scenario* sc) {
  const std::string restart = args.get("restart", "");
  if (!restart.empty()) {
    nbody::SnapshotHeader hdr;
    nbody::Particles p = nbody::read_snapshot(restart, &hdr);
    std::cout << "restarted from " << restart << " (N = " << hdr.n
              << ", t = " << hdr.time << ")\n";
    return p;
  }
  if (sc != nullptr) {
    const auto n = static_cast<std::size_t>(
        args.get_int("n", static_cast<long long>(sc->default_n)));
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<long long>(sc->default_seed)));
    return sc->make(n, seed);
  }
  const auto n = static_cast<std::size_t>(args.get_int("n", 32768));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string model = args.get("model", "m31");
  if (model == "m31") return galaxy::build_m31(n, seed);
  if (model == "plummer") return galaxy::make_plummer(n, 1.0, 1.0, seed);
  if (model == "uniform") {
    return galaxy::make_uniform_sphere(n, 1.0, 1.0, seed);
  }
  throw std::invalid_argument("unknown --model '" + model + "'");
}

nbody::SimConfig make_config(const Args& args,
                             const scenario::Scenario* sc) {
  nbody::SimConfig cfg;
  if (sc != nullptr) {
    // Scenario defaults first; explicit flags below override them.
    sc->configure(cfg);
  } else {
    cfg.walk.eps = real(0.0156);
    cfg.dt_max = 1.0 / 8;
  }
  const std::string mac =
      args.get("mac", cfg.walk.mac.type == gravity::MacType::OpeningAngle
                          ? "theta"
                          : cfg.walk.mac.type == gravity::MacType::Gadget
                                ? "gadget"
                                : "acc");
  if (mac == "acc") {
    cfg.walk.mac.type = gravity::MacType::Acceleration;
  } else if (mac == "theta") {
    cfg.walk.mac.type = gravity::MacType::OpeningAngle;
  } else if (mac == "gadget") {
    cfg.walk.mac.type = gravity::MacType::Gadget;
  } else {
    throw std::invalid_argument("unknown --mac '" + mac + "'");
  }
  cfg.walk.mac.dacc = static_cast<real>(
      args.get_double("dacc", static_cast<double>(cfg.walk.mac.dacc)));
  cfg.walk.mac.theta = static_cast<real>(
      args.get_double("theta", static_cast<double>(cfg.walk.mac.theta)));
  cfg.walk.eps = static_cast<real>(
      args.get_double("eps", static_cast<double>(cfg.walk.eps)));
  cfg.walk.use_quadrupole =
      args.get_flag("quadrupole") || cfg.walk.use_quadrupole;
  cfg.calc.compute_quadrupole = cfg.walk.use_quadrupole;
  cfg.eta = args.get_double("eta", cfg.eta);
  cfg.dt_max = args.get_double("dt-max", cfg.dt_max);
  cfg.max_level = static_cast<int>(args.get_int("max-level", 6));
  cfg.block_time_steps = !args.get_flag("shared-steps");
  const std::string mode = args.get("mode", "pascal");
  if (mode == "pascal") {
    cfg.set_mode(simt::ExecMode::Pascal);
  } else if (mode == "volta") {
    cfg.set_mode(simt::ExecMode::Volta);
  } else {
    throw std::invalid_argument("unknown --mode '" + mode + "'");
  }
  const std::string curve = args.get("curve", "morton");
  if (curve == "hilbert") {
    cfg.build.curve = octree::SpaceFillingCurve::Hilbert;
  } else if (curve != "morton") {
    throw std::invalid_argument("unknown --curve '" + curve + "'");
  }
  return cfg;
}

std::string snapshot_name(const std::string& prefix, int step) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%08d.snap", step);
  return prefix + buf;
}

/// The drive loop for any shard count (bit-identical results). Shard 0's
/// device is the one whose arena gauges the metrics footer samples.
int drive(nbody::ShardedSimulation& sim, const Args& args) {
  const int steps = static_cast<int>(args.get_int("steps", 64));
  const int snap_every = static_cast<int>(args.get_int("snapshot-every", 0));
  const std::string prefix = args.get("out", "gothic_");
  const std::string csv = args.get("csv", "");
  const std::string trace_path =
      args.get("trace", trace::Session::env_trace_path());
  const std::string telemetry_path =
      args.get("telemetry", trace::TelemetryWriter::env_telemetry_path());
  const bool metrics = args.get_flag("metrics");
  const bool flight_dump = args.has("flight-dump");
  for (const std::string& key : args.unused()) {
    std::cerr << "warning: unused option --" << key << "\n";
  }

  // Observability is opt-in: with no --trace/--telemetry/--metrics the
  // simulation runs with a null listener (no per-launch overhead).
  std::unique_ptr<trace::Session> session;
  if (metrics || !trace_path.empty() || !telemetry_path.empty()) {
    session = std::make_unique<trace::Session>(trace_path, telemetry_path);
    sim.set_instrumentation_listener(session.get());
  }

  sim.refresh_forces();
  const nbody::Energies e0 = sim.energies();
  std::cout << "N = " << sim.particles().size() << ", E0 = " << e0.total()
            << ", virial -2K/W = " << e0.virial_ratio() << "\n";

  for (int s = 1; s <= steps; ++s) {
    const nbody::StepReport r = sim.step();
    if (snap_every > 0 && s % snap_every == 0) {
      const std::string path = snapshot_name(prefix, sim.step_count());
      nbody::write_snapshot(path, sim.particles(), sim.time());
      std::cout << "step " << sim.step_count() << ": t = " << sim.time()
                << ", active = " << r.n_active << ", wrote " << path
                << "\n";
    }
  }

  sim.refresh_forces();
  const nbody::Energies e1 = sim.energies();
  std::cout << "advanced " << steps << " steps to t = " << sim.time()
            << "; |dE/E| = "
            << std::fabs((e1.total() - e0.total()) /
                         std::max(std::fabs(e0.total()), 1e-30))
            << "; rebuilds = " << sim.rebuild_count() << "\n";

  Table t("wall-clock per kernel", {"kernel", "seconds", "calls"});
  for (const Kernel k :
       {Kernel::WalkTree, Kernel::CalcNode, Kernel::MakeTree,
        Kernel::PredictCorrect}) {
    t.add_row({std::string(kernel_name(k)),
               Table::sci(sim.timers().seconds(k)),
               Table::num(static_cast<long long>(sim.timers().calls(k)))});
  }
  t.print(std::cout);

  if (!csv.empty()) {
    nbody::write_csv(csv, sim.particles());
    std::cout << "final state written to " << csv << "\n";
  }
  if (session) {
    sim.set_instrumentation_listener(nullptr);
    const bool ok = session->finish(sim.shard_device(0));
    if (metrics) session->metrics().print(std::cout);
    if (session->tracing()) {
      // Non-zero drops mean the bounded trace buffer truncated the
      // timeline — surfaced here so CI smoke can assert on it.
      std::cout << "trace dropped records: " << session->dropped() << "\n";
      if (ok) {
        std::cout << "perfetto trace written to " << session->trace_path()
                  << " (load at ui.perfetto.dev)\n";
      } else {
        std::cerr << "warning: could not write trace to "
                  << session->trace_path() << "\n";
      }
    }
    if (trace::TelemetryWriter* tel = session->telemetry();
        tel != nullptr && tel->ok()) {
      std::cout << "telemetry stream written to " << tel->path() << " ("
                << tel->lines() << " records)\n";
    }
  }
  if (trace::FlightRecorder* fr = sim.flight_recorder();
      fr != nullptr && flight_dump) {
    if (fr->dump("on demand (gothic_run --flight-dump)")) {
      std::cout << "flight-recorder dump written to "
                << fr->last_dump_path() << " (" << fr->seen_records()
                << " launches seen)\n";
    }
  }
  return 0;
}

int shard_count(const Args& args) {
  // GOTHIC_SHARDS goes through the strict reader telemetry logs it with,
  // so a malformed value ("4x") warns and falls back to 1 in both places.
  const auto env = static_cast<long long>(
      std::min<std::size_t>(env_size("GOTHIC_SHARDS", 1), LLONG_MAX));
  const long long k = args.get_int("shards", env);
  if (k < 1) throw std::invalid_argument("--shards must be >= 1");
  if (k > INT_MAX) {
    throw std::invalid_argument("--shards must be <= " +
                                std::to_string(INT_MAX));
  }
  return static_cast<int>(k);
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    // --flight-dump enables the recorder the same way GOTHIC_FLIGHT does
    // (the simulations read the variable at construction); an explicit
    // GOTHIC_FLIGHT destination wins over the flag's default file.
    if (args.has("flight-dump") &&
        std::getenv("GOTHIC_FLIGHT") == nullptr) {
      std::string dest = args.get("flight-dump", "");
      if (dest.empty()) dest = "flight.json";
      setenv("GOTHIC_FLIGHT", dest.c_str(), 1);
    }
    std::unique_ptr<scenario::Scenario> sc;
    if (args.has("scenario")) {
      if (args.has("model")) {
        throw std::invalid_argument(
            "--model and --scenario are mutually exclusive");
      }
      sc = std::make_unique<scenario::Scenario>(
          scenario::scenario_from_spec(args.get("scenario", "")));
      std::cout << "scenario " << sc->name << " ["
                << gravity::force_law_name(sc->law) << "]: " << sc->summary
                << "\n";
    }
    const int shards = shard_count(args);
    std::unique_ptr<nbody::ShardedSimulation> sim;
    if (shards > 1) {
      nbody::ShardOptions opt;
      opt.shards = shards;
      sim = std::make_unique<nbody::ShardedSimulation>(
          make_initial(args, sc.get()), make_config(args, sc.get()), opt);
      std::cout << "sharded pipeline: " << shards << " shards\n";
    } else {
      sim = std::make_unique<nbody::Simulation>(make_initial(args, sc.get()),
                                                make_config(args, sc.get()));
    }
    return drive(*sim, args);
  } catch (const std::exception& e) {
    std::cerr << "gothic_run: " << e.what() << "\n";
    return 1;
  }
}
