// gothic_run — the production driver: build or load initial conditions,
// evolve with the GOTHIC pipeline, checkpoint snapshots, and report
// conservation diagnostics plus one per-kernel table of every launch the
// run made (bootstrap, force refreshes and steps), with latency
// percentiles, op tallies and the step, shard and arena gauges.
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
//   --shards=<int>                run the step engine over K per-shard
//                                 devices (default 1 = one shard on the
//                                 shared device; results are
//                                 bit-identical for every K)
//
// Exit status 0 on success, 1 when the run fails, and 2 when the command
// line is rejected, with a message naming the flag: a value out of range
// (--n, --steps and --shards >= 1, --snapshot-every >= 0; --n at most
// LLONG_MAX, the others at most INT_MAX), a non-numeric value, or an
// unknown model, scenario, mode, curve or MAC.
#include "galaxy/m31.hpp"
#include "galaxy/spherical_sampler.hpp"
#include "nbody/sharded_simulation.hpp"
#include "scenario/registry.hpp"
#include "nbody/simulation.hpp"
#include "nbody/snapshot.hpp"
#include "trace/session.hpp"
#include "util/args.hpp"

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
    const auto n = static_cast<std::size_t>(args.get_in_range(
        "n", static_cast<long long>(sc->default_n), 1, LLONG_MAX));
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<long long>(sc->default_seed)));
    return sc->make(n, seed);
  }
  const auto n =
      static_cast<std::size_t>(args.get_in_range("n", 32768, 1, LLONG_MAX));
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

/// The drive loop for any shard count (bit-identical results). The
/// metrics footer sums the gauges of every shard's device.
int drive(nbody::ShardedSimulation& sim, const Args& args, int steps,
          int snap_every) {
  const std::string prefix = args.get("out", "gothic_");
  const std::string csv = args.get("csv", "");
  const std::string trace_path =
      args.get("trace", trace::Session::env_trace_path());
  const std::string telemetry_path =
      args.get("telemetry", trace::TelemetryWriter::env_telemetry_path());
  const bool flight_dump = args.has("flight-dump");
  for (const std::string& key : args.unused()) {
    std::cerr << "warning: unused option --" << key << "\n";
  }

  // The session's registry is the run's per-kernel table; it writes a
  // trace or telemetry file only when asked. The sinks still hold the
  // constructor's bootstrap launches, which no listener has seen yet.
  trace::Session session(trace_path, telemetry_path);
  for (int s = 0; s < sim.shard_count(); ++s) {
    for (const runtime::LaunchRecord& rec : sim.sink(s).step_records()) {
      session.on_record(rec);
    }
  }
  sim.set_instrumentation_listener(&session);

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

  if (!csv.empty()) {
    nbody::write_csv(csv, sim.particles());
    std::cout << "final state written to " << csv << "\n";
  }
  sim.set_instrumentation_listener(nullptr);
  const bool ok = session.finish(sim.devices());
  session.metrics().print(std::cout);
  if (session.tracing()) {
    // Non-zero drops mean the bounded trace buffer truncated the
    // timeline — surfaced here so CI smoke can assert on it.
    std::cout << "trace dropped records: " << session.dropped() << "\n";
    if (ok) {
      std::cout << "perfetto trace written to " << session.trace_path()
                << " (load at ui.perfetto.dev)\n";
    } else {
      std::cerr << "warning: could not write trace to "
                << session.trace_path() << "\n";
    }
  }
  if (trace::TelemetryWriter* tel = session.telemetry();
      tel != nullptr && tel->ok()) {
    std::cout << "telemetry stream written to " << tel->path() << " ("
              << tel->lines() << " records)\n";
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
    // Range-checked before anything is built.
    const auto shards =
        static_cast<int>(args.get_in_range("shards", 1, 1, INT_MAX));
    const auto steps =
        static_cast<int>(args.get_in_range("steps", 64, 1, INT_MAX));
    const auto snap_every =
        static_cast<int>(args.get_in_range("snapshot-every", 0, 0, INT_MAX));
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
    return drive(*sim, args, steps, snap_every);
  } catch (const std::invalid_argument& e) {
    std::cerr << "gothic_run: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "gothic_run: " << e.what() << "\n";
    return 1;
  }
}
