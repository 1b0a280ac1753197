// gothic_fuzz — schedule fuzzer and fault-injection driver for the async
// launch engine (see DESIGN.md, "Testing & fault model").
//
// Three legs, each optional:
//   --schedules=N   seeded sweep: N random interleavings of the step DAG,
//                   each compared bit-for-bit against the in-order
//                   reference (one launch at a time, in issue order). A
//                   failing run prints its 64-bit seed; that seed alone
//                   reproduces the exact interleaving.
//   --enumerate=N   depth-first enumeration of the schedule tree (up to N
//                   runs) — every run is a distinct interleaving.
//   --faults=N      N randomized fault plans (launch-body exceptions, lane
//                   stalls) through a cross-stream DAG, asserting the error
//                   contract: one first-wins error, device reusable after.
//   --shards=N      N seeded sharded runs (K in {1,2,4} and the SIMD
//                   substrate from the seed, one schedule controller per
//                   shard device), each compared bit-for-bit against the
//                   unsharded in-order reference.
//   --shard-faults=N  N launch-body throws injected into one shard of a
//                   sharded step, asserting the isolation contract: the
//                   fault surfaces from step() and every shard device
//                   stays reusable.
//   --service=N     N seeded session-pool runs: each seed builds a
//                   SessionManager (pool shape, mixed scenario batch and
//                   fault family from the seed), injects launch throws /
//                   lane stalls / arena OOM, and asserts the session
//                   isolation contract — every survivor bit-identical to
//                   its solo run, every failure carried by one session.
//   --scenarios=N   N seeded scenario runs: each seed hashes to a
//                   scenario-registry entry (ICs + force law) and encodes
//                   shard count and SIMD substrate in its bits, compared
//                   bit-for-bit against that scenario's in-order
//                   reference.
//
//   --replay=SEED   re-run one seeded schedule (accepts 0x... hex) and
//                   print its interleaving — the repro entry point.
//   --replay-scenario=SEED  re-run one scenario seed the same way.
//
// Workload knobs (--n, --steps, --workers, --rebuild-interval)
// must match between a failing sweep and its replay. Exit code 0 iff every
// leg passed; 2 for an unknown option or a value out of range (counts
// >= 0, --n and --steps >= 1, --workers in [1, Device::kMaxWorkers],
// --rebuild-interval >= 1).
#include "runtime/device.hpp"
#include "service/fuzz.hpp"
#include "testkit/fuzz.hpp"
#include "util/args.hpp"

#include <climits>
#include <cstdio>
#include <exception>
#include <string>

namespace {

using gothic::testkit::FuzzConfig;
using gothic::testkit::hex_seed;

void print_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) std::printf("  FAIL %s\n", f.c_str());
}

/// A leg's run count: --key >= 0.
std::size_t get_count(const gothic::Args& args, const char* key,
                      long long fallback) {
  return static_cast<std::size_t>(
      args.get_in_range(key, fallback, 0, LLONG_MAX));
}

int run(const gothic::Args& args) {
  FuzzConfig cfg;
  cfg.n = static_cast<std::size_t>(args.get_in_range("n", 192, 1, LLONG_MAX));
  cfg.steps = static_cast<int>(args.get_in_range("steps", 10, 1, INT_MAX));
  cfg.workers = static_cast<int>(args.get_in_range(
      "workers", 2, 1, gothic::runtime::Device::kMaxWorkers));
  cfg.rebuild_interval = static_cast<int>(
      args.get_in_range("rebuild-interval", 1, 1, INT_MAX));
  const std::uint64_t base_seed = args.get_u64("seed", 1);
  const bool scenario_leg =
      args.has("scenarios") || args.has("replay-scenario");
  const std::size_t schedules = get_count(
      args, "schedules",
      args.has("enumerate") || args.has("replay") || scenario_leg ? 0 : 64);
  const std::size_t enumerate = get_count(args, "enumerate", 0);
  const std::size_t faults = get_count(
      args, "faults", args.has("replay") || scenario_leg ? 0 : 8);
  const std::size_t shards = get_count(args, "shards", 0);
  const std::size_t shard_faults = get_count(args, "shard-faults", 0);
  const std::size_t service = get_count(args, "service", 0);
  const std::size_t scenarios = get_count(args, "scenarios", 0);
  const bool replay = args.has("replay");
  const std::uint64_t replay_seed_value = args.get_u64("replay", 0);
  const bool replay_scenario = args.has("replay-scenario");
  const std::uint64_t replay_scenario_seed =
      args.get_u64("replay-scenario", 0);

  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "gothic_fuzz: unknown option --%s\n", key.c_str());
    return 2;
  }

  std::printf("gothic_fuzz: n=%zu steps=%d workers=%d rebuild=%d\n", cfg.n,
              cfg.steps, cfg.workers, cfg.rebuild_interval);
  bool ok = true;

  if (replay) {
    const auto ref = gothic::testkit::in_order_reference(cfg);
    auto out = gothic::testkit::replay_seed(cfg, replay_seed_value, ref.state);
    for (const std::string& v : ref.violations) {
      out.violations.push_back("in-order reference: " + v);
    }
    std::printf("replay %s: %zu decision points, %s, %zu violations\n",
                hex_seed(replay_seed_value).c_str(), out.decision_points,
                out.bit_identical ? "bit-identical" : "STATE DIVERGED",
                out.violations.size());
    std::printf("  interleaving: %s\n", out.signature.c_str());
    print_failures(out.violations);
    ok = ok && out.bit_identical && out.violations.empty();
  }

  if (schedules > 0) {
    const auto rep = gothic::testkit::sweep_seeds(cfg, base_seed, schedules);
    std::printf(
        "schedules: %zu seeded runs from %s, %zu distinct interleavings, "
        "%zu decision points, %zu failures\n",
        rep.runs, hex_seed(base_seed).c_str(), rep.signatures.size(),
        rep.decision_points_total, rep.failures.size());
    print_failures(rep.failures);
    for (std::uint64_t s : rep.failing_seeds) {
      std::printf("  replay with: gothic_fuzz --replay=%s --n=%zu --steps=%d "
                  "--workers=%d --rebuild-interval=%d\n",
                  hex_seed(s).c_str(), cfg.n, cfg.steps, cfg.workers,
                  cfg.rebuild_interval);
    }
    ok = ok && rep.ok();
  }

  if (enumerate > 0) {
    const auto rep = gothic::testkit::enumerate_schedules(cfg, enumerate);
    std::printf("enumerate: %zu runs, %zu distinct interleavings, "
                "%zu decision points, %zu failures\n",
                rep.runs, rep.signatures.size(), rep.decision_points_total,
                rep.failures.size());
    print_failures(rep.failures);
    ok = ok && rep.ok();
  }

  if (faults > 0) {
    const auto rep = gothic::testkit::sweep_faults(cfg, base_seed, faults);
    std::printf("faults: %zu plans (%zu with throws, %zu with stalls), "
                "%zu failures\n",
                rep.plans, rep.with_throws, rep.with_stalls,
                rep.failures.size());
    print_failures(rep.failures);
    ok = ok && rep.ok();
  }

  if (shards > 0) {
    const auto rep =
        gothic::testkit::sweep_shard_seeds(cfg, base_seed, shards);
    std::printf("shards: %zu seeded sharded runs from %s, %zu distinct "
                "interleavings, %zu decision points, %zu failures\n",
                rep.runs, hex_seed(base_seed).c_str(), rep.signatures.size(),
                rep.decision_points_total, rep.failures.size());
    print_failures(rep.failures);
    ok = ok && rep.ok();
  }

  if (replay_scenario) {
    const auto out =
        gothic::testkit::replay_scenario_seed(cfg, replay_scenario_seed);
    std::printf("replay-scenario %s: scenario %s, K=%d, %zu decision "
                "points, %s, %zu violations\n",
                hex_seed(replay_scenario_seed).c_str(), out.scenario.c_str(),
                out.shards, out.decision_points,
                out.bit_identical ? "bit-identical" : "STATE DIVERGED",
                out.violations.size());
    std::printf("  interleaving: %s\n", out.signature.c_str());
    print_failures(out.violations);
    ok = ok && out.bit_identical && out.violations.empty();
  }

  if (scenarios > 0) {
    const auto rep =
        gothic::testkit::sweep_scenario_seeds(cfg, base_seed, scenarios);
    std::printf("scenarios: %zu seeded runs from %s, %zu distinct "
                "scenario interleavings, %zu decision points, %zu failures\n",
                rep.runs, hex_seed(base_seed).c_str(), rep.signatures.size(),
                rep.decision_points_total, rep.failures.size());
    print_failures(rep.failures);
    for (std::uint64_t s : rep.failing_seeds) {
      std::printf("  replay with: gothic_fuzz --replay-scenario=%s --n=%zu "
                  "--steps=%d --workers=%d --rebuild-interval=%d\n",
                  hex_seed(s).c_str(), cfg.n, cfg.steps, cfg.workers,
                  cfg.rebuild_interval);
    }
    ok = ok && rep.ok();
  }

  if (shard_faults > 0) {
    const auto rep =
        gothic::testkit::sweep_shard_faults(cfg, base_seed, shard_faults);
    std::printf("shard-faults: %zu plans (%zu fired), %zu failures\n",
                rep.plans, rep.with_throws, rep.failures.size());
    print_failures(rep.failures);
    ok = ok && rep.ok();
  }

  if (service > 0) {
    gothic::service::ServiceFuzzConfig scfg;
    scfg.n = cfg.n;
    scfg.steps = cfg.steps;
    scfg.workers = cfg.workers;
    const auto rep =
        gothic::service::sweep_service_faults(scfg, base_seed, service);
    std::printf("service: %zu pooled runs from %s (%zu sessions faulted, "
                "%zu completed), %zu failures\n",
                rep.runs, hex_seed(base_seed).c_str(), rep.faulted_sessions,
                rep.completed_sessions, rep.failures.size());
    print_failures(rep.failures);
    ok = ok && rep.ok();
  }

  std::printf("gothic_fuzz: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(gothic::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gothic_fuzz: %s\n", e.what());
    return 2;
  }
}
