// gothic_serve — batch driver over the session pool (DESIGN.md, "Session
// layer & multi-tenancy"): sweeps a batch of scenario-registry sessions
// through one service::SessionManager and reports per-session outcomes.
//
//   --sessions=N      batch size (default 6).
//                     Session i cycles the scenario registry unless
//                     --scenario pins one.
//   --devices=N       pool devices / driver threads (default 1)
//   --workers=N       per-device workers (0 = GOTHIC_THREADS default)
//   --steps=N         steps per session (default 8)
//   --n=N             particles per session (0 = scenario default)
//   --seed=S          base seed; session i runs under S + i (default 1)
//   --scenario=SPEC   pin every session to one registry name / config file
//   --shards=K        shard count per session (default 1 = unsharded)
//   --quota=BYTES     per-session arena quota, k/m suffixes accepted
//                     (default 0 = unlimited)
//   --trace-dir=D     per-session Perfetto trace at D/<name>.trace.json
//   --telemetry-dir=D per-session JSONL telemetry at D/<name>.jsonl
//   --snapshot-every=N --snapshot-dir=D
//                     checkpoint stream at D/<name>.bin every N steps
//   --oracle          re-run every completed session solo and require the
//                     pooled final state to match bit-for-bit
//   --metrics         print the metrics registry (service footer included)
//
// Exit code 0 iff every session completed (and, with --oracle, matched);
// 2 for an unknown option or a value out of range (--sessions, --devices,
// --steps and --shards >= 1, --n and --snapshot-every >= 0, --workers in
// [0, Device::kMaxWorkers]), with a message naming the flag.
#include "runtime/device.hpp"
#include "service/session_manager.hpp"
#include "trace/metrics.hpp"
#include "util/args.hpp"
#include "util/env.hpp"

#include <climits>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

namespace {

using gothic::service::SessionConfig;
using gothic::service::SessionInfo;
using gothic::service::SessionState;

int run(const gothic::Args& args) {
  const auto sessions =
      static_cast<int>(args.get_in_range("sessions", 6, 1, INT_MAX));
  gothic::service::PoolOptions pool;
  pool.devices = static_cast<int>(args.get_in_range("devices", 1, 1, INT_MAX));
  pool.workers = static_cast<int>(args.get_in_range(
      "workers", 0, 0, gothic::runtime::Device::kMaxWorkers));
  const auto steps = static_cast<int>(args.get_in_range("steps", 8, 1, INT_MAX));
  const auto n =
      static_cast<std::size_t>(args.get_in_range("n", 0, 0, LLONG_MAX));
  const auto base_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string scenario_spec = args.get("scenario", "");
  const auto shards =
      static_cast<int>(args.get_in_range("shards", 1, 1, INT_MAX));
  const auto quota = gothic::parse_size(args.get("quota", "0"));
  const std::string trace_dir = args.get("trace-dir", "");
  const std::string telemetry_dir = args.get("telemetry-dir", "");
  const auto snapshot_every =
      static_cast<int>(args.get_in_range("snapshot-every", 0, 0, INT_MAX));
  const std::string snapshot_dir = args.get("snapshot-dir", "");
  const bool oracle = args.get_flag("oracle");
  const bool metrics = args.get_flag("metrics");

  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "gothic_serve: unknown option --%s\n", key.c_str());
    return 2;
  }

  // A missing output directory would make every per-session stream fail to
  // open silently; create them up front instead.
  for (const std::string& dir : {trace_dir, telemetry_dir, snapshot_dir}) {
    if (!dir.empty()) std::filesystem::create_directories(dir);
  }

  // The batch: registry-cycled (or pinned) scenarios, consecutive seeds.
  const auto& registry = gothic::scenario::registry();
  std::vector<SessionConfig> batch;
  batch.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    SessionConfig sc;
    sc.name = "s";
    sc.name += std::to_string(i);
    sc.scenario =
        scenario_spec.empty()
            ? registry[static_cast<std::size_t>(i) % registry.size()]
            : gothic::scenario::scenario_from_spec(scenario_spec);
    sc.n = n;
    sc.seed = base_seed + static_cast<std::uint64_t>(i);
    sc.steps = steps;
    sc.shards = shards;
    sc.arena_quota_bytes = quota;
    if (!trace_dir.empty()) {
      sc.trace_path = trace_dir + "/" + sc.name + ".trace.json";
    }
    if (!telemetry_dir.empty()) {
      sc.telemetry_path = telemetry_dir + "/" + sc.name + ".jsonl";
    }
    if (snapshot_every > 0 && !snapshot_dir.empty()) {
      sc.snapshot_every = snapshot_every;
      sc.snapshot_path = snapshot_dir + "/" + sc.name + ".bin";
    }
    batch.push_back(sc);
  }

  gothic::service::SessionManager mgr(pool);
  gothic::runtime::Device& first = mgr.pool_device(0);
  std::printf("gothic_serve: %d sessions x %d steps on %d device(s)"
              " (workers=%d lanes=%d shards=%d quota=%zu B)\n",
              sessions, steps, mgr.device_count(), first.workers(),
              first.lane_count(), shards, quota);

  std::vector<std::uint64_t> ids;
  ids.reserve(batch.size());
  for (const SessionConfig& sc : batch) ids.push_back(mgr.submit(sc));
  mgr.wait_all();

  bool ok = true;
  std::printf("%-4s %-8s %-14s %-9s %7s %9s %10s %5s %5s %s\n", "id",
              "name", "scenario", "state", "steps", "busy_s", "charged_B",
              "picks", "dev", "error");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SessionInfo info = mgr.info(ids[i]);
    std::printf("%-4llu %-8s %-14s %-9s %3d/%-3d %9.4f %10zu %5llu %5d %s\n",
                static_cast<unsigned long long>(info.id), info.name.c_str(),
                info.scenario.c_str(), session_state_name(info.state),
                info.steps_done, info.steps_target, info.busy_seconds,
                info.charged_bytes,
                static_cast<unsigned long long>(info.picks),
                info.last_device, info.error.c_str());
    if (info.state != SessionState::Completed) ok = false;
    if (oracle && info.state == SessionState::Completed &&
        mgr.final_state(ids[i]) !=
            gothic::service::solo_final_state(batch[i])) {
      std::printf("  ORACLE MISMATCH: %s diverged from its solo run\n",
                  info.name.c_str());
      ok = false;
    }
  }

  const gothic::service::ServiceStats st = mgr.stats();
  std::printf("gothic_serve: %llu completed, %llu failed; %llu steps, "
              "%.4f busy s, %llu decisions, wait_max %llu "
              "(bound_max %llu)\n",
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.steps_total),
              st.busy_seconds_total,
              static_cast<unsigned long long>(st.decisions),
              static_cast<unsigned long long>(st.wait_max),
              static_cast<unsigned long long>(st.starvation_bound_max));
  if (oracle) {
    std::printf("gothic_serve: oracle %s\n",
                ok ? "OK (survivors bit-identical to solo runs)"
                   : "FAILED");
  }

  if (metrics) {
    gothic::trace::MetricsRegistry reg;
    mgr.observe(reg); // pool idle after wait_all()
    reg.print(std::cout);
  }
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(gothic::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gothic_serve: %s\n", e.what());
    return 2;
  }
}
