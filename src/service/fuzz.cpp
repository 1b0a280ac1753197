#include "service/fuzz.hpp"

#include "testkit/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

namespace gothic::service {

namespace {

/// splitmix64 — the same mixer the scenario registry uses for its
/// seed->scenario map; good enough to decorrelate every knob drawn below.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

} // namespace

ServiceFaultOutcome run_service_fault(const ServiceFuzzConfig& cfg,
                                      std::uint64_t seed) {
  ServiceFaultOutcome out;
  const std::uint64_t bits = mix(seed);
  out.devices = 1 + static_cast<int>(bits % 2);
  const int span = std::max(0, cfg.max_sessions - cfg.min_sessions);
  out.sessions =
      cfg.min_sessions + static_cast<int>((bits >> 1) % (span + 1));
  const int kind = static_cast<int>((bits >> 4) % 3);
  out.kind = kind == 0 ? "throw" : (kind == 1 ? "stall" : "arena-oom");

  // The batch: mixed registry scenarios, one optionally sharded (its
  // private shard devices ride along under the same manager contract).
  std::vector<SessionConfig> batch;
  batch.reserve(static_cast<std::size_t>(out.sessions));
  for (int i = 0; i < out.sessions; ++i) {
    const std::uint64_t sbits = mix(seed ^ (0xa5a5ull * (i + 1)));
    SessionConfig sc;
    sc.name = "f";
    sc.name += std::to_string(i);
    sc.scenario = scenario::scenario_from_seed(sbits);
    sc.n = cfg.n;
    sc.seed = (sbits >> 8) | 1; // nonzero: keep the explicit seed
    sc.steps = cfg.steps;
    sc.rebuild_interval = 2;
    if (i == 0 && ((bits >> 6) & 1) != 0) sc.shards = 2;
    batch.push_back(std::move(sc));
  }

  // Solo references before any fault machinery exists: the arena guard is
  // process-wide and must never see these runs.
  std::vector<std::vector<real>> reference;
  reference.reserve(batch.size());
  for (const SessionConfig& sc : batch) {
    reference.push_back(solo_final_state(sc));
  }

  PoolOptions pool;
  pool.devices = out.devices;
  pool.workers = cfg.workers;
  SessionManager mgr(pool);

  // Fault installation (pool idle: nothing submitted yet).
  std::vector<std::unique_ptr<testkit::FaultController>> controllers;
  std::unique_ptr<testkit::ArenaFaultGuard> guard;
  if (kind == 2) {
    guard = std::make_unique<testkit::ArenaFaultGuard>((bits >> 8) % 24);
  } else {
    for (int d = 0; d < mgr.device_count(); ++d) {
      testkit::FaultPlan plan;
      const std::uint64_t fbits = mix(seed ^ (0x51ull * (d + 3)));
      const int hits = 2 + static_cast<int>(fbits % 3);
      for (int k = 0; k < hits; ++k) {
        const std::uint64_t id = 1 + (mix(fbits ^ k) % 40);
        if (kind == 0) plan.throw_at.push_back(id);
        else plan.stall_at.push_back(id);
      }
      plan.stall_for = std::chrono::microseconds(200);
      controllers.push_back(
          std::make_unique<testkit::FaultController>(std::move(plan)));
      mgr.pool_device(d).set_schedule_controller(controllers.back().get());
    }
  }

  std::vector<std::uint64_t> ids;
  ids.reserve(batch.size());
  for (SessionConfig& sc : batch) ids.push_back(mgr.submit(std::move(sc)));
  mgr.wait_all();

  for (int d = 0; d < static_cast<int>(controllers.size()); ++d) {
    out.fired += controllers[static_cast<std::size_t>(d)]->injected_throws();
    out.fired += controllers[static_cast<std::size_t>(d)]->injected_stalls();
    mgr.pool_device(d).set_schedule_controller(nullptr);
  }
  const bool guard_fired = guard != nullptr && guard->fired();
  if (guard_fired) out.fired += 1;
  guard.reset(); // uninstall before anything else allocates

  // The contract.
  auto violation = [&](const std::string& what) {
    if (out.detail.empty()) {
      out.detail = "seed " + hex(seed) + " [" + out.kind + "]: " + what;
    }
  };
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SessionInfo info = mgr.info(ids[i]);
    if (info.state == SessionState::Completed) {
      ++out.completed;
      if (mgr.final_state(ids[i]) != reference[i]) {
        violation("session " + info.name +
                  " survived but diverged from its solo run");
      }
    } else if (info.state == SessionState::Failed) {
      ++out.failed;
      if (info.error.empty()) {
        violation("session " + info.name + " failed without an error");
      }
    } else {
      violation("session " + info.name + " is not terminal after wait_all");
    }
  }
  if (kind == 1 && out.failed != 0) {
    violation("stalls must not fail sessions (failed " +
              std::to_string(out.failed) + ")");
  }
  if (kind == 0 && out.fired > 0 && out.failed == 0) {
    violation("injected throws fired but no session failed");
  }
  if (kind == 2 && guard_fired && out.failed == 0) {
    violation("arena fault fired but no session failed");
  }
  return out;
}

ServiceSweepReport sweep_service_faults(const ServiceFuzzConfig& cfg,
                                        std::uint64_t base_seed,
                                        std::size_t count) {
  ServiceSweepReport rep;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const ServiceFaultOutcome out = run_service_fault(cfg, seed);
    ++rep.runs;
    rep.faulted_sessions += out.failed;
    rep.completed_sessions += out.completed;
    if (!out.ok()) rep.failures.push_back(out.detail);
  }
  return rep;
}

} // namespace gothic::service
