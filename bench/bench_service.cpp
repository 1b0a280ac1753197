// Session-pool throughput — the serving shape of the ROADMAP: many small
// scenario sessions multiplexed onto a shared device pool (DESIGN.md,
// "Session layer & multi-tenancy").
//
// Sweeps pool size x session count over registry-cycled sessions and
// reports aggregate throughput (sessions/s, steps/s), pool busy seconds
// and the scheduler's fairness counters. Every completed session is
// compared bit-for-bit against a solo run of the same scenario+seed — the
// session contract says pooling changes only *when* quanta run, never
// what they compute.
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "service/session_manager.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

int main() {
  using namespace gothic;
  using namespace gothic::bench;
  using namespace gothic::service;

  const BenchScale scale = BenchScale::from_env();
  // Serving is many *small* sessions: size each tenant well below the
  // figure benches' single-simulation N so the sweep stays laptop-scale.
  const std::size_t n = std::max<std::size_t>(192, scale.n / 64);
  const int steps = std::max(2, scale.steps);
  const int kMaxSessions = 8;

  std::cout << "# session pool: n/session = " << n << ", steps/session = "
            << steps << ", workers/device = " << scale.threads
            << " (override with GOTHIC_BENCH_N / GOTHIC_BENCH_STEPS / "
               "GOTHIC_THREADS)\n";

  // One batch shape shared by every cell: registry-cycled scenarios with
  // consecutive seeds. Cells with fewer sessions use a prefix, so the
  // solo references can be computed once.
  const auto& registry = scenario::registry();
  std::vector<SessionConfig> batch;
  std::vector<std::vector<real>> reference;
  for (int i = 0; i < kMaxSessions; ++i) {
    SessionConfig sc;
    sc.name = "s";
    sc.name += std::to_string(i);
    sc.scenario = registry[static_cast<std::size_t>(i) % registry.size()];
    sc.n = n;
    sc.seed = 1 + static_cast<std::uint64_t>(i);
    sc.steps = steps;
    sc.rebuild_interval = 4;
    batch.push_back(sc);
    reference.push_back(solo_final_state(sc));
  }

  BenchReport rep("service");
  rep.set_scale(scale);
  Table t("Session-pool throughput (registry-cycled sessions, n = " +
              std::to_string(n) + "/session, " + std::to_string(steps) +
              " steps/session)",
          {"devices", "sessions", "elapsed [s]", "sessions/s", "steps/s",
           "busy [s]", "wait_max", "bound_max", "identical"});

  bool all_ok = true;
  for (const int devices : {1, 2}) {
    for (const int sessions : {2, kMaxSessions}) {
      PoolOptions pool;
      pool.devices = devices;
      pool.workers = scale.threads;
      SessionManager mgr(pool);

      std::vector<std::uint64_t> ids;
      const Stopwatch clock;
      for (int i = 0; i < sessions; ++i) {
        ids.push_back(mgr.submit(batch[static_cast<std::size_t>(i)]));
      }
      mgr.wait_all();
      const double elapsed = clock.seconds();

      bool identical = true;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const SessionInfo info = mgr.info(ids[i]);
        if (info.state != SessionState::Completed ||
            mgr.final_state(ids[i]) != reference[i]) {
          identical = false;
        }
      }
      all_ok = all_ok && identical;

      const ServiceStats st = mgr.stats();
      t.add_row({std::to_string(devices), std::to_string(sessions),
                 Table::sci(elapsed), Table::fix(sessions / elapsed, 2),
                 Table::fix(static_cast<double>(st.steps_total) / elapsed, 2),
                 Table::sci(st.busy_seconds_total),
                 std::to_string(st.wait_max),
                 std::to_string(st.starvation_bound_max),
                 identical ? "yes" : "NO"});
    }
  }

  t.print(std::cout);
  std::cout << "sessions/s and steps/s = completed work over the submit-to-"
               "drain wall time of one batch.\n"
            << "wait_max = worst runnable-but-passed-over streak; the "
               "scheduler guarantees wait_max <= bound_max + sessions.\n";
  std::cout << "bitwise identity vs solo runs: " << (all_ok ? "PASS" : "FAIL")
            << "\n";

  rep.add_table(t);
  rep.add_note(std::string("bitwise identity vs solo per-session runs: ") +
               (all_ok ? "PASS" : "FAIL"));
  rep.add_note("sessions cycle the scenario registry with consecutive "
               "seeds; fixed rebuild interval 4 pins the oracle");
  rep.write(std::cout);
  return all_ok ? 0 : 1;
}
