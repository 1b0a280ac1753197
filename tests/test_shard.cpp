// ShardedSimulation: the K-shard pipeline must be bit-identical to the
// single-device Simulation for any shard count and worker count (rebuilds
// included), report per-shard busy time and LET traffic,
// and isolate one shard's launch fault from the other shards' devices.
#include "nbody/sharded_simulation.hpp"
#include "nbody/simulation.hpp"
#include "runtime/device.hpp"
#include "testkit/fault.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

namespace gothic::nbody {
namespace {

Particles plummer(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(1e-6, 0.999);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    double ux, uy, uz;
    rng.unit_vector(ux, uy, uz);
    p.x[i] = static_cast<real>(r * ux);
    p.y[i] = static_cast<real>(r * uy);
    p.z[i] = static_cast<real>(r * uz);
    const double v = 0.5 / std::pow(1.0 + r * r, 0.25);
    rng.unit_vector(ux, uy, uz);
    p.vx[i] = static_cast<real>(v * ux);
    p.vy[i] = static_cast<real>(v * uy);
    p.vz[i] = static_cast<real>(v * uz);
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

/// Fixed rebuild cadence: the bit-identity oracle needs the same rebuild
/// steps in every run regardless of measured kernel times.
SimConfig shard_config() {
  SimConfig cfg;
  cfg.walk.eps = real(0.05);
  cfg.walk.mac.dacc = real(1.0 / 1024);
  cfg.eta = 0.2;
  cfg.dt_max = 1.0 / 64;
  cfg.max_level = 4;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 3;
  return cfg;
}

void expect_state_equal(const Particles& a, const Particles& b,
                        const std::string& what) {
  EXPECT_TRUE(a.x == b.x && a.y == b.y && a.z == b.z) << what << ": positions";
  EXPECT_TRUE(a.vx == b.vx && a.vy == b.vy && a.vz == b.vz)
      << what << ": velocities";
  EXPECT_TRUE(a.ax == b.ax && a.ay == b.ay && a.az == b.az)
      << what << ": accelerations";
  EXPECT_TRUE(a.pot == b.pot) << what << ": potentials";
}

constexpr std::size_t kN = 1536;
constexpr int kSteps = 10; // >= 8, spanning 3 rebuilds at interval 3

TEST(Shard, BitIdenticalToUnshardedAcrossShardCounts) {
  Simulation ref(plummer(kN, 5), shard_config());
  ref.run(kSteps);

  for (const int shards : {1, 2, 4}) {
    ShardOptions opt;
    opt.shards = shards;
    opt.workers = 3;
    ShardedSimulation sim(plummer(kN, 5), shard_config(), opt);
    sim.run(kSteps);
    expect_state_equal(sim.particles(), ref.particles(),
                       "K=" + std::to_string(shards));
    EXPECT_EQ(sim.step_count(), ref.step_count());
    EXPECT_EQ(sim.rebuild_count(), ref.rebuild_count());
    EXPECT_EQ(sim.time(), ref.time());
  }
}

TEST(Shard, BitIdenticalAcrossWorkerCounts) {
  Simulation ref(plummer(kN, 6), shard_config());
  ref.run(kSteps);
  for (const int workers : {1, 4}) {
    ShardOptions opt;
    opt.shards = 2;
    opt.workers = workers;
    ShardedSimulation sim(plummer(kN, 6), shard_config(), opt);
    sim.run(kSteps);
    expect_state_equal(sim.particles(), ref.particles(),
                       "workers=" + std::to_string(workers));
  }
}

TEST(Shard, PartitionBoundsAreContiguousAndCovering) {
  ShardOptions opt;
  opt.shards = 4;
  opt.workers = 2;
  ShardedSimulation sim(plummer(kN, 7), shard_config(), opt);
  sim.run(2);
  const auto& bb = sim.body_bounds();
  const auto& gb = sim.group_bounds();
  ASSERT_EQ(bb.size(), 5u);
  ASSERT_EQ(gb.size(), 5u);
  EXPECT_EQ(bb.front(), 0u);
  EXPECT_EQ(bb.back(), kN);
  EXPECT_EQ(gb.front(), 0u);
  for (std::size_t s = 0; s + 1 < bb.size(); ++s) {
    EXPECT_LE(bb[s], bb[s + 1]);
    EXPECT_LE(gb[s], gb[s + 1]);
  }
}

TEST(Shard, StatsReportBusyTimeAndLetTraffic) {
  ShardOptions opt;
  opt.shards = 4;
  opt.workers = 2;
  ShardedSimulation sim(plummer(kN, 8), shard_config(), opt);
  sim.run(3);
  const ShardStepStats& st = sim.last_shard_stats();
  ASSERT_EQ(st.busy_seconds.size(), 4u);
  ASSERT_EQ(st.let_cells.size(), 4u);
  ASSERT_EQ(st.let_bodies.size(), 4u);
  EXPECT_GT(st.busy_max, 0.0);
  EXPECT_GT(st.busy_mean, 0.0);
  EXPECT_GE(st.busy_max, st.busy_mean);
  EXPECT_GE(st.imbalance(), 1.0);
  // With K > 1 some remote mass is always essential (gravity is global).
  EXPECT_GT(st.let_cells_total, 0u);
  std::uint64_t cells = 0;
  for (std::uint64_t c : st.let_cells) cells += c;
  EXPECT_EQ(cells, st.let_cells_total);
}

TEST(Shard, ListenerReceivesShardedStepMarks) {
  struct Capture final : runtime::RecordListener {
    std::size_t records = 0;
    std::vector<runtime::StepMark> marks;
    void on_record(const runtime::LaunchRecord&) override { ++records; }
    void on_step(const runtime::StepMark& mark) override {
      marks.push_back(mark);
    }
  };
  ShardOptions opt;
  opt.shards = 2;
  opt.workers = 2;
  ShardedSimulation sim(plummer(kN, 9), shard_config(), opt);
  Capture cap;
  sim.set_instrumentation_listener(&cap);
  sim.run(3);
  ASSERT_EQ(cap.marks.size(), 3u);
  EXPECT_GT(cap.records, 0u);
  for (const runtime::StepMark& m : cap.marks) {
    EXPECT_EQ(m.shards, 2);
    EXPECT_GT(m.shard_busy_max, 0.0);
    EXPECT_GT(m.shard_busy_mean, 0.0);
    EXPECT_GE(m.shard_imbalance(), 1.0);
    EXPECT_GT(m.let_cells, 0u);
  }
}

TEST(Shard, FaultInOneShardLeavesAllDevicesReusable) {
  ShardOptions opt;
  opt.shards = 3;
  opt.workers = 2;
  ShardedSimulation sim(plummer(512, 10), shard_config(), opt);
  (void)sim.step(); // fault against steady state, not the bootstrap

  const int target = 1;
  runtime::Device& dev = sim.shard_device(target);
  testkit::FaultPlan plan;
  plan.throw_at.push_back(dev.launch_count() + 2);
  testkit::FaultController ctrl(plan);
  dev.set_schedule_controller(&ctrl);
  EXPECT_THROW((void)sim.step(), testkit::InjectedFault);
  dev.set_schedule_controller(nullptr);
  ASSERT_GT(ctrl.injected_throws(), 0);

  // Every shard device — the faulted one included — accepts new work.
  for (int s = 0; s < 3; ++s) {
    runtime::Stream probe("fault-probe");
    std::atomic<int> ran{0};
    runtime::LaunchDesc desc;
    desc.label = "fault-probe";
    desc.items = 1;
    desc.stream = &probe;
    (void)sim.shard_device(s).launch(desc, [&ran](simt::OpCounts&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    sim.shard_device(s).synchronize();
    EXPECT_EQ(ran.load(), 1) << "shard " << s;
  }
}

TEST(Shard, RefreshForcesMatchesUnsharded) {
  Simulation ref(plummer(kN, 11), shard_config());
  ref.run(4);
  ref.refresh_forces();

  ShardOptions opt;
  opt.shards = 2;
  opt.workers = 2;
  ShardedSimulation sim(plummer(kN, 11), shard_config(), opt);
  sim.run(4);
  sim.refresh_forces();
  expect_state_equal(sim.particles(), ref.particles(), "refresh_forces");
  EXPECT_EQ(sim.energies().total(), ref.energies().total());
}

TEST(Shard, RejectsInvalidOptions) {
  ShardOptions bad;
  bad.shards = 0;
  EXPECT_THROW(ShardedSimulation(plummer(64, 12), shard_config(), bad),
               std::invalid_argument);
  EXPECT_THROW(ShardedSimulation(Particles(), shard_config(), ShardOptions{}),
               std::invalid_argument);
}

TEST(Shard, MoreShardsThanGroupsStillBitIdentical) {
  // 64 bodies make a handful of walk groups; K=4 leaves some shards with
  // little or no work, which must not perturb the result.
  SimConfig cfg = shard_config();
  Simulation ref(plummer(64, 13), cfg);
  ref.run(kSteps);
  ShardOptions opt;
  opt.shards = 4;
  opt.workers = 2;
  ShardedSimulation sim(plummer(64, 13), cfg, opt);
  sim.run(kSteps);
  expect_state_equal(sim.particles(), ref.particles(), "K>groups");
}

} // namespace
} // namespace gothic::nbody
