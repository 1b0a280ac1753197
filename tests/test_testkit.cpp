// The testkit itself: deterministic schedule exploration (DFS enumeration,
// seeded replay), the in-order reference schedule, the invariant checks of
// RecordingController, the fuzz drivers over Simulation::step
// (bit-identity against the in-order reference across hundreds of
// distinct interleavings), fault injection
// (launch-body exceptions, worker stalls, arena exhaustion) with the
// first-wins error contract and device reuse, complete records for a
// faulted DAG's replay, and the zero-overhead guarantee when no
// schedule controller is installed.
#include "testkit/fault.hpp"
#include "testkit/fuzz.hpp"
#include "testkit/schedule.hpp"

#include "runtime/arena.hpp"
#include "runtime/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

// --- global allocation counter (for the zero-overhead-when-off test) ------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// The replaced operator new and delete stay out of line: inlined where
// GCC sees both ends of one allocation, malloc() paired with operator
// delete, or operator new with free(), reads as a mismatch
// (-Wmismatched-new-delete), though both ends are these replacements.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too: left to the runtime, they would pair its own
// allocation with the free() below (an alloc-dealloc mismatch under ASan).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace gothic::testkit {
namespace {

using runtime::Device;
using runtime::Event;
using runtime::LaunchDesc;
using runtime::ReadyLaunch;
using runtime::Stream;

/// Issue one tagged launch whose body appends its tag to `order`.
Event issue_tagged(Device& dev, Stream& s, const char* label, int tag,
                   std::vector<int>& order, std::mutex& mu,
                   Event dep = Event{}) {
  LaunchDesc desc;
  desc.label = label;
  desc.items = 1;
  desc.stream = &s;
  desc.deps = {dep, Event{}, Event{}, Event{}};
  return dev.launch(desc, [&order, &mu, tag](simt::OpCounts&) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  });
}

// --- schedule control: hand-built DAGs ------------------------------------

TEST(ScheduleControl, TwoIndependentChainsEnumerateAllSixInterleavings) {
  // Streams A and B each carry a 2-chain with no cross dependencies; the
  // admissible interleavings of two FIFO pairs are C(4,2) = 6, and the DFS
  // must find exactly those.
  std::set<std::string> signatures;
  std::vector<std::size_t> path;
  int runs = 0;
  for (;;) {
    ScriptedSchedule ctrl(path);
    Device dev(2);
    dev.set_schedule_controller(&ctrl);
    Stream a("A");
    Stream b("B");
    std::mutex mu;
    std::vector<int> order;
    (void)issue_tagged(dev, a, "a1", 1, order, mu);
    (void)issue_tagged(dev, a, "a2", 2, order, mu);
    (void)issue_tagged(dev, b, "b1", 3, order, mu);
    (void)issue_tagged(dev, b, "b2", 4, order, mu);
    dev.synchronize();
    ASSERT_TRUE(ctrl.violations().empty()) << ctrl.violations().front();
    // The grant order the controller recorded is the order the bodies ran.
    ASSERT_EQ(order.size(), 4u);
    ASSERT_EQ(ctrl.executed().size(), 4u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint64_t>(order[i]), ctrl.executed()[i]);
    }
    signatures.insert(ctrl.signature());
    dev.set_schedule_controller(nullptr);
    ++runs;
    auto next = ScriptedSchedule::next_path(ctrl.decisions());
    if (!next) break;
    path = std::move(*next);
    ASSERT_LT(runs, 64) << "DFS failed to terminate";
  }
  EXPECT_EQ(runs, 6);
  EXPECT_EQ(signatures.size(), 6u);
}

TEST(ScheduleControl, SeededReplayReproducesTheExactInterleaving) {
  auto run = [](std::uint64_t seed) {
    SeededSchedule ctrl(seed);
    Device dev(2);
    dev.set_schedule_controller(&ctrl);
    Stream a("A");
    Stream b("B");
    std::mutex mu;
    std::vector<int> order;
    (void)issue_tagged(dev, a, "a1", 1, order, mu);
    (void)issue_tagged(dev, a, "a2", 2, order, mu);
    (void)issue_tagged(dev, b, "b1", 3, order, mu);
    (void)issue_tagged(dev, b, "b2", 4, order, mu);
    dev.synchronize();
    EXPECT_TRUE(ctrl.violations().empty());
    dev.set_schedule_controller(nullptr);
    return ctrl.signature();
  };
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const std::string first = run(seed);
    EXPECT_EQ(first, run(seed)) << "seed " << hex_seed(seed);
    distinct.insert(first);
  }
  // 32 draws over 6 admissible interleavings must hit several of them.
  EXPECT_GT(distinct.size(), 2u);
}

TEST(ScheduleControl, EventWaitObservesACompletedLaunch) {
  SeededSchedule ctrl(11);
  Device dev(2);
  dev.set_schedule_controller(&ctrl);
  Stream a("A");
  std::mutex mu;
  std::vector<int> order;
  const Event e1 = issue_tagged(dev, a, "a1", 1, order, mu);
  (void)issue_tagged(dev, a, "a2", 2, order, mu);
  e1.wait(); // drives the grant pump until launch 1 completed
  EXPECT_TRUE(ctrl.is_complete(e1.id));
  dev.synchronize();
  EXPECT_TRUE(ctrl.violations().empty());
  EXPECT_EQ(ctrl.executed().size(), 2u);
  dev.set_schedule_controller(nullptr);
}

TEST(ScheduleControl, InstallingWhileLaunchesAreInFlightThrows) {
  Device dev(2);
  Stream a("A");
  std::atomic<bool> release{false};
  LaunchDesc desc;
  desc.label = "block";
  desc.items = 1;
  desc.stream = &a;
  (void)dev.launch(desc, [&release](simt::OpCounts&) {
    while (!release.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  SeededSchedule ctrl(1);
  EXPECT_THROW(dev.set_schedule_controller(&ctrl), std::logic_error);
  release.store(true, std::memory_order_relaxed);
  dev.synchronize();
  dev.set_schedule_controller(&ctrl); // idle now: accepted
  dev.set_schedule_controller(nullptr);
}

TEST(ScheduleControl, RecordingControllerFlagsStreamReordering) {
  // The invariant checks themselves must fire: offering a launch that is
  // not its lane's FIFO head (a stream reorder) is a violation.
  SeededSchedule ctrl(1);
  ctrl.on_enqueue(0, 1);
  ctrl.on_enqueue(0, 2);
  const ReadyLaunch wrong{0, 2, {0, 0, 0, 0}};
  (void)ctrl.pick(std::span<const ReadyLaunch>(&wrong, 1));
  ASSERT_FALSE(ctrl.violations().empty());
  EXPECT_NE(ctrl.violations().front().find("head of lane"), std::string::npos);
}

TEST(ScheduleControl, RecordingControllerFlagsDependencyInversion) {
  SeededSchedule ctrl(1);
  ctrl.on_enqueue(0, 1);
  ctrl.on_enqueue(1, 2);
  // Launch 2 offered while its dependency (1) has not completed.
  const ReadyLaunch inverted{1, 2, {1, 0, 0, 0}};
  (void)ctrl.pick(std::span<const ReadyLaunch>(&inverted, 1));
  ASSERT_FALSE(ctrl.violations().empty());
  EXPECT_NE(ctrl.violations().front().find("before dependency"),
            std::string::npos);
}

TEST(ScheduleControl, NextPathWalksTheDecisionTreeDepthFirst) {
  using D = ScriptedSchedule::Decision;
  auto n1 = ScriptedSchedule::next_path({D{0, 2}, D{1, 2}});
  ASSERT_TRUE(n1.has_value());
  EXPECT_EQ(*n1, (std::vector<std::size_t>{1}));
  auto n2 = ScriptedSchedule::next_path({D{0, 3}, D{0, 2}});
  ASSERT_TRUE(n2.has_value());
  EXPECT_EQ(*n2, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(ScriptedSchedule::next_path({D{1, 2}, D{1, 2}}).has_value());
  EXPECT_FALSE(ScriptedSchedule::next_path({}).has_value());
}

// --- schedule fuzzing over Simulation::step -------------------------------

TEST(ScheduleFuzz, InOrderReferenceIsSerialAndMatchesFreeRunning) {
  // The reference every oracle compares against: under InOrderSchedule
  // the step engine's launches execute one at a time with consecutive ids
  // from the first enqueued one, without a violation, and the state
  // equals a free-running run at every worker count.
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    FuzzConfig cfg;
    cfg.workers = workers;
    InOrderSchedule ctrl;
    const std::vector<real> serial = run_controlled(cfg, &ctrl);
    EXPECT_TRUE(ctrl.violations().empty()) << ctrl.violations().front();
    ASSERT_EQ(ctrl.executed().size(), ctrl.enqueued());
    ASSERT_FALSE(ctrl.executed().empty());
    for (std::size_t i = 0; i < ctrl.executed().size(); ++i) {
      EXPECT_EQ(ctrl.executed()[i], ctrl.executed().front() + i);
    }
    EXPECT_EQ(serial, run_controlled(cfg, nullptr));
    const Reference ref = in_order_reference(cfg);
    EXPECT_EQ(ref.state, serial);
    EXPECT_TRUE(ref.violations.empty());
  }
}

TEST(ScheduleFuzz, EnumerationCoversHundredsOfDistinctInterleavings) {
  // The acceptance gate: >= 256 distinct recorded interleavings of the
  // multi-stream step DAG, each bit-identical to the in-order reference.
  // With 10 steps at rebuild interval 1 the schedule tree has 2^9 leaves;
  // 264 DFS runs are 264 distinct interleavings.
  const FuzzConfig cfg;
  const SweepReport rep = enumerate_schedules(cfg, 264);
  EXPECT_EQ(rep.runs, 264u);
  EXPECT_GE(rep.signatures.size(), 256u);
  EXPECT_GT(rep.decision_points_total, rep.runs); // multi-decision schedules
  EXPECT_TRUE(rep.ok()) << rep.failures.front();
}

TEST(ScheduleFuzz, SeededSweepIsCleanAndSeedsReplayDeterministically) {
  FuzzConfig cfg;
  cfg.steps = 6;
  const SweepReport rep = sweep_seeds(cfg, 0x5eed, 24);
  EXPECT_EQ(rep.runs, 24u);
  EXPECT_TRUE(rep.failing_seeds.empty());
  EXPECT_GT(rep.signatures.size(), 1u);
  EXPECT_TRUE(rep.ok()) << rep.failures.front();

  const Reference ref = in_order_reference(cfg);
  EXPECT_TRUE(ref.violations.empty());
  const RunOutcome once = replay_seed(cfg, 0x5eed, ref.state);
  const RunOutcome twice = replay_seed(cfg, 0x5eed, ref.state);
  EXPECT_EQ(once.signature, twice.signature);
  EXPECT_TRUE(once.bit_identical);
  EXPECT_TRUE(once.violations.empty());
}

// --- fault injection ------------------------------------------------------

TEST(FaultInjection, LaunchBodyExceptionPropagatesOnceAndDeviceRecovers) {
  FaultPlan plan;
  plan.throw_at = {3};
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_EQ(out.injected_throws, 1);
  EXPECT_TRUE(out.error_thrown);
  EXPECT_TRUE(out.single_error);
  EXPECT_TRUE(out.device_reusable);
  EXPECT_TRUE(out.bodies_consistent);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, TwoInjectedThrowsPropagateExactlyOneError) {
  FaultPlan plan;
  plan.throw_at = {2, 5};
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_EQ(out.injected_throws, 2);
  EXPECT_TRUE(out.error_thrown); // first wins...
  EXPECT_TRUE(out.single_error); // ...and it propagates exactly once
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, WorkerStallsDelayButNeverCorrupt) {
  FaultPlan plan;
  plan.stall_at = {1, 6};
  plan.stall_for = std::chrono::microseconds(2000);
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_EQ(out.injected_stalls, 2);
  EXPECT_FALSE(out.error_thrown);
  EXPECT_TRUE(out.bodies_consistent);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, MixedThrowAndStallPlanUpholdsTheContract) {
  FaultPlan plan;
  plan.throw_at = {4};
  plan.stall_at = {2};
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_TRUE(out.error_thrown);
  EXPECT_TRUE(out.device_reusable);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, StalledSimulationStepsStayBitIdentical) {
  // Stalls under the free-running engine (no serialization) must only cost
  // time: the step results remain bit-identical to the in-order reference.
  FuzzConfig cfg;
  cfg.steps = 4;
  const Reference ref = in_order_reference(cfg);
  EXPECT_TRUE(ref.violations.empty());
  FaultPlan plan;
  plan.stall_at = {3, 7, 12};
  plan.stall_for = std::chrono::microseconds(1500);
  FaultController ctrl(plan);
  const std::vector<real> state = run_controlled(cfg, &ctrl);
  EXPECT_EQ(ctrl.injected_stalls(), 3);
  EXPECT_EQ(state, ref.state);
}

TEST(FaultInjection, ArenaExhaustionFailsAllocationAndArenaRecovers) {
  runtime::Arena arena;
  {
    ArenaFaultGuard guard(0);
    EXPECT_THROW((void)arena.allocate(128), std::bad_alloc);
    EXPECT_TRUE(guard.fired());
    EXPECT_EQ(guard.grows_seen(), 1u);
  }
  // Hook uninstalled: the same arena grows normally again.
  void* p = arena.allocate(128);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(arena.heap_allocations(), 1u);
}

TEST(FaultInjection, ArenaExhaustionInLaunchBodyPropagatesAndDeviceRecovers) {
  Device dev(2);
  Stream a("A");
  LaunchDesc desc;
  desc.label = "arena-fault";
  desc.items = 1;
  desc.stream = &a;
  auto alloc_body = [](simt::OpCounts&) {
    Device::current().for_workers([](runtime::Worker& w) {
      w.arena.reset();
      (void)w.arena.allocate(256);
    });
  };
  {
    ArenaFaultGuard guard(0);
    (void)dev.launch(desc, alloc_body);
    EXPECT_THROW(dev.synchronize(), std::bad_alloc);
    EXPECT_TRUE(guard.fired());
  }
  // The failed grow left no partial chunk: the same launch now succeeds and
  // the device is fully reusable.
  (void)dev.launch(desc, alloc_body);
  dev.synchronize();
}

TEST(FaultInjection, ListenersNeverSeeTornRecords) {
  // Every launch — including one whose body throws — must leave exactly
  // one complete record for the listener the owner replays the sink into
  // after the join: valid id, interned names, coherent timestamps.
  class CollectingListener final : public runtime::RecordListener {
  public:
    void on_record(const runtime::LaunchRecord& rec) override {
      if (rec.id == 0 || rec.label == nullptr || rec.stream == nullptr ||
          rec.t_begin < 0.0 || rec.t_end < rec.t_begin || rec.workers <= 0) {
        ++torn;
      }
      ids.push_back(rec.id);
    }
    int torn = 0;
    std::vector<std::uint64_t> ids;
  };

  FaultPlan plan;
  plan.throw_at = {2};
  FaultController ctrl(plan);
  CollectingListener listener;
  Device dev(2);
  dev.set_schedule_controller(&ctrl);
  Stream a("A");
  Stream b("B");
  std::mutex mu;
  std::vector<int> order;
  const Event e1 = issue_tagged(dev, a, "a1", 1, order, mu);
  const Event e2 = issue_tagged(dev, b, "b1", 2, order, mu);
  (void)issue_tagged(dev, a, "a2", 3, order, mu, e2);
  (void)issue_tagged(dev, b, "b2", 4, order, mu, e1);
  EXPECT_THROW(dev.synchronize(), InjectedFault);
  dev.set_schedule_controller(nullptr);
  for (const runtime::LaunchRecord& rec : dev.sink().step_records()) {
    listener.on_record(rec);
  }

  EXPECT_EQ(listener.torn, 0);
  const std::set<std::uint64_t> seen(listener.ids.begin(),
                                     listener.ids.end());
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(listener.ids.size(), 4u); // exactly once each
}

// --- zero overhead when no controller is installed ------------------------

TEST(ScheduleControl, NoControllerSteadyStateLaunchesAreAllocationFree) {
  // The schedule seam must cost nothing when unused: with no controller
  // installed, steady-state launches perform zero heap allocations
  // (same discipline as the trace layer's zero-overhead guarantee).
  Device dev(2);
  ASSERT_EQ(dev.schedule_controller(), nullptr);
  Stream a("A");
  Stream b("B");
  std::atomic<int> n{0};
  auto round = [&] {
    dev.sink().begin_step();
    for (int i = 0; i < 8; ++i) {
      LaunchDesc desc;
      desc.label = "steady";
      desc.items = 1;
      desc.stream = (i & 1) != 0 ? &b : &a;
      (void)dev.launch(desc, [&n](simt::OpCounts&) {
        n.fetch_add(1, std::memory_order_relaxed);
      });
    }
    dev.synchronize();
  };
  for (int i = 0; i < 4; ++i) round(); // warm-up: nodes, lanes, interning
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) round();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(n.load(std::memory_order_relaxed), 12 * 8);
}

} // namespace
} // namespace gothic::testkit
