// Schedule-control seam of the asynchronous launch engine.
//
// The paper's central hazard — implicit-lockstep code that only works under
// the interleavings one scheduler happens to produce — applies to our own
// stream scheduler: the OS exercises a handful of lane interleavings out of
// the combinatorially many the launch DAG admits. A ScheduleController lets
// a test harness (src/testkit) drive the engine through *any* admissible
// interleaving deterministically, and inject faults at chosen launches.
//
// Protocol (serializing controllers). With a controller installed whose
// serializing() is true, the device stops letting lane leaders free-run:
// a leader may only execute the launch currently *granted*. Grants are
// issued exclusively while a host thread is blocked inside Event::wait() /
// Device::synchronize() (the "pump"): the device gathers the set of ready
// launches — each lane's queue head whose dependencies are all complete,
// in lane order — and asks the controller to pick() one. Because launches
// are enqueued by the host thread in program order, and grants are only
// chosen while that thread is blocked, the sequence of choice points the
// controller observes is a pure function of the program — independent of
// OS thread timing. Replaying the same decisions replays the exact
// interleaving.
//
// Non-serializing controllers (serializing() == false) leave the engine
// free-running and only receive the observation / fault hooks — the mode
// the fault harness uses so injected stalls exercise real concurrency.
//
// A device with no controller installed pays one branch per hook site and
// allocates nothing (asserted by test_testkit's zero-overhead test).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace gothic::runtime {

/// One launch admissible for execution right now: the head of its lane's
/// FIFO queue with every dependency complete.
struct ReadyLaunch {
  int lane = 0;
  std::uint64_t id = 0;
  std::array<std::uint64_t, 4> deps{}; ///< dependency launch ids (0 = none)
};

/// Test-harness hook into the launch engine. Installed with
/// Device::set_schedule_controller() while the device is idle; must outlive
/// its installation. All hooks except before_body() run under the device's
/// launch lock: keep them short and never call back into the device.
class ScheduleController {
public:
  virtual ~ScheduleController() = default;

  /// True (the default): the device serializes execution behind a single
  /// grant and calls pick() for every launch. False: free-running
  /// observation/fault mode. Sampled once at installation.
  [[nodiscard]] virtual bool serializing() const { return true; }

  /// A launch was enqueued onto `lane` (issue order == id order).
  virtual void on_enqueue(int lane, std::uint64_t id) {
    (void)lane;
    (void)id;
  }

  /// Serializing mode: choose the next launch to execute. `ready` is
  /// non-empty and sorted by lane index; the return value must be the id
  /// of one of its entries.
  virtual std::uint64_t pick(std::span<const ReadyLaunch> ready) {
    return ready.front().id;
  }

  /// Fault-injection point: runs on the executing thread immediately
  /// before the launch body, *outside* the device lock. May throw (the
  /// exception is handled exactly like a body exception: first-wins,
  /// surfaced by synchronize()) or block (a simulated worker stall).
  virtual void before_body(int lane, std::uint64_t id) {
    (void)lane;
    (void)id;
  }

  /// The launch finished (body returned or threw); called just before the
  /// completion is published to waiters.
  virtual void on_complete(int lane, std::uint64_t id) {
    (void)lane;
    (void)id;
  }
};

} // namespace gothic::runtime
