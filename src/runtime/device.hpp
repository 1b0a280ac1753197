// runtime::Device — the unified kernel-launch layer.
//
// GOTHIC's host code does three things for every device kernel: place it on
// a stream behind its dependencies, give it persistent scratch sized at
// start-up, and measure it (the paper's per-function breakdown, Figs 3-5).
// Device bundles exactly those three services for the simulated kernels:
//
//  * a persistent worker pool whose size is GOTHIC_THREADS-overridable,
//    with one cache-line-padded Worker slot per pool worker carrying a
//    scratch Arena that retains its high-water capacity across launches;
//    a level-synchronous kernel runs as one cooperative collective whose
//    phases sync on the pool's grid barrier (Grid::sync);
//  * Stream/Event scheduling: launches enqueue onto their stream's lane —
//    one of two FIFO queues, each with a leader thread, built with the
//    device — and execute as soon as their dependency events complete, so
//    independent streams (the step loop's predict ∥ makeTree) genuinely
//    overlap, while each collective runs on the whole pool (one at a
//    time), as a kernel on any stream can fill every SM of a GPU.
//    Event::wait() and synchronize() are real completion handles. A
//    serial run is one schedule of the same DAG, forced through the
//    schedule-control seam (runtime/schedule.hpp);
//  * per-launch instrumentation: every launch emits a LaunchRecord (with
//    begin/end timestamps on the process clock, process_seconds()) into
//    an InstrumentationSink.
//
// Kernels obtain the device with Device::current(): the thread-local
// override installed by ScopedDevice (tests pin worker counts this way) or
// else the process-wide shared() device. Inside a launch body, current()
// resolves to the issuing device and its collectives run
// on the whole pool over the lane's own worker slots (workers() reports
// the pool size everywhere), so kernels are oblivious to which scheduler
// drives them.
#pragma once

#include "runtime/arena.hpp"
#include "runtime/schedule.hpp"
#include "runtime/stream.hpp"
#include "simt/op_counter.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gothic::simt {
class LockFreeBarrier;
}

namespace gothic::runtime {

/// Per-member execution context handed to range bodies: a stable worker
/// index 0..workers()-1 and the slot's scratch arena. The host and each
/// lane own a full set of slots, so a launch body keeps its arenas across
/// all its collectives. Padded to a cache line so neighbouring workers
/// never false-share.
struct alignas(64) Worker {
  int id = 0;
  Arena arena;
  /// Cumulative nanoseconds this worker spent executing collective bodies
  /// (written by the worker's own thread around each job; relaxed atomic so
  /// introspection may sample it concurrently). The max/mean spread across
  /// workers is the load-imbalance signal trace::MetricsRegistry reports.
  std::atomic<std::uint64_t> busy_ns{0};

  [[nodiscard]] double busy_seconds() const {
    return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

/// A cooperative body's view of its collective (Device::cooperative).
/// sync() is the grid-wide barrier of the paper's Appendix A — GOTHIC's
/// lock-free barrier, run between the phases of one fork/join instead of
/// one fork/join per phase.
class Grid {
public:
  Grid(simt::LockFreeBarrier* barrier, int worker)
      : barrier_(barrier), worker_(worker) {}

  /// Return once every worker of the collective has called sync() as
  /// often as this one: everything any worker wrote before it is visible
  /// to every worker after it. Every worker must make the same sequence of
  /// calls. Once another worker's body has thrown, sync() unwinds instead
  /// of waiting, so the collective ends and rethrows that first exception.
  /// A no-op that touches no shared state on a 1-worker device.
  void sync();

private:
  simt::LockFreeBarrier* barrier_; ///< null on a 1-worker device
  int worker_;
};

class Device {
public:
  /// `workers` <= 0 selects the default: GOTHIC_THREADS when set, else the
  /// hardware concurrency. Starts the device's kLanes lane leaders.
  explicit Device(int workers = 0);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// The process-wide device (created on first use).
  static Device& shared();
  /// The device kernels should run on: the innermost ScopedDevice override
  /// on this thread, the owning device inside a launch body, or
  /// shared().
  static Device& current();

  /// Workers every collective runs on: the pool size, inside a launch body
  /// or not.
  [[nodiscard]] int workers() const;

  /// The `i`-th worker slot of the current execution context (the lane's
  /// slot inside a launch body, the host pool's otherwise). Serial
  /// access only — never while a collective *of this context* is in
  /// flight; other lanes' collectives use their own slots.
  [[nodiscard]] Worker& context_worker(int i);

  /// The worker-count default the constructor would resolve for
  /// `workers <= 0` (GOTHIC_THREADS-aware); exposed for bench metadata.
  static int default_workers();
  /// Always true: every device schedules launches on its stream lanes.
  /// Kept for bench/e2e's device fingerprint.
  [[nodiscard]] bool async() const { return true; }

  // --- collectives --------------------------------------------------------
  // All collectives run on the calling thread (context worker 0) plus the
  // pool's remaining threads, over the calling context's worker slots, and
  // return only when every worker finished; a collective issued while
  // another context's is running waits for it. Exceptions thrown by bodies
  // are recorded first-wins and exactly one is rethrown on the caller; the
  // pool stays reusable. Bodies must not re-enter the device.

  /// Cooperative collective: invoke `fn(Worker&, Grid&)` once per context
  /// worker — a worker with no work included — as one fork/join whose
  /// phases the body separates with Grid::sync(). The barrier belongs to
  /// the pool (no allocation per call). Level-synchronous kernels use it
  /// as GOTHIC does: one launch, a grid barrier between levels.
  template <typename Fn>
  void cooperative(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    dispatch(+[](void* ctx, Worker& w, Grid& g) {
      (*static_cast<F*>(ctx))(w, g);
    }, &fn);
  }

  /// Invoke `fn(Worker&)` once per context worker: a cooperative
  /// collective that never syncs.
  template <typename Fn>
  void for_workers(Fn&& fn) {
    cooperative([&fn](Worker& w, Grid&) { fn(w); });
  }

  /// Invoke `fn(Worker&, lo, hi)` on each worker's contiguous chunk of
  /// [begin, end) — a static schedule of ceil(n / workers) items. The chunk
  /// map is fixed for the whole launch (the context's worker count never
  /// changes mid-launch), so any per-chunk-stable algorithm sees one
  /// consistent partition.
  template <typename Fn>
  void parallel_ranges(std::size_t begin, std::size_t end, Fn&& fn) {
    if (end <= begin) return;
    for_workers([&](Worker& w) {
      const Chunk c = static_chunk(w.id, begin, end);
      if (c.lo < c.hi) fn(w, c.lo, c.hi);
    });
  }

  /// Plain parallel loop: `fn(i)` for i in [begin, end).
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    parallel_ranges(begin, end,
                    [&fn](Worker&, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) fn(i);
                    });
  }

  /// Hard ceiling on the worker count of any device (the constructor
  /// clamps above it). Lets per-worker bookkeeping use fixed-size stack
  /// scratch instead of allocating per call.
  static constexpr int kMaxWorkers = 256;

  /// Dynamic schedule: workers repeatedly claim contiguous chunks of
  /// `chunk` items (0 = dynamic_chunk_size()) from a shared atomic cursor
  /// until [begin, end) is exhausted, so a worker that draws cheap items
  /// keeps pulling while an expensive chunk pins its neighbour. `fn` runs
  /// once per claimed chunk as fn(Worker&, lo, hi); all invocations handed
  /// to one worker are sequential on that worker's thread, so per-worker
  /// state initialised on the first call stays valid. Which worker runs
  /// which chunk is nondeterministic — callers needing bit-stable results
  /// must make fn's effect independent of the assignment (disjoint output
  /// slots, commutative tallies), exactly the walk_tree contract.
  /// Allocation-free; the cursor lives on the caller's stack.
  template <typename Fn>
  void parallel_dynamic(std::size_t begin, std::size_t end, std::size_t chunk,
                        Fn&& fn) {
    if (end <= begin) return;
    if (chunk == 0) chunk = dynamic_chunk_size(end - begin);
    std::atomic<std::size_t> cursor{begin};
    for_workers([&](Worker& w) {
      for (;;) {
        const std::size_t lo = cursor.fetch_add(chunk,
                                                std::memory_order_relaxed);
        if (lo >= end) return;
        fn(w, lo, std::min(end, lo + chunk));
      }
    });
  }

  /// Chunk length for ~8 claims per worker over `items` items, so the
  /// queue can rebalance without the cursor becoming a hot spot; what
  /// parallel_dynamic defaults to with items = end - begin.
  [[nodiscard]] std::size_t dynamic_chunk_size(std::size_t items) const {
    const auto nw = static_cast<std::size_t>(workers());
    return std::max<std::size_t>(1, items / (nw * 8));
  }

  /// The contiguous chunk length parallel_ranges assigns per worker.
  [[nodiscard]] std::size_t chunk_size(std::size_t begin,
                                       std::size_t end) const {
    const std::size_t n = end - begin;
    const auto nw = static_cast<std::size_t>(workers());
    return (n + nw - 1) / nw;
  }

  /// Worker `id`'s chunk [lo, hi) of [begin, end) under parallel_ranges'
  /// static schedule; empty (lo == hi) once the range ran out.
  struct Chunk {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  [[nodiscard]] Chunk static_chunk(int id, std::size_t begin,
                                   std::size_t end) const {
    const std::size_t chunk = chunk_size(begin, end);
    const std::size_t lo = std::min(
        end, begin + static_cast<std::size_t>(id) * chunk);
    return {lo, std::min(end, lo + chunk)};
  }

  // --- launch layer -------------------------------------------------------

  /// Upper bound on the captured state of a launch body (the body is
  /// copied into a fixed slot of the launch queue — capture `this` or a
  /// few references, not arrays).
  static constexpr std::size_t kMaxBodyBytes = 256;

  /// Launch one kernel: `fn(ops)` runs once, accumulating the kernel's
  /// operation tallies, and one LaunchRecord is emitted with the measured
  /// wall time and begin/end timestamps. Returns the launch's completion
  /// event.
  ///
  /// The body is enqueued onto the stream's lane and launch() returns
  /// immediately; the body starts once every dependency event has
  /// completed (streams themselves are FIFO). The caller must keep
  /// everything the body references alive until the event completes, and
  /// a body must not issue launches of its own. Body exceptions are held
  /// and rethrown (first one wins) by the next synchronize().
  template <typename Fn>
  Event launch(const LaunchDesc& desc, Fn&& fn) {
    using F = std::decay_t<Fn>;
    static_assert(sizeof(F) <= kMaxBodyBytes && alignof(F) <= 64,
                  "launch body captures too much state; capture `this` or "
                  "a few references");
    return enqueue(
        desc,
        +[](void* body, simt::OpCounts& ops) {
          (*static_cast<F*>(body))(ops);
        },
        +[](void* dst, const void* src) {
          ::new (dst) F(*static_cast<const F*>(src));
        },
        +[](void* body) { static_cast<F*>(body)->~F(); },
        std::addressof(fn));
  }

  /// Block until the launch with the given id completed (its body
  /// returned or threw). Immediate for already-complete ids.
  void wait_event(std::uint64_t id);

  /// Block until every issued launch completed, then rethrow the first
  /// exception a launch body raised since the previous synchronize()
  /// (clearing it, so the device stays usable).
  void synchronize();

  /// Default destination of LaunchRecords when LaunchDesc::sink is null.
  [[nodiscard]] InstrumentationSink& sink() { return sink_; }

  // --- schedule control (testkit seam) ------------------------------------

  /// Install (or remove, with nullptr) a schedule controller. Only while
  /// the device is idle (no launches in flight) — throws std::logic_error
  /// otherwise. The controller must outlive its installation; its
  /// serializing() flag is sampled here. See runtime/schedule.hpp for the
  /// grant protocol.
  void set_schedule_controller(ScheduleController* c);
  [[nodiscard]] ScheduleController* schedule_controller() const;

  // --- lanes --------------------------------------------------------------

  /// Stream lanes of every device. The step engine issues on two streams
  /// per device, and a lane costs a leader thread, not a worker (every
  /// launch's collectives use the whole pool), so two lanes let those
  /// streams overlap on any worker count. A stream keeps the lane of its
  /// first launch, on any device.
  static constexpr int kLanes = 2;
  /// Always kLanes. Kept for bench/e2e's device fingerprint.
  [[nodiscard]] int lane_count() const { return kLanes; }

  // --- introspection (runtime tests) --------------------------------------

  /// Sum of heap allocations performed by all worker arenas (host and
  /// lane slots) — stable after warm-up when steady-state launches
  /// reuse retained capacity.
  [[nodiscard]] std::uint64_t arena_heap_allocations() const;
  /// Total bytes retained by all worker arenas.
  [[nodiscard]] std::size_t arena_capacity() const;
  /// Launches issued so far.
  [[nodiscard]] std::uint64_t launch_count() const;
  /// Collectives (fork/joins, inline ones on a 1-worker device included)
  /// run so far, from any context.
  [[nodiscard]] std::uint64_t collective_count() const {
    return collectives_.load(std::memory_order_relaxed);
  }

  // Worker busy-time gauges (host and lane slots; relaxed samples of the
  // per-worker counters, safe to read while collectives run). The spread
  // between the busiest worker and the mean is the device-lifetime load
  // imbalance trace::MetricsRegistry turns into a ratio.
  /// Busiest single worker's cumulative collective-body seconds, summed
  /// over its host and lane slots.
  [[nodiscard]] double worker_busy_seconds_max() const;
  /// Sum of collective-body seconds across every worker slot.
  [[nodiscard]] double worker_busy_seconds_total() const;
  /// Pool workers that have recorded any collective-body busy time so
  /// far in any context (host or lane); at most workers().
  [[nodiscard]] int busy_worker_count() const;

private:
  using JobFn = void (*)(void*, Worker&, Grid&);
  using BodyInvoke = void (*)(void*, simt::OpCounts&);
  using BodyCopy = void (*)(void*, const void*);
  using BodyDestroy = void (*)(void*);

  class Team;
  struct Lane;
  using Slots = std::vector<std::unique_ptr<Worker>>;
  struct LaunchNode;
  struct Context;

  void dispatch(JobFn fn, void* ctx);
  /// Worker slots of the calling thread's execution context.
  [[nodiscard]] Slots& context_slots();

  LaunchRecord make_record_locked(const LaunchDesc& desc);
  Event enqueue(const LaunchDesc& desc, BodyInvoke invoke, BodyCopy copy,
                BodyDestroy destroy, const void* body);

  /// Stop and join the lane leaders (the device is idle).
  void stop_lanes();
  Lane& lane_for_locked(Stream* stream);
  void lane_loop(Lane& lane);
  void run_node(Lane& lane, LaunchNode& node);
  void mark_complete_locked(std::uint64_t id);
  [[nodiscard]] bool is_complete_locked(std::uint64_t id) const;
  [[nodiscard]] bool deps_complete_locked(const LaunchNode& node) const;
  /// Launch a leader may execute now: gating off, or holding the grant.
  [[nodiscard]] bool may_run_locked(const LaunchNode& node) const;
  void gather_ready_locked();
  /// Drive the schedule controller while the host blocks: grant launches
  /// one at a time until `done()` holds. The only place grants are issued.
  template <typename Pred>
  void pump_locked(std::unique_lock<std::mutex>& lock, Pred done);

  Slots slots_;                  ///< the host context's worker slots
  std::unique_ptr<Team> team_;   ///< the pool's threads, shared by all contexts
  std::atomic<std::uint64_t> collectives_{0};

  // Launch bookkeeping (ids, completion, queues, sinks) — one lock; the
  // per-collective fork/join hot path uses the team's own locks.
  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< lane leaders: work available / stop
  std::condition_variable event_cv_;  ///< completions: event waits, sync, free nodes
  bool stopping_ = false;
  std::uint64_t next_launch_ = 1;
  std::uint64_t completed_floor_ = 0;      ///< all ids <= floor are complete
  std::vector<std::uint64_t> completed_gaps_; ///< out-of-order completions
  int inflight_ = 0;
  std::exception_ptr body_error_; ///< first body exception since synchronize

  std::vector<std::unique_ptr<Lane>> lanes_; ///< kLanes, built with the device
  std::vector<std::unique_ptr<LaunchNode>> nodes_;
  LaunchNode* free_nodes_ = nullptr;
  std::uint64_t streams_placed_ = 0; ///< streams given a lane (round-robin)

  // Schedule-control seam (runtime/schedule.hpp). `controller_` is set
  // only while the device is idle, so leaders may read it unlocked while a
  // launch is in flight. `gating_` caches controller_->serializing();
  // `grant_` is the single launch id leaders may execute under gating.
  ScheduleController* controller_ = nullptr;
  bool gating_ = false;
  std::uint64_t grant_ = 0;
  std::vector<ReadyLaunch> ready_; ///< pump scratch (controller runs only)

  InstrumentationSink sink_;
};

/// RAII device override for the calling thread: kernels reached from this
/// scope run on `device` instead of Device::shared(). Used by tests to
/// compare 1-worker and N-worker execution of the same kernel.
class ScopedDevice {
public:
  explicit ScopedDevice(Device& device);
  ~ScopedDevice();
  ScopedDevice(const ScopedDevice&) = delete;
  ScopedDevice& operator=(const ScopedDevice&) = delete;

private:
  Device* previous_;
};

} // namespace gothic::runtime
