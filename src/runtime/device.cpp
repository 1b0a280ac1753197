#include "runtime/device.hpp"

#include "simt/barrier.hpp"
#include "util/env.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace gothic::runtime {

namespace {
/// Innermost ScopedDevice override (also installed on lane leader threads,
/// so Device::current() inside a launch body resolves to the issuing
/// device).
thread_local Device* tl_current = nullptr;
/// Execution context of the calling thread: when `tl_ctx_device` owns the
/// thread as a lane leader, collectives run on lane `tl_ctx_lane`'s worker
/// slots instead of the host pool's.
thread_local Device* tl_ctx_device = nullptr;
thread_local int tl_ctx_lane = -1;

/// `n` fresh worker slots with ids 0..n-1.
std::vector<std::unique_ptr<Worker>> make_slots(int n) {
  std::vector<std::unique_ptr<Worker>> slots;
  slots.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    slots.push_back(std::make_unique<Worker>());
    slots.back()->id = i;
  }
  return slots;
}

/// What Grid::sync() throws on the workers a failed body left behind. The
/// failed body's exception is already recorded, so this one never reaches
/// the caller.
struct GridAborted {};
} // namespace

void Grid::sync() {
  if (barrier_ == nullptr) return;
  barrier_->arrive_and_wait(worker_);
  if (barrier_->aborted()) throw GridAborted{};
}

// ---------------------------------------------------------------------------
// Team: the device's fork/join threads. Member 0 of a collective is the
// calling thread of run(); members 1..n-1 are dedicated threads parked on a
// condition variable. run() is handed the calling context's worker slots
// (the host's or one lane's) and member i executes on slot i. It admits
// one caller at a time — a lane leader or a host thread — so every
// collective gets the whole pool, and the team's one grid barrier serves
// whichever collective is admitted. A 1-worker team has no threads: each
// caller runs its collective inline on its own slot 0 with a barrier-less
// Grid, so the lanes and the host then run collectives at the same time.
// ---------------------------------------------------------------------------

class Device::Team {
public:
  explicit Team(int size) : barrier_(size) {
    threads_.reserve(static_cast<std::size_t>(size - 1));
    for (int i = 1; i < size; ++i) {
      threads_.emplace_back([this, i] { member_loop(i); });
    }
  }

  ~Team() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Run the job on `w`, charging the elapsed wall time to the worker's
  /// busy counter (imbalance observability). The counter also ticks while
  /// a body waits on a fault-injected stall — busy means "occupied", which
  /// is exactly what the imbalance ratio should see.
  static void run_timed(JobFn fn, void* ctx, Worker& w, Grid& grid) {
    const Stopwatch clock;
    try {
      fn(ctx, w, grid);
    } catch (...) {
      w.busy_ns.fetch_add(static_cast<std::uint64_t>(clock.seconds() * 1e9),
                          std::memory_order_relaxed);
      throw;
    }
    w.busy_ns.fetch_add(static_cast<std::uint64_t>(clock.seconds() * 1e9),
                        std::memory_order_relaxed);
  }

  /// Run `fn(ctx, *slots[i], grid)` once per member i; the caller executes
  /// member 0. All member exceptions land in one first-recorded-wins slot
  /// and exactly that one is rethrown after every member finished, leaving
  /// the team and its barrier reusable. Without member threads the job
  /// runs inline and unadmitted: `slots` belong to the caller's context
  /// alone.
  void run(JobFn fn, void* ctx, const Slots& slots) {
    if (threads_.empty()) {
      Grid grid(nullptr, 0);
      run_timed(fn, ctx, *slots.front(), grid);
      return;
    }
    const std::lock_guard<std::mutex> admitted(admit_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = fn;
      job_ctx_ = ctx;
      job_slots_ = &slots;
      error_ = nullptr;
      unfinished_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    start_cv_.notify_all();
    run_member(0, fn, ctx, *slots.front());
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    std::exception_ptr err = std::exchange(error_, nullptr);
    lock.unlock();
    if (err) {
      // Every member has left the body, so no one is inside the barrier.
      barrier_.reset();
      std::rethrow_exception(err);
    }
  }

private:
  /// Member i's share of a collective. A throw is recorded before the
  /// barrier aborts, so the GridAborted of the members it releases never
  /// wins the error slot.
  void run_member(int i, JobFn fn, void* ctx, Worker& w) {
    Grid grid(&barrier_, i);
    try {
      run_timed(fn, ctx, w, grid);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      barrier_.abort();
    }
  }

  void member_loop(int i) {
    std::uint64_t seen = 0;
    for (;;) {
      JobFn job = nullptr;
      void* ctx = nullptr;
      Worker* w = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        job = job_;
        ctx = job_ctx_;
        w = (*job_slots_)[static_cast<std::size_t>(i)].get();
      }
      run_member(i, job, ctx, *w);
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        last = --unfinished_ == 0;
      }
      if (last) done_cv_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  simt::LockFreeBarrier barrier_; ///< Grid::sync() of the admitted collective
  std::mutex admit_; ///< held by the one caller whose collective is running
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stopping_ = false;
  std::uint64_t generation_ = 0;
  int unfinished_ = 0;
  JobFn job_ = nullptr;
  void* job_ctx_ = nullptr;
  const Slots* job_slots_ = nullptr;
  std::exception_ptr error_;
};

// ---------------------------------------------------------------------------
// Lane and launch-queue node of the stream scheduler.
// ---------------------------------------------------------------------------

/// One queued launch: the type-erased body lives inline in `storage` (no
/// per-launch heap traffic); nodes are pooled and recycled through the
/// device free list.
struct Device::LaunchNode {
  alignas(64) std::byte storage[kMaxBodyBytes];
  BodyInvoke invoke = nullptr;
  BodyDestroy destroy = nullptr;
  std::uint64_t id = 0;
  std::array<std::uint64_t, 4> deps{};
  InstrumentationSink* sink = nullptr;
  std::size_t record_index = 0;
  LaunchNode* next = nullptr;
};

/// One stream-execution lane: a leader thread that pops the lane's FIFO
/// queue, plus one Worker slot per pool worker (ids 0..n-1, own arenas,
/// never shared with another lane) that the lane's collectives run on.
struct Device::Lane {
  int index = 0;
  Slots slots;
  std::thread leader;
  LaunchNode* head = nullptr;
  LaunchNode* tail = nullptr;
};

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

int Device::default_workers() {
  const std::size_t env = env_size("GOTHIC_THREADS", 0);
  if (env > 0) {
    return static_cast<int>(std::min<std::size_t>(env, 256));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Device::Device(int workers) {
  const int n = std::min(workers > 0 ? workers : default_workers(),
                         kMaxWorkers);
  slots_ = make_slots(n);
  team_ = std::make_unique<Team>(n);
  completed_gaps_.reserve(64);
  for (int i = 0; i < kLanes; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->index = i;
    lane->slots = make_slots(n);
    lanes_.push_back(std::move(lane));
  }
  nodes_.reserve(64);
  for (int i = 0; i < 64; ++i) {
    nodes_.push_back(std::make_unique<LaunchNode>());
    nodes_.back()->next = free_nodes_;
    free_nodes_ = nodes_.back().get();
  }
  // Leaders start after lanes_ is fully built: they index into it.
  try {
    for (auto& lane : lanes_) {
      Lane* l_ptr = lane.get();
      lane->leader = std::thread([this, l_ptr] { lane_loop(*l_ptr); });
    }
  } catch (...) {
    stop_lanes();
    throw;
  }
}

Device::~Device() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (gating_) {
      // A serializing controller holds queued launches until granted; the
      // destructor must keep pumping grants or the drain below never ends.
      pump_locked(lock, [&] { return inflight_ == 0; });
    } else {
      event_cv_.wait(lock, [&] { return inflight_ == 0; });
    }
  }
  stop_lanes();
  team_.reset();
}

void Device::stop_lanes() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& lane : lanes_) {
    if (lane->leader.joinable()) lane->leader.join();
  }
  lanes_.clear();
}

Device& Device::shared() {
  static Device device;
  return device;
}

Device& Device::current() {
  return tl_current != nullptr ? *tl_current : shared();
}

int Device::workers() const { return static_cast<int>(slots_.size()); }

Device::Slots& Device::context_slots() {
  if (tl_ctx_device == this && tl_ctx_lane >= 0) {
    return lanes_[static_cast<std::size_t>(tl_ctx_lane)]->slots;
  }
  return slots_;
}

Worker& Device::context_worker(int i) {
  return *context_slots()[static_cast<std::size_t>(i)];
}

void Device::dispatch(JobFn fn, void* ctx) {
  collectives_.fetch_add(1, std::memory_order_relaxed);
  team_->run(fn, ctx, context_slots());
}

// --- issue path ------------------------------------------------------------

LaunchRecord Device::make_record_locked(const LaunchDesc& desc) {
  LaunchRecord rec;
  rec.kernel = desc.kernel;
  rec.label =
      desc.label != nullptr ? desc.label : kernel_name(desc.kernel).data();
  rec.stream = desc.stream != nullptr ? desc.stream->name() : "default";
  rec.id = next_launch_++;
  rec.items = desc.items;

  std::size_t slot = 0;
  auto add_dep = [&](Event e, bool implicit) {
    if (!e.valid() || slot >= rec.deps.size()) return;
    if (e.device != nullptr && e.device != this) {
      // A stream's implicit predecessor from a previous device is
      // meaningless here; start the stream fresh instead of recording a
      // bogus edge. Explicit foreign events are a caller bug.
      if (implicit) return;
      throw std::logic_error(
          std::string("Device::launch: dependency event ") +
          std::to_string(e.id) + " of '" + rec.label +
          "' belongs to a different device");
    }
    for (std::size_t i = 0; i < slot; ++i) {
      if (rec.deps[i] == e.id) return; // already recorded
    }
    if (e.id >= rec.id) {
      throw std::logic_error(std::string("Device::launch: dependency event ") +
                             std::to_string(e.id) + " of '" + rec.label +
                             "' has not been issued");
    }
    rec.deps[slot++] = e.id;
  };
  for (Event e : desc.deps) add_dep(e, false);
  // Same-stream launches are implicitly ordered (CUDA stream semantics);
  // the lane executes its queue FIFO, the edge documents the order.
  if (desc.stream != nullptr) add_dep(desc.stream->last(), true);
  if (desc.stream != nullptr) desc.stream->last_ = Event{rec.id, this};
  return rec;
}

Event Device::enqueue(const LaunchDesc& desc, BodyInvoke invoke,
                      BodyCopy copy, BodyDestroy destroy, const void* body) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Lane& lane = lane_for_locked(desc.stream);
    const LaunchRecord rec = make_record_locked(desc); // may throw: no node yet
    LaunchNode* node = free_nodes_;
    if (node != nullptr) {
      free_nodes_ = node->next;
    } else {
      nodes_.push_back(std::make_unique<LaunchNode>());
      node = nodes_.back().get();
    }
    node->id = rec.id;
    node->deps = rec.deps;
    node->sink = desc.sink != nullptr ? desc.sink : &sink_;
    node->record_index = node->sink->begin_record(rec);
    node->invoke = invoke;
    node->destroy = destroy;
    copy(node->storage, body);
    node->next = nullptr;
    if (lane.tail != nullptr) {
      lane.tail->next = node;
    } else {
      lane.head = node;
    }
    lane.tail = node;
    ++inflight_;
    id = rec.id;
    if (controller_ != nullptr) controller_->on_enqueue(lane.index, id);
  }
  queue_cv_.notify_all();
  return Event{id, this};
}

// --- lanes -------------------------------------------------------------------

Device::Lane& Device::lane_for_locked(Stream* stream) {
  if (stream == nullptr) return *lanes_.front();
  // New streams round-robin over the lanes; several streams may share a
  // lane (they serialize, which is always correct — just less overlap).
  if (stream->lane_ < 0) {
    stream->lane_ = static_cast<int>(streams_placed_++ % kLanes);
  }
  return *lanes_[static_cast<std::size_t>(stream->lane_)];
}

void Device::lane_loop(Lane& lane) {
  // Launch bodies run on this thread; Device::current() must resolve to
  // the issuing device, and collectives must run on the lane's slots.
  tl_current = this;
  tl_ctx_device = this;
  tl_ctx_lane = lane.index;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || lane.head != nullptr; });
    if (lane.head == nullptr) {
      if (stopping_) return; // queue drained (the destructor synchronizes)
      continue;
    }
    LaunchNode* node = lane.head;
    // Wait for the node's dependencies. Deadlock-free: every dependency
    // has a smaller issue id, and each lane pops its queue FIFO in issue
    // order, so the launch holding the smallest incomplete id always has
    // complete dependencies and sits at the head of its lane — some lane
    // can always make progress. Under a serializing schedule controller
    // the node additionally needs the grant (issued by the host-side pump
    // in wait_event/synchronize, which keeps the same progress guarantee).
    event_cv_.wait(lock, [&] {
      return deps_complete_locked(*node) && may_run_locked(*node);
    });
    lane.head = node->next;
    if (lane.head == nullptr) lane.tail = nullptr;
    lock.unlock();
    run_node(lane, *node);
    lock.lock();
  }
}

void Device::run_node(Lane& lane, LaunchNode& node) {
  simt::OpCounts ops;
  std::exception_ptr err;
  const double t0 = process_seconds();
  try {
    // The fault/stall injection point runs outside the lock, so a stalled
    // body blocks only its own lane. controller_ cannot change while this
    // node is in flight (set_schedule_controller requires an idle device).
    if (controller_ != nullptr) controller_->before_body(lane.index, node.id);
    node.invoke(node.storage, ops);
  } catch (...) {
    err = std::current_exception();
  }
  const double t1 = process_seconds();
  node.destroy(node.storage);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    node.sink->finish_record(node.record_index, node.id, t0, t1, workers(),
                             ops);
    // Move (don't copy) so this lane drops its reference here: the thread
    // that later rethrows the error must be the only one releasing the
    // exception object, or its teardown races with the consumer's what().
    if (err && !body_error_) body_error_ = std::move(err);
    if (controller_ != nullptr) controller_->on_complete(lane.index, node.id);
    mark_complete_locked(node.id);
    node.next = free_nodes_;
    free_nodes_ = &node;
    --inflight_;
  }
  event_cv_.notify_all();
}

// --- completion tracking ---------------------------------------------------

bool Device::is_complete_locked(std::uint64_t id) const {
  if (id <= completed_floor_) return true;
  return std::find(completed_gaps_.begin(), completed_gaps_.end(), id) !=
         completed_gaps_.end();
}

bool Device::deps_complete_locked(const LaunchNode& node) const {
  for (std::uint64_t d : node.deps) {
    if (d != 0 && !is_complete_locked(d)) return false;
  }
  return true;
}

void Device::mark_complete_locked(std::uint64_t id) {
  if (id != completed_floor_ + 1) {
    completed_gaps_.push_back(id);
    return;
  }
  ++completed_floor_;
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (auto it = completed_gaps_.begin(); it != completed_gaps_.end(); ++it) {
      if (*it == completed_floor_ + 1) {
        ++completed_floor_;
        completed_gaps_.erase(it);
        advanced = true;
        break;
      }
    }
  }
}

// --- schedule-control pump -------------------------------------------------

bool Device::may_run_locked(const LaunchNode& node) const {
  return !gating_ || grant_ == node.id;
}

void Device::gather_ready_locked() {
  ready_.clear();
  for (const auto& lane : lanes_) {
    const LaunchNode* node = lane->head;
    if (node != nullptr && deps_complete_locked(*node)) {
      ready_.push_back(ReadyLaunch{lane->index, node->id, node->deps});
    }
  }
}

template <typename Pred>
void Device::pump_locked(std::unique_lock<std::mutex>& lock, Pred done) {
  // Grants are issued exclusively here, while the host thread is blocked,
  // so the controller observes a choice sequence that depends only on the
  // program's issue order — never on OS thread timing. A new grant is
  // picked only after the previous one completed, so execution under a
  // serializing controller is one launch at a time, in grant order.
  for (;;) {
    if (grant_ != 0 && is_complete_locked(grant_)) grant_ = 0;
    if (done()) return;
    if (grant_ == 0) {
      gather_ready_locked();
      if (ready_.empty()) {
        // Impossible when the wait target is reachable: the smallest
        // incomplete launch always has complete dependencies and sits at
        // its lane's head. Reaching this means the caller waits on work
        // that was never issued.
        throw std::logic_error(
            "Device: schedule pump stalled with no ready launch");
      }
      const std::uint64_t choice =
          controller_->pick(std::span<const ReadyLaunch>(ready_));
      bool admissible = false;
      for (const ReadyLaunch& r : ready_) admissible |= r.id == choice;
      if (!admissible) {
        throw std::logic_error(
            "ScheduleController::pick chose launch " + std::to_string(choice) +
            ", which is not ready");
      }
      grant_ = choice;
      queue_cv_.notify_all();
      event_cv_.notify_all();
    }
    event_cv_.wait(lock, [&] {
      return done() || (grant_ != 0 && is_complete_locked(grant_));
    });
  }
}

void Device::set_schedule_controller(ScheduleController* c) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (inflight_ != 0) {
    throw std::logic_error(
        "Device::set_schedule_controller: device has launches in flight");
  }
  controller_ = c;
  gating_ = c != nullptr && c->serializing();
  grant_ = 0;
  if (c != nullptr) ready_.reserve(8);
}

ScheduleController* Device::schedule_controller() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return controller_;
}

// --- waits -----------------------------------------------------------------

void Device::wait_event(std::uint64_t id) {
  if (id == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  if (gating_) {
    pump_locked(lock, [&] { return is_complete_locked(id); });
    return;
  }
  event_cv_.wait(lock, [&] { return is_complete_locked(id); });
}

void Device::synchronize() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (gating_) {
    pump_locked(lock, [&] { return inflight_ == 0; });
  } else {
    event_cv_.wait(lock, [&] { return inflight_ == 0; });
  }
  if (body_error_) {
    std::exception_ptr err = std::exchange(body_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void Event::wait() const {
  if (device != nullptr && id != 0) device->wait_event(id);
}

// --- introspection ---------------------------------------------------------

std::uint64_t Device::arena_heap_allocations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& w : slots_) total += w->arena.heap_allocations();
  for (const auto& lane : lanes_) {
    for (const auto& w : lane->slots) total += w->arena.heap_allocations();
  }
  return total;
}

std::size_t Device::arena_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& w : slots_) total += w->arena.capacity();
  for (const auto& lane : lanes_) {
    for (const auto& w : lane->slots) total += w->arena.capacity();
  }
  return total;
}

std::uint64_t Device::launch_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_launch_ - 1;
}

double Device::worker_busy_seconds_max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Worker id i's time is the sum over every context's slot i (see
  // busy_worker_count), so the max is taken over workers, not slots.
  double m = 0.0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    double worker = slots_[i]->busy_seconds();
    for (const auto& lane : lanes_) worker += lane->slots[i]->busy_seconds();
    m = std::max(m, worker);
  }
  return m;
}

double Device::worker_busy_seconds_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& w : slots_) total += w->busy_seconds();
  for (const auto& lane : lanes_) {
    for (const auto& w : lane->slots) total += w->busy_seconds();
  }
  return total;
}

int Device::busy_worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Member i of every collective, whichever context issued it, runs on
  // its context's slot i: worker id i is busy when any context's slot i
  // is.
  const auto busy = [](const Slots& slots, std::size_t i) {
    return slots[i]->busy_ns.load(std::memory_order_relaxed) > 0;
  };
  int n = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    bool any = busy(slots_, i);
    for (const auto& lane : lanes_) any = any || busy(lane->slots, i);
    if (any) ++n;
  }
  return n;
}

ScopedDevice::ScopedDevice(Device& device) : previous_(tl_current) {
  tl_current = &device;
}

ScopedDevice::~ScopedDevice() { tl_current = previous_; }

} // namespace gothic::runtime
