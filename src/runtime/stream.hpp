// Streams, events, launch descriptors and the instrumentation sink of the
// kernel-launch runtime.
//
// GOTHIC issues its device kernels on concurrent CUDA streams and orders
// them with events; the per-kernel times the paper reports (Figs 3-5) are
// nvprof measurements of exactly those overlapped launches. This layer
// reproduces the shape: every kernel goes through Device::launch() with a
// LaunchDesc naming its stream and dependency events, and every launch
// emits one LaunchRecord (kernel id, wall seconds, begin/end timestamps,
// nvprof-style OpCounts, bytes, launch configuration, dependency edges)
// into an InstrumentationSink.
//
// Execution is asynchronous, as on a GPU: launch() enqueues the kernel
// onto its stream's lane (a queue plus a leader thread; the kernel's
// collectives use the whole device worker pool) and returns immediately;
// Event::wait() and Device::synchronize() are real completion handles, and
// independent streams execute concurrently. Results are bit-identical
// under every admissible schedule, the serial in-issue-order one included.
#pragma once

#include "simt/op_counter.hpp"
#include "util/timer.hpp"

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace gothic::runtime {

class Device;

/// Completion handle of a launch. Id 0 is the null event (never waited
/// on); valid ids are assigned by the device in issue order.
struct Event {
  std::uint64_t id = 0;
  /// Device that issued the launch (resolves waits; null for the null
  /// event).
  Device* device = nullptr;
  [[nodiscard]] bool valid() const { return id != 0; }
  /// Block until the launch completed. No-op for the null event.
  void wait() const;
};

/// An in-order launch queue. Launches on the same stream are implicitly
/// ordered (the device records the stream's previous launch as a
/// dependency and executes the stream FIFO); cross-stream ordering takes
/// explicit events.
class Stream {
public:
  Stream() = default;
  explicit Stream(const char* name) : name_(name) {}

  [[nodiscard]] const char* name() const { return name_; }
  /// Event of the most recent launch issued on this stream (null before
  /// any).
  [[nodiscard]] Event last() const { return last_; }

private:
  friend class Device;
  const char* name_ = "default";
  Event last_{};
  /// Lane of the stream's first launch, kept on every device it later
  /// launches on (-1 before one).
  int lane_ = -1;
};

class InstrumentationSink;

/// Everything the device needs to place one kernel launch.
struct LaunchDesc {
  Kernel kernel = Kernel::WalkTree;
  /// Human-readable label; defaults to kernel_name(kernel). Distinguishes
  /// e.g. the predict and correct halves of Kernel::PredictCorrect.
  const char* label = nullptr;
  /// Work items of the launch (bodies, warps, ...) — the grid size.
  std::size_t items = 0;
  Stream* stream = nullptr;
  /// Explicit dependency events (null entries ignored).
  std::array<Event, 4> deps{};
  /// Destination of the LaunchRecord; the device's default sink when null.
  InstrumentationSink* sink = nullptr;
};

/// One record per launch — the only per-kernel ledger: the step engine's
/// StepReport is a step's sum of them and trace::MetricsRegistry their
/// cumulative sum; the stand-in for one row of an nvprof kernel trace.
/// Records are inserted
/// into the sink in issue order and completed in execution order; the
/// timing fields are valid once the launch's event has completed.
struct LaunchRecord {
  Kernel kernel = Kernel::WalkTree;
  /// Label / stream name. In records stored by an InstrumentationSink both
  /// point into the sink's interned string table (valid for the sink's
  /// lifetime, independent of the originating Stream object).
  const char* label = "";
  const char* stream = "";
  std::uint64_t id = 0;                 ///< launch sequence number
  std::array<std::uint64_t, 4> deps{};  ///< dependency launch ids (0 = none)
  std::size_t items = 0;                ///< launch configuration: work items
  int workers = 0;                      ///< workers its collectives ran on
  double seconds = 0.0;                 ///< wall-clock of the launch body
  double t_begin = 0.0;                 ///< body start, process_seconds()
  double t_end = 0.0;                   ///< body end, process_seconds()
  simt::OpCounts ops;                   ///< nvprof-style counts

  [[nodiscard]] std::uint64_t bytes() const { return ops.total_bytes(); }
};

/// Per-step summary the step engine hands to its RecordListener after each
/// step() completed: the span of the step's launches on the process clock
/// and the kernel-sum vs wall-span timing whose signed gap is the achieved
/// stream overlap, or, when negative, the dispatch time between dependent
/// launches.
struct StepMark {
  std::uint64_t index = 0; ///< step count after the step (1-based)
  bool rebuilt = false;
  double t_begin = 0.0;    ///< earliest body start, process_seconds()
  double t_end = 0.0;      ///< latest body end, process_seconds()
  double kernel_seconds = 0.0; ///< sum of the step's launch body seconds
  double wall_seconds = 0.0;   ///< t_end - t_begin
  /// Walk load-imbalance ratio (max worker time / mean worker time) of
  /// the step's tree walk; 0 when the step recorded no walk timing.
  double walk_imbalance = 0.0;

  // Sharded-step fields (all 0 for a one-shard step).
  int shards = 0;               ///< shard count (0 = unsharded step)
  double shard_busy_max = 0.0;  ///< busiest shard's summed launch seconds
  double shard_busy_mean = 0.0; ///< mean per-shard summed launch seconds
  std::uint64_t let_cells = 0;  ///< LET cells exported this step (all pairs)
  std::uint64_t let_bodies = 0; ///< LET bodies exported this step

  /// Cross-shard load-imbalance ratio: busiest shard's busy seconds over
  /// the mean. 1 is perfect balance; 0 when the step was unsharded or
  /// recorded no shard timing.
  [[nodiscard]] double shard_imbalance() const {
    if (shards == 0 || !(shard_busy_mean > 0.0)) return 0.0;
    return shard_busy_max / shard_busy_mean;
  }

  /// Signed overlap gap. Positive: kernel seconds hidden by concurrent
  /// streams. Negative: the wall span exceeded the work it contained by
  /// the dispatch time between dependent launches (a K = 1 step, whose
  /// launches mostly run one after another, usually reads negative) — the
  /// clamped StepReport::overlap_seconds() hides it, this field and the
  /// metrics registry surface it.
  [[nodiscard]] double raw_overlap_seconds() const {
    return kernel_seconds - wall_seconds;
  }
};

/// Observer of the instrumentation stream — the hook the trace/metrics
/// layer attaches to. Records reach a listener only through their owner's
/// replay after a join: the step engine hands over each step's records,
/// then one on_step(), on the thread that called step(); the owner of a
/// raw Device replays sink().step_records() after synchronize(). Nothing
/// observes a launch while it runs, so a detached listener costs nothing.
class RecordListener {
public:
  virtual ~RecordListener() = default;
  virtual void on_record(const LaunchRecord& rec) = 0;
  virtual void on_step(const StepMark& mark) { (void)mark; }
};

/// Owner-local, deduplicated copies of record names. After warm-up every
/// kernel label / stream name is already present and interning allocates
/// nothing; pointers stay valid for the table's lifetime, so a record
/// whose names were adopted stays readable after its Stream object (or a
/// transient label buffer) is gone.
class NameTable {
public:
  [[nodiscard]] const char* intern(const char* s) {
    if (s == nullptr) return "";
    for (const std::string& owned : names_) {
      if (owned == s) return owned.c_str();
    }
    names_.emplace_back(s);
    return names_.back().c_str();
  }

  /// Point `rec`'s label and stream at this table's copies.
  void adopt(LaunchRecord& rec) {
    rec.label = intern(rec.label);
    rec.stream = intern(rec.stream);
  }

private:
  std::deque<std::string> names_; ///< std::deque: stable element addresses
};

/// Collects one step's LaunchRecords; cumulative per-kernel tallies are a
/// listener's (trace::MetricsRegistry). The record list is bounded by its warm-up capacity as long as the owner
/// clears it once per step (the step engine does), so steady-state
/// recording performs no heap allocation.
///
/// Not internally synchronized: the issuing Device serializes begin/finish
/// under its own lock, and readers must not overlap in-flight launches
/// (wait on the event or Device::synchronize() first). In particular, do
/// not begin_step() while launches that target this sink are in flight.
class InstrumentationSink {
public:
  InstrumentationSink() { records_.reserve(kReserve); }

  /// Insert the issue-time half of a record (id, deps, stream, items);
  /// returns the record's index for finish_record(). Keeps records in
  /// issue order even when completion is out of order. The label and
  /// stream names are interned into the sink's NameTable, so a trace
  /// flushed at shutdown never chases freed name pointers.
  std::size_t begin_record(const LaunchRecord& r) {
    records_.push_back(r);
    names_.adopt(records_.back());
    return records_.size() - 1;
  }

  /// Complete the record at `index` with the measured timing and counts.
  /// Returns false (and records nothing) when the sink was cleared between
  /// issue and completion.
  bool finish_record(std::size_t index, std::uint64_t id, double t_begin,
                     double t_end, int workers, const simt::OpCounts& ops) {
    if (index >= records_.size() || records_[index].id != id) return false;
    LaunchRecord& rec = records_[index];
    rec.seconds = t_end - t_begin;
    rec.t_begin = t_begin;
    rec.t_end = t_end;
    rec.workers = workers;
    rec.ops = ops;
    return true;
  }

  /// Drop the per-launch records. Called at the start of each step so
  /// step_records() spans exactly one step.
  void begin_step() { records_.clear(); }

  /// Records added since the last begin_step(), in issue order.
  [[nodiscard]] const std::vector<LaunchRecord>& step_records() const {
    return records_;
  }

private:
  static constexpr std::size_t kReserve = 64;
  std::vector<LaunchRecord> records_;
  NameTable names_; ///< a cache, not per-step state: begin_step() keeps it
};

} // namespace gothic::runtime
