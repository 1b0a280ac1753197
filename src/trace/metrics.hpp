// Per-kernel latency histograms and cumulative counters over the
// instrumentation stream — the aggregate half of the observability layer
// (the repo's stand-in for nvprof's summary mode).
//
// The registry is updated from completed LaunchRecords and per-step
// StepMarks; all state is fixed-size (log2-binned histograms, per-kernel
// counter slots), so steady-state recording performs no heap allocation.
// GOTHIC's companion paper tunes every kernel from exactly such per-kernel
// latency/instruction aggregates; the figure benches and gothic_run print
// this table, and BENCH_*.json embeds its summary.
#pragma once

#include "runtime/stream.hpp"
#include "simt/op_counter.hpp"
#include "util/timer.hpp"

#include <array>
#include <cstdint>
#include <iosfwd>

namespace gothic::runtime {
class Device;
}

namespace gothic::trace {

/// Fixed-bin log2 latency histogram: bin i counts samples in
/// [2^(kMinExp+i), 2^(kMinExp+i+1)) seconds. The range spans ~1 ns to
/// ~4.6 h, so no kernel launch ever falls off either end (out-of-range
/// samples clamp into the edge bins). Percentiles resolve to the upper
/// edge of the bin holding the requested rank — deterministic, and an
/// overestimate by at most one bin width (a factor of 2).
class LatencyHistogram {
public:
  static constexpr int kBins = 44;
  static constexpr int kMinExp = -30;

  void add(double seconds);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum_seconds() const { return sum_; }
  [[nodiscard]] double max_seconds() const { return max_; }
  [[nodiscard]] double mean_seconds() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Upper edge of the bin containing the rank-ceil(p*count) sample
  /// (p in [0, 1]); 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50_seconds() const { return percentile(0.50); }
  [[nodiscard]] double p95_seconds() const { return percentile(0.95); }

  [[nodiscard]] std::uint64_t bin(int i) const {
    return bins_[static_cast<std::size_t>(i)];
  }
  /// Bin index a sample of `seconds` lands in (clamped to the edge bins).
  [[nodiscard]] static int bin_index(double seconds);
  /// Exclusive upper edge of bin i in seconds: 2^(kMinExp+i+1).
  [[nodiscard]] static double bin_upper_edge(int i);

  void reset();

private:
  std::array<std::uint64_t, kBins> bins_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// One observation of a session pool (service::SessionManager::observe
/// feeds this; defined here so trace stays independent of the service
/// layer). Counters are absolute at sample time; record_service() keeps
/// high-water values across samples.
struct ServiceSample {
  std::uint64_t sessions_active = 0;    ///< submitted, not yet terminal
  std::uint64_t sessions_completed = 0; ///< ran all their steps
  std::uint64_t sessions_failed = 0;    ///< faulted or over quota
  double session_busy_seconds_max = 0.0;   ///< busiest single session
  double session_busy_seconds_total = 0.0; ///< across all sessions
  std::size_t quota_high_water_bytes = 0;  ///< largest per-session charge
};

/// Aggregates of one kernel across every observed launch.
struct KernelStats {
  LatencyHistogram latency;
  std::uint64_t launches = 0;
  double seconds = 0.0; ///< cumulative body wall-clock
  simt::OpCounts ops;   ///< cumulative operation tallies
};

/// Cumulative metrics over the instrumentation stream: per-kernel latency
/// histograms with p50/p95/max, per-kernel counters, step/overlap
/// accounting (including the count of negative-overlap steps the clamped
/// accessors hide), and device arena high-water gauges.
class MetricsRegistry {
public:
  /// Fold one completed launch in (called from RecordListener::on_record —
  /// fixed work, no allocation).
  void record_launch(const runtime::LaunchRecord& rec);
  /// Fold one step summary in.
  void record_step(const runtime::StepMark& mark);
  /// Sample the device's arena gauges; high-water values are kept.
  void observe_device(const runtime::Device& dev);
  /// Sample a session pool; high-water values are kept per field. The
  /// print() footer gains a service line once at least one sample landed.
  void record_service(const ServiceSample& s);

  [[nodiscard]] const KernelStats& kernel(Kernel k) const {
    return kernels_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t launches() const;
  /// Largest worker count an observed launch ran its collectives on (0
  /// before the first launch).
  [[nodiscard]] int launch_workers() const { return launch_workers_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// Steps whose signed overlap gap was negative — the wall span exceeded
  /// the summed launch bodies by the dispatch time between dependent
  /// launches, which the clamped overlap accessors silently zero out.
  [[nodiscard]] std::uint64_t negative_overlap_steps() const {
    return negative_overlap_steps_;
  }
  /// Most negative signed overlap gap observed (0 when none was negative).
  [[nodiscard]] double min_raw_overlap_seconds() const {
    return min_raw_overlap_;
  }
  [[nodiscard]] double overlap_seconds_total() const { return overlap_sum_; }

  // Walk load-balance accounting over the observed steps (steps whose
  // StepMark carried no walk timing are excluded from the mean).
  [[nodiscard]] std::uint64_t imbalance_steps() const {
    return imbalance_steps_;
  }
  /// Worst per-step walk imbalance ratio observed (0 when none recorded).
  [[nodiscard]] double imbalance_max() const { return imbalance_max_; }
  /// Mean per-step walk imbalance ratio (0 when none recorded).
  [[nodiscard]] double imbalance_mean() const {
    return imbalance_steps_ > 0
               ? imbalance_sum_ / static_cast<double>(imbalance_steps_)
               : 0.0;
  }

  // Shard accounting over the observed steps (only steps whose StepMark
  // came from a sharded run — mark.shards > 0 — contribute).
  [[nodiscard]] std::uint64_t shard_steps() const { return shard_steps_; }
  [[nodiscard]] int shards_max() const { return shards_max_; }
  /// Worst per-step shard busy-time imbalance (max/mean; 0 if unsharded).
  [[nodiscard]] double shard_imbalance_max() const {
    return shard_imbalance_max_;
  }
  /// Mean per-step shard busy-time imbalance (0 when none recorded).
  [[nodiscard]] double shard_imbalance_mean() const {
    return shard_steps_ > 0
               ? shard_imbalance_sum_ / static_cast<double>(shard_steps_)
               : 0.0;
  }
  /// Cumulative LET traffic across sharded steps.
  [[nodiscard]] std::uint64_t let_cells_total() const {
    return let_cells_total_;
  }
  [[nodiscard]] std::uint64_t let_bodies_total() const {
    return let_bodies_total_;
  }

  // Arena gauges (high-water across observe_device() samples).
  [[nodiscard]] std::size_t arena_capacity_bytes() const {
    return arena_capacity_;
  }
  [[nodiscard]] std::uint64_t arena_heap_allocations() const {
    return arena_heap_allocations_;
  }
  [[nodiscard]] int workers() const { return workers_; }

  // Per-worker busy-time gauges (high-water across observe_device()
  // samples of Device's cumulative busy counters).
  [[nodiscard]] double worker_busy_seconds_max() const {
    return busy_max_seconds_;
  }
  [[nodiscard]] double worker_busy_seconds_total() const {
    return busy_total_seconds_;
  }
  [[nodiscard]] int busy_workers() const { return busy_workers_; }

  // Session-pool gauges (high-water across record_service() samples).
  [[nodiscard]] std::uint64_t service_samples() const {
    return service_samples_;
  }
  [[nodiscard]] const ServiceSample& service() const { return service_; }

  /// Render the per-kernel table plus the step/arena footer.
  void print(std::ostream& os) const;

  void reset();

private:
  std::array<KernelStats, static_cast<std::size_t>(Kernel::Count)> kernels_{};
  int launch_workers_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t negative_overlap_steps_ = 0;
  double min_raw_overlap_ = 0.0;
  double overlap_sum_ = 0.0;
  std::uint64_t imbalance_steps_ = 0;
  double imbalance_max_ = 0.0;
  double imbalance_sum_ = 0.0;
  std::uint64_t shard_steps_ = 0;
  int shards_max_ = 0;
  double shard_imbalance_max_ = 0.0;
  double shard_imbalance_sum_ = 0.0;
  std::uint64_t let_cells_total_ = 0;
  std::uint64_t let_bodies_total_ = 0;
  std::size_t arena_capacity_ = 0;
  std::uint64_t arena_heap_allocations_ = 0;
  int workers_ = 0;
  double busy_max_seconds_ = 0.0;
  double busy_total_seconds_ = 0.0;
  int busy_workers_ = 0;
  std::uint64_t service_samples_ = 0;
  ServiceSample service_;
};

} // namespace gothic::trace
