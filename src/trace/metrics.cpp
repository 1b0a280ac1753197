#include "trace/metrics.hpp"

#include "runtime/device.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace gothic::trace {

// --- LatencyHistogram ------------------------------------------------------

int LatencyHistogram::bin_index(double seconds) {
  if (!(seconds > 0.0)) return 0;
  int exp = 0;
  // seconds = m * 2^exp with m in [0.5, 1) => seconds in [2^(exp-1), 2^exp).
  (void)std::frexp(seconds, &exp);
  return std::clamp(exp - 1 - kMinExp, 0, kBins - 1);
}

double LatencyHistogram::bin_upper_edge(int i) {
  return std::ldexp(1.0, kMinExp + i + 1);
}

void LatencyHistogram::add(double seconds) {
  bins_[static_cast<std::size_t>(bin_index(seconds))] += 1;
  count_ += 1;
  sum_ += seconds;
  max_ = std::max(max_, seconds);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBins; ++i) {
    seen += bins_[static_cast<std::size_t>(i)];
    if (seen >= rank) return bin_upper_edge(i);
  }
  return bin_upper_edge(kBins - 1);
}

void LatencyHistogram::reset() { *this = LatencyHistogram{}; }

// --- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::record_launch(const runtime::LaunchRecord& rec) {
  KernelStats& k = kernels_[static_cast<std::size_t>(rec.kernel)];
  k.latency.add(rec.seconds);
  k.launches += 1;
  k.seconds += rec.seconds;
  k.ops += rec.ops;
  launch_workers_ = std::max(launch_workers_, rec.workers);
}

void MetricsRegistry::record_step(const runtime::StepMark& mark) {
  steps_ += 1;
  const double raw = mark.raw_overlap_seconds();
  if (raw < 0.0) {
    negative_overlap_steps_ += 1;
    min_raw_overlap_ = std::min(min_raw_overlap_, raw);
  } else {
    overlap_sum_ += raw;
  }
  if (mark.walk_imbalance > 0.0) {
    imbalance_steps_ += 1;
    imbalance_sum_ += mark.walk_imbalance;
    imbalance_max_ = std::max(imbalance_max_, mark.walk_imbalance);
  }
  if (mark.shards > 0) {
    shard_steps_ += 1;
    shards_max_ = std::max(shards_max_, mark.shards);
    const double imb = mark.shard_imbalance();
    shard_imbalance_sum_ += imb;
    shard_imbalance_max_ = std::max(shard_imbalance_max_, imb);
    let_cells_total_ += mark.let_cells;
    let_bodies_total_ += mark.let_bodies;
  }
}

void MetricsRegistry::observe_device(const runtime::Device& dev) {
  arena_capacity_ = std::max(arena_capacity_, dev.arena_capacity());
  arena_heap_allocations_ =
      std::max(arena_heap_allocations_, dev.arena_heap_allocations());
  workers_ = std::max(workers_, dev.workers());
  busy_max_seconds_ = std::max(busy_max_seconds_, dev.worker_busy_seconds_max());
  busy_total_seconds_ =
      std::max(busy_total_seconds_, dev.worker_busy_seconds_total());
  busy_workers_ = std::max(busy_workers_, dev.busy_worker_count());
}

void MetricsRegistry::record_service(const ServiceSample& s) {
  service_samples_ += 1;
  service_.sessions_active =
      std::max(service_.sessions_active, s.sessions_active);
  service_.sessions_completed =
      std::max(service_.sessions_completed, s.sessions_completed);
  service_.sessions_failed =
      std::max(service_.sessions_failed, s.sessions_failed);
  service_.session_busy_seconds_max = std::max(
      service_.session_busy_seconds_max, s.session_busy_seconds_max);
  service_.session_busy_seconds_total = std::max(
      service_.session_busy_seconds_total, s.session_busy_seconds_total);
  service_.quota_high_water_bytes = std::max(
      service_.quota_high_water_bytes, s.quota_high_water_bytes);
}

std::uint64_t MetricsRegistry::launches() const {
  std::uint64_t n = 0;
  for (const KernelStats& k : kernels_) n += k.launches;
  return n;
}

void MetricsRegistry::print(std::ostream& os) const {
  Table t("per-kernel launch metrics",
          {"kernel", "launches", "seconds", "p50", "p95", "max", "fp32",
           "int32", "bytes", "syncwarp"});
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const KernelStats& k = kernels_[i];
    if (k.launches == 0) continue;
    t.add_row({std::string(kernel_name(static_cast<Kernel>(i))),
               Table::num(static_cast<long long>(k.launches)),
               Table::sci(k.seconds), Table::sci(k.latency.p50_seconds()),
               Table::sci(k.latency.p95_seconds()),
               Table::sci(k.latency.max_seconds()),
               Table::num(static_cast<long long>(
                   k.ops.fp32_core_instructions())),
               Table::num(static_cast<long long>(k.ops.int_ops)),
               Table::num(static_cast<long long>(k.ops.total_bytes())),
               Table::num(static_cast<long long>(k.ops.syncwarp))});
  }
  t.print(os);
  os << "steps observed: " << steps_
     << ", overlap hidden by streams: " << Table::sci(overlap_sum_)
     << " s, negative-overlap steps: " << negative_overlap_steps_;
  if (negative_overlap_steps_ > 0) {
    os << " (worst " << Table::sci(min_raw_overlap_) << " s)";
  }
  os << "\n";
  if (imbalance_steps_ > 0) {
    os << "walk imbalance (max worker / mean worker): mean "
       << Table::sci(imbalance_mean()) << ", worst "
       << Table::sci(imbalance_max_) << " over " << imbalance_steps_
       << " steps\n";
  }
  if (shard_steps_ > 0) {
    os << "shard imbalance (max busy / mean busy over " << shards_max_
       << " shards): mean " << Table::sci(shard_imbalance_mean())
       << ", worst " << Table::sci(shard_imbalance_max_) << " over "
       << shard_steps_ << " steps; LET traffic " << let_cells_total_
       << " cells, " << let_bodies_total_ << " bodies\n";
  }
  if (workers_ > 0) {
    os << "arena gauges: " << workers_ << " workers, high-water capacity "
       << arena_capacity_ << " B, heap allocations "
       << arena_heap_allocations_ << "\n";
  }
  if (busy_workers_ > 0) {
    os << "worker busy time: " << busy_workers_ << " busy workers, total "
       << Table::sci(busy_total_seconds_) << " s, busiest "
       << Table::sci(busy_max_seconds_) << " s\n";
  }
  if (service_samples_ > 0) {
    os << "service sessions: active " << service_.sessions_active
       << ", completed " << service_.sessions_completed << ", failed "
       << service_.sessions_failed << "; session busy total "
       << Table::sci(service_.session_busy_seconds_total) << " s, busiest "
       << Table::sci(service_.session_busy_seconds_max)
       << " s, quota high-water " << service_.quota_high_water_bytes
       << " B\n";
  }
}

void MetricsRegistry::reset() { *this = MetricsRegistry{}; }

} // namespace gothic::trace
