#include "trace/telemetry.hpp"

#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "trace/metrics.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

#include <cstdio>

namespace gothic::trace {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

} // namespace

std::string TelemetryWriter::env_telemetry_path() {
  return env_string("GOTHIC_TELEMETRY", "");
}

TelemetryWriter::TelemetryWriter(std::string path) : path_(std::move(path)) {
  os_.open(path_);
  if (!os_) {
    std::fprintf(stderr,
                 "gothic: error: could not open telemetry stream %s "
                 "(GOTHIC_TELEMETRY); telemetry disabled for this run\n",
                 path_.c_str());
    return;
  }
  ok_ = true;
  write_config();
}

void TelemetryWriter::write_config() {
  // The run's environment fingerprint — enough to group/partition a
  // scraped time series by substrate configuration. The lanes and SIMD
  // fields are what runs: every Device's lane count, and the tier in
  // effect (environment, CPU support, build and any ScopedSimd override
  // together), not the variables. The walk has one schedule, so it is not
  // part of the fingerprint.
  os_ << "{\"type\": \"config\", \"v\": 1"
      << ", \"simd\": " << (simt::simd_enabled() ? 1 : 0)
      << ", \"lanes\": " << runtime::Device::kLanes
      << ", \"threads\": " << env_size("GOTHIC_THREADS", 0)
      << ", \"shards\": " << env_size("GOTHIC_SHARDS", 1) << "}\n"
      << std::flush;
  ++lines_;
}

void TelemetryWriter::write_step(const runtime::StepMark& mark,
                                 const MetricsRegistry& metrics) {
  if (!ok_) return;
  std::string kernels;
  for (int k = 0; k < static_cast<int>(Kernel::Count); ++k) {
    const KernelStats& ks = metrics.kernel(static_cast<Kernel>(k));
    if (ks.launches == 0) continue;
    if (!kernels.empty()) kernels += ", ";
    kernels += "\"";
    kernels += kernel_name(static_cast<Kernel>(k));
    kernels += "\": {\"launches\": " + num(ks.launches) +
               ", \"seconds\": " + num(ks.seconds) +
               ", \"p50_seconds\": " + num(ks.latency.p50_seconds()) +
               ", \"p95_seconds\": " + num(ks.latency.p95_seconds()) + "}";
  }
  os_ << "{\"type\": \"step\", \"v\": 1, \"index\": " << mark.index
      << ", \"rebuilt\": " << (mark.rebuilt ? "true" : "false")
      << ", \"kernel_seconds\": " << num(mark.kernel_seconds)
      << ", \"wall_seconds\": " << num(mark.wall_seconds)
      << ", \"raw_overlap_seconds\": " << num(mark.raw_overlap_seconds())
      << ", \"walk_imbalance\": " << num(mark.walk_imbalance)
      << ", \"shards\": " << mark.shards
      << ", \"shard_busy_max\": " << num(mark.shard_busy_max)
      << ", \"shard_busy_mean\": " << num(mark.shard_busy_mean)
      << ", \"shard_imbalance\": " << num(mark.shard_imbalance())
      << ", \"let_cells\": " << num(mark.let_cells)
      << ", \"let_bodies\": " << num(mark.let_bodies)
      << ", \"kernels\": {" << kernels << "}"
      << ", \"arena_capacity_bytes\": "
      << num(static_cast<std::uint64_t>(metrics.arena_capacity_bytes()))
      << ", \"arena_heap_allocations\": "
      << num(metrics.arena_heap_allocations()) << "}\n"
      << std::flush;
  if (!os_) {
    ok_ = false;
    std::fprintf(stderr,
                 "gothic: error: telemetry stream %s failed mid-run; "
                 "telemetry disabled\n",
                 path_.c_str());
    return;
  }
  ++lines_;
}

} // namespace gothic::trace
