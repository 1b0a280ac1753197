#include "trace/telemetry.hpp"

#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "trace/metrics.hpp"
#include "trace/record_json.hpp"
#include "util/env.hpp"
#include "util/minijson.hpp"

#include <algorithm>
#include <cstdio>

namespace gothic::trace {

using minijson::num;

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
}

void TelemetryWriter::write_step(const runtime::StepMark& mark,
                                 const MetricsRegistry& metrics) {
  if (!ok_) return;
  if (lines_ == 0) {
    // The run's config fingerprint — enough to group/partition a scraped
    // time series by substrate configuration — read from what ran, not
    // from the environment: the SIMD tier in effect (environment, CPU
    // support, build and any ScopedSimd override together), every
    // Device's lane count, the worker count the launches ran their
    // collectives on, and the step's shard count (an unsharded step is
    // one shard).
    os_ << "{\"type\": \"config\", \"v\": 1"
        << ", \"simd\": " << (simt::simd_enabled() ? 1 : 0)
        << ", \"lanes\": " << runtime::Device::kLanes
        << ", \"threads\": " << metrics.launch_workers()
        << ", \"shards\": " << std::max(mark.shards, 1) << "}\n";
    ++lines_;
  }
  std::string kernels;
  for (int k = 0; k < static_cast<int>(Kernel::Count); ++k) {
    const KernelStats& ks = metrics.kernel(static_cast<Kernel>(k));
    if (ks.launches == 0) continue;
    if (!kernels.empty()) kernels += ", ";
    kernels += minijson::quoted(kernel_name(static_cast<Kernel>(k))) +
               ": {\"launches\": " + num(ks.launches) +
               ", \"seconds\": " + num(ks.seconds) +
               ", \"p50_seconds\": " + num(ks.latency.p50_seconds()) +
               ", \"p95_seconds\": " + num(ks.latency.p95_seconds()) + "}";
  }
  os_ << "{\"type\": \"step\", \"v\": 1, " << step_fields(mark)
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
