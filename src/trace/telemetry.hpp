// trace::TelemetryWriter — a schema-pinned JSONL step-telemetry stream.
//
// One line per record, flushed as written, so a long run produces a time
// series any external scraper can tail:
//
//   {"type":"config","v":1,...}    once, just before the first step
//                                  line — the run's config fingerprint,
//                                  all of it as it ran: the SIMD tier,
//                                  the lanes of every device, the
//                                  launches' worker count and the first
//                                  StepMark's shard count
//   {"type":"step","v":1,...}      once per step — the StepMark's fields
//                                  (trace/record_json.hpp), plus
//                                  cumulative per-kernel launch
//                                  counts/seconds/p50/p95 and the arena
//                                  gauges from the MetricsRegistry as of
//                                  that step.
//
// The writer is driven from trace::Session::on_step(), which the step
// engine calls on the host thread after the step's join — file I/O is safe
// there and adds nothing to the launch hot path. Enablement follows the
// same pattern as GOTHIC_TRACE: GOTHIC_TELEMETRY=<path> (or a Session
// constructed with an explicit path). An unwritable path errors once to
// stderr and disables the stream; the run continues.
#pragma once

#include "runtime/stream.hpp"

#include <cstdint>
#include <fstream>
#include <string>

namespace gothic::trace {

class MetricsRegistry;

class TelemetryWriter {
public:
  /// Stream destination from GOTHIC_TELEMETRY; empty = telemetry off.
  [[nodiscard]] static std::string env_telemetry_path();

  /// Opens `path`; the config line waits for the first step. On failure,
  /// reports once to stderr and leaves the writer disabled (ok() == false).
  explicit TelemetryWriter(std::string path);

  /// True while the stream is open and healthy.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Lines emitted (config + steps).
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

  /// Emit one step record, preceded on the first call by the config line.
  /// `metrics` supplies the cumulative per-kernel stats and arena gauges
  /// embedded in the line, and the worker count the config line logs.
  void write_step(const runtime::StepMark& mark,
                  const MetricsRegistry& metrics);

private:

  std::string path_;
  std::ofstream os_;
  bool ok_ = false;
  std::uint64_t lines_ = 0;
};

} // namespace gothic::trace
