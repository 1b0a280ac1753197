// trace::Session — the one-stop observability hook.
//
// A Session implements runtime::RecordListener and fans the stream out to
// (a) a MetricsRegistry (always on — fixed-size aggregation), (b) an
// optional TraceWriter created when a trace path is configured, either
// explicitly or via GOTHIC_TRACE=<path>, and (c) an optional step
// TelemetryWriter (JSONL time series) when a telemetry path is configured,
// explicitly or via GOTHIC_TELEMETRY=<path>. Attach it with
// ShardedSimulation::set_instrumentation_listener(&session) (or replay a
// raw Device's sink().step_records() into it after synchronize()), run,
// and call finish() to sample the device gauges and flush the trace file.
//
// When GOTHIC_TRACE/GOTHIC_TELEMETRY are unset and no session is attached
// anywhere, the instrumentation stream has no observer and costs nothing
// beyond the sink's own records.
#pragma once

#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace_writer.hpp"

#include <cstddef>
#include <memory>
#include <string>

namespace gothic::trace {

class Session : public runtime::RecordListener {
public:
  /// Trace destination from GOTHIC_TRACE; empty = tracing off.
  [[nodiscard]] static std::string env_trace_path();

  /// An empty `trace_path` enables metrics only; a non-empty path also
  /// buffers a Perfetto trace destined for that file. A non-empty
  /// `telemetry_path` additionally streams one JSONL record per step.
  /// Unwritable paths error once to stderr and are disabled; the session
  /// (and the run) continues.
  explicit Session(std::string trace_path = env_trace_path(),
                   std::string telemetry_path =
                       TelemetryWriter::env_telemetry_path());

  [[nodiscard]] bool tracing() const { return writer_ != nullptr; }
  [[nodiscard]] const std::string& trace_path() const { return path_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TraceWriter* writer() { return writer_.get(); }
  /// Non-null when a telemetry stream was requested (even if it failed to
  /// open — check ok()).
  [[nodiscard]] TelemetryWriter* telemetry() { return telemetry_.get(); }

  /// Launch records dropped by the trace writer's bounded buffer (0 when
  /// not tracing). Non-zero means the Perfetto timeline is truncated.
  [[nodiscard]] std::size_t dropped() const {
    return writer_ ? writer_->dropped_records() : 0;
  }

  void on_record(const runtime::LaunchRecord& rec) override;
  void on_step(const runtime::StepMark& mark) override;

  /// Sample the device's arena gauges into the registry and flush the
  /// trace file when tracing. Returns false only on trace I/O failure.
  bool finish(const runtime::Device& dev);

private:
  std::string path_;
  std::unique_ptr<TraceWriter> writer_;
  std::unique_ptr<TelemetryWriter> telemetry_;
  MetricsRegistry metrics_;
};

} // namespace gothic::trace
