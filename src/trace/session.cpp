#include "trace/session.hpp"

#include "util/env.hpp"

#include <cstdio>
#include <fstream>

namespace gothic::trace {

std::string Session::env_trace_path() {
  return env_string("GOTHIC_TRACE", "");
}

Session::Session(std::string trace_path, std::string telemetry_path)
    : path_(std::move(trace_path)) {
  if (!path_.empty()) {
    writer_ = std::make_unique<TraceWriter>();
    // Probe the destination now so a bad GOTHIC_TRACE path is reported at
    // startup instead of silently producing no trace at finish(). Append
    // mode: creates the file if missing, never truncates an existing one.
    std::ofstream probe(path_, std::ios::app);
    if (!probe) {
      std::fprintf(stderr,
                   "gothic: error: trace destination %s is not writable "
                   "(GOTHIC_TRACE); the trace will be lost\n",
                   path_.c_str());
    }
  }
  if (!telemetry_path.empty()) {
    telemetry_ = std::make_unique<TelemetryWriter>(std::move(telemetry_path));
  }
}

void Session::on_record(const runtime::LaunchRecord& rec) {
  if (writer_) writer_->on_record(rec);
  metrics_.record_launch(rec);
}

void Session::on_step(const runtime::StepMark& mark) {
  if (writer_) writer_->on_step(mark);
  metrics_.record_step(mark);
  // Host-thread call (after the step's synchronize) — file I/O is safe.
  if (telemetry_) telemetry_->write_step(mark, metrics_);
}

bool Session::finish(const std::vector<const runtime::Device*>& devices) {
  metrics_.observe_devices(devices);
  if (!writer_) return true;
  return writer_->write_file(path_);
}

} // namespace gothic::trace
