// The benchmark's own tracing, recorded from outside the engine: spans
// around the calls into each layer, and the engine's launch records
// received through a RecordListener. Everything stays in memory and is
// written as one Chrome-trace JSON when the run ends.
#pragma once

#include "runtime/stream.hpp"
#include "trace/trace_writer.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Tracer : public gothic::runtime::RecordListener {
public:
  /// A disabled tracer records nothing; its clock still runs.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Seconds since the tracer was created (steady clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  /// Record a finished span. Spans of one request share `request`.
  void span(const char* name, double t0, double t1, std::uint64_t request = 0);

  /// Align the devices of the launch records received since the previous
  /// call against `t_returned`, the tracer time at which the engine call
  /// that issued them returned.
  void align(double t_returned);

  /// Move the pending launch records, shifted onto the tracer clock, into
  /// the trace. Call before the engine that issued them is destroyed: its
  /// devices' epochs end with it.
  void flush_launches();

  // RecordListener. Called serially per device (under its launch lock, or
  // replayed after a sharded step); only appends.
  void on_record(const gothic::runtime::LaunchRecord& rec) override;

  /// Write the Chrome trace: the launches as trace::TraceWriter lays them
  /// out (one track per stream), plus the spans as a second process.
  /// Returns false on an I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

private:
  using clock = std::chrono::steady_clock;

  struct SpanEvent {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    std::uint64_t request = 0;
  };

  /// Records of one device share its epoch; the stream name up to its
  /// last '/' ("shard1", or "" for an unsharded engine) names the device.
  static std::string device_of(const char* stream);

  const bool enabled_;
  const clock::time_point epoch_ = clock::now();

  std::vector<SpanEvent> spans_;

  std::vector<gothic::runtime::LaunchRecord> pending_; ///< device epochs
  std::size_t aligned_to_ = 0; ///< first pending record not yet aligned
  /// Per device: the smallest (return time - last body end) over the
  /// engine calls since the last flush, an upper bound on its epoch offset
  /// that tightens as calls return right after their last launch.
  std::map<std::string, double> offsets_;
  gothic::trace::TraceWriter launches_; ///< on the tracer clock
};

} // namespace e2e
