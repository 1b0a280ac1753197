// TraceWriter — serializes the launch DAG to Chrome/Perfetto trace-event
// JSON: the repo's stand-in for an nvprof/nsys kernel timeline.
//
// The writer buffers every completed LaunchRecord and per-step StepMark it
// observes (as a runtime::RecordListener) and converts them to the trace
// schema on write():
//
//  * one track (pid 1, tid >= 1) per stream lane, named after the stream;
//    each launch body is a duration event ("ph":"X") on its stream's track
//    carrying the launch id, items, workers and op tallies;
//  * flow events ("ph":"s"/"f") for every cross-stream dependency edge of
//    LaunchRecord::deps (same-stream edges are implied by FIFO order);
//  * instant markers ("ph":"i") on the tid-0 "steps" track for step and
//    rebuild boundaries;
//  * cumulative counter tracks ("ph":"C") for the paper's op categories
//    (fp32, int32, load/store bytes, syncwarp — the Volta-vs-Pascal
//    headline metric) sampled at each launch completion, plus a
//    "launches_in_flight" counter (+1 at each body's begin, -1 at its
//    end): every launch's collectives use its device's whole pool, so
//    bodies, not workers, are what overlap.
//
// Buffering is bounded: the writer holds at most `max_records` records
// (excess launches are counted as dropped and noted in the JSON metadata),
// and name pointers are re-interned into a writer-owned table so the trace
// can be flushed after the originating sink/streams are gone. Timestamps
// are microseconds of the process clock (process_seconds()), so every
// device of a run shares one time axis, and a written file loads directly
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include "runtime/stream.hpp"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace gothic::trace {

class TraceWriter : public runtime::RecordListener {
public:
  static constexpr std::size_t kDefaultMaxRecords = std::size_t{1} << 20;

  explicit TraceWriter(std::size_t max_records = kDefaultMaxRecords);

  // RecordListener: both overrides only append to the pre-reserved
  // buffers.
  void on_record(const runtime::LaunchRecord& rec) override;
  void on_step(const runtime::StepMark& mark) override;

  [[nodiscard]] std::size_t record_count() const { return records_.size(); }
  [[nodiscard]] std::size_t step_count() const { return steps_.size(); }
  [[nodiscard]] std::size_t dropped_records() const { return dropped_; }
  [[nodiscard]] const std::vector<runtime::LaunchRecord>& records() const {
    return records_;
  }

  /// Serialize the buffered stream as one self-contained JSON object.
  void write(std::ostream& os) const;
  /// write() to `path`; false (with the buffer intact) on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

private:
  std::vector<runtime::LaunchRecord> records_;
  std::vector<runtime::StepMark> steps_;
  runtime::NameTable names_; ///< writer-owned label/stream storage
  std::size_t max_records_;
  std::size_t dropped_ = 0;
};

} // namespace gothic::trace
