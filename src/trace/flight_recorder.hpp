// trace::FlightRecorder — an always-on, bounded incident recorder over the
// instrumentation stream.
//
// The recorder keeps the most recent launch records and step marks in
// fixed-capacity rings (no steady-state allocation: the rings are sized at
// construction and label/stream names are interned into a recorder-owned
// table, so after warm-up a ring write copies PODs and allocates nothing).
// When something goes wrong — a launch body throws, a shard device fails,
// a fuzz fault plan fires — the owner dumps the rings as one readable JSON
// incident report: every recent launch with its id, kernel, stream and
// dependency edges, plus the recent step marks. A gothic_fuzz failure seed
// thus carries its own flight data instead of requiring a re-run under a
// Perfetto session.
//
// Enablement is environment-driven: GOTHIC_FLIGHT=<path> makes the step
// engine and testkit::run_fault_plan construct a recorder and
// dump to <path> on their error paths ("-" dumps to stderr). When the
// variable is unset nothing is constructed and the hot path keeps its
// null-listener pointer test.
//
// Chaining: a sink has exactly one listener slot, so the recorder sits at
// the head and forwards every record/mark to an optional downstream
// listener (e.g. a trace::Session) via set_next() — the ring write adds
// two pointer copies and an interned-name probe on top of whatever the
// downstream costs.
//
// Thread discipline: on_record() runs wherever its feeder calls it — under
// the issuing device's launch lock for a sink listener (single device ⇒
// serialized), on the stepping thread for the step engine;
// record_only()/on_step()/write()/dump() are host-thread calls made while
// no launch targeting the feeding sink is in flight.
#pragma once

#include "runtime/stream.hpp"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

namespace gothic::trace {

class FlightRecorder : public runtime::RecordListener {
public:
  static constexpr std::size_t kDefaultLaunchCapacity = 256;
  static constexpr std::size_t kDefaultStepCapacity = 64;

  /// Dump destination from GOTHIC_FLIGHT; empty = flight recording off.
  [[nodiscard]] static std::string env_flight_path();
  /// True when GOTHIC_FLIGHT names a destination.
  [[nodiscard]] static bool env_enabled();

  explicit FlightRecorder(
      std::size_t launch_capacity = kDefaultLaunchCapacity,
      std::size_t step_capacity = kDefaultStepCapacity);

  // RecordListener: ring write, then forward to the downstream listener.
  void on_record(const runtime::LaunchRecord& rec) override;
  void on_step(const runtime::StepMark& mark) override;

  /// Ring write without forwarding — the error-path backfill used when a
  /// step aborts before its records were forwarded to the listener chain
  /// (the step engine feeds its shard sinks through this before dumping).
  void record_only(const runtime::LaunchRecord& rec);

  /// Attach (or detach, with nullptr) the downstream listener every
  /// record/mark is forwarded to after the ring write.
  void set_next(runtime::RecordListener* next) { next_ = next; }
  [[nodiscard]] runtime::RecordListener* next() const { return next_; }

  [[nodiscard]] std::size_t launch_capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t step_capacity() const { return steps_.size(); }
  /// Total records / step marks observed (>= what the rings still hold).
  [[nodiscard]] std::uint64_t seen_records() const { return seen_records_; }
  [[nodiscard]] std::uint64_t seen_steps() const { return seen_steps_; }

  /// Serialize the rings (oldest first) as one incident-report JSON object
  /// with the given human-readable reason.
  void write(std::ostream& os, const std::string& reason) const;

  /// write() to `path` ("-" or "stderr" = stderr); false on I/O failure
  /// (reported once to stderr with the path). File destinations go through
  /// resolve_dump_path(), so concurrent faulting simulations never clobber
  /// each other's incident reports; the path actually written is available
  /// from last_dump_path().
  bool dump_to(const std::string& path, const std::string& reason) const;

  /// dump_to() the GOTHIC_FLIGHT destination captured at construction.
  /// No-op (returns true) when the recorder was built with the variable
  /// unset and no destination was captured.
  bool dump(const std::string& reason) const;

  /// Tag inserted before the path extension of every file dump (e.g. the
  /// serving-session name): tag "s3" turns "flight.json" into
  /// "flight.s3.json", so a pool of sessions sharing one GOTHIC_FLIGHT
  /// destination yields identifiable per-session incident reports.
  void set_dump_tag(std::string tag) { dump_tag_ = std::move(tag); }
  [[nodiscard]] const std::string& dump_tag() const { return dump_tag_; }

  /// The collision-free destination dump_to() would write `path` to right
  /// now: the dump tag (if any) lands before the extension, and a numeric
  /// suffix bumps the name past any file that already exists — an
  /// existing dump is never overwritten. "-"/"stderr" resolve to
  /// "stderr".
  [[nodiscard]] std::string resolve_dump_path(const std::string& path) const;

  /// Destination of the most recent successful dump ("stderr" for the
  /// stderr sink; empty when nothing was dumped yet).
  [[nodiscard]] const std::string& last_dump_path() const {
    return last_dump_path_;
  }

private:
  [[nodiscard]] const char* intern(const char* s);

  std::vector<runtime::LaunchRecord> ring_;
  std::vector<runtime::StepMark> steps_;
  std::uint64_t seen_records_ = 0;
  std::uint64_t seen_steps_ = 0;
  /// Recorder-owned label/stream names (std::deque: stable addresses).
  std::deque<std::string> names_;
  std::string dump_path_;
  std::string dump_tag_;
  mutable std::string last_dump_path_;
  runtime::RecordListener* next_ = nullptr;
};

} // namespace gothic::trace
