#include "trace/flight_recorder.hpp"

#include "trace/record_json.hpp"
#include "util/env.hpp"
#include "util/minijson.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <system_error>

namespace gothic::trace {

namespace {

using minijson::num;

std::string launch_json(const runtime::LaunchRecord& r) {
  std::string deps = "[";
  bool first = true;
  for (const std::uint64_t d : r.deps) {
    if (d == 0) continue;
    if (!first) deps += ", ";
    deps += num(d);
    first = false;
  }
  deps += "]";
  return "{\"id\": " + num(r.id) + ", \"kernel\": " +
         minijson::quoted(kernel_name(r.kernel)) +
         ", \"label\": " + minijson::quoted(r.label) +
         ", \"stream\": " + minijson::quoted(r.stream) +
         ", \"deps\": " + deps +
         ",\n       \"items\": " +
         num(static_cast<std::uint64_t>(r.items)) +
         ", \"workers\": " + std::to_string(r.workers) +
         ", \"seconds\": " + num(r.seconds) +
         ", \"t_begin\": " + num(r.t_begin) +
         ", \"t_end\": " + num(r.t_end) +
         ",\n       \"ops\": " + ops_json(r.ops) + "}";
}

} // namespace

std::string FlightRecorder::env_flight_path() {
  return env_string("GOTHIC_FLIGHT", "");
}

bool FlightRecorder::env_enabled() { return !env_flight_path().empty(); }

FlightRecorder::FlightRecorder(std::size_t launch_capacity,
                               std::size_t step_capacity)
    : ring_(launch_capacity == 0 ? 1 : launch_capacity),
      steps_(step_capacity == 0 ? 1 : step_capacity),
      dump_path_(env_flight_path()) {}

void FlightRecorder::on_record(const runtime::LaunchRecord& rec) {
  runtime::LaunchRecord& slot = ring_[seen_records_ % ring_.size()];
  slot = rec;
  names_.adopt(slot);
  ++seen_records_;
}

void FlightRecorder::on_step(const runtime::StepMark& mark) {
  steps_[seen_steps_ % steps_.size()] = mark;
  ++seen_steps_;
}

void FlightRecorder::write(std::ostream& os, const std::string& reason) const {
  std::string launches;
  const std::uint64_t cap = ring_.size();
  const std::uint64_t held = seen_records_ < cap ? seen_records_ : cap;
  for (std::uint64_t i = 0; i < held; ++i) {
    // Oldest-first: the ring cursor points at the slot the *next* record
    // would take, which is the oldest one held once the ring wrapped.
    const std::uint64_t slot = (seen_records_ - held + i) % cap;
    if (!launches.empty()) launches += ",\n      ";
    launches += launch_json(ring_[slot]);
  }
  std::string marks;
  const std::uint64_t scap = steps_.size();
  const std::uint64_t sheld = seen_steps_ < scap ? seen_steps_ : scap;
  for (std::uint64_t i = 0; i < sheld; ++i) {
    const std::uint64_t slot = (seen_steps_ - sheld + i) % scap;
    if (!marks.empty()) marks += ",\n      ";
    marks += '{';
    marks += step_fields(steps_[slot]);
    marks += '}';
  }
  os << "{\n  \"flight_recorder\": {\n    \"v\": 1,\n    \"reason\": "
     << minijson::quoted(reason)
     << ",\n    \"seen_records\": " << seen_records_
     << ",\n    \"seen_steps\": " << seen_steps_
     << ",\n    \"launch_capacity\": " << ring_.size()
     << ",\n    \"step_capacity\": " << steps_.size()
     << ",\n    \"launches\": [\n      " << launches
     << "\n    ],\n    \"steps\": [\n      " << marks << "\n    ]\n  }\n}\n";
}

std::string FlightRecorder::resolve_dump_path(const std::string& path) const {
  if (path == "-" || path == "stderr") return "stderr";
  const std::size_t slash = path.find_last_of('/');
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    dot = path.size();
  }
  const std::string ext = path.substr(dot);
  std::string base = path.substr(0, dot);
  if (!dump_tag_.empty()) base += "." + dump_tag_;
  std::string candidate = base + ext;
  std::error_code ec;
  for (int n = 1; std::filesystem::exists(candidate, ec); ++n) {
    candidate = base + "." + std::to_string(n) + ext;
  }
  return candidate;
}

bool FlightRecorder::dump_to(const std::string& path,
                             const std::string& reason) const {
  if (path == "-" || path == "stderr") {
    write(std::cerr, reason);
    last_dump_path_ = "stderr";
    return true;
  }
  // Serialize resolve + create: two recorders faulting at the same moment
  // (two sessions of a device pool) must not pick the same candidate.
  // Incident dumps are cold error paths, so one process-wide lock is fine.
  static std::mutex dump_mutex;
  const std::lock_guard<std::mutex> lock(dump_mutex);
  const std::string dest = resolve_dump_path(path);
  std::ofstream os(dest);
  if (os) write(os, reason);
  if (!os) {
    std::fprintf(stderr,
                 "gothic: error: could not write flight-recorder dump %s\n",
                 dest.c_str());
    return false;
  }
  last_dump_path_ = dest;
  return true;
}

bool FlightRecorder::dump(const std::string& reason) const {
  if (dump_path_.empty()) return true;
  return dump_to(dump_path_, reason);
}

} // namespace gothic::trace
