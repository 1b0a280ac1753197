#include "trace/trace_writer.hpp"

#include "trace/record_json.hpp"
#include "util/minijson.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <ostream>

namespace gothic::trace {

namespace {

using minijson::escaped;
using minijson::num;

/// Microseconds — the unit Perfetto and chrome://tracing expect.
std::string usec(double seconds) { return num(seconds * 1e6); }

/// Emits one trace event object per emit() call, comma-separating them.
class EventArray {
public:
  explicit EventArray(std::ostream& os) : os_(os) { os_ << "["; }
  void emit(const std::string& body) {
    os_ << (first_ ? "\n  {" : ",\n  {") << body << "}";
    first_ = false;
  }
  void close() { os_ << "\n]"; }

private:
  std::ostream& os_;
  bool first_ = true;
};

std::string meta_event(const char* name, int tid, const std::string& value) {
  return std::string("\"name\":\"") + name +
         "\",\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":\"" + value + "\"}";
}

} // namespace

TraceWriter::TraceWriter(std::size_t max_records)
    : max_records_(std::max<std::size_t>(max_records, 1)) {
  // Warm-up-capacity pattern (as in InstrumentationSink): reserve a chunk
  // up front so steady small traces never reallocate mid-launch.
  records_.reserve(std::min<std::size_t>(max_records_, 1024));
  steps_.reserve(256);
}

void TraceWriter::on_record(const runtime::LaunchRecord& rec) {
  if (records_.size() >= max_records_) {
    ++dropped_;
    return;
  }
  records_.push_back(rec);
  names_.adopt(records_.back());
}

void TraceWriter::on_step(const runtime::StepMark& mark) {
  steps_.push_back(mark);
}

void TraceWriter::write(std::ostream& os) const {
  // Track table: tid 0 is the step-marker track, tids 1.. are the stream
  // lanes in order of first appearance.
  std::vector<const char*> streams;
  auto tid_of = [&](const char* stream) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (std::string_view(streams[i]) == stream) {
        return static_cast<int>(i) + 1;
      }
    }
    streams.push_back(stream);
    return static_cast<int>(streams.size());
  };
  for (const runtime::LaunchRecord& rec : records_) (void)tid_of(rec.stream);

  // Launch id -> buffered record, for resolving dependency edges.
  std::vector<const runtime::LaunchRecord*> by_id(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) by_id[i] = &records_[i];
  std::sort(by_id.begin(), by_id.end(),
            [](const runtime::LaunchRecord* a,
               const runtime::LaunchRecord* b) { return a->id < b->id; });
  auto find_record = [&](std::uint64_t id) -> const runtime::LaunchRecord* {
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [](const runtime::LaunchRecord* r, std::uint64_t v) {
          return r->id < v;
        });
    return it != by_id.end() && (*it)->id == id ? *it : nullptr;
  };

  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": ";
  EventArray events(os);

  events.emit(meta_event("process_name", 0, "gothic launch DAG"));
  events.emit(meta_event("thread_name", 0, "steps"));
  for (std::size_t i = 0; i < streams.size(); ++i) {
    events.emit(meta_event("thread_name", static_cast<int>(i) + 1,
                           "stream " + escaped(streams[i])));
  }

  // Duration events: one span per launch body on its stream's track.
  for (const runtime::LaunchRecord& rec : records_) {
    const std::string args = "\"id\":" + std::to_string(rec.id) +
                             ",\"items\":" + std::to_string(rec.items) +
                             ",\"workers\":" + std::to_string(rec.workers) +
                             "," + ops_fields(rec.ops);
    events.emit("\"name\":\"" + escaped(rec.label) + "\",\"cat\":\"" +
                std::string(kernel_name(rec.kernel)) +
                "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
                std::to_string(tid_of(rec.stream)) +
                ",\"ts\":" + usec(rec.t_begin) +
                ",\"dur\":" + usec(rec.t_end - rec.t_begin) + ",\"args\":{" +
                args + "}");
  }

  // Flow events: one s/f pair per cross-stream dependency edge. Edges
  // within a stream are implied by its FIFO order and stay un-arrowed.
  for (const runtime::LaunchRecord& rec : records_) {
    for (std::uint64_t dep : rec.deps) {
      if (dep == 0) continue;
      const runtime::LaunchRecord* src = find_record(dep);
      if (src == nullptr ||
          std::string_view(src->stream) == rec.stream) {
        continue;
      }
      const std::string flow_id =
          std::to_string(src->id) + "->" + std::to_string(rec.id);
      events.emit("\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":\"" +
                  flow_id + "\",\"pid\":1,\"tid\":" +
                  std::to_string(tid_of(src->stream)) +
                  ",\"ts\":" + usec(src->t_end));
      events.emit("\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\","
                  "\"id\":\"" +
                  flow_id + "\",\"pid\":1,\"tid\":" +
                  std::to_string(tid_of(rec.stream)) +
                  ",\"ts\":" + usec(rec.t_begin));
    }
  }

  // Instant markers for step / rebuild boundaries.
  for (const runtime::StepMark& mark : steps_) {
    const std::string common =
        ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":" +
        usec(mark.t_begin);
    std::string step_args =
        "\"kernel_seconds\":" + usec(mark.kernel_seconds) +
        ",\"wall_seconds\":" + usec(mark.wall_seconds) +
        ",\"raw_overlap_us\":" + usec(mark.raw_overlap_seconds()) +
        ",\"walk_imbalance\":" + num(mark.walk_imbalance);
    if (mark.shards > 0) {
      step_args += ",\"shards\":" + std::to_string(mark.shards) +
                   ",\"shard_imbalance\":" + num(mark.shard_imbalance()) +
                   ",\"let_cells\":" + std::to_string(mark.let_cells) +
                   ",\"let_bodies\":" + std::to_string(mark.let_bodies);
    }
    events.emit("\"name\":\"step " + std::to_string(mark.index) + "\"" +
                common + ",\"args\":{" + step_args + "}");
    if (mark.rebuilt) {
      events.emit("\"name\":\"rebuild\"" + common + ",\"args\":{}");
    }
    // Walk load-imbalance counter track: one sample per step (1 = perfect
    // balance, nw = one worker carried the whole walk); steps without walk
    // timing carry 0 and are visually obvious.
    events.emit("\"name\":\"walk_imbalance\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
                usec(mark.t_begin) + ",\"args\":{\"ratio\":" +
                num(mark.walk_imbalance) + "}");
    // Shard busy-time imbalance and LET traffic counter tracks (sharded
    // runs only; per-shard launch lanes already exist via the
    // "shardK/..." stream names).
    if (mark.shards > 0) {
      events.emit(
          "\"name\":\"shard_imbalance\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
          usec(mark.t_begin) + ",\"args\":{\"ratio\":" +
          num(mark.shard_imbalance()) + "}");
      events.emit("\"name\":\"let_traffic\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
                  usec(mark.t_begin) + ",\"args\":{\"cells\":" +
                  std::to_string(mark.let_cells) + ",\"bodies\":" +
                  std::to_string(mark.let_bodies) + "}");
    }
  }

  // Counter tracks: cumulative op categories sampled at each completion
  // (in completion order), plus the launches-in-flight count derived from
  // the launch begin/end edges.
  std::vector<std::size_t> by_end(records_.size());
  std::iota(by_end.begin(), by_end.end(), std::size_t{0});
  std::stable_sort(by_end.begin(), by_end.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records_[a].t_end < records_[b].t_end;
                   });
  simt::OpCounts cumulative;
  for (std::size_t i : by_end) {
    const runtime::LaunchRecord& rec = records_[i];
    cumulative += rec.ops;
    events.emit("\"name\":\"ops\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
                usec(rec.t_end) + ",\"args\":" + ops_json(cumulative));
  }

  struct Edge {
    double t;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(records_.size() * 2);
  for (const runtime::LaunchRecord& rec : records_) {
    edges.push_back({rec.t_begin, 1});
    edges.push_back({rec.t_end, -1});
  }
  std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t < b.t || (a.t == b.t && a.delta < b.delta);
  });
  int in_flight = 0;
  for (const Edge& e : edges) {
    in_flight += e.delta;
    events.emit(
        "\"name\":\"launches_in_flight\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
        usec(e.t) + ",\"args\":{\"launches\":" + std::to_string(in_flight) +
        "}");
  }

  events.close();
  os << ",\n\"otherData\": {\"records\": " << records_.size()
     << ", \"dropped_records\": " << dropped_ << ", \"steps\": "
     << steps_.size() << "}\n}\n";
}

bool TraceWriter::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return static_cast<bool>(os);
}

} // namespace gothic::trace
