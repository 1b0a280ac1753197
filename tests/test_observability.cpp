// The incident/telemetry layer added on the RecordListener seam: the
// flight recorder's bounded rings and golden dump schema (including a
// faulted launch captured with its dependency edges), the JSONL step
// telemetry stream, the unwritable-destination error contracts
// (GOTHIC_TRACE / GOTHIC_TELEMETRY / flight dumps degrade loudly but never
// abort the run), the StepMark shard fields asserted end-to-end from a
// 2-shard ShardedSimulation through a trace::Session's MetricsRegistry,
// and the engine's listener contract (callbacks on the stepping thread,
// each step's records before its mark, refresh_forces() records too).
#include "trace/flight_recorder.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/telemetry.hpp"

#include "nbody/sharded_simulation.hpp"
#include "nbody/simulation.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "testkit/fault.hpp"
#include "util/rng.hpp"

#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace gothic {
namespace {

using gothic::minijson::JsonParser;
using gothic::minijson::JsonValue;
using gothic::minijson::read_file;

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         JsonValue::Type type) {
  EXPECT_TRUE(obj.has(key)) << "missing key \"" << key << '"';
  const JsonValue& v = obj.at(key);
  EXPECT_EQ(static_cast<int>(v.type), static_cast<int>(type))
      << "key \"" << key << "\" has the wrong JSON type";
  return v;
}

runtime::LaunchRecord synthetic_record(std::uint64_t id, double t0,
                                       double t1) {
  runtime::LaunchRecord rec;
  rec.kernel = Kernel::WalkTree;
  rec.label = "synthetic";
  rec.stream = "s0";
  rec.id = id;
  rec.t_begin = t0;
  rec.t_end = t1;
  rec.seconds = t1 - t0;
  rec.workers = 2;
  rec.ops.fp32_fma = 10;
  return rec;
}

runtime::StepMark synthetic_mark(std::uint64_t index) {
  runtime::StepMark m;
  m.index = index;
  m.rebuilt = (index % 2) == 0;
  m.kernel_seconds = 2e-3;
  m.wall_seconds = 1.5e-3;
  m.walk_imbalance = 1.25;
  m.shards = 2;
  m.shard_busy_max = 1e-3;
  m.shard_busy_mean = 8e-4;
  m.let_cells = 7;
  m.let_bodies = 19;
  return m;
}

nbody::Particles plummer(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  nbody::Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(1e-6, 0.999);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    double ux, uy, uz;
    rng.unit_vector(ux, uy, uz);
    p.x[i] = static_cast<real>(r * ux);
    p.y[i] = static_cast<real>(r * uy);
    p.z[i] = static_cast<real>(r * uz);
    const double v = 0.5 / std::pow(1.0 + r * r, 0.25);
    rng.unit_vector(ux, uy, uz);
    p.vx[i] = static_cast<real>(v * ux);
    p.vy[i] = static_cast<real>(v * uy);
    p.vz[i] = static_cast<real>(v * uz);
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

nbody::SimConfig small_config() {
  nbody::SimConfig cfg;
  cfg.walk.eps = real(0.05);
  cfg.walk.mac.dacc = real(1.0 / 256);
  cfg.eta = 0.2;
  cfg.dt_max = 1.0 / 64;
  cfg.max_level = 3;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 2;
  return cfg;
}

// --- flight recorder: ring semantics ---------------------------------------

TEST(FlightRecorder, RingKeepsTheMostRecentEntriesOldestFirst) {
  trace::FlightRecorder flight(/*launch_capacity=*/4, /*step_capacity=*/2);
  EXPECT_EQ(flight.launch_capacity(), 4u);
  EXPECT_EQ(flight.step_capacity(), 2u);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    flight.on_record(synthetic_record(id, 0.0, 1e-4));
  }
  for (std::uint64_t i = 1; i <= 3; ++i) flight.on_step(synthetic_mark(i));
  EXPECT_EQ(flight.seen_records(), 10u);
  EXPECT_EQ(flight.seen_steps(), 3u);

  std::ostringstream os;
  flight.write(os, "ring check");
  const JsonValue doc = JsonParser(os.str()).parse();
  const JsonValue& fr = doc.at("flight_recorder");
  EXPECT_EQ(fr.at("seen_records").number, 10.0);
  const auto& launches = fr.at("launches").array;
  ASSERT_EQ(launches.size(), 4u);
  // The ring holds the most recent 4 records, serialized oldest first.
  for (std::size_t i = 0; i < launches.size(); ++i) {
    EXPECT_EQ(launches[i].at("id").number, static_cast<double>(7 + i));
  }
  const auto& steps = fr.at("steps").array;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].at("index").number, 2.0);
  EXPECT_EQ(steps[1].at("index").number, 3.0);
}

// --- flight recorder: golden dump schema ------------------------------------

TEST(FlightRecorder, DumpKeepsGoldenSchema) {
  trace::FlightRecorder flight(8, 4);
  auto rec = synthetic_record(2, 1e-3, 2e-3);
  rec.deps = {1, 0, 0, 0};
  flight.on_record(synthetic_record(1, 0.0, 1e-3));
  flight.on_record(rec);
  flight.on_step(synthetic_mark(1));

  std::ostringstream os;
  flight.write(os, "golden schema");
  const JsonValue doc = JsonParser(os.str()).parse();
  const JsonValue& fr = require(doc, "flight_recorder", JsonValue::Type::Object);
  EXPECT_EQ(require(fr, "v", JsonValue::Type::Number).number, 1.0);
  EXPECT_EQ(require(fr, "reason", JsonValue::Type::String).str,
            "golden schema");
  require(fr, "seen_records", JsonValue::Type::Number);
  require(fr, "seen_steps", JsonValue::Type::Number);
  require(fr, "launch_capacity", JsonValue::Type::Number);
  require(fr, "step_capacity", JsonValue::Type::Number);

  const auto& launches = require(fr, "launches", JsonValue::Type::Array).array;
  ASSERT_EQ(launches.size(), 2u);
  for (const JsonValue& l : launches) {
    require(l, "id", JsonValue::Type::Number);
    EXPECT_EQ(require(l, "kernel", JsonValue::Type::String).str, "walkTree");
    EXPECT_EQ(require(l, "label", JsonValue::Type::String).str, "synthetic");
    EXPECT_EQ(require(l, "stream", JsonValue::Type::String).str, "s0");
    require(l, "deps", JsonValue::Type::Array);
    require(l, "items", JsonValue::Type::Number);
    require(l, "workers", JsonValue::Type::Number);
    require(l, "seconds", JsonValue::Type::Number);
    require(l, "t_begin", JsonValue::Type::Number);
    require(l, "t_end", JsonValue::Type::Number);
    const JsonValue& ops = require(l, "ops", JsonValue::Type::Object);
    for (int c = 0; c < static_cast<int>(simt::OpCategory::Count); ++c) {
      require(ops,
              std::string(simt::op_category_name(
                  static_cast<simt::OpCategory>(c))),
              JsonValue::Type::Number);
    }
  }
  // Dependency edges survive: only nonzero dep slots are serialized.
  EXPECT_TRUE(launches[0].at("deps").array.empty());
  ASSERT_EQ(launches[1].at("deps").array.size(), 1u);
  EXPECT_EQ(launches[1].at("deps").array[0].number, 1.0);

  const auto& steps = require(fr, "steps", JsonValue::Type::Array).array;
  ASSERT_EQ(steps.size(), 1u);
  const JsonValue& s = steps[0];
  require(s, "index", JsonValue::Type::Number);
  require(s, "rebuilt", JsonValue::Type::Bool);
  require(s, "t_begin", JsonValue::Type::Number);
  require(s, "t_end", JsonValue::Type::Number);
  require(s, "kernel_seconds", JsonValue::Type::Number);
  require(s, "wall_seconds", JsonValue::Type::Number);
  require(s, "raw_overlap_seconds", JsonValue::Type::Number);
  require(s, "walk_imbalance", JsonValue::Type::Number);
  EXPECT_EQ(require(s, "shards", JsonValue::Type::Number).number, 2.0);
  require(s, "shard_busy_max", JsonValue::Type::Number);
  require(s, "shard_busy_mean", JsonValue::Type::Number);
  require(s, "shard_imbalance", JsonValue::Type::Number);
  EXPECT_EQ(require(s, "let_cells", JsonValue::Type::Number).number, 7.0);
  EXPECT_EQ(require(s, "let_bodies", JsonValue::Type::Number).number, 19.0);
}

// --- flight recorder: a faulted launch is captured with its DAG context -----

TEST(FlightRecorder, FaultedLaunchAppearsInTheDumpWithItsDependencyEdges) {
  trace::FlightRecorder flight;
  runtime::Device dev(2);
  runtime::InstrumentationSink sink;

  testkit::FaultPlan plan;
  plan.throw_at.push_back(3); // 1-based issue order: b1 below
  testkit::FaultController ctrl(plan);
  dev.set_schedule_controller(&ctrl);

  runtime::Stream a("flight-a");
  runtime::Stream b("flight-b");
  runtime::LaunchDesc desc;
  desc.kernel = Kernel::WalkTree;
  desc.items = 1;
  desc.sink = &sink;
  desc.stream = &a;
  desc.label = "a1";
  const runtime::Event e1 = dev.launch(desc, [](simt::OpCounts&) {});
  desc.label = "a2";
  (void)dev.launch(desc, [](simt::OpCounts&) {});
  desc.stream = &b;
  desc.label = "b1";
  desc.deps = {e1, runtime::Event{}, runtime::Event{}, runtime::Event{}};
  (void)dev.launch(desc, [](simt::OpCounts&) {});
  EXPECT_THROW(dev.synchronize(), testkit::InjectedFault);
  EXPECT_EQ(ctrl.injected_throws(), 1);
  dev.set_schedule_controller(nullptr);
  for (const runtime::LaunchRecord& rec : sink.step_records()) {
    flight.on_record(rec);
  }

  // All three launches completed their records — the faulted body
  // included — so the incident dump carries the full DAG neighborhood.
  EXPECT_EQ(flight.seen_records(), 3u);
  const std::string path = "test_flight_fault_dump.json";
  ASSERT_TRUE(flight.dump_to(path, "injected fault at launch 3"));
  const JsonValue doc = JsonParser(read_file(path)).parse();
  const JsonValue& fr = doc.at("flight_recorder");
  EXPECT_EQ(fr.at("reason").str, "injected fault at launch 3");
  bool found_faulted = false;
  for (const JsonValue& l : fr.at("launches").array) {
    if (l.at("id").number != 3.0) continue;
    found_faulted = true;
    EXPECT_EQ(l.at("label").str, "b1");
    EXPECT_EQ(l.at("stream").str, "flight-b");
    ASSERT_EQ(l.at("deps").array.size(), 1u);
    EXPECT_EQ(l.at("deps").array[0].number, static_cast<double>(e1.id));
  }
  EXPECT_TRUE(found_faulted);
  std::remove(path.c_str());
}

// --- flight recorder: env enablement + unwritable destinations --------------

TEST(FlightRecorder, EnvPathIsCapturedAtConstruction) {
  ASSERT_EQ(std::getenv("GOTHIC_FLIGHT"), nullptr)
      << "test requires GOTHIC_FLIGHT unset";
  EXPECT_FALSE(trace::FlightRecorder::env_enabled());
  trace::FlightRecorder off;
  EXPECT_TRUE(off.dump("no destination: a successful no-op"));

  const std::string path = "test_flight_env_dump.json";
  ASSERT_EQ(setenv("GOTHIC_FLIGHT", path.c_str(), 1), 0);
  EXPECT_TRUE(trace::FlightRecorder::env_enabled());
  trace::FlightRecorder on;
  ASSERT_EQ(unsetenv("GOTHIC_FLIGHT"), 0);
  on.on_record(synthetic_record(1, 0.0, 1e-4));
  EXPECT_TRUE(on.dump("captured destination"));
  const JsonValue doc = JsonParser(read_file(path)).parse();
  EXPECT_EQ(doc.at("flight_recorder").at("reason").str,
            "captured destination");
  std::remove(path.c_str());
}

TEST(FlightRecorder, UnwritableDumpPathErrorsToStderrAndReturnsFalse) {
  trace::FlightRecorder flight(2, 2);
  const std::string path = "no-such-dir/flight.json";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flight.dump_to(path, "unwritable"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(path), std::string::npos)
      << "stderr must name the failed destination: " << err;
}

// --- flight recorder: dump collisions ---------------------------------------
//
// Several instances sharing one configured destination (the common case:
// GOTHIC_FLIGHT is one env variable, a session pool holds many recorders)
// used to overwrite each other's incident dumps. A dump must never clobber
// an existing file: the first writer keeps the plain path, later writers
// get a numeric bump, and a dump tag keys the path by session name.

TEST(FlightRecorder, ConcurrentDumpsToOnePathNeverOverwrite) {
  const std::string path = "test_flight_collision.json";
  const std::string bumped = "test_flight_collision.1.json";
  std::remove(path.c_str());
  std::remove(bumped.c_str());

  trace::FlightRecorder first(4, 2);
  trace::FlightRecorder second(4, 2);
  first.on_record(synthetic_record(1, 0.0, 1e-4));
  second.on_record(synthetic_record(2, 0.0, 2e-4));

  ASSERT_TRUE(first.dump_to(path, "first incident"));
  EXPECT_EQ(first.last_dump_path(), path);
  ASSERT_TRUE(second.dump_to(path, "second incident"));
  EXPECT_EQ(second.last_dump_path(), bumped);

  // Both incidents survive, each under its own destination.
  EXPECT_EQ(JsonParser(read_file(path)).parse()
                .at("flight_recorder").at("reason").str,
            "first incident");
  EXPECT_EQ(JsonParser(read_file(bumped)).parse()
                .at("flight_recorder").at("reason").str,
            "second incident");
  std::remove(path.c_str());
  std::remove(bumped.c_str());
}

TEST(FlightRecorder, DumpTagKeysTheDestinationBySession) {
  const std::string tagged = "test_flight_tag.s1.json";
  std::remove(tagged.c_str());

  trace::FlightRecorder flight(4, 2);
  flight.set_dump_tag("s1");
  EXPECT_EQ(flight.dump_tag(), "s1");
  flight.on_record(synthetic_record(1, 0.0, 1e-4));
  ASSERT_TRUE(flight.dump_to("test_flight_tag.json", "session incident"));
  EXPECT_EQ(flight.last_dump_path(), tagged);
  EXPECT_EQ(JsonParser(read_file(tagged)).parse()
                .at("flight_recorder").at("reason").str,
            "session incident");
  std::remove(tagged.c_str());
}

// --- telemetry stream --------------------------------------------------------

TEST(Telemetry, StreamKeepsGoldenSchema) {
  const std::string path = "test_telemetry_schema.jsonl";
  trace::TelemetryWriter w(path);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.path(), path);
  EXPECT_EQ(w.lines(), 0u); // the config line waits for the first step

  trace::MetricsRegistry metrics;
  metrics.record_launch(synthetic_record(1, 0.0, 1e-3));
  const runtime::StepMark mark = synthetic_mark(1);
  metrics.record_step(mark);
  w.write_step(mark, metrics);
  EXPECT_EQ(w.lines(), 2u);

  std::ifstream is(path);
  std::string line;
  std::vector<JsonValue> docs;
  while (std::getline(is, line)) {
    if (!line.empty()) docs.push_back(JsonParser(line).parse());
  }
  ASSERT_EQ(docs.size(), 2u);

  const JsonValue& cfg = docs[0];
  EXPECT_EQ(require(cfg, "type", JsonValue::Type::String).str, "config");
  EXPECT_EQ(require(cfg, "v", JsonValue::Type::Number).number, 1.0);
  EXPECT_FALSE(cfg.has("async"));
  require(cfg, "simd", JsonValue::Type::Number);
  require(cfg, "lanes", JsonValue::Type::Number);
  // The records' worker count and the StepMark's shard count.
  EXPECT_EQ(require(cfg, "threads", JsonValue::Type::Number).number, 2.0);
  EXPECT_EQ(require(cfg, "shards", JsonValue::Type::Number).number, 2.0);

  const JsonValue& step = docs[1];
  EXPECT_EQ(require(step, "type", JsonValue::Type::String).str, "step");
  EXPECT_EQ(require(step, "v", JsonValue::Type::Number).number, 1.0);
  EXPECT_EQ(require(step, "index", JsonValue::Type::Number).number, 1.0);
  require(step, "rebuilt", JsonValue::Type::Bool);
  require(step, "t_begin", JsonValue::Type::Number);
  require(step, "t_end", JsonValue::Type::Number);
  require(step, "kernel_seconds", JsonValue::Type::Number);
  require(step, "wall_seconds", JsonValue::Type::Number);
  require(step, "raw_overlap_seconds", JsonValue::Type::Number);
  require(step, "walk_imbalance", JsonValue::Type::Number);
  EXPECT_EQ(require(step, "shards", JsonValue::Type::Number).number, 2.0);
  require(step, "shard_busy_max", JsonValue::Type::Number);
  require(step, "shard_busy_mean", JsonValue::Type::Number);
  require(step, "shard_imbalance", JsonValue::Type::Number);
  EXPECT_EQ(require(step, "let_cells", JsonValue::Type::Number).number, 7.0);
  EXPECT_EQ(require(step, "let_bodies", JsonValue::Type::Number).number,
            19.0);
  const JsonValue& kernels =
      require(step, "kernels", JsonValue::Type::Object);
  const JsonValue& walk =
      require(kernels, "walkTree", JsonValue::Type::Object);
  EXPECT_EQ(require(walk, "launches", JsonValue::Type::Number).number, 1.0);
  require(walk, "seconds", JsonValue::Type::Number);
  require(walk, "p50_seconds", JsonValue::Type::Number);
  require(walk, "p95_seconds", JsonValue::Type::Number);
  require(step, "arena_capacity_bytes", JsonValue::Type::Number);
  require(step, "arena_heap_allocations", JsonValue::Type::Number);
  std::remove(path.c_str());
}

TEST(Telemetry, ConfigLineLogsTheSimdTierThatRan) {
  // The tier in effect, not the GOTHIC_SIMD variable: a writer created
  // under a scalar override logs 0 whatever the environment says.
  const std::string path = "test_telemetry_simd.jsonl";
  auto logged_simd = [&path]() {
    {
      trace::TelemetryWriter w(path);
      EXPECT_TRUE(w.ok());
      w.write_step(synthetic_mark(1), trace::MetricsRegistry{});
    }
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    const JsonValue cfg = JsonParser(line).parse();
    return require(cfg, "simd", JsonValue::Type::Number).number;
  };
  {
    simt::ScopedSimd off(false);
    EXPECT_EQ(logged_simd(), 0.0);
  }
  {
    simt::ScopedSimd on(true); // clamps to what this host and build support
    EXPECT_EQ(logged_simd(), simt::simd_enabled() ? 1.0 : 0.0);
  }
  std::remove(path.c_str());
}

/// Sets an environment variable for a scope, then restores its previous
/// value or absence.
class ScopedEnv {
public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

TEST(Telemetry, ConfigLineLogsTheLanesThatRun) {
  // The lane count devices run with, not the variables: every device has
  // two lanes and no scheduler mode, so neither a lane count nor the
  // removed GOTHIC_ASYNC in the environment changes the config line.
  const std::string path = "test_telemetry_lanes.jsonl";
  auto config = [&path] {
    {
      trace::TelemetryWriter w(path);
      EXPECT_TRUE(w.ok());
      w.write_step(synthetic_mark(1), trace::MetricsRegistry{});
    }
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    return JsonParser(line).parse();
  };
  for (const char* value : {"1", "0"}) {
    const ScopedEnv async("GOTHIC_ASYNC", value);
    const ScopedEnv lanes("GOTHIC_ASYNC_LANES", "3");
    const JsonValue cfg = config();
    EXPECT_EQ(require(cfg, "lanes", JsonValue::Type::Number).number, 2.0)
        << "GOTHIC_ASYNC=" << value;
    EXPECT_FALSE(cfg.has("async")) << "GOTHIC_ASYNC=" << value;
  }
  std::remove(path.c_str());
}

TEST(Telemetry, ConfigLineLogsTheWorkersAndShardsThatRan) {
  // The launches' worker count and the first StepMark's shard count (an
  // unsharded step is one shard), whatever the environment says.
  const std::string path = "test_telemetry_run.jsonl";
  const ScopedEnv threads("GOTHIC_THREADS", "7");
  const ScopedEnv shards("GOTHIC_SHARDS", "5");
  {
    trace::TelemetryWriter w(path);
    ASSERT_TRUE(w.ok());
    trace::MetricsRegistry metrics;
    runtime::LaunchRecord rec = synthetic_record(1, 0.0, 1e-3);
    rec.workers = 3;
    metrics.record_launch(rec);
    runtime::StepMark mark = synthetic_mark(1);
    mark.shards = 0;
    w.write_step(mark, metrics);
  }
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  const JsonValue cfg = JsonParser(line).parse();
  EXPECT_EQ(cfg.at("type").str, "config");
  EXPECT_EQ(require(cfg, "threads", JsonValue::Type::Number).number, 3.0);
  EXPECT_EQ(require(cfg, "shards", JsonValue::Type::Number).number, 1.0);
  std::remove(path.c_str());
}

TEST(Telemetry, UnwritablePathErrorsOnceToStderrAndDisablesTheStream) {
  const std::string path = "no-such-dir/telemetry.jsonl";
  testing::internal::CaptureStderr();
  trace::TelemetryWriter w(path);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(w.ok());
  EXPECT_NE(err.find(path), std::string::npos)
      << "stderr must name the failed destination: " << err;
  // The run continues: writes are silent no-ops.
  trace::MetricsRegistry metrics;
  w.write_step(synthetic_mark(1), metrics);
  EXPECT_EQ(w.lines(), 0u);
}

TEST(Telemetry, EnvPathFollowsGothicTelemetry) {
  ASSERT_EQ(setenv("GOTHIC_TELEMETRY", "somewhere/t.jsonl", 1), 0);
  EXPECT_EQ(trace::TelemetryWriter::env_telemetry_path(), "somewhere/t.jsonl");
  ASSERT_EQ(unsetenv("GOTHIC_TELEMETRY"), 0);
  EXPECT_EQ(trace::TelemetryWriter::env_telemetry_path(), "");
}

TEST(Telemetry, SessionStreamsOneLinePerSimulationStep) {
  const std::string path = "test_telemetry_session.jsonl";
  const int steps = 3;
  {
    trace::Session session(/*trace_path=*/"", path);
    ASSERT_NE(session.telemetry(), nullptr);
    ASSERT_TRUE(session.telemetry()->ok());
    nbody::Simulation sim(plummer(1024, 11), small_config());
    sim.set_instrumentation_listener(&session);
    for (int i = 0; i < steps; ++i) (void)sim.step();
    sim.set_instrumentation_listener(nullptr);
    EXPECT_TRUE(session.finish(runtime::Device::current()));
    EXPECT_EQ(session.telemetry()->lines(),
              static_cast<std::uint64_t>(steps) + 1);
    EXPECT_EQ(session.dropped(), 0u); // not tracing: nothing to drop
  }
  std::ifstream is(path);
  std::string line;
  std::vector<JsonValue> docs;
  while (std::getline(is, line)) {
    if (!line.empty()) docs.push_back(JsonParser(line).parse());
  }
  ASSERT_EQ(docs.size(), static_cast<std::size_t>(steps) + 1);
  EXPECT_EQ(docs[0].at("type").str, "config");
  for (int i = 1; i <= steps; ++i) {
    EXPECT_EQ(docs[static_cast<std::size_t>(i)].at("type").str, "step");
    EXPECT_EQ(docs[static_cast<std::size_t>(i)].at("index").number,
              static_cast<double>(i));
  }
  std::remove(path.c_str());
}

// --- unwritable GOTHIC_TRACE destination (satellite) -------------------------

TEST(Session, UnwritableTracePathWarnsOnceAndTheRunContinues) {
  const std::string path = "no-such-dir/trace.json";
  testing::internal::CaptureStderr();
  trace::Session session(path, /*telemetry_path=*/"");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(path), std::string::npos)
      << "stderr must name the failed destination: " << err;
  // The session stays usable: metrics keep aggregating.
  session.on_record(synthetic_record(1, 0.0, 1e-3));
  EXPECT_EQ(session.metrics().launches(), 1u);
}

// --- StepMark shard fields, end to end (satellite) ---------------------------

TEST(ShardObservability, TwoShardRunFillsShardFieldsThroughTheRegistry) {
  trace::Session session(/*trace_path=*/"", /*telemetry_path=*/"");
  nbody::ShardOptions opt;
  opt.shards = 2;
  opt.workers = 2;
  nbody::ShardedSimulation sim(plummer(1536, 21), small_config(), opt);
  sim.set_instrumentation_listener(&session);
  sim.run(3);
  sim.set_instrumentation_listener(nullptr);

  const trace::MetricsRegistry& m = session.metrics();
  EXPECT_EQ(m.steps(), 3u);
  EXPECT_EQ(m.shard_steps(), 3u);
  EXPECT_EQ(m.shards_max(), 2);
  EXPECT_GE(m.shard_imbalance_max(), 1.0);
  EXPECT_GE(m.shard_imbalance_max(), m.shard_imbalance_mean());
  EXPECT_GE(m.shard_imbalance_mean(), 1.0);
  // K=2: gravity is global, so some remote mass is always essential.
  EXPECT_GT(m.let_cells_total(), 0u);
  EXPECT_GT(m.let_bodies_total(), 0u);
}

// --- listener contract: replayed after the join, on the caller's thread ------

TEST(ListenerContract, CallbacksRunOnTheCallersThreadAfterEachJoin) {
  struct Call {
    bool mark = false;
    std::string label;
    std::thread::id thread;
  };
  struct Recorder final : runtime::RecordListener {
    std::vector<Call> calls;
    void on_record(const runtime::LaunchRecord& rec) override {
      calls.push_back({false, rec.label, std::this_thread::get_id()});
    }
    void on_step(const runtime::StepMark&) override {
      calls.push_back({true, "", std::this_thread::get_id()});
    }
  };
  auto check = [](nbody::ShardedSimulation& sim, const std::string& what) {
    Recorder rec;
    sim.set_instrumentation_listener(&rec);
    sim.run(3);
    sim.refresh_forces();
    sim.set_instrumentation_listener(nullptr);
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t marks = 0;
    std::size_t since_mark = 0;
    std::size_t refresh = 0;
    for (const Call& c : rec.calls) {
      EXPECT_EQ(c.thread, caller) << what << ": callback off the caller";
      if (c.mark) {
        // predict, calcNode, walkTree, correct per shard at least.
        EXPECT_GE(since_mark, 4u) << what << ": step " << marks + 1
                                  << " marked before its records";
        ++marks;
        since_mark = 0;
      } else {
        ++since_mark;
        if (marks == 3 && c.label.find("(refresh)") != std::string::npos) {
          ++refresh;
        }
      }
    }
    EXPECT_EQ(marks, 3u) << what;
    EXPECT_EQ(refresh, 2u) << what << ": refresh_forces records";
  };

  runtime::Device dev(2);
  runtime::ScopedDevice scope(dev);
  nbody::Simulation one(plummer(1024, 51), small_config());
  check(one, "Simulation");

  nbody::ShardOptions opt;
  opt.shards = 2;
  opt.workers = 2;
  nbody::ShardedSimulation two(plummer(1024, 53), small_config(), opt);
  check(two, "K=2");
}

// --- flight recorder wired through the simulations ---------------------------

TEST(FlightIntegration, SimulationConstructsTheRecorderOnlyUnderGothicFlight) {
  ASSERT_EQ(std::getenv("GOTHIC_FLIGHT"), nullptr);
  nbody::Simulation plain(plummer(512, 31), small_config());
  EXPECT_EQ(plain.flight_recorder(), nullptr);

  const std::string path = "test_flight_simulation.json";
  ASSERT_EQ(setenv("GOTHIC_FLIGHT", path.c_str(), 1), 0);
  nbody::Simulation sim(plummer(512, 31), small_config());
  ASSERT_EQ(unsetenv("GOTHIC_FLIGHT"), 0);
  ASSERT_NE(sim.flight_recorder(), nullptr);
  (void)sim.step();
  (void)sim.step();
  trace::FlightRecorder& flight = *sim.flight_recorder();
  EXPECT_GT(flight.seen_records(), 0u);
  EXPECT_EQ(flight.seen_steps(), 2u);
  ASSERT_TRUE(flight.dump("on demand"));
  const JsonValue doc = JsonParser(read_file(path)).parse();
  const JsonValue& fr = doc.at("flight_recorder");
  EXPECT_EQ(fr.at("reason").str, "on demand");
  EXPECT_FALSE(fr.at("launches").array.empty());
  EXPECT_EQ(fr.at("steps").array.size(), 2u);
  std::remove(path.c_str());
}

TEST(FlightIntegration, ShardFaultDumpsTheRingOnTheErrorPath) {
  const std::string path = "test_flight_shard_error.json";
  ASSERT_EQ(setenv("GOTHIC_FLIGHT", path.c_str(), 1), 0);
  nbody::ShardOptions opt;
  opt.shards = 2;
  opt.workers = 2;
  nbody::ShardedSimulation sim(plummer(512, 41), small_config(), opt);
  ASSERT_EQ(unsetenv("GOTHIC_FLIGHT"), 0);
  ASSERT_NE(sim.flight_recorder(), nullptr);
  (void)sim.step(); // fault against steady state, not the bootstrap

  // A listener attached beside the recorder.
  struct Counter final : runtime::RecordListener {
    std::size_t records = 0;
    std::size_t steps = 0;
    void on_record(const runtime::LaunchRecord&) override { ++records; }
    void on_step(const runtime::StepMark&) override { ++steps; }
  };
  Counter listener;
  sim.set_instrumentation_listener(&listener);
  const std::uint64_t seen = sim.flight_recorder()->seen_records();

  runtime::Device& dev = sim.shard_device(1);
  testkit::FaultPlan plan;
  const std::uint64_t faulted = dev.launch_count() + 2;
  plan.throw_at.push_back(faulted);
  testkit::FaultController ctrl(plan);
  dev.set_schedule_controller(&ctrl);
  EXPECT_THROW((void)sim.step(), testkit::InjectedFault);
  dev.set_schedule_controller(nullptr);
  sim.set_instrumentation_listener(nullptr);
  ASSERT_GT(ctrl.injected_throws(), 0);

  // The error path fed the aborted step's records to the ring alone and
  // dumped it: the listener received none of them.
  EXPECT_EQ(listener.records, 0u);
  EXPECT_EQ(listener.steps, 0u);
  EXPECT_GT(sim.flight_recorder()->seen_records(), seen);
  const JsonValue doc = JsonParser(read_file(path)).parse();
  const JsonValue& fr = doc.at("flight_recorder");
  EXPECT_NE(fr.at("reason").str.find("ShardedSimulation"), std::string::npos)
      << fr.at("reason").str;
  EXPECT_FALSE(fr.at("launches").array.empty());
  EXPECT_GT(fr.at("seen_records").number, 0.0);
  bool holds_faulted = false;
  for (const JsonValue& l : fr.at("launches").array) {
    holds_faulted = holds_faulted ||
                    (l.at("id").number == static_cast<double>(faulted) &&
                     l.at("stream").str.rfind("shard1/", 0) == 0);
  }
  EXPECT_TRUE(holds_faulted) << "the dump lacks the aborted step's fault";
  std::remove(path.c_str());
}

TEST(FlightIntegration, TwoFaultingInstancesKeepDistinctDumps) {
  // Regression: two instances sharing GOTHIC_FLIGHT each dump on their
  // error path; the second incident must not overwrite the first.
  const std::string path = "test_flight_two_faults.json";
  const std::string bumped = "test_flight_two_faults.1.json";
  std::remove(path.c_str());
  std::remove(bumped.c_str());

  ASSERT_EQ(setenv("GOTHIC_FLIGHT", path.c_str(), 1), 0);
  nbody::ShardOptions opt;
  opt.shards = 2;
  opt.workers = 2;
  nbody::ShardedSimulation one(plummer(512, 41), small_config(), opt);
  nbody::ShardedSimulation two(plummer(512, 43), small_config(), opt);
  ASSERT_EQ(unsetenv("GOTHIC_FLIGHT"), 0);

  for (nbody::ShardedSimulation* sim : {&one, &two}) {
    (void)sim->step(); // fault against steady state, not the bootstrap
    runtime::Device& dev = sim->shard_device(1);
    testkit::FaultPlan plan;
    plan.throw_at.push_back(dev.launch_count() + 2);
    testkit::FaultController ctrl(plan);
    dev.set_schedule_controller(&ctrl);
    EXPECT_THROW((void)sim->step(), testkit::InjectedFault);
    dev.set_schedule_controller(nullptr);
    ASSERT_GT(ctrl.injected_throws(), 0);
  }

  EXPECT_EQ(one.flight_recorder()->last_dump_path(), path);
  EXPECT_EQ(two.flight_recorder()->last_dump_path(), bumped);
  for (const std::string& p : {path, bumped}) {
    const JsonValue doc = JsonParser(read_file(p)).parse();
    EXPECT_FALSE(doc.at("flight_recorder").at("launches").array.empty())
        << p;
    std::remove(p.c_str());
  }
}

} // namespace
} // namespace gothic
