// The observability layer: Perfetto trace export (JSON validity, flow
// events, determinism), latency-histogram percentile math, metrics
// registry accounting (including negative-overlap steps), interned record
// names, and the zero-allocation guarantee when no listener is attached.
#include "trace/flight_recorder.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/trace_writer.hpp"

#include "nbody/simulation.hpp"
#include "runtime/device.hpp"
#include "util/rng.hpp"

#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

// --- global allocation counter (for the zero-overhead-when-off test) ------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gothic::trace {
namespace {

// JsonValue/JsonParser/read_file come from util/minijson.hpp, the parser
// the bench_diff gate and the bench golden-schema test share.
using gothic::minijson::JsonParser;
using gothic::minijson::JsonValue;
using gothic::minijson::read_file;

// --- latency histogram -----------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);
}

TEST(LatencyHistogram, SingleValueDistribution) {
  LatencyHistogram h;
  const double v = 1e-3;
  for (int i = 0; i < 100; ++i) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.max_seconds(), v);
  EXPECT_NEAR(h.mean_seconds(), v, 1e-15);
  // Percentiles resolve to the bin's upper edge: within [v, 2v).
  for (const double p : {0.01, 0.5, 0.95, 1.0}) {
    EXPECT_GE(h.percentile(p), v);
    EXPECT_LE(h.percentile(p), 2.0 * v);
  }
}

TEST(LatencyHistogram, BimodalPercentilesSplitTheModes) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.add(1e-6);
  for (int i = 0; i < 10; ++i) h.add(1e-2);
  // Rank 50 falls in the small mode, rank 95 in the large one.
  EXPECT_LE(h.p50_seconds(), 2e-6);
  EXPECT_GE(h.p95_seconds(), 1e-2);
  EXPECT_LE(h.p50_seconds(), h.p95_seconds());
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1e-2);
}

TEST(LatencyHistogram, PercentilesAreMonotone) {
  LatencyHistogram h;
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform(1e-7, 1e-1));
  double prev = 0.0;
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // p100's bin contains the max sample.
  EXPECT_GE(h.percentile(1.0), h.max_seconds());
  EXPECT_LE(h.percentile(1.0), 2.0 * h.max_seconds());
}

TEST(LatencyHistogram, OutOfRangeSamplesClampIntoEdgeBins) {
  EXPECT_EQ(LatencyHistogram::bin_index(1e-30), 0);
  EXPECT_EQ(LatencyHistogram::bin_index(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bin_index(1e30),
            LatencyHistogram::kBins - 1);
  LatencyHistogram h;
  h.add(1e-30);
  h.add(1e30);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(LatencyHistogram::kBins - 1), 1u);
}

// --- metrics registry ------------------------------------------------------

runtime::LaunchRecord synthetic_record(Kernel k, std::uint64_t id,
                                       double t0, double t1) {
  runtime::LaunchRecord rec;
  rec.kernel = k;
  rec.label = "synthetic";
  rec.stream = "s0";
  rec.id = id;
  rec.t_begin = t0;
  rec.t_end = t1;
  rec.seconds = t1 - t0;
  rec.workers = 2;
  rec.ops.fp32_fma = 10;
  rec.ops.int_ops = 5;
  rec.ops.bytes_load = 100;
  rec.ops.syncwarp = 3;
  return rec;
}

TEST(MetricsRegistry, AggregatesLaunchesPerKernel) {
  MetricsRegistry m;
  m.record_launch(synthetic_record(Kernel::WalkTree, 1, 0.0, 1e-3));
  m.record_launch(synthetic_record(Kernel::WalkTree, 2, 1e-3, 3e-3));
  m.record_launch(synthetic_record(Kernel::CalcNode, 3, 0.0, 1e-4));
  EXPECT_EQ(m.launches(), 3u);
  const KernelStats& walk = m.kernel(Kernel::WalkTree);
  EXPECT_EQ(walk.launches, 2u);
  EXPECT_NEAR(walk.seconds, 3e-3, 1e-12);
  EXPECT_EQ(walk.ops.fp32_fma, 20u);
  EXPECT_EQ(walk.ops.syncwarp, 6u);
  EXPECT_EQ(walk.latency.count(), 2u);
  EXPECT_EQ(m.kernel(Kernel::MakeTree).launches, 0u);
}

TEST(MetricsRegistry, CountsNegativeOverlapSteps) {
  MetricsRegistry m;
  runtime::StepMark ok;
  ok.index = 1;
  ok.kernel_seconds = 2e-3;
  ok.wall_seconds = 1.5e-3; // +0.5 ms hidden by overlap
  runtime::StepMark anomaly;
  anomaly.index = 2;
  anomaly.kernel_seconds = 1e-3;
  anomaly.wall_seconds = 1.2e-3; // wall exceeds work: -0.2 ms
  m.record_step(ok);
  m.record_step(anomaly);
  EXPECT_EQ(m.steps(), 2u);
  EXPECT_EQ(m.negative_overlap_steps(), 1u);
  EXPECT_NEAR(m.min_raw_overlap_seconds(), -2e-4, 1e-9);
  EXPECT_NEAR(m.overlap_seconds_total(), 5e-4, 1e-9);
}

TEST(MetricsRegistry, PrintsPerKernelTable) {
  MetricsRegistry m;
  m.record_launch(synthetic_record(Kernel::WalkTree, 1, 0.0, 1e-3));
  std::ostringstream os;
  m.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("walkTree"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
  // Kernels with no launches are skipped.
  EXPECT_EQ(out.find("makeTree"), std::string::npos);
}

// --- record-name interning (satellite: dangling-pointer fix) ---------------

TEST(Interning, RecordNamesSurviveTheirSources) {
  runtime::Device dev(2);
  runtime::InstrumentationSink sink;
  {
    std::string stream_name = "ephemeral";
    std::string label = "transient-label";
    runtime::Stream s(stream_name.c_str());
    runtime::LaunchDesc desc;
    desc.kernel = Kernel::WalkTree;
    desc.label = label.c_str();
    desc.stream = &s;
    desc.sink = &sink;
    (void)dev.launch(desc, [](simt::OpCounts&) {});
    // Clobber the original buffers while the Stream is still alive, then
    // let both it and the strings die.
    stream_name.assign("XXXXXXXXX");
    label.assign("YYYYYYYYYYYYYYY");
  }
  dev.synchronize();
  EXPECT_STREQ(sink.last().stream, "ephemeral");
  EXPECT_STREQ(sink.last().label, "transient-label");
}

TEST(Interning, DeduplicatesRepeatedNames) {
  runtime::InstrumentationSink sink;
  const char* a = sink.intern("walk");
  const std::string copy = "walk"; // different address, same contents
  EXPECT_EQ(sink.intern(copy.c_str()), a);
  EXPECT_STREQ(sink.intern(nullptr), "");
}

// --- zero overhead when disabled -------------------------------------------

TEST(ZeroOverhead, SteadyStateLaunchesDoNotAllocateWithoutListener) {
  ASSERT_EQ(std::getenv("GOTHIC_TRACE"), nullptr)
      << "test requires GOTHIC_TRACE unset";
  runtime::Device dev(2);
  runtime::InstrumentationSink sink;
  ASSERT_EQ(sink.listener(), nullptr);
  runtime::Stream s("steady");
  runtime::LaunchDesc desc;
  desc.kernel = Kernel::WalkTree;
  desc.stream = &s;
  desc.sink = &sink;
  auto run_step = [&] {
    sink.begin_step();
    for (int i = 0; i < 8; ++i) {
      (void)dev.launch(desc, [](simt::OpCounts& ops) { ops.fp32_fma += 1; });
    }
    dev.synchronize();
  };
  for (int warm = 0; warm < 4; ++warm) run_step();
  const std::uint64_t before = g_allocations.load();
  for (int iter = 0; iter < 50; ++iter) run_step();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "instrumentation stream allocated in steady state with no "
         "listener attached";
}

TEST(ZeroOverhead, FlightRingWritesAreAllocationFreeAfterWarmup) {
  FlightRecorder flight(/*launch_capacity=*/8, /*step_capacity=*/4);
  runtime::LaunchRecord walk = synthetic_record(Kernel::WalkTree, 1, 0.0, 1e-4);
  runtime::LaunchRecord calc = synthetic_record(Kernel::CalcNode, 2, 0.0, 1e-4);
  calc.label = "calc";
  calc.stream = "s1";
  runtime::StepMark mark;
  mark.index = 1;
  mark.kernel_seconds = 2e-4;
  mark.wall_seconds = 1.5e-4;
  // Warm-up: the rings are pre-sized, so the only allocations are the
  // first interning of each label/stream name.
  for (int warm = 0; warm < 4; ++warm) {
    flight.on_record(walk);
    flight.on_record(calc);
    flight.on_step(mark);
  }
  const std::uint64_t before = g_allocations.load();
  for (std::uint64_t iter = 0; iter < 200; ++iter) {
    walk.id = 10 + 3 * iter;
    calc.id = walk.id + 1;
    mark.index = iter;
    flight.on_record(walk);
    flight.record_only(calc); // the error-path backfill shares the ring
    flight.on_step(mark);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "flight-recorder ring writes allocated after warm-up";
  EXPECT_EQ(flight.seen_records(), 8u + 400u);
  EXPECT_EQ(flight.seen_steps(), 4u + 200u);
}

// --- trace writer ----------------------------------------------------------

TEST(TraceWriter, BoundedBufferCountsDrops) {
  TraceWriter w(/*max_records=*/4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    w.on_record(synthetic_record(Kernel::WalkTree, i, 0.0, 1e-4));
  }
  EXPECT_EQ(w.record_count(), 4u);
  EXPECT_EQ(w.dropped_records(), 6u);
  std::ostringstream os;
  w.write(os);
  const JsonValue doc = JsonParser(os.str()).parse();
  EXPECT_EQ(doc.at("otherData").at("dropped_records").number, 6.0);
  EXPECT_EQ(doc.at("otherData").at("records").number, 4.0);
}

TEST(TraceWriter, SerializesSyntheticDagWithFlows) {
  TraceWriter w;
  auto a = synthetic_record(Kernel::MakeTree, 1, 0.0, 1e-3);
  a.stream = "tree";
  auto b = synthetic_record(Kernel::PredictCorrect, 2, 0.0, 5e-4);
  b.stream = "integrate";
  auto c = synthetic_record(Kernel::WalkTree, 3, 1e-3, 2e-3);
  c.stream = "tree";
  c.deps = {1, 2, 0, 0}; // dep 1 is same-stream (no flow), dep 2 crosses
  w.on_record(a);
  w.on_record(b);
  w.on_record(c);
  runtime::StepMark mark;
  mark.index = 1;
  mark.rebuilt = true;
  mark.t_end = 2e-3;
  mark.kernel_seconds = 2.5e-3;
  mark.wall_seconds = 2e-3;
  w.on_step(mark);

  std::ostringstream os;
  w.write(os);
  const JsonValue doc = JsonParser(os.str()).parse();
  const auto& events = doc.at("traceEvents").array;

  int x = 0, s = 0, f = 0, instant = 0, counter = 0;
  std::set<std::string> flow_ids;
  std::set<double> x_tids;
  for (const JsonValue& e : events) {
    const std::string ph = e.at("ph").str;
    if (ph == "X") {
      ++x;
      x_tids.insert(e.at("tid").number);
    } else if (ph == "s") {
      ++s;
      flow_ids.insert(e.at("id").str);
    } else if (ph == "f") {
      ++f;
      EXPECT_EQ(e.at("bp").str, "e");
      EXPECT_TRUE(flow_ids.count(e.at("id").str) > 0);
    } else if (ph == "i") {
      ++instant;
    } else if (ph == "C") {
      ++counter;
    }
  }
  EXPECT_EQ(x, 3);
  EXPECT_EQ(x_tids.size(), 2u); // one track per stream lane
  EXPECT_EQ(s, 1);              // only the cross-stream edge draws an arrow
  EXPECT_EQ(f, 1);
  EXPECT_EQ(flow_ids.count("2->3"), 1u);
  EXPECT_EQ(instant, 2); // "step 1" + "rebuild"
  // 3 cumulative ops samples + 6 launches_in_flight edges + 1 per-step
  // walk_imbalance sample.
  EXPECT_EQ(counter, 10);
}

TEST(TraceWriter, LaunchesInFlightCountsOverlappingBodiesOnOneDevice) {
  // Two launches on independent streams of one 4-worker device, each held
  // until the other has started, so their bodies overlap. Both carry the
  // whole pool's width, so a worker-occupancy counter would read 8 on a
  // 4-worker device; the launch counter peaks at 2 and returns to 0.
  runtime::Device dev(4);
  runtime::InstrumentationSink sink;
  TraceWriter w;
  sink.set_listener(&w);
  runtime::Stream a("a"), b("b");
  std::atomic<int> started{0};
  auto body = [&started](simt::OpCounts&) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  for (runtime::Stream* s : {&a, &b}) {
    runtime::LaunchDesc desc;
    desc.stream = s;
    desc.sink = &sink;
    (void)dev.launch(desc, body);
  }
  dev.synchronize();
  sink.set_listener(nullptr);
  ASSERT_EQ(started.load(), 2);
  ASSERT_EQ(w.record_count(), 2u);
  for (const runtime::LaunchRecord& rec : w.records()) {
    EXPECT_EQ(rec.workers, 4);
  }

  std::ostringstream os;
  w.write(os);
  const JsonValue doc = JsonParser(os.str()).parse();
  int samples = 0;
  int peak = 0;
  int last = -1;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "C" || e.at("name").str != "launches_in_flight") {
      continue;
    }
    ++samples;
    last = static_cast<int>(e.at("args").at("launches").number);
    peak = std::max(peak, last);
  }
  EXPECT_EQ(samples, 4); // one begin and one end edge per launch
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(last, 0);
}

// --- session + simulation round trip ---------------------------------------

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

nbody::SimConfig traced_config() {
  nbody::SimConfig cfg;
  cfg.walk.eps = real(0.05);
  cfg.walk.mac.dacc = real(1.0 / 256);
  cfg.eta = 0.2;
  cfg.dt_max = 1.0 / 64;
  cfg.max_level = 3;
  cfg.set_mode(simt::ExecMode::Volta); // syncwarp counters are non-zero
  // The auto-tuner picks rebuild points from live timings — nondeterministic
  // across runs. A fixed interval makes the launch DAG reproducible.
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 2;
  return cfg;
}

/// Run `steps` traced steps and return (event counts per phase, session).
struct TracedRun {
  std::size_t records = 0;
  std::size_t steps = 0;
  std::size_t events = 0;
  std::uint64_t syncwarp = 0;
  JsonValue doc;
};

TracedRun traced_run(const std::string& path, int steps) {
  Session session(path);
  nbody::Simulation sim(plummer(1024, 11), traced_config());
  sim.set_instrumentation_listener(&session);
  for (int i = 0; i < steps; ++i) (void)sim.step();
  sim.set_instrumentation_listener(nullptr);
  EXPECT_TRUE(session.finish(runtime::Device::current()));
  TracedRun out;
  out.records = session.writer()->record_count();
  out.steps = session.writer()->step_count();
  out.syncwarp =
      session.metrics().kernel(Kernel::WalkTree).ops.syncwarp;
  out.doc = JsonParser(read_file(path)).parse();
  out.events = out.doc.at("traceEvents").array.size();
  return out;
}

TEST(Session, TraceRoundTripsThroughRealSimulation) {
  const std::string path = "test_trace_roundtrip.json";
  const int steps = 4;
  const TracedRun run = traced_run(path, steps);

  EXPECT_GT(run.records, 0u);
  EXPECT_EQ(run.steps, static_cast<std::size_t>(steps));
  EXPECT_GT(run.syncwarp, 0u); // Volta mode: syncwarp counter is live

  // The document is one self-contained object Perfetto can load.
  const JsonValue& doc = run.doc;
  EXPECT_TRUE(doc.has("traceEvents"));
  EXPECT_TRUE(doc.has("otherData"));
  EXPECT_EQ(doc.at("otherData").at("records").number,
            static_cast<double>(run.records));
  EXPECT_EQ(doc.at("otherData").at("dropped_records").number, 0.0);

  // Per-lane spans: the tree and integrate streams are distinct tracks.
  std::set<double> x_tids;
  std::set<std::string> track_names;
  std::size_t x_events = 0, step_marks = 0, syncwarp_counters = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const std::string ph = e.at("ph").str;
    if (ph == "M" && e.at("name").str == "thread_name") {
      track_names.insert(e.at("args").at("name").str);
    } else if (ph == "X") {
      ++x_events;
      x_tids.insert(e.at("tid").number);
      EXPECT_TRUE(e.at("args").has("syncwarp"));
      EXPECT_TRUE(e.at("args").has("fp32"));
    } else if (ph == "i" &&
               e.at("name").str.rfind("step ", 0) == 0) {
      ++step_marks;
    } else if (ph == "C" && e.at("name").str == "ops") {
      if (e.at("args").at("syncwarp").number > 0) ++syncwarp_counters;
    }
  }
  EXPECT_EQ(x_events, run.records);
  EXPECT_GE(x_tids.size(), 2u);
  EXPECT_EQ(step_marks, static_cast<std::size_t>(steps));
  EXPECT_GT(syncwarp_counters, 0u);
  EXPECT_TRUE(track_names.count("stream tree") == 1);
  EXPECT_TRUE(track_names.count("stream integrate") == 1);
  std::remove(path.c_str());
}

TEST(Session, FlowEventEndpointsMatchRecordDeps) {
  const std::string path = "test_trace_flows.json";
  Session session(path);
  nbody::Simulation sim(plummer(1024, 11), traced_config());
  sim.set_instrumentation_listener(&session);
  for (int i = 0; i < 4; ++i) (void)sim.step();
  sim.set_instrumentation_listener(nullptr);
  ASSERT_TRUE(session.finish(runtime::Device::current()));

  // Expected arrows: every resolvable cross-stream dep edge in the
  // buffered records, keyed "src->dst".
  const auto& records = session.writer()->records();
  std::map<std::uint64_t, const runtime::LaunchRecord*> by_id;
  for (const auto& rec : records) by_id[rec.id] = &rec;
  std::set<std::string> expected;
  for (const auto& rec : records) {
    for (std::uint64_t dep : rec.deps) {
      if (dep == 0) continue;
      auto it = by_id.find(dep);
      if (it == by_id.end()) continue;
      if (std::string(it->second->stream) == rec.stream) continue;
      expected.insert(std::to_string(dep) + "->" + std::to_string(rec.id));
    }
  }
  ASSERT_GT(expected.size(), 0u); // the step DAG has cross-stream joins

  const JsonValue doc = JsonParser(read_file(path)).parse();
  std::set<std::string> starts, finishes;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const std::string ph = e.at("ph").str;
    if (ph == "s") starts.insert(e.at("id").str);
    if (ph == "f") finishes.insert(e.at("id").str);
  }
  EXPECT_EQ(starts, expected);
  EXPECT_EQ(finishes, expected);
  std::remove(path.c_str());
}

TEST(Session, EventCountIsDeterministicForFixedSeed) {
  const TracedRun a = traced_run("test_trace_det_a.json", 3);
  const TracedRun b = traced_run("test_trace_det_b.json", 3);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.events, b.events);
  std::remove("test_trace_det_a.json");
  std::remove("test_trace_det_b.json");
}

TEST(Session, MetricsOnlyWhenPathEmpty) {
  Session session("");
  EXPECT_FALSE(session.tracing());
  EXPECT_EQ(session.writer(), nullptr);
  session.on_record(synthetic_record(Kernel::WalkTree, 1, 0.0, 1e-3));
  EXPECT_EQ(session.metrics().launches(), 1u);
  EXPECT_TRUE(session.finish(runtime::Device::current()));
  EXPECT_GT(session.metrics().workers(), 0);
}

TEST(Session, EnvTracePathFollowsGothicTrace) {
  ASSERT_EQ(setenv("GOTHIC_TRACE", "somewhere/trace.json", 1), 0);
  EXPECT_EQ(Session::env_trace_path(), "somewhere/trace.json");
  Session on;
  EXPECT_TRUE(on.tracing());
  EXPECT_EQ(on.trace_path(), "somewhere/trace.json");
  ASSERT_EQ(unsetenv("GOTHIC_TRACE"), 0);
  EXPECT_EQ(Session::env_trace_path(), "");
  Session off;
  EXPECT_FALSE(off.tracing());
}

} // namespace
} // namespace gothic::trace
