// Integration tests of the bench pipeline: profile_step must produce
// counts with the paper's qualitative structure, predict_step_time
// must order the GPUs/modes the way the paper reports, and the
// BENCH_<name>.json document must keep its published schema (the golden
// contract downstream replot scripts depend on).
#include "support/baseline.hpp"
#include "support/experiment.hpp"
#include "support/report.hpp"
#include "trace/metrics.hpp"

#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace gothic::bench {
namespace {

class ProfileRig : public ::testing::Test {
protected:
  static const nbody::Particles& workload() {
    static const nbody::Particles p = m31_workload(8192);
    return p;
  }
};

TEST_F(ProfileRig, CountsArePopulatedPerKernel) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  EXPECT_EQ(p.n, 8192u);
  EXPECT_GT(p.walk.fp32_fma, 0u);
  EXPECT_GT(p.walk.int_ops, 0u);
  EXPECT_GT(p.walk.fp32_special, 0u);
  EXPECT_GT(p.calc.fp32_fma, 0u);
  EXPECT_GT(p.make_raw.int_ops, 0u);
  EXPECT_GT(p.pred.fp32_fma, 0u);
  EXPECT_GT(p.walk_stats.interactions, 0u);
}

TEST_F(ProfileRig, VoltaCountsCarrySyncsPascalViewStripsThem) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  EXPECT_GT(p.walk.syncwarp, 0u);
  const simt::OpCounts pas = pascal_view(p.walk);
  EXPECT_EQ(pas.syncwarp, 0u);
  EXPECT_EQ(pas.tile_sync, 0u);
  EXPECT_EQ(pas.fp32_fma, p.walk.fp32_fma); // arithmetic untouched
  EXPECT_EQ(pas.int_ops, p.walk.int_ops);
}

TEST_F(ProfileRig, WalkWorkGrowsAsDaccShrinks) {
  const StepProfile lo = profile_step(workload(), 1.0 / 2, 1);
  const StepProfile hi = profile_step(workload(), 1.0 / 8192, 1);
  EXPECT_GT(hi.walk.fp32_fma, lo.walk.fp32_fma);
  EXPECT_GT(hi.walk_stats.interactions, lo.walk_stats.interactions);
}

TEST_F(ProfileRig, IntegerCountStaysBelowFp32) {
  // Fig 7's central fact: max(int, FP32) == FP32 at every accuracy.
  for (const double dacc : dacc_sweep(12, 3)) {
    const StepProfile p = profile_step(workload(), dacc, 1);
    EXPECT_LT(p.walk.int_ops, p.walk.fp32_core_instructions())
        << "dacc=" << dacc;
  }
}

TEST_F(ProfileRig, SpecialCountsWellBelowFma) {
  // Fig 6: the rsqrt count sits far below the FMA count.
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  EXPECT_LT(p.walk.fp32_special * 4, p.walk.fp32_fma);
}

TEST_F(ProfileRig, RebuildIntervalInPaperBallpark) {
  // §4.1: ~6 steps at the highest accuracy to ~30 at the lowest.
  const StepProfile lo = profile_step(workload(), 1.0 / 2, 1);
  const StepProfile hi = profile_step(workload(), 1.0 / 16384, 1);
  EXPECT_GE(lo.rebuild_interval, hi.rebuild_interval);
  EXPECT_GE(hi.rebuild_interval, 2.0);
  EXPECT_LE(lo.rebuild_interval, 64.0);
}

TEST_F(ProfileRig, MakeAmortizedScalesWithInterval) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const simt::OpCounts am = p.make_amortized();
  EXPECT_LT(am.int_ops, p.make_raw.int_ops);
  const double ratio = static_cast<double>(p.make_raw.int_ops) /
                       static_cast<double>(std::max<std::uint64_t>(am.int_ops, 1));
  EXPECT_NEAR(ratio, p.rebuild_interval, 0.05 * p.rebuild_interval + 1.0);
}

TEST_F(ProfileRig, V100PascalBeatsVoltaBeatsP100) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const auto v100 = perfmodel::tesla_v100();
  const auto p100 = perfmodel::tesla_p100();
  const double t60 = predict_step_time(p, v100, false).total();
  const double t70 = predict_step_time(p, v100, true).total();
  const double tp = predict_step_time(p, p100, false).total();
  EXPECT_LT(t60, t70); // Pascal mode always faster (§3)
  EXPECT_LT(t70, tp);  // V100 beats P100 in either mode (Fig 1)
}

TEST_F(ProfileRig, ModeSpeedupInPaperBand) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const auto v100 = perfmodel::tesla_v100();
  const double ratio = predict_step_time(p, v100, true).total() /
                       predict_step_time(p, v100, false).total();
  EXPECT_GT(ratio, 1.05);
  EXPECT_LT(ratio, 1.3); // paper: 1.1-1.2
}

TEST_F(ProfileRig, P100SpeedupBetweenOneAndPaperMax) {
  const StepProfile p = profile_step(workload(), 1.0 / 2048, 1);
  const auto v100 = perfmodel::tesla_v100();
  const auto p100 = perfmodel::tesla_p100();
  const double s = predict_step_time(p, p100, false).total() /
                   predict_step_time(p, v100, false).total();
  EXPECT_GT(s, 1.3);
  EXPECT_LT(s, 2.4); // paper: 1.4-2.2
}

TEST_F(ProfileRig, OlderGpusAreSlower) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const auto gpus = perfmodel::all_gpus(); // newest first
  double prev = 0.0;
  for (const auto& g : gpus) {
    const double t = predict_step_time(p, g, false).total();
    EXPECT_GT(t, prev) << g.name; // each older GPU slower (Fig 1)
    prev = t;
  }
}

TEST(BenchSupport, DaccSweepGridIsPowersOfTwo) {
  const auto grid = dacc_sweep(5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0], 0.5);
  EXPECT_DOUBLE_EQ(grid[4], 1.0 / 32);
  EXPECT_EQ(dacc_label(1.0 / 512), "2^-9");
  const auto strided = dacc_sweep(9, 4);
  ASSERT_EQ(strided.size(), 3u);
  EXPECT_DOUBLE_EQ(strided[2], 1.0 / 512);
}

TEST(BenchSupport, ScaleReadsEnvironment) {
  ::setenv("GOTHIC_BENCH_N", "4k", 1);
  ::setenv("GOTHIC_BENCH_STEPS", "3", 1);
  const BenchScale s = BenchScale::from_env();
  EXPECT_EQ(s.n, 4096u);
  EXPECT_EQ(s.steps, 3);
  ::unsetenv("GOTHIC_BENCH_N");
  ::unsetenv("GOTHIC_BENCH_STEPS");
}

// ---------------------------------------------------------------------------
// BENCH_<name>.json golden schema.

using gothic::minijson::JsonParser;
using gothic::minijson::JsonValue;

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         JsonValue::Type type) {
  EXPECT_TRUE(obj.has(key)) << "missing key \"" << key << '"';
  const JsonValue& v = obj.at(key);
  EXPECT_EQ(static_cast<int>(v.type), static_cast<int>(type))
      << "key \"" << key << "\" has the wrong JSON type";
  return v;
}

/// Every ops block carries one number per OpCategory, keyed by its
/// nvprof-style name.
void check_ops_block(const JsonValue& ops) {
  ASSERT_EQ(static_cast<int>(ops.type),
            static_cast<int>(JsonValue::Type::Object));
  for (int c = 0; c < static_cast<int>(simt::OpCategory::Count); ++c) {
    const auto name =
        std::string(simt::op_category_name(static_cast<simt::OpCategory>(c)));
    require(ops, name, JsonValue::Type::Number);
  }
}

class ReportSchema : public ProfileRig {
protected:
  /// A report exercising every section: scale, table, profile, metrics
  /// with several kernels and spread-out latencies, notes.
  static BenchReport golden_report(const StepProfile& profile) {
    BenchReport r("schema_check");

    BenchScale scale;
    scale.n = profile.n;
    scale.steps = 2;
    r.set_scale(scale);

    Table t("step timings", {"n", "mode", "seconds"});
    t.add_row({"8192", "volta", Table::sci(3.3e-2)});
    t.add_row({"8192", "pascal", Table::sci(2.9e-2)});
    r.add_table(t);

    r.add_profile("volta", profile);

    trace::MetricsRegistry metrics;
    for (int i = 0; i < 32; ++i) {
      runtime::LaunchRecord rec;
      rec.kernel = (i % 2 == 0) ? Kernel::WalkTree : Kernel::PredictCorrect;
      rec.id = static_cast<std::uint64_t>(i + 1);
      // Latencies spanning several histogram bins, so p50 < p95 < max is
      // a real ordering rather than three copies of one bin edge.
      rec.seconds = 1e-6 * static_cast<double>((i % 16) + 1) *
                    static_cast<double>(i + 1);
      rec.ops.fp32_fma = 100u + static_cast<std::uint64_t>(i);
      rec.ops.int_ops = 40u;
      metrics.record_launch(rec);
    }
    runtime::StepMark mark;
    mark.index = 1;
    mark.kernel_seconds = 2e-4;
    mark.wall_seconds = 1.5e-4;
    mark.walk_imbalance = 1.7;
    metrics.record_step(mark);
    r.add_metrics(metrics);

    r.add_note("golden-schema regression fixture");
    return r;
  }
};

TEST_F(ReportSchema, JsonKeepsRequiredKeysAndSectionTypes) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const BenchReport r = golden_report(p);
  const JsonValue doc = JsonParser(r.json()).parse();
  ASSERT_EQ(static_cast<int>(doc.type),
            static_cast<int>(JsonValue::Type::Object));

  EXPECT_EQ(require(doc, "bench", JsonValue::Type::String).str,
            "schema_check");

  const JsonValue& scale = require(doc, "scale", JsonValue::Type::Object);
  EXPECT_EQ(require(scale, "n", JsonValue::Type::Number).number, 8192.0);
  require(scale, "steps", JsonValue::Type::Number);
  require(scale, "dacc_min_exp", JsonValue::Type::Number);
  require(scale, "threads", JsonValue::Type::Number);
  EXPECT_FALSE(scale.has("async"));
  require(scale, "simd", JsonValue::Type::Bool);

  require(doc, "tables", JsonValue::Type::Array);
  require(doc, "profiles", JsonValue::Type::Array);
  require(doc, "metrics", JsonValue::Type::Object);
  const JsonValue& notes = require(doc, "notes", JsonValue::Type::Array);
  ASSERT_EQ(notes.array.size(), 1u);
  EXPECT_EQ(notes.array[0].str, "golden-schema regression fixture");
}

TEST_F(ReportSchema, ScenarioOverloadStampsMatrixKeysIntoScale) {
  // bench_scenario's set_scale overload appends the workload identity to
  // the scale stanza; the base keys must survive unchanged so the bench
  // gate's fingerprint still covers problem size and substrate.
  BenchReport r("scenario_check");
  BenchScale scale;
  scale.n = 1024;
  scale.steps = 8;
  r.set_scale(scale, "lj-box", "lj");
  Table t("t", {"n"});
  t.add_row({"1024"});
  r.add_table(t);

  const JsonValue doc = JsonParser(r.json()).parse();
  const JsonValue& sc = require(doc, "scale", JsonValue::Type::Object);
  EXPECT_EQ(require(sc, "n", JsonValue::Type::Number).number, 1024.0);
  require(sc, "steps", JsonValue::Type::Number);
  require(sc, "dacc_min_exp", JsonValue::Type::Number);
  require(sc, "threads", JsonValue::Type::Number);
  EXPECT_FALSE(sc.has("async"));
  require(sc, "simd", JsonValue::Type::Bool);
  EXPECT_EQ(require(sc, "scenario", JsonValue::Type::String).str, "lj-box");
  EXPECT_EQ(require(sc, "force", JsonValue::Type::String).str, "lj");
}

TEST_F(ReportSchema, TablesKeepRectangularShape) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const JsonValue doc = JsonParser(golden_report(p).json()).parse();
  const JsonValue& tables = doc.at("tables");
  ASSERT_EQ(tables.array.size(), 1u);
  for (const JsonValue& t : tables.array) {
    require(t, "title", JsonValue::Type::String);
    const JsonValue& headers = require(t, "headers", JsonValue::Type::Array);
    ASSERT_FALSE(headers.array.empty());
    for (const JsonValue& h : headers.array) {
      EXPECT_EQ(static_cast<int>(h.type),
                static_cast<int>(JsonValue::Type::String));
    }
    const JsonValue& rows = require(t, "rows", JsonValue::Type::Array);
    ASSERT_FALSE(rows.array.empty());
    for (const JsonValue& row : rows.array) {
      ASSERT_EQ(static_cast<int>(row.type),
                static_cast<int>(JsonValue::Type::Array));
      EXPECT_EQ(row.array.size(), headers.array.size())
          << "ragged row in table \"" << t.at("title").str << '"';
    }
  }
}

TEST_F(ReportSchema, ProfilesCarryMeasurementsAndPerKernelOps) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const JsonValue doc = JsonParser(golden_report(p).json()).parse();
  const JsonValue& profiles = doc.at("profiles");
  ASSERT_EQ(profiles.array.size(), 1u);
  const JsonValue& prof = profiles.array[0];
  EXPECT_EQ(require(prof, "label", JsonValue::Type::String).str, "volta");
  EXPECT_EQ(require(prof, "n", JsonValue::Type::Number).number, 8192.0);
  require(prof, "dacc", JsonValue::Type::Number);
  require(prof, "rebuild_interval", JsonValue::Type::Number);

  const JsonValue& meas = require(prof, "measured", JsonValue::Type::Object);
  require(meas, "kernel_seconds", JsonValue::Type::Number);
  require(meas, "wall_seconds", JsonValue::Type::Number);
  require(meas, "overlap_seconds", JsonValue::Type::Number);
  require(meas, "raw_overlap_seconds", JsonValue::Type::Number);
  require(meas, "walk_imbalance", JsonValue::Type::Number);

  const JsonValue& ops = require(prof, "ops", JsonValue::Type::Object);
  for (const char* kernel :
       {"walkTree", "calcNode", "makeTree_rebuild", "pred_corr"}) {
    check_ops_block(require(ops, kernel, JsonValue::Type::Object));
  }
  // Spot-check a value against the source profile: the schema must not
  // just exist, it must carry the measured counts.
  EXPECT_EQ(ops.at("walkTree").at("fp32").number,
            static_cast<double>(p.walk.fp32_core_instructions()));
}

TEST_F(ReportSchema, MetricsKernelsKeepMonotonePercentiles) {
  const StepProfile p = profile_step(workload(), 1.0 / 512, 1);
  const JsonValue doc = JsonParser(golden_report(p).json()).parse();
  const JsonValue& metrics = doc.at("metrics");
  require(metrics, "steps", JsonValue::Type::Number);
  require(metrics, "negative_overlap_steps", JsonValue::Type::Number);
  require(metrics, "min_raw_overlap_seconds", JsonValue::Type::Number);
  require(metrics, "overlap_seconds_total", JsonValue::Type::Number);
  require(metrics, "arena_capacity_bytes", JsonValue::Type::Number);
  require(metrics, "arena_heap_allocations", JsonValue::Type::Number);
  require(metrics, "workers", JsonValue::Type::Number);
  // Load-balance accounting (this fixture records one step with
  // walk_imbalance = 1.7, so mean == max == 1.7 over 1 step).
  EXPECT_EQ(require(metrics, "imbalance_steps", JsonValue::Type::Number).number,
            1.0);
  EXPECT_EQ(require(metrics, "imbalance_mean", JsonValue::Type::Number).number,
            1.7);
  EXPECT_EQ(require(metrics, "imbalance_max", JsonValue::Type::Number).number,
            1.7);
  require(metrics, "worker_busy_seconds_max", JsonValue::Type::Number);
  require(metrics, "worker_busy_seconds_total", JsonValue::Type::Number);
  require(metrics, "busy_workers", JsonValue::Type::Number);

  const JsonValue& kernels = require(metrics, "kernels", JsonValue::Type::Array);
  ASSERT_EQ(kernels.array.size(), 2u); // WalkTree + PredictCorrect
  for (const JsonValue& k : kernels.array) {
    require(k, "kernel", JsonValue::Type::String);
    EXPECT_GT(require(k, "launches", JsonValue::Type::Number).number, 0.0);
    require(k, "seconds", JsonValue::Type::Number);
    const double p50 = require(k, "p50_seconds", JsonValue::Type::Number).number;
    const double p95 = require(k, "p95_seconds", JsonValue::Type::Number).number;
    const double mx = require(k, "max_seconds", JsonValue::Type::Number).number;
    EXPECT_GT(p50, 0.0) << k.at("kernel").str;
    EXPECT_LE(p50, p95) << k.at("kernel").str;
    EXPECT_LE(p95, mx * 2.0) << k.at("kernel").str; // p95 is a bin upper edge
    check_ops_block(k.at("ops"));
  }
}

// check.sh's bench-smoke stage points GOTHIC_BENCH_VALIDATE_JSON at a
// freshly emitted BENCH_*.json and runs this test to hold the document to
// the same golden schema the fixture tests pin: required top-level keys,
// rectangular tables, and (when present) the profile/metrics sections.
TEST(ExternalReport, EnvNamedBenchJsonKeepsGoldenSchema) {
  const char* path = std::getenv("GOTHIC_BENCH_VALIDATE_JSON");
  if (path == nullptr || path[0] == '\0') {
    GTEST_SKIP() << "set GOTHIC_BENCH_VALIDATE_JSON=<BENCH_*.json> to "
                    "validate an emitted report";
  }
  const JsonValue doc = JsonParser(gothic::minijson::read_file(path)).parse();
  ASSERT_EQ(static_cast<int>(doc.type),
            static_cast<int>(JsonValue::Type::Object));
  EXPECT_FALSE(require(doc, "bench", JsonValue::Type::String).str.empty());
  const JsonValue& tables = require(doc, "tables", JsonValue::Type::Array);
  for (const JsonValue& t : tables.array) {
    require(t, "title", JsonValue::Type::String);
    const JsonValue& headers = require(t, "headers", JsonValue::Type::Array);
    const JsonValue& rows = require(t, "rows", JsonValue::Type::Array);
    for (const JsonValue& row : rows.array) {
      ASSERT_EQ(static_cast<int>(row.type),
                static_cast<int>(JsonValue::Type::Array));
      EXPECT_EQ(row.array.size(), headers.array.size())
          << "ragged row in table \"" << t.at("title").str << '"';
    }
  }
  if (doc.has("scale")) {
    const JsonValue& scale = require(doc, "scale", JsonValue::Type::Object);
    require(scale, "n", JsonValue::Type::Number);
    require(scale, "steps", JsonValue::Type::Number);
    require(scale, "threads", JsonValue::Type::Number);
    require(scale, "simd", JsonValue::Type::Bool);
  }
  if (doc.has("profiles")) {
    for (const JsonValue& prof : doc.at("profiles").array) {
      require(prof, "label", JsonValue::Type::String);
      const JsonValue& meas = require(prof, "measured", JsonValue::Type::Object);
      require(meas, "kernel_seconds", JsonValue::Type::Number);
      require(meas, "wall_seconds", JsonValue::Type::Number);
      require(meas, "walk_imbalance", JsonValue::Type::Number);
    }
  }
  if (doc.has("metrics")) {
    const JsonValue& metrics = require(doc, "metrics", JsonValue::Type::Object);
    require(metrics, "steps", JsonValue::Type::Number);
    require(metrics, "imbalance_mean", JsonValue::Type::Number);
    require(metrics, "imbalance_max", JsonValue::Type::Number);
    require(metrics, "worker_busy_seconds_total", JsonValue::Type::Number);
  }
  if (doc.has("notes")) {
    for (const JsonValue& note : doc.at("notes").array) {
      EXPECT_EQ(static_cast<int>(note.type),
                static_cast<int>(JsonValue::Type::String));
    }
  }
}

// ---------------------------------------------------------------------------
// bench::BaselineStore + diff_baselines — the bench_diff regression gate.

TEST(BaselineStore, CanonicalKeyStripsOnlyNumericRunSuffixes) {
  EXPECT_EQ(BaselineStore::canonical_key("BENCH_shard.async0.run3.json"),
            "BENCH_shard.async0");
  EXPECT_EQ(BaselineStore::canonical_key("BENCH_balance.run12.json"),
            "BENCH_balance");
  EXPECT_EQ(BaselineStore::canonical_key("BENCH_balance.json"),
            "BENCH_balance");
  // Non-numeric "run" segments are part of the name, not a repeat suffix.
  EXPECT_EQ(BaselineStore::canonical_key("BENCH_x.runab.json"),
            "BENCH_x.runab");
}

/// Two-directory diff rig: each test gets a private baseline/candidate
/// tree in the CWD (the build's test working dir), torn down afterwards.
class BaselineDiff : public ::testing::Test {
protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = std::filesystem::path("diff_" + std::string(info->name()));
    base_ = (root_ / "baseline").string();
    cand_ = (root_ / "candidate").string();
    std::filesystem::create_directories(base_);
    std::filesystem::create_directories(cand_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// A minimal report exercising every gated surface: a timing table
  /// column, profile measurements, and a metrics kernel entry.
  static std::string report_json(double kernel_s, double wall_s,
                                 double walk_s, int n = 4096,
                                 std::uint64_t fma = 100,
                                 const std::string& scale_extra = "") {
    std::ostringstream os;
    os << "{\"bench\": \"diffcase\", \"scale\": {\"n\": " << n
       << ", \"steps\": 4, \"dacc_min_exp\": 9, \"threads\": 2, "
          "\"async\": true, \"simd\": false"
       << scale_extra << "},\n"
       << "\"tables\": [{\"title\": \"step timings\", \"headers\": "
          "[\"case\", \"seconds\", \"walk [s]\"], \"rows\": [[\"volta\", \""
       << wall_s << "\", \"" << walk_s << "\"]]}],\n"
       << "\"profiles\": [{\"label\": \"volta\", \"measured\": "
          "{\"kernel_seconds\": "
       << kernel_s << ", \"wall_seconds\": " << wall_s
       << "}, \"ops\": {\"walkTree\": {\"fp32\": " << fma << "}}}],\n"
       << "\"metrics\": {\"kernels\": [{\"kernel\": \"walkTree\", "
          "\"seconds\": "
       << walk_s
       << ", \"p50_seconds\": 0.001, \"p95_seconds\": 0.002}]}}\n";
    return os.str();
  }

  static void write_report(const std::string& dir, const std::string& name,
                           const std::string& text) {
    std::ofstream os(std::filesystem::path(dir) / name);
    os << text;
    ASSERT_TRUE(os.good());
  }

  DiffReport diff(const DiffOptions& opt = {}) const {
    return diff_baselines(BaselineStore(base_), BaselineStore(cand_), opt);
  }

  std::filesystem::path root_;
  std::string base_;
  std::string cand_;
};

TEST_F(BaselineDiff, SameTreeComparedWithItselfIsClean) {
  const std::string rep = report_json(0.10, 0.12, 0.08);
  write_report(base_, "BENCH_diffcase.json", rep);
  write_report(cand_, "BENCH_diffcase.json", rep);
  const DiffReport out = diff();
  EXPECT_TRUE(out.ok());
  EXPECT_TRUE(out.regressions.empty());
  EXPECT_TRUE(out.errors.empty());
  ASSERT_EQ(out.compared.size(), 1u);
  EXPECT_EQ(out.compared[0], "BENCH_diffcase");
}

TEST_F(BaselineDiff, SyntheticSlowdownTripsEveryTimingSurface) {
  write_report(base_, "BENCH_diffcase.json", report_json(0.10, 0.12, 0.08));
  write_report(cand_, "BENCH_diffcase.json", report_json(10.0, 12.0, 8.0));
  const DiffReport out = diff();
  EXPECT_FALSE(out.ok());
  // kernel_seconds + wall_seconds + metrics kernel + both timing-headed
  // table columns ("seconds" by name, "walk [s]" by unit suffix).
  ASSERT_EQ(out.regressions.size(), 5u);
  bool saw_profile = false, saw_kernel = false, saw_table = false,
       saw_unit_suffix = false;
  for (const DiffFinding& f : out.regressions) {
    EXPECT_EQ(f.report, "BENCH_diffcase");
    EXPECT_NEAR(f.ratio(), 100.0, 1e-9);
    if (f.metric == "profiles[volta].measured.kernel_seconds") {
      saw_profile = true;
      EXPECT_DOUBLE_EQ(f.baseline, 0.10);
      EXPECT_DOUBLE_EQ(f.candidate, 10.0);
    }
    if (f.metric == "metrics.kernels[walkTree].seconds") saw_kernel = true;
    if (f.metric == "tables[step timings][volta].seconds") saw_table = true;
    if (f.metric == "tables[step timings][volta].walk [s]") {
      saw_unit_suffix = true;
    }
  }
  EXPECT_TRUE(saw_profile);
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_table);
  EXPECT_TRUE(saw_unit_suffix);
}

TEST_F(BaselineDiff, MinAcrossRepeatRunsAbsorbsOneNoisyRun) {
  write_report(base_, "BENCH_diffcase.json", report_json(0.10, 0.12, 0.08));
  // One candidate repeat hit a noisy machine; the other matched baseline.
  // MIN folding keeps the clean run, so the gate stays quiet.
  write_report(cand_, "BENCH_diffcase.run1.json",
               report_json(0.90, 1.10, 0.70));
  write_report(cand_, "BENCH_diffcase.run2.json",
               report_json(0.10, 0.12, 0.08));
  const DiffReport out = diff();
  EXPECT_TRUE(out.regressions.empty()) << out.regressions.size();
  ASSERT_EQ(out.compared.size(), 1u);
}

TEST_F(BaselineDiff, AbsoluteFloorKeepsMicroDeltasFromGating) {
  // 100x relative, but the delta is under the 2 ms default floor.
  write_report(base_, "BENCH_diffcase.json", report_json(1e-5, 1e-5, 1e-5));
  write_report(cand_, "BENCH_diffcase.json", report_json(1e-3, 1e-3, 1e-3));
  EXPECT_TRUE(diff().regressions.empty());
  // Lowering the floor exposes them.
  DiffOptions tight;
  tight.abs_floor = 1e-6;
  EXPECT_FALSE(diff(tight).regressions.empty());
}

TEST_F(BaselineDiff, ScaleMismatchSkipsTheReportWithANote) {
  write_report(base_, "BENCH_diffcase.json",
               report_json(0.10, 0.12, 0.08, /*n=*/4096));
  write_report(cand_, "BENCH_diffcase.json",
               report_json(10.0, 12.0, 8.0, /*n=*/8192));
  const DiffReport out = diff();
  EXPECT_TRUE(out.regressions.empty());
  EXPECT_TRUE(out.compared.empty());
  ASSERT_FALSE(out.notes.empty());
  EXPECT_NE(out.notes[0].find("scale mismatch"), std::string::npos);
}

TEST_F(BaselineDiff, ScenarioFingerprintMismatchSkipsWithANote) {
  // bench_scenario stamps the scenario name and force law into the scale
  // stanza; two reports from different scenarios must never be diffed
  // against each other even when everything else matches.
  write_report(base_, "BENCH_scenario_x.json",
               report_json(0.10, 0.12, 0.08, 4096, 100,
                           ", \"scenario\": \"plummer\", "
                           "\"force\": \"gravity\""));
  write_report(cand_, "BENCH_scenario_x.json",
               report_json(10.0, 12.0, 8.0, 4096, 100,
                           ", \"scenario\": \"lj-box\", \"force\": \"lj\""));
  const DiffReport out = diff();
  EXPECT_TRUE(out.regressions.empty());
  EXPECT_TRUE(out.compared.empty());
  ASSERT_FALSE(out.notes.empty());
  EXPECT_NE(out.notes[0].find("scale mismatch"), std::string::npos);
  EXPECT_NE(out.notes[0].find("plummer"), std::string::npos);
  EXPECT_NE(out.notes[0].find("lj-box"), std::string::npos);
}

TEST_F(BaselineDiff, MatchingScenarioFingerprintStillGates) {
  const std::string tag = ", \"scenario\": \"plummer\", "
                          "\"force\": \"gravity\"";
  write_report(base_, "BENCH_scenario_x.json",
               report_json(0.10, 0.12, 0.08, 4096, 100, tag));
  write_report(cand_, "BENCH_scenario_x.json",
               report_json(10.0, 12.0, 8.0, 4096, 100, tag));
  const DiffReport out = diff();
  ASSERT_EQ(out.compared.size(), 1u);
  EXPECT_FALSE(out.regressions.empty());
}

TEST_F(BaselineDiff, CountDriftIsInformationalNeverAFailure) {
  write_report(base_, "BENCH_diffcase.json",
               report_json(0.10, 0.12, 0.08, 4096, /*fma=*/100));
  write_report(cand_, "BENCH_diffcase.json",
               report_json(0.10, 0.12, 0.08, 4096, /*fma=*/150));
  const DiffReport out = diff();
  EXPECT_TRUE(out.ok());
  bool saw_drift = false;
  for (const std::string& n : out.notes) {
    saw_drift = saw_drift || n.find("count drift") != std::string::npos;
  }
  EXPECT_TRUE(saw_drift);
}

TEST_F(BaselineDiff, NewAndMissingReportsBecomeNotes) {
  write_report(base_, "BENCH_old.json", report_json(0.1, 0.1, 0.1));
  write_report(cand_, "BENCH_new.json", report_json(0.1, 0.1, 0.1));
  const DiffReport out = diff();
  EXPECT_TRUE(out.regressions.empty());
  EXPECT_TRUE(out.compared.empty());
  bool saw_new = false, saw_missing = false;
  for (const std::string& n : out.notes) {
    saw_new = saw_new || n.find("new report") != std::string::npos;
    saw_missing =
        saw_missing ||
        n.find("baseline report missing from candidate") != std::string::npos;
  }
  EXPECT_TRUE(saw_new);
  EXPECT_TRUE(saw_missing);
}

TEST_F(BaselineDiff, MalformedReportIsASchemaError) {
  write_report(base_, "BENCH_diffcase.json", "{\"not_a_bench\": 1}");
  write_report(cand_, "BENCH_diffcase.json", report_json(0.1, 0.1, 0.1));
  const DiffReport out = diff();
  EXPECT_FALSE(out.ok());
  ASSERT_FALSE(out.errors.empty());
  EXPECT_NE(out.errors[0].find("BENCH_diffcase"), std::string::npos);
}

TEST_F(BaselineDiff, DiffJsonKeepsGoldenSchema) {
  write_report(base_, "BENCH_diffcase.json", report_json(0.10, 0.12, 0.08));
  write_report(cand_, "BENCH_diffcase.json", report_json(10.0, 12.0, 8.0));
  const DiffOptions opt;
  const JsonValue doc = JsonParser(diff(opt).json(opt)).parse();
  const JsonValue& bd = require(doc, "bench_diff", JsonValue::Type::Object);
  EXPECT_EQ(require(bd, "v", JsonValue::Type::Number).number, 1.0);
  EXPECT_DOUBLE_EQ(require(bd, "threshold", JsonValue::Type::Number).number,
                   opt.threshold);
  EXPECT_DOUBLE_EQ(require(bd, "abs_floor", JsonValue::Type::Number).number,
                   opt.abs_floor);
  require(bd, "compared", JsonValue::Type::Array);
  require(bd, "notes", JsonValue::Type::Array);
  require(bd, "errors", JsonValue::Type::Array);
  const auto& regs = require(bd, "regressions", JsonValue::Type::Array).array;
  ASSERT_FALSE(regs.empty());
  for (const JsonValue& r : regs) {
    require(r, "report", JsonValue::Type::String);
    require(r, "metric", JsonValue::Type::String);
    require(r, "baseline", JsonValue::Type::Number);
    require(r, "candidate", JsonValue::Type::Number);
    require(r, "ratio", JsonValue::Type::Number);
  }
}

TEST_F(BaselineDiff, UpdateBaselineArchivesTheCandidateTree) {
  write_report(cand_, "BENCH_diffcase.json", report_json(0.1, 0.1, 0.1));
  write_report(cand_, "BENCH_other.run1.json", report_json(0.2, 0.2, 0.2));
  // Archive into a baseline directory that does not exist yet.
  const std::string fresh = (root_ / "fresh-baseline").string();
  EXPECT_EQ(update_baseline(BaselineStore(fresh), BaselineStore(cand_)), 2u);
  const BaselineStore archived(fresh);
  ASSERT_EQ(archived.entries().size(), 2u);
  const DiffReport out =
      diff_baselines(archived, BaselineStore(cand_), DiffOptions{});
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.compared.size(), 2u);
}

TEST_F(BaselineDiff, MissingBaselineDirectoryIsAnEmptyStore) {
  const BaselineStore store((root_ / "does-not-exist").string());
  EXPECT_TRUE(store.entries().empty());
}

TEST(BenchReportPath, UnwritableJsonDirErrorsToStderr) {
  BenchReport r("unwritable");
  ::setenv("GOTHIC_BENCH_JSON_DIR", "no-such-dir/nested", 1);
  std::ostringstream log;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(r.write(log));
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("GOTHIC_BENCH_JSON_DIR");
  EXPECT_NE(err.find("no-such-dir/nested"), std::string::npos)
      << "stderr must name the failed destination: " << err;
  EXPECT_NE(err.find("GOTHIC_BENCH_JSON_DIR"), std::string::npos);
  EXPECT_NE(log.str().find("could not write"), std::string::npos);
}

TEST(BenchReportPath, HonorsJsonDirEnvironment) {
  BenchReport r("path_check");
  ::unsetenv("GOTHIC_BENCH_JSON_DIR");
  EXPECT_EQ(r.path(), "BENCH_path_check.json");
  ::setenv("GOTHIC_BENCH_JSON_DIR", "/tmp/gothic-bench", 1);
  EXPECT_EQ(r.path(), "/tmp/gothic-bench/BENCH_path_check.json");
  ::setenv("GOTHIC_BENCH_JSON_DIR", "/tmp/gothic-bench/", 1);
  EXPECT_EQ(r.path(), "/tmp/gothic-bench/BENCH_path_check.json");
  ::unsetenv("GOTHIC_BENCH_JSON_DIR");
}

} // namespace
} // namespace gothic::bench
