// Unit tests of the benchmark's own rules (stats.hpp). run.py runs them
// before any workload, so a broken rule never produces a number.
#include "bench_trace.hpp"
#include "stats.hpp"

#include "util/minijson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

namespace {

using e2e::MetricSpec;
using e2e::Rule;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i); // unsorted on purpose
  return v;
}

TEST(NearestRank, PicksTheCeilRankSample) {
  EXPECT_EQ(e2e::nearest_rank(one_to(100), 50), 50);
  EXPECT_EQ(e2e::nearest_rank(one_to(100), 90), 90);
  EXPECT_EQ(e2e::nearest_rank(one_to(10), 95), 10);
  EXPECT_EQ(e2e::nearest_rank(one_to(7), 50), 4);   // ceil(3.5)
  EXPECT_EQ(e2e::nearest_rank(one_to(1024), 99), 1014); // ceil(1013.76)
  EXPECT_EQ(e2e::nearest_rank({3.0}, 50), 3.0);
  EXPECT_THROW((void)e2e::nearest_rank({}, 50), std::invalid_argument);
  EXPECT_THROW((void)e2e::nearest_rank({1.0}, 0), std::invalid_argument);
  EXPECT_THROW((void)e2e::nearest_rank({1.0}, 101), std::invalid_argument);
}

TEST(NearestRank, TenSamplesBeyondRule) {
  EXPECT_EQ(e2e::samples_beyond(100, 90), 10u);
  EXPECT_EQ(e2e::samples_beyond(99, 90), 9u);
  EXPECT_TRUE(e2e::percentile_supported(100, 90));
  EXPECT_FALSE(e2e::percentile_supported(99, 90));
  EXPECT_TRUE(e2e::percentile_supported(20, 50));
  EXPECT_FALSE(e2e::percentile_supported(19, 50));
  EXPECT_FALSE(e2e::percentile_supported(0, 50));
  EXPECT_EQ(e2e::samples_beyond(1024, 99), 10u);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = e2e::quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = e2e::quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q2[0], 0.75);
  EXPECT_DOUBLE_EQ(q2[1], 1.5);
  EXPECT_DOUBLE_EQ(q2[2], 2.25);
  EXPECT_THROW((void)e2e::quartiles({1.0}), std::invalid_argument);
}

TEST(Bound, RelativeAndFloorMustBothBeExceeded) {
  MetricSpec lat{"latency_p50_ms", false, 0.10, 1.0};
  // 2 ms base: 10% is 0.2 ms, the 1 ms floor dominates.
  EXPECT_FALSE(lat.worse_beyond(2.0, 2.9));
  EXPECT_TRUE(lat.worse_beyond(2.0, 3.1));
  // 100 ms base: 10 ms relative dominates the floor.
  EXPECT_FALSE(lat.worse_beyond(100.0, 109.0));
  EXPECT_TRUE(lat.worse_beyond(100.0, 111.0));
  EXPECT_FALSE(lat.worse_beyond(100.0, 50.0)); // better is never worse
  EXPECT_TRUE(lat.better_beyond(100.0, 85.0));

  MetricSpec rate{"updates_per_s", true, 0.10, 0.0};
  EXPECT_TRUE(rate.worse_beyond(1000.0, 899.0));
  EXPECT_FALSE(rate.worse_beyond(1000.0, 901.0));
  EXPECT_FALSE(rate.worse_beyond(1000.0, 2000.0));
}

TEST(Judge, ClaimNeedsNineOfTenWinsAndMoreThanTheSpread) {
  MetricSpec rate{"updates_per_s", true, 0.10, 0.0};
  std::vector<double> parent{100, 101, 99, 100, 102, 98, 100, 101, 99, 100};
  std::vector<double> change;
  for (double p : parent) change.push_back(p + 10);
  EXPECT_EQ(e2e::judge(rate, parent, change, Rule::Claim).label, "gain");
  change[0] = 90; // one loss of ten still meets 9/10
  EXPECT_EQ(e2e::judge(rate, parent, change, Rule::Claim).label, "gain");
  change[1] = 90; // two losses do not
  const e2e::Verdict v = e2e::judge(rate, parent, change, Rule::Claim);
  EXPECT_EQ(v.label, "no-gain");
  EXPECT_EQ(v.wins, 8);
  EXPECT_EQ(v.losses, 2);
  // All wins by less than the parent's quartile spread: no gain.
  std::vector<double> tiny;
  for (double p : parent) tiny.push_back(p + 0.5);
  EXPECT_EQ(e2e::judge(rate, parent, tiny, Rule::Claim).label, "no-gain");
}

TEST(Judge, NoRegressionAndUnresolved) {
  MetricSpec lat{"latency_p50_ms", false, 0.10, 0.0};
  const std::vector<double> parent{10,  10.1, 9.9,  10,  10.2,
                                   9.8, 10,   10.1, 9.9, 10};
  std::vector<double> same = parent;
  EXPECT_EQ(e2e::judge(lat, parent, same, Rule::NoRegression).label, "ok");
  std::vector<double> slow;
  for (double p : parent) slow.push_back(p * 1.2);
  EXPECT_EQ(e2e::judge(lat, parent, slow, Rule::NoRegression).label,
            "regressed");
  const std::vector<double> noisy{5, 15, 6, 14, 7, 13, 8, 12, 9, 11};
  EXPECT_EQ(e2e::judge(lat, parent, noisy, Rule::NoRegression).label,
            "unresolved");
  // A wide spread is settled when every change run beats every parent run.
  const std::vector<double> fast{1, 3, 1.5, 2.5, 2, 1, 3, 1.5, 2.5, 2};
  const std::vector<double> wide{5, 15, 6, 14, 7, 13, 8, 12, 9, 11};
  EXPECT_EQ(e2e::judge(lat, wide, fast, Rule::NoRegression).label, "ok");
  EXPECT_THROW((void)e2e::judge(lat, parent, {1.0, 2.0}, Rule::NoRegression),
               std::invalid_argument);
}

TEST(Judge, AgreementIsSymmetric) {
  MetricSpec rate{"updates_per_s", true, 0.10, 0.0};
  const std::vector<double> a{100, 101, 99, 100, 102};
  std::vector<double> up, down;
  for (double x : a) {
    up.push_back(x * 1.2);
    down.push_back(x * 0.8);
  }
  EXPECT_EQ(e2e::judge(rate, a, a, Rule::Agreement).label, "agree");
  EXPECT_EQ(e2e::judge(rate, a, up, Rule::Agreement).label, "disagree");
  EXPECT_EQ(e2e::judge(rate, a, down, Rule::Agreement).label, "disagree");
  // Agreement compares medians only: a wide but centred spread agrees.
  const std::vector<double> wide{50, 150, 100, 60, 140};
  EXPECT_EQ(e2e::judge(rate, a, wide, Rule::Agreement).label, "agree");
}

TEST(FailureShare, CountsFailuresAgainstAttempts) {
  EXPECT_DOUBLE_EQ(e2e::failure_share(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(e2e::failure_share(8, 2), 0.25);
  EXPECT_THROW((void)e2e::failure_share(0, 0), std::invalid_argument);
  EXPECT_THROW((void)e2e::failure_share(1, 2), std::invalid_argument);

  e2e::Result r;
  r.ops_attempted = 5;
  r.check("a", true, "");
  r.check("b", false, "");
  EXPECT_EQ(r.ops_attempted, 7u);
  EXPECT_EQ(r.ops_failed, 1u);
}

TEST(MetricName, CharacterSet) {
  EXPECT_TRUE(e2e::valid_metric_name("latency_p50_ms"));
  EXPECT_TRUE(e2e::valid_metric_name("gravity.walk_ms_per_step"));
  EXPECT_TRUE(e2e::valid_metric_name("m31-shared"));
  EXPECT_TRUE(e2e::valid_metric_name("9lives"));
  EXPECT_TRUE(e2e::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(e2e::valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(e2e::valid_metric_name(""));
  EXPECT_FALSE(e2e::valid_metric_name("_hidden"));
  EXPECT_FALSE(e2e::valid_metric_name(".dot"));
  EXPECT_FALSE(e2e::valid_metric_name("has space"));
  EXPECT_FALSE(e2e::valid_metric_name("slash/x"));
  EXPECT_TRUE(e2e::valid_unit("1/s"));
  EXPECT_TRUE(e2e::valid_unit("MiB"));
  EXPECT_TRUE(e2e::valid_unit("%"));
  EXPECT_FALSE(e2e::valid_unit("a unit"));
  EXPECT_FALSE(e2e::valid_unit(std::string(17, 's')));
}

TEST(ResultJson, SchemaRoundTrips) {
  e2e::Result r;
  r.workload = "m31-shared";
  r.seed = 2;
  r.traced = true;
  r.fingerprint = {{"cpu_model", "Some \"CPU\""}, {"nproc", "4"}};
  r.ops_attempted = 100;
  r.check("force_err_p99", true, "0.001 <= 0.02");
  r.metrics = {{"updates_per_s", "1/s", 123456.789}, {"setup_s", "s", 0.5}};
  r.layers = {{"gravity.walk_ms_per_step", "ms", 1.25}};

  const auto v = gothic::minijson::JsonParser(e2e::to_json(r)).parse();
  std::set<std::string> keys;
  for (const auto& [k, unused] : v.object) keys.insert(k);
  EXPECT_EQ(keys, (std::set<std::string>{"schema", "workload", "seed", "traced",
                                         "fingerprint", "ops_attempted",
                                         "ops_failed", "failure_share",
                                         "checks", "metrics", "layers"}));
  EXPECT_EQ(v.at("schema").str, "gothic-e2e/1");
  EXPECT_EQ(v.at("workload").str, "m31-shared");
  EXPECT_EQ(v.at("seed").number, 2);
  EXPECT_TRUE(v.at("traced").boolean);
  EXPECT_EQ(v.at("fingerprint").at("cpu_model").str, "Some \"CPU\"");
  EXPECT_EQ(v.at("ops_attempted").number, 101);
  EXPECT_EQ(v.at("ops_failed").number, 0);
  EXPECT_EQ(v.at("checks").array.size(), 1u);
  EXPECT_TRUE(v.at("checks").array[0].at("ok").boolean);
  const auto& ups = v.at("metrics").at("updates_per_s");
  EXPECT_DOUBLE_EQ(ups.at("value").number, 123456.789); // all digits kept
  EXPECT_EQ(ups.at("unit").str, "1/s");
  EXPECT_EQ(v.at("layers").at("gravity.walk_ms_per_step").at("unit").str, "ms");
}

TEST(ResultJson, RejectsInvalidOutput) {
  e2e::Result r;
  r.ops_attempted = 1;
  r.metrics = {{"bad name", "s", 1.0}};
  EXPECT_THROW((void)e2e::to_json(r), std::invalid_argument);
  r.metrics = {{"ok", "s", std::nan("")}};
  EXPECT_THROW((void)e2e::to_json(r), std::invalid_argument);
  r.metrics = {{"ok", "no unit!", 1.0}};
  EXPECT_THROW((void)e2e::to_json(r), std::invalid_argument);
  r.metrics.clear();
  r.ops_attempted = 0;
  EXPECT_THROW((void)e2e::to_json(r), std::invalid_argument);
}

TEST(ForceError, FlooredOnAHandCase) {
  // |a_ref| = 5 above the floor: plain relative error 1/5.
  EXPECT_DOUBLE_EQ(e2e::force_error({3, 4, 1}, {3, 4, 0}, 2.0), 0.2);
  // |a_ref| = 0.5 below the floor 2: the floor divides, 1/2 not 1/0.5.
  EXPECT_DOUBLE_EQ(e2e::force_error({0, 0.5, 1}, {0, 0.5, 0}, 2.0), 0.5);
  // Zero reference force stays finite.
  EXPECT_DOUBLE_EQ(e2e::force_error({0, 0, 3}, {0, 0, 0}, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(e2e::force_error({1, 2, 3}, {1, 2, 3}, 1.0), 0.0);
}

TEST(Tracer, MergesSpansWithAlignedLaunchRecords) {
  e2e::Tracer tr(true);
  gothic::runtime::LaunchRecord rec;
  rec.label = "walk";
  rec.stream = "shard1/tree";
  rec.id = 1;
  rec.t_begin = 10.0; // seconds since the device's own epoch
  rec.t_end = 10.5;
  tr.on_record(rec);
  tr.align(3.0); // the engine call returned at tracer time 3.0
  gothic::runtime::LaunchRecord stray = rec;
  stray.stream = "shard2/tree";
  stray.id = 2;
  tr.on_record(stray); // no engine call returned after it: dropped
  tr.flush_launches();
  tr.span("nbody.step", 2.0, 3.0, 7);

  const std::string path = testing::TempDir() + "e2e_tracer_test.json";
  ASSERT_TRUE(tr.write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const auto v = gothic::minijson::JsonParser(text.str()).parse();
  int launches = 0;
  int spans = 0;
  for (const auto& e : v.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    if (e.at("pid").number == 1) {
      ++launches;
      EXPECT_EQ(e.at("name").str, "walk");
      // The last body ended as the call returned: 10.5 s maps to 3.0 s.
      EXPECT_DOUBLE_EQ(e.at("ts").number, 2.5e6);
      EXPECT_DOUBLE_EQ(e.at("dur").number, 0.5e6);
    } else {
      ++spans;
      EXPECT_EQ(e.at("pid").number, 2);
      EXPECT_EQ(e.at("name").str, "nbody.step");
      EXPECT_DOUBLE_EQ(e.at("ts").number, 2.0e6);
      EXPECT_EQ(e.at("args").at("request").number, 7);
    }
  }
  EXPECT_EQ(launches, 1);
  EXPECT_EQ(spans, 1);
}

} // namespace
