// util: RNG determinism and statistics, tables, env
// parsing, timers.
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace gothic {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double mean = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / n, 0.5, 0.005);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256 rng(11);
  double m1 = 0, m2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    m1 += x;
    m2 += x * x;
  }
  m1 /= n;
  m2 /= n;
  EXPECT_NEAR(m1, 0.0, 0.01);
  EXPECT_NEAR(m2, 1.0, 0.02);
}

TEST(Rng, UnitVectorsIsotropic) {
  Xoshiro256 rng(13);
  double sx = 0, sy = 0, sz = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    EXPECT_NEAR(x * x + y * y + z * z, 1.0, 1e-12);
    sx += x;
    sy += y;
    sz += z;
  }
  EXPECT_NEAR(sx / n, 0.0, 0.02);
  EXPECT_NEAR(sy / n, 0.0, 0.02);
  EXPECT_NEAR(sz / n, 0.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 a(42);
  Xoshiro256 b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Table, AlignsAndFormats) {
  Table t("demo", {"name", "value"});
  t.add_row({"alpha", Table::sci(3.3e-2)});
  t.add_row({"beta", Table::fix(1.25, 1)});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cell(0, 1), "3.300e-02");
  EXPECT_EQ(t.cell(1, 1), "1.2");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("## demo"), std::string::npos);
  EXPECT_NE(os.str().find("| alpha"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("alpha,3.300e-02"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Env, ParsesSuffixesAndFallsBack) {
  ::setenv("GOTHIC_TEST_ENV_X", "8m", 1);
  EXPECT_EQ(env_size("GOTHIC_TEST_ENV_X", 1), 8u * 1024 * 1024);
  ::setenv("GOTHIC_TEST_ENV_X", "64k", 1);
  EXPECT_EQ(env_size("GOTHIC_TEST_ENV_X", 1), 64u * 1024);
  ::setenv("GOTHIC_TEST_ENV_X", "123", 1);
  EXPECT_EQ(env_size("GOTHIC_TEST_ENV_X", 1), 123u);
  ::setenv("GOTHIC_TEST_ENV_X", "garbage", 1);
  EXPECT_EQ(env_size("GOTHIC_TEST_ENV_X", 5), 5u);
  ::unsetenv("GOTHIC_TEST_ENV_X");
  EXPECT_EQ(env_size("GOTHIC_TEST_ENV_X", 9), 9u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(sw.seconds(), 0.0);
  (void)sink;
}

} // namespace
} // namespace gothic
