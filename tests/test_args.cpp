// Command-line argument parser, plus the `--scenario <name|file>` spec
// resolution gothic_run feeds user input through (its catch block prints
// e.what() as a one-line stderr error, so the messages must stay
// single-line and list the registered names).
#include "scenario/registry.hpp"
#include "util/args.hpp"
#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace gothic {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(ArgsTest, KeyEqualsValueForm) {
  const Args a = parse({"prog", "--n=4096", "--dacc=0.002"});
  EXPECT_EQ(a.get_int("n", 0), 4096);
  EXPECT_DOUBLE_EQ(a.get_double("dacc", 0.0), 0.002);
  EXPECT_EQ(a.program(), "prog");
}

TEST(ArgsTest, KeySpaceValueForm) {
  const Args a = parse({"prog", "--model", "m31", "--steps", "7"});
  EXPECT_EQ(a.get("model", ""), "m31");
  EXPECT_EQ(a.get_int("steps", 0), 7);
}

TEST(ArgsTest, FlagsAndDefaults) {
  const Args a = parse({"prog", "--quadrupole", "--verbose=true"});
  EXPECT_TRUE(a.get_flag("quadrupole"));
  EXPECT_TRUE(a.get_flag("verbose"));
  EXPECT_FALSE(a.get_flag("absent"));
  EXPECT_EQ(a.get("missing", "fallback"), "fallback");
  EXPECT_EQ(a.get_int("missing", 42), 42);
}

TEST(ArgsTest, PositionalArgumentsCollected) {
  const Args a = parse({"prog", "input.snap", "--n=8", "output.csv"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.snap");
  EXPECT_EQ(a.positional()[1], "output.csv");
}

TEST(ArgsTest, TypeErrorsThrow) {
  const Args a = parse({"prog", "--n=abc", "--x=1.5zzz"});
  EXPECT_THROW((void)a.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)a.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW(parse({"prog", "--"}), std::invalid_argument);
}

TEST(ArgsTest, OutOfRangeValuesThrowNamingTheFlag) {
  const Args a = parse({"prog", "--steps=-2", "--n=5"});
  EXPECT_EQ(a.get_in_range("n", 1, 1, 10), 5);
  EXPECT_EQ(a.get_in_range("missing", 3, 1, 10), 3);
  try {
    (void)a.get_in_range("steps", 64, 1, 100);
    FAIL() << "--steps=-2 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--steps=-2 is out of range [1, 100]");
  }
  EXPECT_THROW((void)a.get_in_range("n", 1, 6, 10), std::invalid_argument);
}

TEST(ArgsTest, Unsigned64AcceptsDecimalAndHexAndRejectsTheRest) {
  const Args a = parse({"prog", "--seed=12", "--replay=0xffffffffffffffff",
                        "--oct=010", "--nine=09", "--upper=0XaB",
                        "--big=18446744073709551616", "--neg=-1",
                        "--plus=+5", "--tail=12abc", "--word=abc", "--blank=",
                        "--space= 7", "--bare=0x", "--hexneg=0x-1"});
  EXPECT_EQ(a.get_u64("seed", 0), 12u);
  EXPECT_EQ(a.get_u64("replay", 0), 0xffffffffffffffffULL);
  EXPECT_EQ(a.get_u64("oct", 0), 10u);
  EXPECT_EQ(a.get_u64("nine", 0), 9u);
  EXPECT_EQ(a.get_u64("upper", 0), 0xabu);
  EXPECT_EQ(a.get_u64("missing", 42), 42u);
  for (const char* key : {"big", "neg", "plus", "tail", "word", "blank",
                          "space", "bare", "hexneg"}) {
    try {
      (void)a.get_u64(key, 0);
      ADD_FAILURE() << "--" << key << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(std::string("--") + key + " ", 0),
                0u)
          << e.what();
    }
  }
}

TEST(ArgsTest, UnusedDetectsTypos) {
  const Args a = parse({"prog", "--n=1", "--tpyo=5"});
  (void)a.get_int("n", 0);
  const auto unused = a.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "tpyo");
}

TEST(ArgsTest, NegativeNumbersAsValues) {
  const Args a = parse({"prog", "--offset=-3", "--scale", "-2.5"});
  EXPECT_EQ(a.get_int("offset", 0), -3);
  // "-2.5" does not start with "--", so the space form captures it.
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0.0), -2.5);
}

// --- gothic_run --scenario spec resolution --------------------------------

/// Expect `fn` to throw std::invalid_argument and return its message.
template <typename Fn>
std::string spec_error(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

/// RAII scratch config file in the test working directory.
struct ScratchConfig {
  std::string path;
  explicit ScratchConfig(const std::string& name, const std::string& text)
      : path("args_scenario_" + name + ".cfg") {
    std::ofstream os(path);
    os << text;
  }
  ~ScratchConfig() { std::filesystem::remove(path); }
};

TEST(ScenarioSpec, UnknownNameErrorIsOneLineAndListsRegistry) {
  const std::string msg =
      spec_error([] { (void)scenario::scenario_from_spec("bogus"); });
  EXPECT_NE(msg.find("unknown scenario 'bogus'"), std::string::npos) << msg;
  // Every registered name must appear so the user can pick a valid one.
  for (const std::string& name : scenario::scenario_names()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
  EXPECT_EQ(msg.find('\n'), std::string::npos) << "must stay one line";
}

TEST(ScenarioSpec, MalformedConfigLineNamesFileAndLine) {
  const ScratchConfig f("noequals", "base = plummer\njust a bare line\n");
  const std::string msg =
      spec_error([&] { (void)scenario::scenario_from_spec(f.path); });
  EXPECT_NE(msg.find(f.path + ":2"), std::string::npos) << msg;
  EXPECT_EQ(msg.find('\n'), std::string::npos);
}

TEST(ScenarioSpec, UnknownConfigKeyListsValidKeys) {
  const ScratchConfig f("badkey", "warp = 9\n");
  const std::string msg =
      spec_error([&] { (void)scenario::scenario_from_spec(f.path); });
  EXPECT_NE(msg.find("unknown key 'warp'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("valid:"), std::string::npos) << msg;
  EXPECT_EQ(msg.find('\n'), std::string::npos);
}

TEST(ScenarioSpec, UnknownBaseListsRegisteredNames) {
  const ScratchConfig f("badbase", "base = nope\n");
  const std::string msg =
      spec_error([&] { (void)scenario::scenario_from_spec(f.path); });
  EXPECT_NE(msg.find("unknown scenario 'nope'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("registered:"), std::string::npos) << msg;
}

TEST(ScenarioSpec, RegisteredNameWinsAndFileFallbackWorks) {
  // An exact registered name resolves without touching the filesystem.
  EXPECT_EQ(scenario::scenario_from_spec("plummer").name, "plummer");
  // A non-name spec that is an openable file parses as a config file.
  const ScratchConfig f("derive", "base = plummer\nn = 256\nlaw = lj\n");
  const scenario::Scenario sc = scenario::scenario_from_spec(f.path);
  EXPECT_EQ(sc.default_n, 256u);
  EXPECT_EQ(sc.law, gravity::ForceLaw::LennardJones);
}

// --- env_size rejection semantics -------------------------------------------
//
// Every malformed setting must warn (once per value) and fall back — never
// silently misparse. Each test uses its own variable name because the
// warn-once set is keyed per (variable, value) for the process lifetime.

class ScopedEnv {
public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
  const char* name_;
};

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(EnvSize, PlainAndSuffixedValuesParse) {
  const ScopedEnv plain("GOTHIC_TEST_SZ_PLAIN", "123");
  const ScopedEnv kilo("GOTHIC_TEST_SZ_K", "8k");
  const ScopedEnv mega("GOTHIC_TEST_SZ_M", "8M");
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_PLAIN", 7), 123u);
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_K", 7), 8192u);
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_M", 7), 8u * 1024u * 1024u);
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_UNSET", 7), 7u);
}

TEST(EnvSize, TrailingGarbageAfterSuffixWarnsOnceAndFallsBack) {
  // "8kb" used to parse as 8 KiB — the 'b' was silently dropped.
  const ScopedEnv e("GOTHIC_TEST_SZ_KB", "8kb");
  testing::internal::CaptureStderr();
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_KB", 7), 7u);
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_KB", 7), 7u); // re-read must not spam
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_occurrences(err, "ignoring GOTHIC_TEST_SZ_KB='8kb'"), 1u)
      << err;
}

TEST(EnvSize, NegativeValueDoesNotWrapToHugeSize) {
  // strtoull would wrap "-1" to SIZE_MAX; the parser must reject the sign.
  const ScopedEnv e("GOTHIC_TEST_SZ_NEG", "-1");
  testing::internal::CaptureStderr();
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_NEG", 7), 7u);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("unsigned"),
            std::string::npos);
}

TEST(EnvSize, OverflowingValuesFallBack) {
  // Past ULLONG_MAX (ERANGE)...
  const ScopedEnv range("GOTHIC_TEST_SZ_RANGE", "99999999999999999999");
  // ...and within range but overflowing through the multiplier: the old
  // code computed base * mult in silently-wrapping unsigned arithmetic.
  const ScopedEnv mult("GOTHIC_TEST_SZ_MULT", "18446744073709551615m");
  testing::internal::CaptureStderr();
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_RANGE", 7), 7u);
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_MULT", 7), 7u);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_occurrences(err, "ignoring"), 2u) << err;
}

TEST(EnvSize, UnknownSuffixAndGarbageFallBack) {
  const ScopedEnv suffix("GOTHIC_TEST_SZ_SUFFIX", "8q");
  const ScopedEnv text("GOTHIC_TEST_SZ_TEXT", "lots");
  testing::internal::CaptureStderr();
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_SUFFIX", 7), 7u);
  EXPECT_EQ(env_size("GOTHIC_TEST_SZ_TEXT", 7), 7u);
  (void)testing::internal::GetCapturedStderr();
}

TEST(ParseSize, ThrowsWhereEnvSizeFallsBack) {
  EXPECT_EQ(parse_size("8k"), 8192u);
  EXPECT_EQ(parse_size("64"), 64u);
  EXPECT_THROW((void)parse_size("8kb"), std::invalid_argument);
  EXPECT_THROW((void)parse_size("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_size("junk"), std::invalid_argument);
}

} // namespace
} // namespace gothic
