// The scenario registry: registry invariants, config-file derivation, the
// fuzz seed->scenario map, and the acceptance matrix — every registered
// scenario must keep the shard/SIMD/schedule bit-identity contract and every
// scenario must have a deterministically replayable fuzz seed.
#include "scenario/registry.hpp"

#include "nbody/sharded_simulation.hpp"
#include "simt/simd.hpp"
#include "testkit/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

namespace gothic::scenario {
namespace {

TEST(ScenarioRegistry, CoversTheRequiredMatrix) {
  const std::vector<Scenario>& reg = registry();
  EXPECT_GE(reg.size(), 6u);
  std::set<std::string> names;
  std::set<int> laws;
  for (const Scenario& s : reg) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    laws.insert(static_cast<int>(s.law));
    EXPECT_FALSE(s.summary.empty()) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.make)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.configure)) << s.name;
    EXPECT_GT(s.force_tol, 0.0) << s.name;
    EXPECT_GT(s.energy_tol, 0.0) << s.name;
    EXPECT_GT(s.momentum_tol, 0.0) << s.name;
    EXPECT_GE(s.default_n, 64u) << s.name;
  }
  EXPECT_GE(laws.size(), 2u) << "need gravity and at least one other law";
}

TEST(ScenarioRegistry, MakeIsDeterministicInNAndSeed) {
  for (const Scenario& s : registry()) {
    const nbody::Particles a = s.make(64, 5);
    const nbody::Particles b = s.make(64, 5);
    ASSERT_EQ(a.size(), 64u) << s.name;
    EXPECT_EQ(a.x, b.x) << s.name;
    EXPECT_EQ(a.vx, b.vx) << s.name;
    EXPECT_EQ(a.m, b.m) << s.name;
    // A different seed must actually change the draw (the fuzz replay
    // token depends on it).
    const nbody::Particles c = s.make(64, 6);
    EXPECT_NE(a.x, c.x) << s.name;
  }
}

TEST(ScenarioRegistry, ConfigureStampsNameAndLaw) {
  for (const Scenario& s : registry()) {
    const nbody::SimConfig cfg = scenario_sim_config(s);
    EXPECT_EQ(cfg.scenario, s.name);
    EXPECT_EQ(cfg.walk.law, s.law) << s.name;
    if (s.law == gravity::ForceLaw::LennardJones) {
      EXPECT_GT(cfg.walk.lj.sigma, real(0)) << s.name;
      EXPECT_GT(cfg.walk.lj.cutoff, real(0)) << s.name;
    }
  }
}

TEST(ScenarioRegistry, FindScenarioErrorListsEveryName) {
  try {
    (void)find_scenario("no-such-entry");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const std::string& name : scenario_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(ScenarioSeedMap, DeterministicAndCoversTheRegistry) {
  std::set<std::string> hit;
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    const Scenario& a = scenario_from_seed(seed);
    const Scenario& b = scenario_from_seed(seed);
    EXPECT_EQ(a.name, b.name);
    hit.insert(a.name);
  }
  // The seed is hashed before the modulo, so a modest seed range must
  // land on every registry entry.
  EXPECT_EQ(hit.size(), registry().size());
  // ...and a short run of consecutive seeds must spread across entries
  // (pairwise collisions are fine; a constant map is not).
  std::set<std::string> spread;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    spread.insert(scenario_from_seed(seed).name);
  }
  EXPECT_GT(spread.size(), 3u);
}

/// RAII scratch config file in the test working directory.
struct ScratchConfig {
  std::string path;
  explicit ScratchConfig(const std::string& name, const std::string& text)
      : path("scenario_cfg_" + name + ".cfg") {
    std::ofstream os(path);
    os << text;
  }
  ~ScratchConfig() { std::filesystem::remove(path); }
};

TEST(ScenarioConfigFile, OverridesWrapTheBaseConfigure) {
  const ScratchConfig f("derive",
                        "# derived workload\n"
                        "base = lj-box\n"
                        "name = tight-lj\n"
                        "sigma = 0.2\n"
                        "cutoff = 0.5   # absolute distance\n"
                        "n = 512\n"
                        "seed = 42\n");
  const Scenario sc = scenario_from_config_file(f.path);
  EXPECT_EQ(sc.name, "tight-lj");
  EXPECT_EQ(sc.law, gravity::ForceLaw::LennardJones);
  EXPECT_EQ(sc.default_n, 512u);
  EXPECT_EQ(sc.default_seed, 42u);
  const nbody::SimConfig cfg = scenario_sim_config(sc);
  EXPECT_EQ(cfg.scenario, "tight-lj");
  EXPECT_EQ(cfg.walk.law, gravity::ForceLaw::LennardJones);
  EXPECT_EQ(cfg.walk.lj.sigma, real(0.2));  // file key wins over base
  EXPECT_EQ(cfg.walk.lj.cutoff, real(0.5));
}

TEST(ScenarioConfigFile, DefaultBaseIsPlummerAndLawCanSwitch) {
  const ScratchConfig f("lawswitch", "law = lj\nsigma = 0.1\ncutoff = 0.3\n");
  const Scenario sc = scenario_from_config_file(f.path);
  EXPECT_EQ(sc.name, "plummer");
  EXPECT_EQ(sc.law, gravity::ForceLaw::LennardJones);
  EXPECT_EQ(scenario_sim_config(sc).walk.law,
            gravity::ForceLaw::LennardJones);
}

TEST(ScenarioConfigFile, RejectsMalformedInput) {
  const ScratchConfig bad_value("badvalue", "dacc = fast\n");
  EXPECT_THROW((void)scenario_from_config_file(bad_value.path),
               std::invalid_argument);
  const ScratchConfig bad_law("badlaw", "law = coulomb\n");
  EXPECT_THROW((void)scenario_from_config_file(bad_law.path),
               std::invalid_argument);
  const ScratchConfig bad_n("badn", "n = 0\n");
  EXPECT_THROW((void)scenario_from_config_file(bad_n.path),
               std::invalid_argument);
  EXPECT_THROW((void)scenario_from_config_file("does-not-exist.cfg"),
               std::invalid_argument);
}

// --- Acceptance matrix: bit-identity across shard/schedule/SIMD legs ------
// Every registered scenario (any force law) must produce the exact state
// of the in-order unsharded run when free-running, sharded, or run on the
// AVX2 substrate — the same contract the gravity fuzz sweeps pin.

class ScenarioMatrix : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioMatrix, ShardAsyncSimdLegsBitIdentical) {
  const Scenario& sc = find_scenario(GetParam());
  testkit::FuzzConfig fc;
  fc.n = 128;
  fc.steps = 4;
  const testkit::Reference ref = testkit::scenario_reference(fc, sc);
  EXPECT_TRUE(ref.violations.empty()) << sc.name;

  const auto leg = [&](int shards, bool simd_on) {
    simt::ScopedSimd simd(simd_on); // no-op on hosts without AVX2
    nbody::ShardOptions opt;
    opt.shards = shards;
    opt.workers = fc.workers;
    nbody::ShardedSimulation sim(
        sc.make(fc.n, fc.workload_seed),
        testkit::scenario_fuzz_config(sc, fc.rebuild_interval), opt);
    sim.run(fc.steps);
    return testkit::pack_state(sim.particles());
  };

  EXPECT_EQ(leg(1, false), ref.state) << sc.name << ": unsharded";
  EXPECT_EQ(leg(2, false), ref.state) << sc.name << ": K=2";
  EXPECT_EQ(leg(4, true), ref.state) << sc.name << ": K=4 simd";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioMatrix, ::testing::ValuesIn(scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- Fuzz scenario legs ---------------------------------------------------

TEST(ScenarioFuzz, EveryScenarioHasAReplayableSeed) {
  testkit::FuzzConfig fc;
  fc.n = 96;
  fc.steps = 3;
  // First seed landing on each registry entry; the hashed map must cover
  // the registry within a modest range.
  std::map<std::string, std::uint64_t> first;
  for (std::uint64_t seed = 0;
       first.size() < registry().size() && seed < 256; ++seed) {
    first.emplace(scenario_from_seed(seed).name, seed);
  }
  ASSERT_EQ(first.size(), registry().size());
  for (const auto& [name, seed] : first) {
    const testkit::ScenarioRunOutcome out =
        testkit::replay_scenario_seed(fc, seed);
    EXPECT_EQ(out.scenario, name);
    EXPECT_TRUE(out.bit_identical)
        << name << ": seed " << testkit::hex_seed(seed);
    EXPECT_TRUE(out.violations.empty()) << name;
    // Replaying the same seed reproduces the identical interleaving.
    const testkit::ScenarioRunOutcome again =
        testkit::replay_scenario_seed(fc, seed);
    EXPECT_EQ(again.signature, out.signature) << name;
    EXPECT_EQ(again.shards, out.shards) << name;
  }
}

TEST(ScenarioFuzz, SeededSweepIsCleanAndCoversScenarios) {
  testkit::FuzzConfig fc;
  fc.n = 96;
  fc.steps = 3;
  const testkit::SweepReport rep = testkit::sweep_scenario_seeds(fc, 0x51, 8);
  EXPECT_TRUE(rep.ok()) << (rep.failures.empty() ? "" : rep.failures[0]);
  EXPECT_EQ(rep.runs, 8u);
  // Signatures are prefixed with the scenario name; 8 hashed seeds must
  // hit more than one registry entry.
  std::set<std::string> scenarios;
  for (const std::string& sig : rep.signatures) {
    scenarios.insert(sig.substr(0, sig.find(':')));
  }
  EXPECT_GT(scenarios.size(), 1u);
}

} // namespace
} // namespace gothic::scenario
