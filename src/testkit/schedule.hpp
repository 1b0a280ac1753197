// Deterministic schedule exploration for the async launch engine.
//
// These controllers plug into the runtime::ScheduleController seam
// (runtime/schedule.hpp). RecordingController is the shared base: it
// mirrors the engine's decision model (per-lane FIFO queues, the completed
// set, the grant sequence) from the hook stream alone and cross-checks
// every observation against the scheduler invariants — issue ids are
// assigned in program order, a lane's candidates appear strictly FIFO, no
// candidate is offered before its dependencies completed, completions
// publish in grant order. Violations are collected as strings (never
// thrown: the hooks run inside the engine) for the harness to assert
// empty.
//
// The grant sequence doubles as the schedule's identity: signature() is
// the comma-joined executed launch-id order, so two runs took the same
// interleaving iff their signatures match.
//
// Three deciders:
//  * InOrderSchedule — always grants the oldest ready launch, so the
//    engine runs one launch at a time in issue order. This is the serial
//    reference every bit-identity oracle compares against.
//  * SeededSchedule — every real decision point (more than one ready
//    launch) consumes one PRNG draw from a 64-bit seed. Replaying the
//    seed replays the exact interleaving; printing it is a full repro.
//  * ScriptedSchedule — follows an explicit choice path and records the
//    fanout met at each decision point, which next_path() turns into the
//    DFS successor; together they enumerate the whole schedule tree of a
//    fixed workload without knowing its shape in advance.
#pragma once

#include "runtime/schedule.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gothic::testkit {

/// Base schedule controller: serializes the engine, records the executed
/// interleaving, and checks scheduler invariants. Subclasses supply the
/// decision rule via choose().
class RecordingController : public runtime::ScheduleController {
public:
  void on_enqueue(int lane, std::uint64_t id) override;
  std::uint64_t pick(std::span<const runtime::ReadyLaunch> ready) override;
  void on_complete(int lane, std::uint64_t id) override;

  /// Launch ids in grant (= execution) order.
  [[nodiscard]] const std::vector<std::uint64_t>& executed() const {
    return executed_;
  }
  /// The interleaving's identity: executed ids, comma-joined.
  [[nodiscard]] std::string signature() const;
  /// Picks that had more than one admissible launch.
  [[nodiscard]] std::size_t decision_points() const {
    return decision_points_;
  }
  /// True once the launch's completion was published. After Event::wait()
  /// returns, the waited id must satisfy this.
  [[nodiscard]] bool is_complete(std::uint64_t id) const;
  /// Invariant violations observed so far (empty on a correct engine).
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  /// Launches enqueued so far.
  [[nodiscard]] std::size_t enqueued() const { return enqueued_; }

protected:
  /// Decision rule: index into `ready` (non-empty, lane-sorted).
  virtual std::size_t choose(std::span<const runtime::ReadyLaunch> ready) = 0;

private:
  void flag(const std::string& what);
  struct LaneQueue {
    std::vector<std::uint64_t> pending; ///< enqueued, not yet granted (FIFO)
  };
  std::vector<LaneQueue> lanes_;
  std::vector<std::uint64_t> executed_;  ///< grant order
  std::vector<std::uint64_t> completed_; ///< publication order
  /// Launch ids at or below this were issued before the controller was
  /// attached (to an idle device) and count as complete.
  std::uint64_t baseline_ = 0;
  bool baseline_set_ = false;
  std::uint64_t last_enqueued_ = 0;
  std::size_t enqueued_ = 0;
  std::size_t decision_points_ = 0;
  std::vector<std::string> violations_;
};

/// Serial reference decider: grants the smallest ready launch id. The
/// smallest incomplete launch is always ready (its dependencies and its
/// lane predecessors carry smaller ids), so launches execute strictly in
/// issue order, one at a time, while the base class still checks every
/// scheduler invariant.
class InOrderSchedule final : public RecordingController {
protected:
  std::size_t choose(std::span<const runtime::ReadyLaunch> ready) override {
    std::size_t c = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (ready[i].id < ready[c].id) c = i;
    }
    return c;
  }
};

/// Seeded random decider: one 64-bit seed determines the entire
/// interleaving; decision points with a single candidate consume no
/// randomness, so the draw sequence is stable against forced-chain
/// stretches of the DAG.
class SeededSchedule final : public RecordingController {
public:
  explicit SeededSchedule(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

protected:
  std::size_t choose(std::span<const runtime::ReadyLaunch> ready) override {
    if (ready.size() == 1) return 0;
    return static_cast<std::size_t>(rng_.next() % ready.size());
  }

private:
  std::uint64_t seed_;
  Xoshiro256 rng_;
};

/// Scripted decider for exhaustive enumeration: decision point `d` takes
/// branch path[d] (0 beyond the path's end) and records the fanout it saw.
class ScriptedSchedule final : public RecordingController {
public:
  struct Decision {
    std::size_t chosen = 0;
    std::size_t fanout = 1;
  };

  ScriptedSchedule() = default;
  explicit ScriptedSchedule(std::vector<std::size_t> path)
      : path_(std::move(path)) {}

  /// The decisions this run actually took, with the fanout available at
  /// each — the input of next_path().
  [[nodiscard]] const std::vector<Decision>& decisions() const {
    return decisions_;
  }

  /// DFS successor of a completed run: the deepest decision with an
  /// untried branch advances and everything below it resets to branch 0.
  /// nullopt when the tree is exhausted.
  static std::optional<std::vector<std::size_t>> next_path(
      const std::vector<Decision>& decisions);

protected:
  std::size_t choose(std::span<const runtime::ReadyLaunch> ready) override {
    if (ready.size() == 1) return 0;
    const std::size_t depth = decisions_.size();
    std::size_t c = depth < path_.size() ? path_[depth] : 0;
    if (c >= ready.size()) c = ready.size() - 1;
    decisions_.push_back(Decision{c, ready.size()});
    return c;
  }

private:
  std::vector<std::size_t> path_;
  std::vector<Decision> decisions_;
};

} // namespace gothic::testkit
