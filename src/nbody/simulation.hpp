// nbody::Simulation — the step engine (nbody/sharded_simulation.hpp) with
// one shard on the caller's device.
#pragma once

#include "nbody/sharded_simulation.hpp"

namespace gothic::nbody {

/// K=1 on the ambient device: construction, step() and refresh_forces()
/// each launch on runtime::Device::current(), resolved at every call, so
/// a ScopedDevice decides where each call runs — a test's pinned worker
/// count, or whichever session-pool driver picked the session up.
class Simulation : public ShardedSimulation {
public:
  /// Takes ownership of the particle set (any order) and runs the initial
  /// build + bootstrap force evaluation on the current device.
  Simulation(Particles particles, SimConfig cfg);
};

} // namespace gothic::nbody
