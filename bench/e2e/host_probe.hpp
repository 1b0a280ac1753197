// The host's speed, measured beside every request. This benchmark's host
// is shared: its speed swings by up to 1.7x within minutes, in phases that
// last seconds to minutes and differ from core to core, so wall times
// taken minutes apart differ by more than any bound a gate could use. The
// benchmark therefore reports durations in reference seconds: each
// measured duration is scaled by how fast a fixed probe kernel ran, on
// every core, just before it.
//
// The probe belongs to the benchmark, not the engine, and is compiled in
// its own translation unit without the engine's compile options, so a
// change to the engine cannot move it. It is timed in thread-CPU time, so
// engine threads competing for the same cores (a spinning worker, say)
// cannot slow it: only the host's own speed does.
#pragma once

namespace e2e {

/// Thread-CPU seconds of one probe on the reference host (README.md):
/// durations are reported as if measured at that speed.
inline constexpr double kProbeReferenceSeconds = 1.0e-3;

/// Run the probe on 4 threads at once, one per core of the reference
/// host; return kProbeReferenceSeconds / the median of their thread-CPU
/// seconds, the factor that maps a duration measured now onto reference
/// seconds.
[[nodiscard]] double host_scale();

} // namespace e2e
