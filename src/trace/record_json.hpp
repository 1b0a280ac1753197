// JSON writers for the instrumentation stream's values, shared by every
// artifact that serializes them: the op-category object (Perfetto trace
// args and counters, flight-recorder launches, BENCH profiles and
// metrics) and the StepMark's fields (flight-recorder steps and telemetry
// step lines). Strings and numbers go through util/minijson.hpp.
#pragma once

#include "runtime/stream.hpp"
#include "simt/op_counter.hpp"

#include <string>

namespace gothic::trace {

/// `"int32": ..., "fp32": ..., ...` over every OpCategory, as object
/// members without the braces (a trace event's args hold them beside its
/// own keys).
[[nodiscard]] std::string ops_fields(const simt::OpCounts& ops);

/// {"int32": ..., "fp32": ..., ...} over every OpCategory.
[[nodiscard]] std::string ops_json(const simt::OpCounts& ops);

/// The StepMark as object members without the braces: index, rebuilt,
/// t_begin, t_end, kernel_seconds, wall_seconds, raw_overlap_seconds,
/// walk_imbalance, shards, shard_busy_max, shard_busy_mean,
/// shard_imbalance, let_cells and let_bodies.
[[nodiscard]] std::string step_fields(const runtime::StepMark& m);

} // namespace gothic::trace
