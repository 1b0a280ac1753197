#include "trace/record_json.hpp"

#include "util/minijson.hpp"

namespace gothic::trace {

using minijson::num;

std::string ops_fields(const simt::OpCounts& ops) {
  std::string out;
  for (int c = 0; c < static_cast<int>(simt::OpCategory::Count); ++c) {
    const auto cat = static_cast<simt::OpCategory>(c);
    if (c != 0) out += ", ";
    out += minijson::quoted(simt::op_category_name(cat));
    out += ": " + num(simt::op_category_value(ops, cat));
  }
  return out;
}

// Built with += rather than `"{" + ops_fields(ops) + "}"`: the rvalue
// operator+ chain trips a GCC 12 -Wrestrict false positive when inlined.
std::string ops_json(const simt::OpCounts& ops) {
  std::string out = "{";
  out += ops_fields(ops);
  out += '}';
  return out;
}

std::string step_fields(const runtime::StepMark& m) {
  return "\"index\": " + num(m.index) +
         ", \"rebuilt\": " + (m.rebuilt ? "true" : "false") +
         ", \"t_begin\": " + num(m.t_begin) + ", \"t_end\": " + num(m.t_end) +
         ", \"kernel_seconds\": " + num(m.kernel_seconds) +
         ", \"wall_seconds\": " + num(m.wall_seconds) +
         ", \"raw_overlap_seconds\": " + num(m.raw_overlap_seconds()) +
         ", \"walk_imbalance\": " + num(m.walk_imbalance) +
         ", \"shards\": " + std::to_string(m.shards) +
         ", \"shard_busy_max\": " + num(m.shard_busy_max) +
         ", \"shard_busy_mean\": " + num(m.shard_busy_mean) +
         ", \"shard_imbalance\": " + num(m.shard_imbalance()) +
         ", \"let_cells\": " + num(m.let_cells) +
         ", \"let_bodies\": " + num(m.let_bodies);
}

} // namespace gothic::trace
