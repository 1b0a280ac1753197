#include "support/report.hpp"

#include "util/env.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace gothic::bench {

namespace {

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Built with += rather than `"\"" + escaped(s) + "\""` — the rvalue
// operator+ chain trips a GCC 12 -Wrestrict false positive when inlined.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += escaped(s);
  out += '"';
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // JSON has no inf/nan literals; a bench should never produce them, but
  // keep the document parseable if one does.
  std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// {"int32": ..., "fp32": ..., ...} over every OpCategory.
std::string ops_json(const simt::OpCounts& ops) {
  std::string out = "{";
  for (int c = 0; c < static_cast<int>(simt::OpCategory::Count); ++c) {
    const auto cat = static_cast<simt::OpCategory>(c);
    if (c != 0) out += ", ";
    out += "\"";
    out += simt::op_category_name(cat);
    out += "\": " + num(simt::op_category_value(ops, cat));
  }
  return out + "}";
}

void append_element(std::string& array, std::string element) {
  if (!array.empty()) array += ",\n    ";
  array += std::move(element);
}

} // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::set_scale(const BenchScale& scale) {
  scale_json_ = "{\"n\": " + num(static_cast<std::uint64_t>(scale.n)) +
                ", \"steps\": " + std::to_string(scale.steps) +
                ", \"dacc_min_exp\": " + std::to_string(scale.dacc_min_exp) +
                ", \"threads\": " + std::to_string(scale.threads) +
                ", \"simd\": " + (scale.simd ? "true" : "false") + "}";
}

void BenchReport::set_scale(const BenchScale& scale,
                            const std::string& scenario,
                            const std::string& force) {
  set_scale(scale);
  scale_json_.pop_back(); // reopen the object to append the matrix keys
  scale_json_ += ", \"scenario\": " + quoted(scenario) +
                 ", \"force\": " + quoted(force) + "}";
}

void BenchReport::add_table(const Table& t) {
  std::string e = "{\"title\": " + quoted(t.title()) + ",\n     \"headers\": [";
  for (std::size_t c = 0; c < t.cols(); ++c) {
    if (c != 0) e += ", ";
    e += quoted(t.headers()[c]);
  }
  e += "],\n     \"rows\": [";
  for (std::size_t r = 0; r < t.rows(); ++r) {
    if (r != 0) e += ",\n              ";
    e += "[";
    for (std::size_t c = 0; c < t.cols(); ++c) {
      if (c != 0) e += ", ";
      e += quoted(t.cell(r, c));
    }
    e += "]";
  }
  e += "]}";
  append_element(tables_json_, std::move(e));
}

void BenchReport::add_profile(const std::string& label, const StepProfile& p) {
  std::string e = "{\"label\": " + quoted(label) +
                  ", \"n\": " + num(static_cast<std::uint64_t>(p.n)) +
                  ", \"dacc\": " + num(p.dacc) +
                  ", \"rebuild_interval\": " + num(p.rebuild_interval) +
                  ",\n     \"measured\": {\"kernel_seconds\": " +
                  num(p.measured_kernel_seconds) +
                  ", \"wall_seconds\": " + num(p.measured_wall_seconds) +
                  ", \"overlap_seconds\": " + num(p.measured_overlap_seconds()) +
                  ", \"raw_overlap_seconds\": " +
                  num(p.measured_raw_overlap_seconds()) +
                  ", \"walk_imbalance\": " + num(p.walk_stats.imbalance()) +
                  "}";
  e += ",\n     \"ops\": {\"walkTree\": " + ops_json(p.walk) +
       ",\n             \"calcNode\": " + ops_json(p.calc) +
       ",\n             \"makeTree_rebuild\": " + ops_json(p.make_raw) +
       ",\n             \"pred_corr\": " + ops_json(p.pred) + "}}";
  append_element(profiles_json_, std::move(e));
}

void BenchReport::add_metrics(const trace::MetricsRegistry& m) {
  std::string kernels;
  for (int k = 0; k < static_cast<int>(Kernel::Count); ++k) {
    const trace::KernelStats& ks = m.kernel(static_cast<Kernel>(k));
    if (ks.launches == 0) continue;
    if (!kernels.empty()) kernels += ",\n      ";
    kernels += "{\"kernel\": \"";
    kernels += kernel_name(static_cast<Kernel>(k));
    kernels += "\", \"launches\": " + num(ks.launches) +
               ", \"seconds\": " + num(ks.seconds) +
               ",\n       \"p50_seconds\": " + num(ks.latency.p50_seconds()) +
               ", \"p95_seconds\": " + num(ks.latency.p95_seconds()) +
               ", \"max_seconds\": " + num(ks.latency.max_seconds()) +
               ",\n       \"ops\": " + ops_json(ks.ops) + "}";
  }
  metrics_json_ =
      "{\"kernels\": [" + kernels + "],\n    \"steps\": " + num(m.steps()) +
      ", \"negative_overlap_steps\": " + num(m.negative_overlap_steps()) +
      ", \"min_raw_overlap_seconds\": " + num(m.min_raw_overlap_seconds()) +
      ",\n    \"overlap_seconds_total\": " + num(m.overlap_seconds_total()) +
      ", \"arena_capacity_bytes\": " +
      num(static_cast<std::uint64_t>(m.arena_capacity_bytes())) +
      ", \"arena_heap_allocations\": " + num(m.arena_heap_allocations()) +
      ", \"workers\": " + std::to_string(m.workers()) +
      ",\n    \"imbalance_steps\": " + num(m.imbalance_steps()) +
      ", \"imbalance_mean\": " + num(m.imbalance_mean()) +
      ", \"imbalance_max\": " + num(m.imbalance_max()) +
      ",\n    \"worker_busy_seconds_max\": " + num(m.worker_busy_seconds_max()) +
      ", \"worker_busy_seconds_total\": " +
      num(m.worker_busy_seconds_total()) +
      ", \"busy_workers\": " + std::to_string(m.busy_workers()) + "}";
}

void BenchReport::add_note(const std::string& note) {
  append_element(notes_json_, quoted(note));
}

std::string BenchReport::json() const {
  std::string out = "{\n  \"bench\": " + quoted(name_);
  if (!scale_json_.empty()) out += ",\n  \"scale\": " + scale_json_;
  out += ",\n  \"tables\": [\n    " + tables_json_ + "\n  ]";
  if (!profiles_json_.empty()) {
    out += ",\n  \"profiles\": [\n    " + profiles_json_ + "\n  ]";
  }
  if (!metrics_json_.empty()) out += ",\n  \"metrics\": " + metrics_json_;
  if (!notes_json_.empty()) {
    out += ",\n  \"notes\": [\n    " + notes_json_ + "\n  ]";
  }
  return out + "\n}\n";
}

std::string BenchReport::path() const {
  std::string dir = env_string("GOTHIC_BENCH_JSON_DIR", "");
  std::string file = "BENCH_" + name_ + ".json";
  if (dir.empty()) return file;
  if (dir.back() != '/') dir += '/';
  return dir + file;
}

bool BenchReport::write(std::ostream& log) const {
  const std::string dest = path();
  std::ofstream os(dest);
  if (os) os << json();
  if (!os) {
    // The bench log is routinely redirected to /dev/null in CI, so a bad
    // GOTHIC_BENCH_JSON_DIR must also hit stderr or the report silently
    // never materializes.
    std::fprintf(stderr,
                 "gothic: error: could not write bench report %s "
                 "(check GOTHIC_BENCH_JSON_DIR)\n",
                 dest.c_str());
    log << "warning: could not write " << dest << "\n";
    return false;
  }
  log << "machine-readable report: " << dest << "\n";
  return true;
}

} // namespace gothic::bench
