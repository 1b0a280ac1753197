#include "support/baseline.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <set>

namespace gothic::bench {

namespace {

namespace fs = std::filesystem;
using minijson::JsonValue;
using minijson::num;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Does the table header name a wall-clock quantity? Only such columns
/// are gated; count/label columns are compared informationally at most.
/// "[s]" is the unit suffix the bench tables put on seconds columns
/// ("walk [s]", "elapsed [s]", "busy max [s]").
bool is_timing_header(const std::string& header) {
  const std::string h = lower(header);
  return h.find("second") != std::string::npos ||
         h.find("elapsed") != std::string::npos ||
         h.find("time") != std::string::npos ||
         h.find("[s]") != std::string::npos;
}

bool parse_cell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str()) return false;
  // Allow a trailing unit suffix only when separated (e.g. "1.2 ms" is
  // rejected — table cells in this repo are plain numbers or labels).
  while (*end == ' ') ++end;
  if (*end != '\0') return false;
  *out = v;
  return true;
}

/// The gated (timing) and informational (count/quantized) numeric leaves
/// of one parsed BENCH report, keyed by a dotted metric path.
struct MetricSet {
  std::map<std::string, double> timing;
  std::map<std::string, double> info;
  std::string scale; ///< comparability fingerprint (see extract)
};

void extract_profile(const JsonValue& p, MetricSet* out) {
  const std::string label =
      p.has("label") ? p.at("label").str : std::string("?");
  if (p.has("measured")) {
    const JsonValue& m = p.at("measured");
    for (const char* key : {"kernel_seconds", "wall_seconds"}) {
      if (m.has(key) && m.at(key).type == JsonValue::Type::Number) {
        out->timing["profiles[" + label + "].measured." + key] =
            m.at(key).number;
      }
    }
  }
  if (p.has("ops")) {
    for (const auto& [kernel, ops] : p.at("ops").object) {
      for (const auto& [cat, v] : ops.object) {
        if (v.type == JsonValue::Type::Number) {
          out->info["profiles[" + label + "].ops." + kernel + "." + cat] =
              v.number;
        }
      }
    }
  }
}

void extract_table(const JsonValue& t, MetricSet* out) {
  if (!t.has("title") || !t.has("headers") || !t.has("rows")) return;
  const std::string title = t.at("title").str;
  const auto& headers = t.at("headers").array;
  for (const JsonValue& row : t.at("rows").array) {
    if (row.array.empty()) continue;
    const std::string row_label = row.array.front().str;
    for (std::size_t c = 1; c < row.array.size() && c < headers.size();
         ++c) {
      if (!is_timing_header(headers[c].str)) continue;
      double v = 0.0;
      if (!parse_cell(row.array[c].str, &v)) continue;
      out->timing["tables[" + title + "][" + row_label + "]." +
                  headers[c].str] = v;
    }
  }
}

/// Pull the comparable metrics out of one report DOM. Throws
/// std::runtime_error on schema violations.
MetricSet extract(const JsonValue& doc) {
  if (doc.type != JsonValue::Type::Object || !doc.has("bench") ||
      !doc.has("tables")) {
    throw std::runtime_error(
        "not a BENCH report (missing \"bench\"/\"tables\")");
  }
  MetricSet out;
  if (doc.has("scale")) {
    // Reports are comparable only at the same problem scale, substrate
    // configuration, and workload identity (the scenario/force keys
    // bench_scenario stamps into the scale stanza).
    const JsonValue& s = doc.at("scale");
    for (const char* key :
         {"n", "steps", "dacc_min_exp", "simd", "scenario", "force"}) {
      out.scale += key;
      out.scale += '=';
      if (s.has(key)) {
        const JsonValue& v = s.at(key);
        switch (v.type) {
          case JsonValue::Type::Bool: out.scale += v.boolean ? "1" : "0"; break;
          case JsonValue::Type::String: out.scale += v.str; break;
          default: out.scale += num(v.number); break;
        }
      }
      out.scale += ';';
    }
  }
  if (doc.has("profiles")) {
    for (const JsonValue& p : doc.at("profiles").array) {
      extract_profile(p, &out);
    }
  }
  if (doc.has("metrics") && doc.at("metrics").has("kernels")) {
    for (const JsonValue& k : doc.at("metrics").at("kernels").array) {
      if (!k.has("kernel")) continue;
      const std::string name = k.at("kernel").str;
      if (k.has("seconds")) {
        out.timing["metrics.kernels[" + name + "].seconds"] =
            k.at("seconds").number;
      }
      for (const char* q : {"p50_seconds", "p95_seconds"}) {
        if (k.has(q)) {
          out.info["metrics.kernels[" + name + "]." + q] = k.at(q).number;
        }
      }
    }
  }
  for (const JsonValue& t : doc.at("tables").array) extract_table(t, &out);
  return out;
}

/// Parse every run of a key and fold them: MIN per timing leaf (additive
/// noise), first-run value per informational leaf. Leaves missing from
/// some runs keep the value of the runs that have them.
MetricSet aggregate_runs(const std::vector<std::string>& files) {
  MetricSet agg;
  bool first = true;
  for (const std::string& file : files) {
    const MetricSet one = extract(
        minijson::JsonParser(minijson::read_file(file)).parse());
    if (first) {
      agg = one;
      first = false;
      continue;
    }
    if (one.scale != agg.scale) {
      throw std::runtime_error("repeat runs disagree on scale: " + file);
    }
    for (const auto& [key, v] : one.timing) {
      auto it = agg.timing.find(key);
      if (it == agg.timing.end()) {
        agg.timing[key] = v;
      } else {
        it->second = std::min(it->second, v);
      }
    }
    for (const auto& [key, v] : one.info) agg.info.emplace(key, v);
  }
  return agg;
}

} // namespace

std::string BaselineStore::canonical_key(const std::string& filename) {
  std::string key = filename;
  const std::string ext = ".json";
  if (key.size() > ext.size() &&
      key.compare(key.size() - ext.size(), ext.size(), ext) == 0) {
    key.resize(key.size() - ext.size());
  }
  const auto dot = key.rfind(".run");
  if (dot != std::string::npos && dot + 4 < key.size()) {
    bool digits = true;
    for (std::size_t i = dot + 4; i < key.size(); ++i) {
      digits = digits && std::isdigit(static_cast<unsigned char>(key[i]));
    }
    if (digits) key.resize(dot);
  }
  return key;
}

BaselineStore::BaselineStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0) continue;
    if (name.size() < 6 || name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    entries_[canonical_key(name)].push_back(entry.path().string());
  }
  for (auto& [key, files] : entries_) std::sort(files.begin(), files.end());
}

DiffReport diff_baselines(const BaselineStore& baseline,
                          const BaselineStore& candidate,
                          const DiffOptions& opt) {
  DiffReport rep;
  for (const auto& [key, cand_files] : candidate.entries()) {
    const auto base_it = baseline.entries().find(key);
    if (base_it == baseline.entries().end()) {
      rep.notes.push_back("new report (no baseline): " + key);
      continue;
    }
    MetricSet base;
    MetricSet cand;
    try {
      base = aggregate_runs(base_it->second);
      cand = aggregate_runs(cand_files);
    } catch (const std::exception& e) {
      rep.errors.push_back(key + ": " + e.what());
      continue;
    }
    if (base.scale != cand.scale) {
      rep.notes.push_back("scale mismatch, skipped: " + key + " (baseline " +
                          base.scale + " vs candidate " + cand.scale + ")");
      continue;
    }
    rep.compared.push_back(key);
    for (const auto& [metric, cv] : cand.timing) {
      const auto bit = base.timing.find(metric);
      if (bit == base.timing.end()) {
        rep.notes.push_back("new metric (no baseline): " + key + " " +
                            metric);
        continue;
      }
      const double bv = bit->second;
      if (cv > bv * (1.0 + opt.threshold) && cv - bv > opt.abs_floor) {
        rep.regressions.push_back({key, metric, bv, cv});
      }
    }
    for (const auto& [metric, bv] : base.timing) {
      if (cand.timing.find(metric) == cand.timing.end()) {
        rep.notes.push_back("metric disappeared: " + key + " " + metric);
      }
    }
    // Deterministic counts must not drift; log2-quantized latency
    // percentiles wobble by design. Both are informational.
    for (const auto& [metric, cv] : cand.info) {
      const auto bit = base.info.find(metric);
      if (bit != base.info.end() && bit->second != cv &&
          metric.find(".ops.") != std::string::npos) {
        rep.notes.push_back("count drift: " + key + " " + metric + " " +
                            num(bit->second) + " -> " + num(cv));
      }
    }
  }
  for (const auto& [key, files] : baseline.entries()) {
    if (candidate.entries().find(key) == candidate.entries().end()) {
      rep.notes.push_back("baseline report missing from candidate: " + key);
    }
  }
  std::sort(rep.regressions.begin(), rep.regressions.end(),
            [](const DiffFinding& a, const DiffFinding& b) {
              return a.ratio() > b.ratio();
            });
  return rep;
}

void DiffReport::print(std::ostream& os, const DiffOptions& opt) const {
  os << "bench_diff: compared " << compared.size() << " report(s), gate > "
     << num(1.0 + opt.threshold) << "x and > " << num(opt.abs_floor)
     << "s slower\n";
  for (const DiffFinding& f : regressions) {
    os << "  REGRESSION " << f.report << " " << f.metric << ": "
       << num(f.baseline) << "s -> " << num(f.candidate) << "s ("
       << num(f.ratio()) << "x)\n";
  }
  for (const std::string& e : errors) os << "  ERROR " << e << "\n";
  for (const std::string& n : notes) os << "  note: " << n << "\n";
  if (ok()) os << "  no regressions\n";
}

std::string DiffReport::json(const DiffOptions& opt) const {
  std::string out = "{\n  \"bench_diff\": {\n    \"v\": 1, \"threshold\": " +
                    num(opt.threshold) +
                    ", \"abs_floor\": " + num(opt.abs_floor) + ",\n";
  auto string_array = [](const std::vector<std::string>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) a += ", ";
      a += minijson::quoted(v[i]);
    }
    return a + "]";
  };
  out += "    \"compared\": " + string_array(compared) + ",\n";
  out += "    \"regressions\": [";
  for (std::size_t i = 0; i < regressions.size(); ++i) {
    const DiffFinding& f = regressions[i];
    if (i != 0) out += ",";
    out += "\n      {\"report\": " + minijson::quoted(f.report) +
           ", \"metric\": " + minijson::quoted(f.metric) +
           ", \"baseline\": " + num(f.baseline) +
           ", \"candidate\": " + num(f.candidate) +
           ", \"ratio\": " + num(f.ratio()) + "}";
  }
  out += regressions.empty() ? "],\n" : "\n    ],\n";
  out += "    \"notes\": " + string_array(notes) + ",\n";
  out += "    \"errors\": " + string_array(errors) + "\n  }\n}\n";
  return out;
}

std::size_t update_baseline(const BaselineStore& baseline,
                            const BaselineStore& candidate) {
  std::error_code ec;
  fs::create_directories(baseline.dir(), ec);
  // The promoted point is exactly the candidate tree: a report or .runK
  // repeat the candidate did not produce leaves the baseline, so a later
  // gate neither misses it nor folds it into the MIN.
  std::set<std::string> promoted;
  for (const auto& [key, files] : candidate.entries()) {
    for (const std::string& file : files) {
      promoted.insert(fs::path(file).filename().string());
    }
  }
  for (const auto& [key, files] : baseline.entries()) {
    for (const std::string& file : files) {
      if (promoted.contains(fs::path(file).filename().string())) continue;
      std::error_code rm_ec;
      if (!fs::remove(file, rm_ec) && rm_ec) {
        std::fprintf(stderr, "gothic: error: could not remove stale %s: %s\n",
                     file.c_str(), rm_ec.message().c_str());
      }
    }
  }
  std::size_t copied = 0;
  for (const auto& [key, files] : candidate.entries()) {
    for (const std::string& file : files) {
      const fs::path src(file);
      const fs::path dst = fs::path(baseline.dir()) / src.filename();
      std::error_code copy_ec;
      fs::copy_file(src, dst, fs::copy_options::overwrite_existing, copy_ec);
      if (copy_ec) {
        std::fprintf(stderr,
                     "gothic: error: could not archive %s into %s: %s\n",
                     file.c_str(), baseline.dir().c_str(),
                     copy_ec.message().c_str());
        continue;
      }
      ++copied;
    }
  }
  return copied;
}

} // namespace gothic::bench
