#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace e2e {

namespace {

std::size_t nearest_rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("nearest_rank: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("nearest_rank: p must be in (0, 100]");
  }
  // Integer-exact for whole percentiles: ceil(p * n / 100) without the
  // rounding of p / 100 in binary floating point.
  const double scaled = p * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(scaled / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_metrics(std::string& out, const std::vector<Metric>& ms) {
  out += '{';
  bool first = true;
  for (const Metric& m : ms) {
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("invalid metric name '" + m.name + "'");
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("invalid unit '" + m.unit + "' of " +
                                  m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value of " + m.name);
    }
    if (!first) out += ',';
    first = false;
    out += json_quote(m.name) + ":{\"value\":" + format_number(m.value) +
           ",\"unit\":" + json_quote(m.unit) + '}';
  }
  out += '}';
}

} // namespace

double nearest_rank(std::vector<double> samples, double p) {
  const std::size_t i = nearest_rank_index(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(i),
                   samples.end());
  return samples[i];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - 1 - nearest_rank_index(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinBeyond;
}

std::array<double, 3> quartiles(std::vector<double> s) {
  if (s.size() < 2) throw std::invalid_argument("quartiles: need 2 samples");
  std::sort(s.begin(), s.end());
  const auto ld = static_cast<long long>(s.size());
  const long long m = ld + 1;
  std::array<double, 3> q{};
  for (long long i = 1; i < 4; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (s[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         s[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double MetricSpec::tolerance(double base) const {
  return std::max(bound * std::fabs(base), floor);
}

bool MetricSpec::worse_beyond(double base, double value) const {
  const double worse = higher_is_better ? base - value : value - base;
  return worse > tolerance(base);
}

bool MetricSpec::better_beyond(double base, double value) const {
  const double better = higher_is_better ? value - base : base - value;
  return better > tolerance(base);
}

Summary summarize(const std::vector<double>& samples) {
  // The middle exclusive-method quartile is the ordinary median.
  const std::array<double, 3> q = quartiles(samples);
  return Summary{q[1], q[0], q[2]};
}

Verdict judge(const MetricSpec& m, const std::vector<double>& parent,
              const std::vector<double>& change, Rule rule) {
  if (parent.size() != change.size() || parent.size() < 2) {
    throw std::invalid_argument("judge: need two equally long sample sets");
  }
  Verdict v;
  v.parent = summarize(parent);
  v.change = summarize(change);
  for (std::size_t i = 0; i < parent.size(); ++i) {
    const double d = m.higher_is_better ? change[i] - parent[i]
                                        : parent[i] - change[i];
    if (d > 0) ++v.wins;
    if (d < 0) ++v.losses;
  }
  switch (rule) {
    case Rule::Claim: {
      const double gain = m.higher_is_better
                              ? v.change.median - v.parent.median
                              : v.parent.median - v.change.median;
      const bool enough_wins =
          10 * v.wins >= 9 * static_cast<int>(parent.size());
      v.label = enough_wins && gain > v.parent.iqr() ? "gain" : "no-gain";
      break;
    }
    case Rule::NoRegression: {
      // "Every change run beats every parent run" settles a wide spread.
      const double worst_change =
          m.higher_is_better ? *std::min_element(change.begin(), change.end())
                             : *std::max_element(change.begin(), change.end());
      const double best_parent =
          m.higher_is_better ? *std::max_element(parent.begin(), parent.end())
                             : *std::min_element(parent.begin(), parent.end());
      const bool dominates = m.higher_is_better ? worst_change > best_parent
                                                : worst_change < best_parent;
      const bool spread_ok = v.parent.iqr() <= m.tolerance(v.parent.median) &&
                             v.change.iqr() <= m.tolerance(v.change.median);
      if (dominates) {
        v.label = "ok";
      } else if (!spread_ok) {
        v.label = "unresolved";
      } else {
        v.label = m.worse_beyond(v.parent.median, v.change.median)
                      ? "regressed"
                      : "ok";
      }
      break;
    }
    case Rule::Agreement:
      v.label = !m.worse_beyond(v.parent.median, v.change.median) &&
                        !m.better_beyond(v.parent.median, v.change.median)
                    ? "agree"
                    : "disagree";
      break;
  }
  return v;
}

double failure_share(std::uint64_t attempted, std::uint64_t failed) {
  if (attempted == 0 || failed > attempted) {
    throw std::invalid_argument(
        "failure_share: need 0 <= failed <= attempted, attempted >= 1");
  }
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double force_error(const std::array<double, 3>& a_tree,
                   const std::array<double, 3>& a_ref, double floor) {
  const double dx = a_tree[0] - a_ref[0];
  const double dy = a_tree[1] - a_ref[1];
  const double dz = a_tree[2] - a_ref[2];
  const double ref = std::sqrt(a_ref[0] * a_ref[0] + a_ref[1] * a_ref[1] +
                               a_ref[2] * a_ref[2]);
  return std::sqrt(dx * dx + dy * dy + dz * dz) / std::max(ref, floor);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
  ++ops_attempted;
  if (!ok) ++ops_failed;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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
  out += '"';
  return out;
}

std::string to_json(const Result& r) {
  std::string out = "{\"schema\":\"gothic-e2e/1\",\"workload\":" +
                    json_quote(r.workload) +
                    ",\"seed\":" + std::to_string(r.seed) +
                    ",\"traced\":" + (r.traced ? "true" : "false") +
                    ",\"fingerprint\":{";
  for (std::size_t i = 0; i < r.fingerprint.size(); ++i) {
    if (i > 0) out += ',';
    out += json_quote(r.fingerprint[i].first) + ':' +
           json_quote(r.fingerprint[i].second);
  }
  out += "},\"ops_attempted\":" + std::to_string(r.ops_attempted) +
         ",\"ops_failed\":" + std::to_string(r.ops_failed) +
         ",\"failure_share\":" +
         format_number(failure_share(r.ops_attempted, r.ops_failed)) +
         ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_quote(c.name) +
           ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + json_quote(c.detail) + '}';
  }
  out += "],\"metrics\":";
  append_metrics(out, r.metrics);
  out += ",\"layers\":";
  append_metrics(out, r.layers);
  out += '}';
  return out;
}

} // namespace e2e
