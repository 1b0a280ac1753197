#include "bench_trace.hpp"

#include "stats.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2e {

void Tracer::span(const char* name, double t0, double t1,
                  std::uint64_t request) {
  if (enabled_) spans_.push_back(SpanEvent{name, t0, t1, request});
}

std::string Tracer::device_of(const char* stream) {
  const std::string s = stream;
  const auto slash = s.rfind('/');
  return slash == std::string::npos ? std::string() : s.substr(0, slash);
}

void Tracer::align(double t_returned) {
  if (!enabled_) return;
  std::map<std::string, double> last_end;
  for (std::size_t i = aligned_to_; i < pending_.size(); ++i) {
    double& end = last_end[device_of(pending_[i].stream)];
    end = std::max(end, pending_[i].t_end);
  }
  for (const auto& [device, end] : last_end) {
    const double candidate = t_returned - end;
    const auto [it, added] = offsets_.emplace(device, candidate);
    if (!added) it->second = std::min(it->second, candidate);
  }
  aligned_to_ = pending_.size();
}

void Tracer::flush_launches() {
  if (!enabled_) return;
  for (gothic::runtime::LaunchRecord rec : pending_) {
    const auto off = offsets_.find(device_of(rec.stream));
    if (off == offsets_.end()) continue; // never closed by an engine call
    rec.t_begin += off->second;
    rec.t_end += off->second;
    launches_.on_record(rec);
  }
  pending_.clear();
  aligned_to_ = 0;
  offsets_.clear();
}

void Tracer::on_record(const gothic::runtime::LaunchRecord& rec) {
  if (enabled_) pending_.push_back(rec);
}

bool Tracer::write(const std::string& path) const {
  std::ostringstream launches;
  launches_.write(launches);
  std::string json = launches.str();
  // The writer's events open with the first '[' (its "traceEvents" array,
  // which always holds its own metadata events); the spans go in front.
  const std::size_t at = json.find('[');
  if (at == std::string::npos) return false;
  std::string spans =
      "\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"benchmark spans\"}},";
  char num[64];
  auto us = [&num](double s) {
    std::snprintf(num, sizeof num, "%.3f", s * 1e6);
    return std::string(num);
  };
  for (const SpanEvent& s : spans_) {
    spans += "\n  {\"name\":" + json_quote(s.name) +
             ",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":" + us(s.t0) +
             ",\"dur\":" + us(s.t1 - s.t0) + ",\"args\":{\"request\":" + std::to_string(s.request) + "}},";
  }
  json.insert(at + 1, spans);
  std::ofstream out(path);
  out << json;
  return static_cast<bool>(out);
}

} // namespace e2e
