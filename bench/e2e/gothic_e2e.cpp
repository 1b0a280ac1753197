// gothic_e2e — the end-to-end benchmark binary (README.md).
//
//   gothic_e2e --workload=<name> --seed=<n> --seconds=<s> [--trace=<file>]
//       Run one workload; print its result as one JSON line. Exit 1 when
//       an operation or a correctness check failed.
//   gothic_e2e --judge --rule=claim|no-regression|agreement --metric=<name>
//              --better=higher|lower --bound=<share> [--floor=<abs>]
//              --parent=<v,v,...> --change=<v,v,...>
//       Apply one comparison rule to two sample sets (run.py's ab and
//       repeat modes); print the verdict as one JSON line.
#include "stats.hpp"
#include "workloads.hpp"

#include "simt/simd.hpp"
#include "util/args.hpp"

#include <unistd.h>

#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace {

/// Host identity read through cpuid and sysconf (no file reads).
std::vector<std::pair<std::string, std::string>> host_fingerprint() {
  std::string model = "unknown";
  std::string avx2 = "unknown";
  std::string avx512f = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    model.assign(reinterpret_cast<const char*>(regs), sizeof regs);
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
  }
  __builtin_cpu_init();
  avx2 = __builtin_cpu_supports("avx2") ? "1" : "0";
  avx512f = __builtin_cpu_supports("avx512f") ? "1" : "0";
#endif
  long l3 = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  return {
      {"cpu_model", model},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"l3_kib", l3 > 0 ? std::to_string(l3 / 1024) : "unknown"},
      {"avx2", avx2},
      {"avx512f", avx512f},
      {"simd_enabled", gothic::simt::simd_enabled() ? "1" : "0"},
  };
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::size_t used = 0;
    const double v = std::stod(item, &used);
    if (used != item.size()) {
      throw std::invalid_argument("bad sample '" + item + "'");
    }
    out.push_back(v);
  }
  return out;
}

void reject_unused(const gothic::Args& args) {
  const std::vector<std::string> unused = args.unused();
  if (!unused.empty()) {
    throw std::invalid_argument("unknown option --" + unused.front());
  }
}

int judge_main(const gothic::Args& args) {
  e2e::MetricSpec m;
  m.name = args.get("metric", "");
  const std::string better = args.get("better", "");
  if (better != "higher" && better != "lower") {
    throw std::invalid_argument("--better must be higher or lower");
  }
  m.higher_is_better = better == "higher";
  m.bound = args.get_double("bound", m.bound);
  m.floor = args.get_double("floor", 0.0);
  const std::string rule_name = args.get("rule", "");
  e2e::Rule rule = e2e::Rule::NoRegression;
  if (rule_name == "claim") {
    rule = e2e::Rule::Claim;
  } else if (rule_name == "agreement") {
    rule = e2e::Rule::Agreement;
  } else if (rule_name != "no-regression") {
    throw std::invalid_argument(
        "--rule must be claim, no-regression or agreement");
  }
  const std::vector<double> parent = parse_list(args.get("parent", ""));
  const std::vector<double> change = parse_list(args.get("change", ""));
  reject_unused(args);

  const e2e::Verdict v = e2e::judge(m, parent, change, rule);
  auto summary = [](const e2e::Summary& s) {
    std::ostringstream o;
    o.precision(17);
    o << "{\"median\":" << s.median << ",\"q1\":" << s.q1 << ",\"q3\":" << s.q3
      << '}';
    return o.str();
  };
  std::cout << "{\"metric\":" << e2e::json_quote(m.name)
            << ",\"label\":" << e2e::json_quote(v.label)
            << ",\"parent\":" << summary(v.parent)
            << ",\"change\":" << summary(v.change) << ",\"wins\":" << v.wins
            << ",\"losses\":" << v.losses << "}\n";
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const gothic::Args args(argc, argv);
    if (args.get_flag("judge")) return judge_main(args);
    e2e::RunOptions opt;
    opt.workload = args.get("workload", "");
    const long long seed = args.get_int("seed", 1);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    opt.seed = static_cast<std::uint64_t>(seed);
    // No default: run.py passes BENCHMARK.json's run_seconds.
    if (!args.has("seconds")) {
      throw std::invalid_argument("--seconds is required");
    }
    opt.seconds = args.get_double("seconds", 0.0);
    if (!(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) {
      throw std::invalid_argument("--seconds must be in [0, 3600]");
    }
    opt.trace_path = args.get("trace", "");
    reject_unused(args);

    e2e::Result r = e2e::run_workload(opt);
    auto fp = host_fingerprint();
    fp.emplace_back("seed", std::to_string(opt.seed));
    r.fingerprint.insert(r.fingerprint.begin(), fp.begin(), fp.end());
    std::cout << e2e::to_json(r) << '\n';
    return r.ops_failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gothic_e2e: " << e.what() << '\n';
    return 2;
  }
}
