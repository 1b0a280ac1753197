#include "util/args.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace gothic {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      throw std::invalid_argument("bare '--' is not a valid option");
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = ""; // boolean flag
    }
  }
}

bool Args::has(const std::string& key) const {
  used_[key] = true;
  return values_.count(key) != 0;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  used_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Args::get_int(const std::string& key, long long fallback) const {
  used_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || (end != nullptr && *end != '\0')) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  return v;
}

long long Args::get_in_range(const std::string& key, long long fallback,
                            long long lo, long long hi) const {
  const long long v = get_int(key, fallback);
  if (v < lo || v > hi) {
    throw std::invalid_argument("--" + key + "=" + std::to_string(v) +
                                " is out of range [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  }
  return v;
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  used_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  // Hex after 0x/0X, decimal otherwise: base 0 would read a leading zero
  // as octal. strtoull would also skip blanks, accept a sign and negate
  // "-1" into 2^64 - 1; only a leading digit is a value here.
  const bool hex = text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0;
  const char* digits = text.c_str() + (hex ? 2 : 0);
  const auto lead = static_cast<unsigned char>(*digits);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v =
      (hex ? std::isxdigit(lead) : std::isdigit(lead)) == 0
          ? 0
          : std::strtoull(digits, &end, hex ? 16 : 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + key +
                                " expects an unsigned 64-bit integer, got '" +
                                text + "'");
  }
  return v;
}

double Args::get_double(const std::string& key, double fallback) const {
  used_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || (end != nullptr && *end != '\0')) {
    throw std::invalid_argument("--" + key + " expects a number, got '" +
                                it->second + "'");
  }
  return v;
}

bool Args::get_flag(const std::string& key) const {
  used_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  return it->second.empty() || it->second == "1" || it->second == "true" ||
         it->second == "yes";
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (used_.count(key) == 0) out.push_back(key);
  }
  return out;
}

} // namespace gothic
