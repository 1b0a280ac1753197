#include "util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

namespace gothic {

namespace {

/// Warn once per (variable, value) to stderr. Rejected settings are
/// re-read on every lookup — a device pool constructing dozens of workers
/// would otherwise repeat the identical line dozens of times.
void warn_once(const char* name, const char* value, const char* reason) {
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (!warned.insert(std::string(name) + '=' + value).second) return;
  std::fprintf(stderr, "gothic: ignoring %s='%s' (%s); using the default\n",
               name, value, reason);
}

/// Shared size grammar; returns false with `reason` set on rejection.
bool parse_size_core(const char* v, std::size_t& out, const char** reason) {
  const char* p = v;
  while (std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  if (*p == '-' || *p == '+') {
    // strtoull accepts a sign and silently wraps negatives into huge
    // unsigned values ("-1" would become SIZE_MAX) — reject both signs.
    *reason = "sizes must be unsigned";
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long base = std::strtoull(p, &end, 10);
  if (end == p) {
    *reason = "not a number";
    return false;
  }
  if (errno == ERANGE ||
      base > std::numeric_limits<std::size_t>::max()) {
    *reason = "out of range";
    return false;
  }
  unsigned long long mult = 1;
  if (*end != '\0') {
    const char suffix =
        static_cast<char>(std::tolower(static_cast<unsigned char>(*end)));
    if (suffix == 'k') {
      mult = 1024ull;
    } else if (suffix == 'm') {
      mult = 1024ull * 1024ull;
    } else {
      *reason = "unknown suffix (expected k or m)";
      return false;
    }
    if (*(end + 1) != '\0') {
      // "8kb" must not silently parse as 8 KiB.
      *reason = "trailing characters after the suffix";
      return false;
    }
  }
  if (base > std::numeric_limits<std::size_t>::max() / mult) {
    *reason = "size overflows";
    return false;
  }
  out = static_cast<std::size_t>(base * mult);
  return true;
}

} // namespace

std::size_t parse_size(const std::string& text) {
  std::size_t out = 0;
  const char* reason = nullptr;
  if (!parse_size_core(text.c_str(), out, &reason)) {
    throw std::invalid_argument("bad size '" + text + "': " + reason);
  }
  return out;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::size_t out = 0;
  const char* reason = nullptr;
  if (!parse_size_core(v, out, &reason)) {
    warn_once(name, v, reason);
    return fallback;
  }
  return out;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

} // namespace gothic
