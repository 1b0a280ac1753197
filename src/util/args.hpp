// Minimal command-line argument parser for the driver tools:
// --key=value / --key value / --flag, with typed accessors and defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gothic {

class Args {
public:
  /// Parse argv; throws std::invalid_argument on malformed input
  /// (non-option positional arguments are collected separately).
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;
  /// get_int() checked to lie in [lo, hi]; otherwise throws
  /// std::invalid_argument naming the flag ("--key=v is out of range
  /// [lo, hi]"), which the driver tools turn into exit status 2.
  [[nodiscard]] long long get_in_range(const std::string& key,
                                       long long fallback, long long lo,
                                       long long hi) const;
  /// An unsigned 64-bit value (a seed): hex after a 0x/0X prefix, so the
  /// seeds the tools print replay as given, decimal otherwise (a leading
  /// zero is not octal). A sign, trailing characters or a value past
  /// 2^64 - 1 throws std::invalid_argument naming the flag.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Keys that were provided but never queried — typo detection for the
  /// driver tools. Call after all get()s.
  [[nodiscard]] std::vector<std::string> unused() const;

private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

} // namespace gothic
