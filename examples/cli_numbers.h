// Strict number parsing for the example binaries' command lines.
//
// std::atoi reads "abc" as 0 and "12x" as 12, so a typo silently becomes a
// different experiment (`--rounds x` runs zero rounds). Every numeric flag
// goes through these instead: a value that is not a whole decimal number is
// reported with its flag and the process exits 2.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace cli {

// A whole decimal number (optional leading '-') that fits an int, or nullopt.
inline std::optional<int> parse_int(const std::string& v) {
  const std::size_t digits = v.rfind('-', 0) == 0 ? 1 : 0;
  if (v.size() == digits ||
      v.find_first_not_of("0123456789", digits) != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const long n = std::strtol(v.c_str(), nullptr, 10);
  if (errno == ERANGE || n < INT_MIN || n > INT_MAX) return std::nullopt;
  return static_cast<int>(n);
}

// A whole non-negative decimal number that fits 64 bits (a seed), or nullopt.
inline std::optional<std::uint64_t> parse_u64(const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

// parse_int(value), or name the flag on stderr and exit 2.
inline int int_or_exit(const char* flag, const char* value) {
  const auto n = parse_int(value);
  if (!n) {
    std::fprintf(stderr, "%s wants a whole decimal number, got '%s'\n", flag, value);
    std::exit(2);
  }
  return *n;
}

// parse_u64(value), or name the flag on stderr and exit 2.
inline std::uint64_t u64_or_exit(const char* flag, const char* value) {
  const auto n = parse_u64(value);
  if (!n) {
    std::fprintf(stderr, "%s wants a whole non-negative decimal number, got '%s'\n", flag,
                 value);
    std::exit(2);
  }
  return *n;
}

}  // namespace cli
