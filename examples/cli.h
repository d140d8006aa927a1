// Declarative command lines for the example binaries.
//
// A binary lists its flags as a Table: one row per flag with its name, a
// value placeholder, one help line and a setter bound to the variable it
// fills. parse() walks argv against the table and handles every exit path
// the same way in every binary:
//   - `-h`/`--help` prints the generated usage to stdout and exits 0;
//   - an unknown flag, a flag missing its value, a malformed value or an
//     extra argument prints the complaint and the usage to stderr and exits 2.
//
// Numbers are parsed strictly: std::atoi reads "abc" as 0 and "12x" as 12,
// so a typo would silently become a different experiment (`--rounds x` runs
// zero rounds). A row whose name has no leading "--" is positional: bare
// arguments fill the positional rows in order.
#pragma once

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

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

// A finite decimal number, the whole string of it, or nullopt.
inline std::optional<double> parse_double(const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(x)) return std::nullopt;
  return x;
}

struct Flag {
  std::string name;   // "--clients", or a bare word for a positional row
  std::string value;  // the value's placeholder ("N", "PATH"); empty for a switch
  std::string help;   // one line, its default included
  // Takes the value (nullptr for a switch); returns "" or the complaint.
  std::function<std::string(const char*)> set;
};

using Table = std::vector<Flag>;

namespace detail {

inline bool positional(const Flag& f) { return f.name.rfind("--", 0) != 0; }

inline std::string with_default(std::string help, const std::string& dflt) {
  return help + " (default " + dflt + ")";
}

template <typename T, typename Parse>
Flag number(std::string name, std::string value, std::string help, T& target,
            std::string dflt, const char* wants, Parse parse) {
  std::string flag = name;
  return {std::move(name), std::move(value), with_default(std::move(help), dflt),
          [&target, flag, wants, parse](const char* v) -> std::string {
            const auto n = parse(v);
            if (!n) return flag + " wants " + wants + ", got '" + v + "'";
            target = *n;
            return "";
          }};
}

}  // namespace detail

// Row builders. Each numeric row's help ends with the bound variable's value
// at table-building time, so the printed default is the one the run uses.
inline Flag integer(std::string name, std::string value, std::string help, int& target) {
  return detail::number(std::move(name), std::move(value), std::move(help), target,
                        std::to_string(target), "a whole decimal number", parse_int);
}

inline Flag u64(std::string name, std::string value, std::string help, std::uint64_t& target) {
  return detail::number(std::move(name), std::move(value), std::move(help), target,
                        std::to_string(target), "a whole non-negative decimal number",
                        parse_u64);
}

inline Flag real(std::string name, std::string value, std::string help, double& target) {
  char dflt[32];
  std::snprintf(dflt, sizeof dflt, "%g", target);
  return detail::number(std::move(name), std::move(value), std::move(help), target, dflt,
                        "a decimal number", parse_double);
}

inline Flag text(std::string name, std::string value, std::string help, std::string& target) {
  if (!target.empty()) help = detail::with_default(std::move(help), target);
  return {std::move(name), std::move(value), std::move(help), [&target](const char* v) {
            target = v;
            return std::string();
          }};
}

// A switch: no value, runs `on` when given.
inline Flag toggle(std::string name, std::string help, std::function<void()> on) {
  return {std::move(name), "", std::move(help), [on = std::move(on)](const char*) {
            on();
            return std::string();
          }};
}

// A value from a fixed set: `accept` returns false for a value outside it,
// reported as "unknown <noun> <value> (want <value placeholder>)".
inline Flag choice(std::string name, std::string value, std::string help, std::string noun,
                   std::function<bool(const std::string&)> accept) {
  std::string want = value;
  return {std::move(name), std::move(value), std::move(help),
          [noun = std::move(noun), want, accept = std::move(accept)](const char* v) {
            if (accept(v)) return std::string();
            return "unknown " + noun + " " + v + " (want " + want + ")";
          }};
}

// The usage text generated from `table`: a synopsis line, then one line per
// row.
inline std::string usage(const char* argv0, const Table& table) {
  std::string out = std::string("usage: ") + argv0;
  bool has_flags = false;
  for (const Flag& f : table) {
    if (detail::positional(f)) {
      out += " [" + f.name + "]";
    } else {
      has_flags = true;
    }
  }
  out += has_flags ? " [options]\n" : "\n";
  for (const Flag& f : table) {
    std::string left = "  " + f.name + (f.value.empty() ? "" : " " + f.value);
    left.resize(std::max<std::size_t>(left.size() + 2, 28), ' ');
    out += left + f.help + "\n";
  }
  return out;
}

namespace detail {

// The complaint, then the usage, on stderr; exit 2.
[[noreturn]] inline void fail(const char* argv0, const Table& table,
                              const std::string& complaint) {
  std::fprintf(stderr, "%s\n%s", complaint.c_str(), usage(argv0, table).c_str());
  std::exit(2);
}

}  // namespace detail

// Fill the table's variables from argv, or exit as the header describes.
inline void parse(int argc, char** argv, const Table& table) {
  std::vector<const Flag*> positionals;
  for (const Flag& f : table) {
    if (detail::positional(f)) positionals.push_back(&f);
  }
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(usage(argv[0], table).c_str(), stdout);
      std::exit(0);
    }
    const Flag* row = nullptr;
    const char* value = nullptr;
    if (arg.rfind("--", 0) != 0) {
      if (next_positional == positionals.size()) {
        detail::fail(argv[0], table, "unexpected argument " + arg);
      }
      row = positionals[next_positional++];
      value = argv[i];
    } else {
      const auto it = std::find_if(table.begin(), table.end(),
                                   [&](const Flag& f) { return f.name == arg; });
      if (it == table.end()) detail::fail(argv[0], table, "unknown option " + arg);
      row = &*it;
      if (!row->value.empty()) {
        if (i + 1 >= argc) detail::fail(argv[0], table, "missing value for " + arg);
        value = argv[++i];
      }
    }
    const std::string complaint = row->set(value);
    if (!complaint.empty()) detail::fail(argv[0], table, complaint);
  }
}

}  // namespace cli
