// Error types and contract-check helpers shared across fedcleanse.
//
// Philosophy (CppCoreGuidelines E.*): programming errors (violated
// preconditions) abort via FC_REQUIRE with a readable message; recoverable
// runtime conditions throw typed exceptions derived from fedcleanse::Error.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fedcleanse {

// Base class for all recoverable fedcleanse errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Shape or dimensionality mismatch in tensor/NN code.
class ShapeError : public Error {
 public:
  explicit ShapeError(const std::string& what) : Error("shape error: " + what) {}
};

// Malformed or truncated serialized payload.
class SerializationError : public Error {
 public:
  explicit SerializationError(const std::string& what)
      : Error("serialization error: " + what) {}
};

// Misuse of the comm layer (closed channel, unknown peer, ...).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error("comm error: " + what) {}
};

// Invalid experiment / algorithm configuration.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
};

// Too few clients replied validly for a protocol phase to proceed (degraded
// federated round below its min_collect_fraction gate, after retries).
class QuorumError : public Error {
 public:
  explicit QuorumError(const std::string& what) : Error("quorum error: " + what) {}
};

// Unusable on-disk checkpoint: truncated, bit-flipped, wrong magic/version,
// failed payload checksum, or inconsistent with the configured experiment.
// Loaders throw this (never FC_REQUIRE) so callers can fall back to an older
// snapshot generation instead of dying.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error("checkpoint error: " + what) {}
};

namespace detail {
// __FILE__ holds wherever the build found the source; report the path from the
// tree's src/ on, so a message reads the same whichever directory it was built in.
inline const char* source_relative(const char* file) {
  const std::string_view path(file);
  const auto pos = path.rfind("/src/");
  return pos == std::string_view::npos ? file : file + pos + 1;
}

[[noreturn]] inline void require_failed(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "FC_REQUIRE failed: (" << expr << ") at " << source_relative(file) << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

// Precondition check. Throws fedcleanse::Error with location info on failure.
// Used at public API boundaries; hot inner loops rely on the callers having
// validated shapes once.
#define FC_REQUIRE(cond, msg)                                               \
  do {                                                                      \
    if (!(cond)) ::fedcleanse::detail::require_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

}  // namespace fedcleanse
