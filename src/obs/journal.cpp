#include "obs/journal.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>

#include "common/serialize.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace fedcleanse::obs {

namespace {
std::atomic<Journal*> g_journal{nullptr};

// Leaked, mutex-guarded for the same reason as the trace path state: set
// before threads exist in practice, but nothing enforces that.
struct IdentityState {
  std::mutex mu;
  bool set = false;
  std::string role;
  std::uint64_t argv_hash = 0;
  std::string cpu_dispatch;
};
IdentityState& identity_state() {
  static IdentityState* s = new IdentityState();
  return *s;
}

std::string format_double(double v) {
  // Shortest round-trip-safe form; JSON has no inf/nan, clamp to null.
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + json_escape(k) + "\":";
}

JsonObject& JsonObject::add(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + json_escape(v) + "\"";
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, const char* v) {
  return add(k, std::string(v));
}

JsonObject& JsonObject::add(const std::string& k, double v) {
  key(k);
  body_ += format_double(v);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add_raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

void set_run_identity(std::string role, std::uint64_t argv_hash, std::string cpu_dispatch) {
  IdentityState& st = identity_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.set = true;
  st.role = std::move(role);
  st.argv_hash = argv_hash;
  st.cpu_dispatch = std::move(cpu_dispatch);
}

bool run_identity_set() {
  IdentityState& st = identity_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.set;
}

std::uint64_t hash_argv(int argc, const char* const* argv) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < argc; ++i) {
    for (const char* p = argv[i]; *p != '\0'; ++p) {
      bytes.push_back(static_cast<std::uint8_t>(*p));
    }
    bytes.push_back(0);  // separator so {"-a","b"} and {"-ab"} hash apart
  }
  return common::xxh64(bytes);
}

Journal::Journal(const std::string& path, bool append)
    : path_(path),
      out_(path, append ? std::ios::out | std::ios::app : std::ios::out) {
  ok_ = static_cast<bool>(out_);
  if (!ok_) return;
  IdentityState& st = identity_state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.set) return;
  JsonObject open;
  open.add("kind", "open")
      .add("pid", static_cast<std::int64_t>(::getpid()))
      .add("role", st.role)
      .add("argv_hash", st.argv_hash)
      .add("cpu", st.cpu_dispatch)
      .add("trace_anchor_unix_ns", trace_wall_anchor_unix_ns());
  // Bypass write(): the open line is identity metadata, not a round — it must
  // not consume the counter-delta baseline the first real line establishes.
  out_ << open.str() << "\n";
  out_.flush();
  ++lines_;
}

std::size_t Journal::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void Journal::write(const JsonObject& entry) {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::string line = entry.str();
  if (metrics_enabled()) {
    auto now = Registry::global().counter_values();
    JsonObject deltas;
    for (const auto& [name, value] : now) {
      auto it = last_counters_.find(name);
      const std::uint64_t prev = it == last_counters_.end() ? 0 : it->second;
      if (value != prev) deltas.add(name, value - prev);
    }
    last_counters_ = std::move(now);
    if (!deltas.empty()) {
      // Splice "metrics" into the entry: drop the closing brace, append.
      line.pop_back();
      line += line.size() > 1 ? ",\"metrics\":" : "\"metrics\":";
      line += deltas.str() + "}";
    }
  }
  out_ << line << "\n";
  out_.flush();  // a crashed run keeps every completed round
  ++lines_;
}

Journal* ambient_journal() { return g_journal.load(std::memory_order_acquire); }

void set_ambient_journal(Journal* journal) {
  g_journal.store(journal, std::memory_order_release);
}

}  // namespace fedcleanse::obs
