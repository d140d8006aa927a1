// Run journal: one JSON line per round, the canonical on-disk artifact of a
// training + defense run (the per-round TA/ASR curves the paper's figures
// plot, plus fault/retry bookkeeping, defense phase seconds, and deltas of
// every registry counter since the previous line).
//
// Writers build a line with JsonObject (insertion-ordered, properly escaped)
// and hand it to Journal::write, which appends the registry's counter deltas
// under "metrics" (when the metrics runtime switch is on) and emits the line
// under a mutex — lines from concurrent writers never interleave.
//
// Wiring mirrors the ambient thread pool: an example opens a Journal for
// --journal-out and installs it with set_ambient_journal; Simulation::run,
// federated_finetune, and run_defense write through ambient_journal() when
// one is present and skip all work (not even a string is built) when not.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

namespace fedcleanse::obs {

// Minimal insertion-ordered JSON object builder. Values are rendered on add;
// keys are trusted literals, string values are escaped.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& v);
  JsonObject& add(const std::string& key, const char* v);
  JsonObject& add(const std::string& key, double v);
  JsonObject& add(const std::string& key, std::int64_t v);
  JsonObject& add(const std::string& key, std::uint64_t v);
  JsonObject& add(const std::string& key, int v) { return add(key, static_cast<std::int64_t>(v)); }
  JsonObject& add(const std::string& key, bool v);
  // Embed a pre-rendered JSON value (e.g. a nested JsonObject's str()).
  JsonObject& add_raw(const std::string& key, const std::string& json);

  std::string str() const;  // "{...}"
  bool empty() const { return body_.empty(); }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);

// Process identity stamped into every journal's first line as a
// {"kind":"open"} record: pid, role ("server", "client-3", ...), an XXH64
// hash of argv (two journals from "the same" run with different flags stop
// looking identical), the int8 kernel dispatch tier runtime CPU detection
// picked, and the trace wall-clock anchor (so a journal can be aligned with
// its process's trace even when the trace file is lost). Deployment binaries
// call set_run_identity at startup; a Journal constructed with no identity
// set writes no open line, so library-level journal users (tests, the
// simulator harness) keep their exact line sequence.
void set_run_identity(std::string role, std::uint64_t argv_hash, std::string cpu_dispatch);
bool run_identity_set();

// XXH64 over argv joined with '\0' separators — the hash set_run_identity
// callers record.
std::uint64_t hash_argv(int argc, const char* const* argv);

class Journal {
 public:
  // Opens `path`: truncated by default, appended to when `append` is true
  // (a resumed run continues its journal; a {"kind":"resume"} line marks the
  // boundary). Check ok() — a bad path disables the journal rather than
  // throwing (telemetry must never kill a run).
  explicit Journal(const std::string& path, bool append = false);

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }
  std::size_t lines_written() const;

  // Append one JSONL line: `entry`'s fields plus "metrics" (registry counter
  // deltas since this journal's previous line; only counters that moved).
  void write(const JsonObject& entry);

 private:
  std::string path_;
  bool ok_ = false;
  mutable std::mutex mu_;
  std::ofstream out_;
  std::size_t lines_ = 0;
  std::map<std::string, std::uint64_t> last_counters_;
};

// Process-wide ambient journal; nullptr (the default) = no journal. The
// installer owns the Journal and must clear the pointer before destroying it.
Journal* ambient_journal();
void set_ambient_journal(Journal* journal);

}  // namespace fedcleanse::obs
