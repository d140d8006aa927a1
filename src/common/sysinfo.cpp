#include "common/sysinfo.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace fedcleanse::common {

namespace {

// Reads a "Vm...:  <kB> kB" line from /proc/self/status; 0 if absent.
std::size_t status_field_bytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::size_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) != 0) continue;
    unsigned long long kb = 0;
    if (std::sscanf(line + field_len, ": %llu", &kb) == 1) {
      bytes = static_cast<std::size_t>(kb) * 1024;
    }
    break;
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

std::size_t peak_rss_bytes() {
  // VmHWM is the larger of the kernel's lazily updated high-water mark and
  // the current RSS, so one read can come out below an earlier one. The
  // running maximum of every read keeps the reported peak monotone.
  static std::atomic<std::size_t> peak{0};
  const std::size_t now = status_field_bytes("VmHWM");
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (now > seen && !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
  return std::max(seen, now);
}

std::size_t current_rss_bytes() { return status_field_bytes("VmRSS"); }

void pin_malloc_thresholds() {
  static const bool pinned = [] {
#if defined(__GLIBC__)
    const char* tunables = std::getenv("GLIBC_TUNABLES");
    if (tunables != nullptr && std::strstr(tunables, "glibc.malloc.") != nullptr) return false;
    // 32 MiB is glibc's own ceiling for the dynamic mmap threshold, and twice
    // that is the trim threshold it pairs with it.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
#else
    return false;
#endif
  }();
  (void)pinned;
}

}  // namespace fedcleanse::common
