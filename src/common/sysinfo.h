// Process-level system introspection.
#pragma once

#include <cstddef>

namespace fedcleanse::common {

// Peak resident set size (high-water mark) of this process in bytes: the
// running maximum of every read of VmHWM from /proc/self/status, so it never
// decreases over the process lifetime (VmHWM alone can). Returns 0 where
// procfs is unavailable.
std::size_t peak_rss_bytes();

// Current resident set size in bytes (VmRSS); 0 where unavailable.
std::size_t current_rss_bytes();

// Fixes glibc's malloc mmap and trim thresholds for the whole process, once
// (later calls do nothing). Left dynamic, glibc trims the heap top whenever
// a batch's tensors are freed and faults the same pages back in on the next
// batch; fixed thresholds keep freed tensor memory for reuse. Does nothing
// when GLIBC_TUNABLES sets malloc options or the C library is not glibc.
void pin_malloc_thresholds();

}  // namespace fedcleanse::common
