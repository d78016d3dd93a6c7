// Peak-RSS probes for memory-bound tests (Linux /proc; tests skip where
// VmHWM cannot be reset).
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace hymem::testing_rss {

/// A "<field>: <n> kB" line of /proc/self/status, in bytes (0 if absent).
inline std::uint64_t status_bytes(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// VmHWM ("peak RSS") in bytes.
inline std::uint64_t peak_rss_bytes() { return status_bytes("VmHWM"); }

inline std::uint64_t current_rss_bytes() { return status_bytes("VmRSS"); }

/// Resets VmHWM to the current RSS (Linux: "5" into clear_refs).
inline bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.close();
  return peak_rss_bytes() <= current_rss_bytes() + (4u << 20);
}

}  // namespace hymem::testing_rss
