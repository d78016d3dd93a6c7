// End-to-end parity and memory bounds of the block replay engine:
//
//   * every ingest mode (bounded-decode blocks over a materialized trace,
//     HYTS stream with and without readahead) reproduces the per-access
//     reference RunResult bytes on hostile fuzz scenarios;
//   * replaying a stream far larger than the block budget keeps peak RSS
//     O(block), not O(trace);
//   * run_experiment over a large materialized trace grows peak RSS by
//     O(block), not by a decoded array per access.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/stream_parity.hpp"
#include "core/migration_scheme.hpp"
#include "os/vmm.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "trace/block_source.hpp"
#include "trace/stream_io.hpp"

namespace hymem {
namespace {

TEST(StreamParity, FuzzScenariosMatchAcrossEveryIngestMode) {
  // Same scenario family as the differential fuzzer: thrash loops, write
  // bursts, capacity-1 modules. Block size derives from the seed, covering
  // one-access blocks through whole-trace blocks.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto report = check::run_stream_parity_case(seed, 2000);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.divergence;
    EXPECT_GT(report.accesses, 0u);
  }
}

/// VmHWM ("peak RSS") in bytes from /proc/self/status.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

std::uint64_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS (Linux: "5" into clear_refs).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.close();
  return peak_rss_bytes() <= current_rss_bytes() + (4u << 20);
}

TEST(StreamParity, StreamedReplayPeakMemoryIsBoundedByChunkNotTrace) {
  // 2M accesses = ~20 MB on disk and would cost ~100 MB to materialize and
  // decode (16 B MemAccess + 17 B decoded arrays per access). The streamed
  // engine holds two 16 Ki-access buffers (~0.6 MB) plus one reader chunk.
  constexpr std::size_t kAccesses = 2'000'000;
  constexpr std::size_t kBlock = 1 << 14;
  const std::string path =
      testing::TempDir() + "stream_parity_rss_trace.hyts";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out);
    trace::StreamTraceWriter writer(out, "huge", kBlock);
    std::uint64_t addr = 0;
    for (std::size_t i = 0; i < kAccesses; ++i) {
      // 64-page working set, striding so every page stays hot.
      addr = (addr + 4096) % (64 * 4096);
      writer.append({addr, i % 5 == 0 ? AccessType::kWrite : AccessType::kRead,
                     0});
    }
    writer.finish();
  }
  if (!reset_peak_rss()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "kernel does not support resetting VmHWM";
  }
  const std::uint64_t before = peak_rss_bytes();
  {
    os::VmmConfig config;
    config.dram_frames = 8;
    config.nvm_frames = 48;
    os::Vmm vmm(config);
    core::TwoLruMigrationPolicy policy(vmm, {});
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    trace::StreamBlockSource source(in, config.page_size, kBlock,
                                    /*readahead=*/true);
    const auto result = sim::run_blocks(policy, source, 1.0);
    EXPECT_EQ(result.accesses, kAccesses);
  }
  const std::uint64_t after = peak_rss_bytes();
  std::remove(path.c_str());
  // O(chunk) head-room budget: far below the ~100 MB a materialized replay
  // of this trace costs, far above the ~1 MB the double buffer needs.
  EXPECT_LT(after - before, 16u << 20)
      << "peak grew by " << (after - before) / 1024 << " KiB";
}

TEST(StreamParity, MaterializedRunPeakMemoryIsBoundedByBlockNotTrace) {
  // 2M accesses: the materialized trace itself is ~32 MB (allocated before
  // the measurement window). A replay that decoded it whole would add
  // 8-17 B per access (16-34 MB); bounded decode adds one ~1 MB block.
  constexpr std::size_t kAccesses = 2'000'000;
  trace::Trace trace;
  trace.set_name("huge");
  trace.reserve(kAccesses);
  std::uint64_t addr = 0;
  for (std::size_t i = 0; i < kAccesses; ++i) {
    addr = (addr + 4096) % (64 * 4096);
    trace.append({addr, i % 5 == 0 ? AccessType::kWrite : AccessType::kRead,
                  0});
  }
  if (!reset_peak_rss()) {
    GTEST_SKIP() << "kernel does not support resetting VmHWM";
  }
  const std::uint64_t before = peak_rss_bytes();
  sim::ExperimentConfig config;
  config.warmup_passes = 1;
  const sim::RunResult result = sim::run_experiment(trace, 1.0, config);
  const std::uint64_t after = peak_rss_bytes();
  EXPECT_EQ(result.accesses, kAccesses);
  EXPECT_LT(after - before, 8u << 20)
      << "peak grew by " << (after - before) / 1024 << " KiB";
}

}  // namespace
}  // namespace hymem
