// Peak memory of a sweep is bounded by the trace share's live entries, not
// by the grid: each key's last job frees its pair, so a sweep on W workers
// holds at most W pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"

#include "peak_rss.hpp"

namespace hymem {
namespace {

using testing_rss::peak_rss_bytes;
using testing_rss::reset_peak_rss;

TEST(SweepMemory, TwoWorkerTableIIISweepHoldsAtMostTwoPairs) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's quarantine keeps freed traces resident";
#endif
  // Per-job seeds make every job its own entry, so the grid's 24 pairs are
  // what a share that never freed would hold, while both workers may be
  // replaying the largest workload at once.
  runner::SweepSpec spec;
  const auto profiles = synth::parsec_profiles();
  spec.workloads.assign(profiles.begin(), profiles.end());
  spec.policies = {"two-lru", "dram-only"};
  spec.scale = 128;
  spec.seed_mode = runner::SeedMode::kPerJob;

  // Pair sizes depend only on the profile; each is generated and freed
  // before the measurement.
  std::uint64_t largest = 0;
  std::uint64_t all_pairs = 0;
  for (const auto& profile : profiles) {
    const auto traces = sim::generate_workload(profile, spec.scale, {}, 42);
    const std::uint64_t bytes =
        (traces.warmup.size() + traces.measured.size()) *
        sizeof(trace::MemAccess);
    largest = std::max(largest, bytes);
    all_pairs += spec.policies.size() * bytes;
  }
  const std::uint64_t two_pairs = 2 * largest;
  // Pinned: half again over two pairs for policy state, block buffers and
  // the allocator keeping freed pairs of one worker's arena resident.
  const std::uint64_t budget = two_pairs * 3 / 2;
  ASSERT_LT(budget, all_pairs) << "grid too small to tell the bound apart";

  if (!reset_peak_rss()) {
    GTEST_SKIP() << "kernel does not support resetting VmHWM";
  }
  const std::uint64_t before = peak_rss_bytes();
  runner::SweepOptions options;
  options.jobs = 2;
  const runner::SweepResults sweep = runner::run_sweep(spec, options);
  const std::uint64_t after = peak_rss_bytes();
  EXPECT_EQ(sweep.failures(), 0u);
  EXPECT_EQ(sweep.traces.generations, sweep.jobs.size());
  EXPECT_LE(sweep.traces.peak_live, 2u);
  EXPECT_LT(after - before, budget)
      << "peak grew by " << (after - before) / 1024 << " KiB; two pairs "
      << two_pairs / 1024 << " KiB, all pairs " << all_pairs / 1024
      << " KiB";
}

}  // namespace
}  // namespace hymem
