#include "runner/trace_share.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "runner/prescreen.hpp"
#include "sim/results_io.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {
namespace {

const std::vector<std::string> kTableIIIPolicies = {
    "dram-only", "nvm-only",  "static-partition", "dram-cache",
    "rank-mq",   "clock-dwf", "two-lru",          "two-lru-adaptive"};

std::string csv_of(const SweepResults& sweep) {
  std::ostringstream csv;
  sweep.write_csv(csv);
  return csv.str();
}

SweepResults sweep_with(const SweepSpec& spec, unsigned jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return run_sweep(spec, options);
}

TEST(TraceShare, TableIIIGridGeneratesOnePairPerWorkload) {
  SweepSpec spec;
  const auto profiles = synth::parsec_profiles();
  spec.workloads.assign(profiles.begin(), profiles.end());
  spec.policies = kTableIIIPolicies;
  spec.scale = 2048;
  spec.seed_mode = SeedMode::kShared;
  std::string reference;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const SweepResults sweep = sweep_with(spec, jobs);
    ASSERT_EQ(sweep.jobs.size(), 96u);
    EXPECT_EQ(sweep.failures(), 0u);
    EXPECT_EQ(sweep.traces.generations, 12u) << jobs << " workers";
    EXPECT_GE(sweep.traces.peak_live, 1u);
    EXPECT_LE(sweep.traces.peak_live, jobs) << "more pairs live than workers";
    if (reference.empty()) reference = csv_of(sweep);
    EXPECT_EQ(csv_of(sweep), reference) << jobs << " workers";
  }
}

TEST(TraceShare, ProfilesSharingOnlyANameGetDistinctEntriesAndRows) {
  synth::WorkloadProfile skewed = synth::parsec_profile("canneal");
  skewed.zipf_alpha = 1.3;
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("canneal"), skewed};
  spec.policies = {"two-lru", "dram-only"};
  spec.scale = 512;
  const SweepResults sweep = sweep_with(spec, 2);
  ASSERT_EQ(sweep.failures(), 0u);
  EXPECT_EQ(sweep.traces.generations, 2u);
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    const auto& plain = sweep.jobs[p];
    const auto& other = sweep.jobs[spec.policies.size() + p];
    EXPECT_NE(sim::to_json(plain.result), sim::to_json(other.result))
        << spec.policies[p] << ": the zipf_alpha change was ignored";
    EXPECT_EQ(sim::to_json(other.result),
              sim::to_json(sim::run_workload(skewed, spec.scale,
                                             other.job.config, other.job.seed)));
  }
  // The prescreen characterizes by the same key.
  PrescreenOptions options;
  options.run.jobs = 1;
  const PrescreenResults screened = run_prescreened_sweep(spec, options);
  EXPECT_NE(screened.screen[0].predicted_amat_ns,
            screened.screen[2].predicted_amat_ns);
}

TEST(TraceShare, PerJobSeedsMakeEveryJobItsOwnEntry) {
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("streamcluster"),
                    synth::parsec_profile("vips")};
  spec.policies = {"two-lru", "clock-dwf"};
  spec.scale = 512;
  spec.seed_mode = SeedMode::kPerJob;
  const SweepResults sweep = sweep_with(spec, 2);
  ASSERT_EQ(sweep.failures(), 0u);
  EXPECT_EQ(sweep.traces.generations, 4u);
  EXPECT_LE(sweep.traces.peak_live, 2u);
  // Every row is the job's own independent run.
  for (const auto& slot : sweep.jobs) {
    EXPECT_EQ(sim::to_json(slot.result),
              sim::to_json(sim::run_workload(slot.job.workload, spec.scale,
                                             slot.job.config, slot.job.seed)));
  }
}

TEST(TraceShare, ThrowingPolicyLeavesTheGroupsOtherRowsIdentical) {
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("streamcluster"),
                    synth::parsec_profile("blackscholes")};
  spec.policies = {"two-lru", "clock-dwf"};
  spec.scale = 256;
  const SweepResults clean = sweep_with(spec, 3);
  spec.policies = {"two-lru", "no-such-policy", "clock-dwf"};
  const SweepResults poisoned = sweep_with(spec, 3);
  EXPECT_EQ(poisoned.failures(), 2u);
  EXPECT_EQ(poisoned.traces.generations, 2u);
  const auto survivors = poisoned.results();
  const auto reference = clean.results();
  ASSERT_EQ(survivors.size(), reference.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(sim::to_json(survivors[i]), sim::to_json(reference[i]));
  }
}

TEST(TraceShare, GenerationFailureIsCapturedByEveryJobOfItsEntry) {
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("vips")};
  spec.policies = {"two-lru", "clock-dwf"};
  spec.scale = 512;
  ConfigVariant bad_line;
  bad_line.label = "line-wider-than-page";
  bad_line.config.access_granularity = 2 * bad_line.config.page_size;
  spec.variants = {ConfigVariant{}, bad_line};
  const SweepResults sweep = sweep_with(spec, 2);
  ASSERT_EQ(sweep.jobs.size(), 4u);
  EXPECT_EQ(sweep.traces.generations, 2u) << "a failed generation reran";
  EXPECT_EQ(sweep.failures(), 2u);
  EXPECT_TRUE(sweep.jobs[0].ok) << sweep.jobs[0].error;
  EXPECT_TRUE(sweep.jobs[2].ok) << sweep.jobs[2].error;
  EXPECT_FALSE(sweep.jobs[1].ok);
  EXPECT_FALSE(sweep.jobs[1].error.empty());
  EXPECT_EQ(sweep.jobs[1].error, sweep.jobs[3].error);
}

TEST(TraceShare, InterleavedKeysAreDispatchedGroupedAndHeldOneAtATime) {
  // Variant-minor grid order alternates page sizes, so the two keys of the
  // workload interleave; dispatch groups them, and a serial run holds one
  // pair at a time.
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("raytrace")};
  spec.policies = {"two-lru", "clock-dwf", "dram-only"};
  spec.scale = 256;
  ConfigVariant small_pages;
  small_pages.label = "2k";
  small_pages.config.page_size = 2048;
  spec.variants = {ConfigVariant{}, small_pages};

  SweepResults slots;
  for (auto& job : expand_grid(spec)) {
    slots.jobs.emplace_back();
    slots.jobs.back().job = std::move(job);
  }
  const std::vector<std::size_t> indices = {0, 1, 2, 3, 4, 5};
  TraceShare share(slots.jobs, spec.scale, indices);
  EXPECT_EQ(share.dispatch_order(),
            (std::vector<std::size_t>{0, 2, 4, 1, 3, 5}));
  EXPECT_EQ(&share.acquire(0), &share.acquire(2))
      << "jobs of one key must replay the same pair";
  EXPECT_NE(&share.acquire(0), &share.acquire(1));

  const SweepResults serial = sweep_with(spec, 1);
  EXPECT_EQ(serial.failures(), 0u);
  EXPECT_EQ(serial.traces.generations, 2u);
  EXPECT_EQ(serial.traces.peak_live, 1u);
}

}  // namespace
}  // namespace hymem::runner
