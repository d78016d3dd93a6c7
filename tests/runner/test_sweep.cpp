#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/results_io.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {
namespace {

// Tiny spec: two small workloads × two policies at a harsh scale divisor,
// so the whole grid runs in milliseconds.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("streamcluster"),
                    synth::parsec_profile("blackscholes")};
  spec.policies = {"two-lru", "clock-dwf"};
  spec.scale = 256;
  spec.base_seed = 42;
  return spec;
}

std::string serialize(const SweepResults& sweep) {
  std::ostringstream csv;
  sweep.write_csv(csv);
  std::ostringstream json;
  sweep.write_json(json);
  return csv.str() + json.str();
}

TEST(SweepGrid, ExpandsRowMajorWithSequentialIndices) {
  auto spec = tiny_spec();
  ConfigVariant fast;
  fast.label = "thr0";
  fast.config.migration.read_threshold = 0;
  spec.variants = {ConfigVariant{}, fast};
  const auto jobs = expand_grid(spec);
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
  // Workload-major, then policy, then variant.
  EXPECT_EQ(jobs[0].workload.name, "streamcluster");
  EXPECT_EQ(jobs[0].policy, "two-lru");
  EXPECT_EQ(jobs[0].variant, "");
  EXPECT_EQ(jobs[1].variant, "thr0");
  EXPECT_EQ(jobs[2].policy, "clock-dwf");
  EXPECT_EQ(jobs[4].workload.name, "blackscholes");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].config.policy, jobs[i].policy);
  }
}

TEST(SweepGrid, EmptyVariantListMeansOneDefaultConfig) {
  const auto jobs = expand_grid(tiny_spec());
  ASSERT_EQ(jobs.size(), 4u);
  for (const auto& job : jobs) EXPECT_EQ(job.variant, "");
}

TEST(SweepGrid, PerJobSeedsAreDistinctAndPositionDerived) {
  auto spec = tiny_spec();
  spec.seed_mode = SeedMode::kPerJob;
  const auto jobs = expand_grid(spec);
  std::set<std::uint64_t> seeds;
  for (const auto& job : jobs) {
    EXPECT_EQ(job.seed, job_seed(spec.base_seed, job.index));
    seeds.insert(job.seed);
  }
  EXPECT_EQ(seeds.size(), jobs.size()) << "per-job seeds must not collide";
}

TEST(SweepGrid, SharedSeedModeUsesBaseSeedEverywhere) {
  auto spec = tiny_spec();
  spec.seed_mode = SeedMode::kShared;
  for (const auto& job : expand_grid(spec)) {
    EXPECT_EQ(job.seed, spec.base_seed);
  }
}

TEST(SweepGrid, JobSeedIsAPureFunction) {
  EXPECT_EQ(job_seed(42, 7), job_seed(42, 7));
  EXPECT_NE(job_seed(42, 7), job_seed(42, 8));
  EXPECT_NE(job_seed(42, 7), job_seed(43, 7));
}

TEST(Sweep, ParallelResultsAreByteIdenticalToSerialAnyThreadCount) {
  auto spec = tiny_spec();
  spec.seed_mode = SeedMode::kPerJob;
  SweepOptions serial;
  serial.jobs = 1;
  const auto reference = serialize(run_sweep(spec, serial));
  for (const unsigned jobs : {2u, 3u, 8u}) {
    SweepOptions parallel;
    parallel.jobs = jobs;
    EXPECT_EQ(serialize(run_sweep(spec, parallel)), reference)
        << "divergence with " << jobs << " workers";
  }
}

TEST(Sweep, ResultsLandInGridOrderRegardlessOfCompletionOrder) {
  auto spec = tiny_spec();
  SweepOptions options;
  options.jobs = 4;
  const auto sweep = run_sweep(spec, options);
  ASSERT_EQ(sweep.jobs.size(), 4u);
  for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
    EXPECT_EQ(sweep.jobs[i].job.index, i);
    ASSERT_TRUE(sweep.jobs[i].ok) << sweep.jobs[i].error;
    EXPECT_EQ(sweep.jobs[i].result.workload, sweep.jobs[i].job.workload.name);
  }
}

TEST(Sweep, OneThrowingJobDoesNotKillTheSweep) {
  auto spec = tiny_spec();
  spec.policies = {"two-lru", "no-such-policy", "clock-dwf"};
  SweepOptions options;
  options.jobs = 3;
  const auto sweep = run_sweep(spec, options);
  ASSERT_EQ(sweep.jobs.size(), 6u);
  EXPECT_EQ(sweep.failures(), 2u);  // one bad policy × two workloads
  for (const auto& job : sweep.jobs) {
    if (job.job.policy == "no-such-policy") {
      EXPECT_FALSE(job.ok);
      EXPECT_FALSE(job.error.empty());
    } else {
      EXPECT_TRUE(job.ok) << job.error;
    }
  }
  // The failure summary names the casualties; results() skips them.
  std::ostringstream summary;
  sweep.write_failures(summary);
  EXPECT_NE(summary.str().find("no-such-policy"), std::string::npos);
  EXPECT_EQ(sweep.results().size(), 4u);
}

TEST(Sweep, FailedJobsAppearInCsvWithErrorAndBlankMetrics) {
  auto spec = tiny_spec();
  spec.workloads.resize(1);
  spec.policies = {"no-such-policy"};
  const auto sweep = run_sweep(spec, SweepOptions{});
  std::ostringstream csv;
  sweep.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("failed"), std::string::npos);
  EXPECT_NE(text.find("no-such-policy"), std::string::npos);
}

TEST(Sweep, AllJobsPassingProducesNoFailureSummary) {
  const auto sweep = run_sweep(tiny_spec(), SweepOptions{});
  std::ostringstream summary;
  sweep.write_failures(summary);
  EXPECT_TRUE(summary.str().empty());
}

TEST(Sweep, ProgressCallbackFiresOncePerJob) {
  auto spec = tiny_spec();
  std::atomic<int> calls{0};
  SweepOptions options;
  options.jobs = 2;
  options.progress = [&calls](const ProgressSnapshot&) { ++calls; };
  const auto sweep = run_sweep(spec, options);
  EXPECT_EQ(calls.load(), static_cast<int>(sweep.jobs.size()));
}

TEST(Sweep, WorkerCountIsClampedToGridSize) {
  auto spec = tiny_spec();
  SweepOptions options;
  options.jobs = 64;
  const auto sweep = run_sweep(spec, options);
  EXPECT_EQ(sweep.workers, 4u);
  EXPECT_EQ(sweep.failures(), 0u);
}

TEST(Sweep, EmptyTraceJobFailsItsCellOnly) {
  // Regression: an empty workload used to HYMEM_CHECK-abort the whole
  // process from size_memory and the replay engine. It must now surface as
  // one failed cell (std::invalid_argument, captured) with every other cell
  // intact.
  auto spec = tiny_spec();
  synth::WorkloadProfile empty;
  empty.name = "empty-capture";
  empty.working_set_kb = 128;
  empty.reads = 0;
  empty.writes = 0;
  spec.workloads.push_back(empty);
  SweepOptions options;
  options.jobs = 3;
  const auto sweep = run_sweep(spec, options);
  ASSERT_EQ(sweep.jobs.size(), 6u);
  EXPECT_EQ(sweep.failures(), 2u);  // empty workload × two policies
  for (const auto& job : sweep.jobs) {
    if (job.job.workload.name == "empty-capture") {
      EXPECT_FALSE(job.ok);
      EXPECT_FALSE(job.error.empty());
    } else {
      EXPECT_TRUE(job.ok) << job.error;
    }
  }
  // The surviving cells match a sweep that never contained the poisoned
  // workload: fault isolation cannot perturb neighbours.
  const auto clean = run_sweep(tiny_spec(), SweepOptions{});
  const auto survivors = sweep.results();
  const auto reference = clean.results();
  ASSERT_EQ(survivors.size(), reference.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[i].counts.page_faults, reference[i].counts.page_faults);
    EXPECT_DOUBLE_EQ(survivors[i].amat().total(), reference[i].amat().total());
  }
}

std::string timeline_of(const SweepSpec& spec, unsigned workers) {
  SweepOptions options;
  options.jobs = workers;
  const auto sweep = run_sweep(spec, options);
  std::ostringstream out;
  sweep.write_timeline_csv(out);
  return out.str();
}

TEST(Sweep, TimelineCsvIsByteIdenticalForAnyWorkerCount) {
  auto spec = tiny_spec();
  ConfigVariant sampled;
  sampled.label = "timeline";
  sampled.config.timeline_epoch = 512;
  spec.variants = {sampled};
  const std::string reference = timeline_of(spec, 1);
  // Sampling happened and spliced rows carry the job identity prefix.
  EXPECT_NE(reference.find("\nstreamcluster,two-lru,timeline,42,0,"),
            std::string::npos);
  for (const unsigned workers : {2u, 4u}) {
    EXPECT_EQ(timeline_of(spec, workers), reference)
        << "timeline divergence with " << workers << " workers";
  }
}

TEST(Sweep, TimelineCsvIsHeaderOnlyWhenSamplingOff) {
  const auto sweep = run_sweep(tiny_spec(), SweepOptions{});
  std::ostringstream out;
  EXPECT_EQ(sweep.write_timeline_csv(out), 0u);
  EXPECT_EQ(out.str().rfind("workload,policy,variant,seed,epoch,", 0), 0u);
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1)
      << "expected a single header line";
}

TEST(Sweep, SweepCsvSplicesSimResultsIoColumns) {
  const auto sweep = run_sweep(tiny_spec(), SweepOptions{});
  std::ostringstream csv;
  sweep.write_csv(csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::getline(lines, header);
  // Sweep columns, then every sim::csv_header() metric column.
  EXPECT_EQ(header.rfind("workload,policy,variant,seed,status,error,", 0), 0u);
  const auto& metric_header = sim::csv_header();
  for (std::size_t i = 2; i < metric_header.size(); ++i) {
    EXPECT_NE(header.find(metric_header[i]), std::string::npos)
        << "missing column " << metric_header[i];
  }
}

}  // namespace
}  // namespace hymem::runner
