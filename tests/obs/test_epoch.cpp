#include "obs/epoch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"

namespace hymem::obs {
namespace {

trace::Trace tiny_trace() {
  synth::WorkloadProfile p;
  p.name = "tiny";
  p.working_set_kb = 128;  // 32 pages
  p.reads = 3000;
  p.writes = 1000;
  synth::GeneratorOptions o;
  o.seed = 13;
  return synth::generate(p, o);
}

os::VmmConfig hybrid_config() {
  os::VmmConfig c;
  c.dram_frames = 3;
  c.nvm_frames = 21;
  return c;
}

/// The engine over a materialized trace with `observer` attached.
sim::RunResult replay(policy::HybridPolicy& policy, const trace::Trace& trace,
                      unsigned warmup_passes, RunObserver* observer) {
  trace::TraceBlockSource source(trace, policy.vmm().config().page_size);
  return sim::run_blocks(policy, source, 1.0, warmup_passes, observer);
}

sim::RunResult sampled_run(const trace::Trace& trace, std::uint64_t epoch) {
  os::Vmm vmm(hybrid_config());
  const auto policy = sim::make_policy("two-lru", vmm);
  EpochSampler sampler(
      epoch, vmm,
      dynamic_cast<const core::TwoLruMigrationPolicy*>(policy.get()), 1.0);
  sim::RunResult result = replay(*policy, trace, 0, &sampler);
  result.timeline = sampler.take_timeline();
  return result;
}

TEST(EpochSampler, EvenBoundaryArithmetic) {
  const auto trace = tiny_trace();  // 4000 accesses
  const auto result = sampled_run(trace, 1000);
  ASSERT_EQ(result.timeline.epochs.size(), 4u);
  EXPECT_EQ(result.timeline.epoch_length, 1000u);
  for (std::size_t i = 0; i < 4; ++i) {
    const EpochRecord& r = result.timeline.epochs[i];
    EXPECT_EQ(r.epoch, i);
    EXPECT_EQ(r.end_access, (i + 1) * 1000);
    EXPECT_EQ(r.delta.accesses, 1000u);
  }
}

TEST(EpochSampler, RemainderEpochKeepsTheTail) {
  const auto trace = tiny_trace();  // 4000 accesses
  const auto result = sampled_run(trace, 1536);
  ASSERT_EQ(result.timeline.epochs.size(), 3u);
  EXPECT_EQ(result.timeline.epochs[0].end_access, 1536u);
  EXPECT_EQ(result.timeline.epochs[1].end_access, 3072u);
  EXPECT_EQ(result.timeline.epochs[2].end_access, 4000u);
  EXPECT_EQ(result.timeline.epochs[2].delta.accesses, 4000u - 3072u);
}

TEST(EpochSampler, EpochLongerThanRunEmitsOneRecord) {
  const auto trace = tiny_trace();
  const auto result = sampled_run(trace, 1u << 20);
  ASSERT_EQ(result.timeline.epochs.size(), 1u);
  EXPECT_EQ(result.timeline.epochs[0].end_access, trace.size());
  EXPECT_EQ(result.timeline.epochs[0].delta.accesses, trace.size());
}

void expect_deltas_sum_to_totals(const Timeline& timeline,
                                 const model::EventCounts& totals) {
  model::EventCounts sum;
  for (const EpochRecord& r : timeline.epochs) {
    sum.accesses += r.delta.accesses;
    sum.dram_read_hits += r.delta.dram_read_hits;
    sum.dram_write_hits += r.delta.dram_write_hits;
    sum.nvm_read_hits += r.delta.nvm_read_hits;
    sum.nvm_write_hits += r.delta.nvm_write_hits;
    sum.page_faults += r.delta.page_faults;
    sum.fills_to_dram += r.delta.fills_to_dram;
    sum.fills_to_nvm += r.delta.fills_to_nvm;
    sum.migrations_to_dram += r.delta.migrations_to_dram;
    sum.migrations_to_nvm += r.delta.migrations_to_nvm;
    sum.dirty_evictions += r.delta.dirty_evictions;
    sum.page_factor = r.delta.page_factor;  // run constant, not additive
  }
  EXPECT_EQ(sum.accesses, totals.accesses);
  EXPECT_EQ(sum.dram_read_hits, totals.dram_read_hits);
  EXPECT_EQ(sum.dram_write_hits, totals.dram_write_hits);
  EXPECT_EQ(sum.nvm_read_hits, totals.nvm_read_hits);
  EXPECT_EQ(sum.nvm_write_hits, totals.nvm_write_hits);
  EXPECT_EQ(sum.page_faults, totals.page_faults);
  EXPECT_EQ(sum.fills_to_dram, totals.fills_to_dram);
  EXPECT_EQ(sum.fills_to_nvm, totals.fills_to_nvm);
  EXPECT_EQ(sum.migrations_to_dram, totals.migrations_to_dram);
  EXPECT_EQ(sum.migrations_to_nvm, totals.migrations_to_nvm);
  EXPECT_EQ(sum.dirty_evictions, totals.dirty_evictions);
  EXPECT_EQ(sum.page_factor, totals.page_factor);
}

TEST(EpochSampler, DeltasSumExactlyToRunTotals) {
  // Odd epoch length so the remainder epoch is exercised too.
  const auto result = sampled_run(tiny_trace(), 257);
  expect_deltas_sum_to_totals(result.timeline, result.counts);
}

TEST(EpochSampler, DeltasSumToTotalsOnFuzzSmokeSeeds) {
  // The fuzz-smoke seed convention (golden gamma + i) over full
  // run_workload experiments: warmup passes, real sizing, real policies.
  sim::ExperimentConfig config;
  config.timeline_epoch = 997;  // prime: every run ends mid-epoch
  const auto& profile = synth::parsec_profile("bodytrack");
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = 0x9e3779b97f4a7c15ull + i;
    const auto result = sim::run_workload(profile, 512, config, seed);
    ASSERT_FALSE(result.timeline.empty()) << "seed " << seed;
    EXPECT_EQ(result.timeline.epoch_length, 997u);
    expect_deltas_sum_to_totals(result.timeline, result.counts);
  }
}

TEST(EpochSampler, ObserverSeesMeasuredPassOnly) {
  // With a warmup pass, the timeline must cover exactly the measured
  // accesses — warmup replays are invisible to the observer.
  os::Vmm vmm(hybrid_config());
  const auto policy = sim::make_policy("two-lru", vmm);
  const auto trace = tiny_trace();
  EpochSampler sampler(
      1000, vmm,
      dynamic_cast<const core::TwoLruMigrationPolicy*>(policy.get()), 1.0);
  const auto result =
      replay(*policy, trace, /*warmup_passes=*/1, &sampler);
  ASSERT_FALSE(sampler.timeline().empty());
  EXPECT_EQ(sampler.timeline().epochs.back().end_access, trace.size());
  expect_deltas_sum_to_totals(sampler.timeline(), result.counts);
}

TEST(EpochSampler, RegistryTracksAccessMix) {
  os::Vmm vmm(hybrid_config());
  const auto policy = sim::make_policy("two-lru", vmm);
  const auto trace = tiny_trace();
  EpochSampler sampler(
      500, vmm,
      dynamic_cast<const core::TwoLruMigrationPolicy*>(policy.get()), 1.0);
  replay(*policy, trace, 0, &sampler);
  MetricsRegistry& registry = sampler.registry();
  const std::uint64_t reads = registry.counter("accesses.read").value;
  const std::uint64_t writes = registry.counter("accesses.write").value;
  EXPECT_EQ(reads + writes, trace.size());
  EXPECT_GT(reads, 0u);
  EXPECT_GT(writes, 0u);
  EXPECT_EQ(registry.histogram("visible_latency_ns", {}).count(),
            trace.size());
}

TEST(EpochSampler, TwoLruWindowsAndModelsPopulated) {
  const auto result = sampled_run(tiny_trace(), 500);
  bool saw_window = false;
  for (const EpochRecord& r : result.timeline.epochs) {
    EXPECT_GT(r.dram_resident + r.nvm_resident, 0u);
    EXPECT_GT(r.amat_total_ns, 0.0);
    EXPECT_GT(r.appr_total_nj, 0.0);
    EXPECT_GT(r.mean_visible_latency_ns, 0.0);
    EXPECT_LE(r.read_window.pages, r.read_window.target);
    EXPECT_LE(r.write_window.pages, r.write_window.target);
    if (r.read_window.pages > 0) saw_window = true;
  }
  EXPECT_TRUE(saw_window) << "NVM read window never populated";
}

TEST(EpochSampler, SingleTierPolicyStillSamplesVmmColumns) {
  os::VmmConfig cfg;
  cfg.dram_frames = 24;
  cfg.nvm_frames = 0;
  os::Vmm vmm(cfg);
  const auto policy = sim::make_policy("dram-only", vmm);
  EpochSampler sampler(1000, vmm, nullptr, 1.0);
  const auto trace = tiny_trace();
  const auto result = replay(*policy, trace, 0, &sampler);
  ASSERT_EQ(sampler.timeline().epochs.size(), 4u);
  for (const EpochRecord& r : sampler.timeline().epochs) {
    EXPECT_EQ(r.read_window.pages, 0u);
    EXPECT_EQ(r.write_window.pages, 0u);
    EXPECT_EQ(r.promotions, 0u);
    EXPECT_GT(r.dram_resident, 0u);
  }
  EXPECT_EQ(result.counts.accesses, trace.size());
}

TEST(EpochSampler, ZeroEpochLengthRejected) {
  os::Vmm vmm(hybrid_config());
  EXPECT_THROW(EpochSampler(0, vmm, nullptr, 1.0), std::logic_error);
}

}  // namespace
}  // namespace hymem::obs
