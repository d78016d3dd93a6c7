#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "check/stream_parity.hpp"
#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"

namespace hymem::sim {
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
  c.nvm_frames = 21;  // 75% of 32 pages total
  return c;
}

/// The engine over a materialized trace, in default-sized blocks.
RunResult replay_trace(policy::HybridPolicy& policy,
                       const trace::Trace& trace, double duration_s,
                       unsigned warmup_passes = 0) {
  trace::TraceBlockSource source(trace, policy.vmm().config().page_size);
  return run_blocks(policy, source, duration_s, warmup_passes);
}

TEST(Engine, CountsCoverEveryAccess) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  const auto trace = tiny_trace();
  const auto result = replay_trace(*policy, trace, 1.0);
  EXPECT_EQ(result.accesses, trace.size());
  EXPECT_EQ(result.counts.hits() + result.counts.page_faults, trace.size());
  EXPECT_EQ(result.workload, "tiny");
  EXPECT_EQ(result.policy, "two-lru");
}

TEST(Engine, VisibleLatencyEqualsModelAmat) {
  // Every latency the policies report flows through the same VMM cost
  // model that Eq. 1 reconstructs from counts, so the two must agree.
  for (const char* name : {"dram-only", "nvm-only", "clock-dwf", "two-lru",
                           "static-partition", "dram-cache"}) {
    os::VmmConfig cfg = hybrid_config();
    if (std::string(name) == "dram-only") {
      cfg.dram_frames = 24;
      cfg.nvm_frames = 0;
    } else if (std::string(name) == "nvm-only") {
      cfg.dram_frames = 0;
      cfg.nvm_frames = 24;
    }
    os::Vmm vmm(cfg);
    const auto policy = make_policy(name, vmm);
    const auto result = replay_trace(*policy, tiny_trace(), 1.0);
    const auto breakdown = result.amat();
    EXPECT_NEAR(result.visible_latency_ns,
                breakdown.total() * static_cast<double>(result.accesses),
                result.visible_latency_ns * 1e-9 + 1e-3)
        << name;
  }
}

TEST(Engine, DerivedMetricsAvailable) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  const auto result = replay_trace(*policy, tiny_trace(), 0.5);
  EXPECT_GT(result.amat().total(), 0.0);
  EXPECT_GT(result.appr().total(), 0.0);
  EXPECT_GT(result.appr().static_nj, 0.0);
  // Faults always fill DRAM under two-lru; with a full memory every fill
  // eventually demotes, so NVM writes must be nonzero.
  EXPECT_GT(result.nvm_writes().total(), 0u);
}

TEST(Engine, EmptyTraceRejected) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  trace::Trace empty;
  // invalid_argument (bad input, catchable by the sweep runner), not the
  // HYMEM_CHECK logic_error that used to kill the whole process.
  EXPECT_THROW(replay_trace(*policy, empty, 1.0), std::invalid_argument);
}


TEST(Engine, WarmupPassResetsAccountingButKeepsResidency) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  const auto trace = tiny_trace();
  const auto result = replay_trace(*policy, trace, 1.0, /*warmup_passes=*/1);
  // Warmup faulted the cold pages; the measured pass starts warm, so its
  // fault count must be far below the footprint.
  EXPECT_LT(result.counts.page_faults, 32u);
  // And the counted window still covers every access exactly once.
  EXPECT_EQ(result.counts.hits() + result.counts.page_faults, trace.size());
}

TEST(Engine, WarmupReducesMeasuredFaults) {
  auto run_with = [&](unsigned warmup) {
    os::Vmm vmm(hybrid_config());
    const auto policy = make_policy("two-lru", vmm);
    return replay_trace(*policy, tiny_trace(), 1.0, warmup).counts.page_faults;
  };
  EXPECT_LT(run_with(1), run_with(0));
}

TEST(Engine, StreamedRunMatchesInMemoryRun) {
  const auto trace = tiny_trace();
  std::stringstream buf;
  {
    trace::StreamTraceWriter writer(buf, trace.name(), 512);
    for (const auto& a : trace) writer.append(a);
    writer.finish();
  }
  os::Vmm vmm_a(hybrid_config());
  const auto policy_a = make_policy("two-lru", vmm_a);
  const auto in_memory = replay_trace(*policy_a, trace, 1.0);

  os::Vmm vmm_b(hybrid_config());
  const auto policy_b = make_policy("two-lru", vmm_b);
  trace::StreamBlockSource source(buf, vmm_b.config().page_size, 300);
  const auto streamed = run_blocks(*policy_b, source, 1.0);

  EXPECT_EQ(streamed.accesses, in_memory.accesses);
  EXPECT_EQ(streamed.counts.page_faults, in_memory.counts.page_faults);
  EXPECT_EQ(streamed.counts.migrations(), in_memory.counts.migrations());
  EXPECT_DOUBLE_EQ(streamed.visible_latency_ns, in_memory.visible_latency_ns);
  EXPECT_EQ(streamed.workload, in_memory.workload);
}

TEST(Engine, BlockRunMatchesReferenceRunExactly) {
  // The engine against the plain per-access reference loop in check/.
  const auto trace = tiny_trace();
  for (const unsigned warmup : {0u, 1u, 2u}) {
    os::Vmm vmm_a(hybrid_config());
    const auto policy_a = make_policy("two-lru", vmm_a);
    const auto reference =
        check::replay_per_access(*policy_a, trace, 1.0, warmup);

    os::Vmm vmm_b(hybrid_config());
    const auto policy_b = make_policy("two-lru", vmm_b);
    trace::TraceBlockSource source(trace, vmm_b.config().page_size, 97);
    const auto blocked = run_blocks(*policy_b, source, 1.0, warmup);

    EXPECT_EQ(blocked.accesses, reference.accesses) << warmup;
    EXPECT_EQ(blocked.counts.page_faults, reference.counts.page_faults)
        << warmup;
    EXPECT_EQ(blocked.counts.migrations(), reference.counts.migrations())
        << warmup;
    EXPECT_DOUBLE_EQ(blocked.visible_latency_ns, reference.visible_latency_ns)
        << warmup;
    EXPECT_EQ(blocked.workload, reference.workload);
    EXPECT_EQ(blocked.policy, reference.policy);
  }
}

TEST(Engine, BlockRunObserverSeesOnlyMeasuredAccesses) {
  // The observer path replays per access with identical semantics; the
  // sampled timeline must cover exactly the measured pass.
  const auto trace = tiny_trace();
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  trace::TraceBlockSource source(trace, vmm.config().page_size, 64);
  obs::EpochSampler sampler(/*epoch_length=*/500, vmm, nullptr, 1.0);
  const auto result =
      run_blocks(*policy, source, 1.0, /*warmup_passes=*/1, &sampler);
  const auto timeline = sampler.take_timeline();
  std::uint64_t covered = 0;
  for (const auto& epoch : timeline.epochs) covered += epoch.delta.accesses;
  EXPECT_EQ(covered, result.accesses);
  EXPECT_EQ(result.accesses, trace.size());
}

TEST(Engine, EmptyBlockSourceRejected) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  trace::Trace empty;
  empty.set_name("void");
  trace::TraceBlockSource source(empty, vmm.config().page_size, 16);
  EXPECT_THROW(run_blocks(*policy, source, 1.0), std::invalid_argument);
}

TEST(Engine, IntegratedTransferModeShortensVisibleLatency) {
  auto run_mode = [&](mem::TransferMode mode) {
    os::VmmConfig cfg = hybrid_config();
    cfg.transfer_mode = mode;
    os::Vmm vmm(cfg);
    const auto policy = make_policy("clock-dwf", vmm);
    return replay_trace(*policy, tiny_trace(), 1.0);
  };
  const auto dma = run_mode(mem::TransferMode::kDma);
  const auto integrated = run_mode(mem::TransferMode::kIntegrated);
  ASSERT_GT(dma.counts.migrations(), 0u);
  EXPECT_LT(integrated.visible_latency_ns, dma.visible_latency_ns);
  // The latency identity must hold in both modes (model knows the mode).
  for (const auto* r : {&dma, &integrated}) {
    EXPECT_NEAR(r->visible_latency_ns,
                r->amat().total() * static_cast<double>(r->accesses),
                r->visible_latency_ns * 1e-9 + 1e-3);
  }
}

}  // namespace
}  // namespace hymem::sim
