// The 1-tenant parity canary: a TenantGroup serving exactly one tenant
// (id 0, whose namespace is the identity) must reproduce the plain engine
// byte for byte — same event counts, same visible latency, same AMAT — for
// every budget mode and shard count. This is what makes the multi-tenant
// layer a strict generalization rather than a fork of the engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/policy_factory.hpp"
#include "synth/tenant_stream.hpp"
#include "tenant/tenant_group.hpp"
#include "trace/trace.hpp"

namespace hymem::tenant {
namespace {

synth::TenantStream one_tenant_stream(std::uint64_t accesses) {
  synth::TenantChurnSpec spec;
  spec.name = "solo";
  spec.tenants = {
      {synth::TenantWorkloadKind::kZipfKv, 96, 0.1, 0.9, 0.99, 0.3, 1}};
  spec.total_accesses = accesses;
  spec.initial_active = 1;
  spec.seed = 11;
  return synth::generate_tenant_stream(spec);
}

trace::Trace to_trace(const synth::TenantStream& stream) {
  trace::Trace t(stream.name);
  for (const synth::TenantOp& op : stream.ops) {
    if (op.kind == synth::TenantOp::Kind::kAccess) t.append(op.access);
  }
  return t;
}

void expect_counts_equal(const model::EventCounts& a,
                         const model::EventCounts& b,
                         const std::string& what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.dram_read_hits, b.dram_read_hits) << what;
  EXPECT_EQ(a.dram_write_hits, b.dram_write_hits) << what;
  EXPECT_EQ(a.nvm_read_hits, b.nvm_read_hits) << what;
  EXPECT_EQ(a.nvm_write_hits, b.nvm_write_hits) << what;
  EXPECT_EQ(a.page_faults, b.page_faults) << what;
  EXPECT_EQ(a.fills_to_dram, b.fills_to_dram) << what;
  EXPECT_EQ(a.fills_to_nvm, b.fills_to_nvm) << what;
  EXPECT_EQ(a.migrations_to_dram, b.migrations_to_dram) << what;
  EXPECT_EQ(a.migrations_to_nvm, b.migrations_to_nvm) << what;
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions) << what;
  EXPECT_EQ(a.page_factor, b.page_factor) << what;
}

TEST(TenantParity, OneTenantMatchesThePlainEngineByteForByte) {
  const synth::TenantStream stream = one_tenant_stream(4000);
  const trace::Trace trace = to_trace(stream);

  for (const std::string& policy : {std::string("two-lru"),
                                    std::string("clock-dwf"),
                                    std::string("dram-cache")}) {
    // Plain engine reference at the full budget.
    os::VmmConfig vc;
    vc.dram_frames = 24;
    vc.nvm_frames = 120;
    os::Vmm vmm(vc);
    const auto plain_policy = sim::make_policy(policy, vmm);
    trace::TraceBlockSource source(trace, vc.page_size);
    const sim::RunResult plain = sim::run_blocks(*plain_policy, source, 1.0);

    // A single tenant owns the whole budget under every mode and any shard
    // count: unpopulated shards get zero frames, so the tenant's shard is
    // the plain engine's exact shape.
    for (const BudgetMode mode :
         {BudgetMode::kStaticEqual, BudgetMode::kDemandProportional,
          BudgetMode::kSharedQueue}) {
      for (const unsigned shards : {1u, 2u, 3u}) {
        TenantGroupConfig config;
        config.policy = policy;
        config.budget_mode = mode;
        config.shards = shards;
        config.dram_frames = 24;
        config.nvm_frames = 120;
        config.rebalance_period = 512;
        TenantGroup group(config);
        const TenantGroupResult result = group.run(stream);

        const std::string what = policy + "/" + to_string(mode) + "/s" +
                                 std::to_string(shards);
        expect_counts_equal(result.totals, plain.counts, what);
        ASSERT_EQ(result.tenants.size(), 1u) << what;
        expect_counts_equal(result.tenants[0].counts, plain.counts, what);
        EXPECT_EQ(result.visible_latency_ns, plain.visible_latency_ns)
            << what;
        EXPECT_EQ(result.amat().total(), plain.amat().total()) << what;
        EXPECT_EQ(result.reconfig_evictions, 0u) << what;
      }
    }
  }
}

}  // namespace
}  // namespace hymem::tenant
