// Microbenchmarks (google-benchmark): raw operation throughput of the
// building blocks — replacement policies, the windowed NVM queue, the cache
// hierarchy, the trace generator and the end-to-end simulator.
#include <benchmark/benchmark.h>

#include <sstream>

#include "cachesim/hierarchy.hpp"
#include "core/migration_scheme.hpp"
#include "core/nvm_queue.hpp"
#include "obs/epoch.hpp"
#include "os/vmm.hpp"
#include "policy/factory.hpp"
#include "sim/experiment.hpp"
#include "sim/engine.hpp"
#include "sim/policy_factory.hpp"
#include "synth/cpu_stream.hpp"
#include "synth/generator.hpp"
#include "trace/block_source.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_stats.hpp"
#include "util/random.hpp"
#include "util/zipf.hpp"

namespace {

using namespace hymem;

// Zipf page streams are pre-sampled outside the timing loops below so the
// measured work is the policy/queue operation itself, not the sampler.
std::vector<PageId> sampled_pages(std::size_t count, std::uint64_t universe,
                                  std::uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(universe, 0.8);
  std::vector<PageId> pages(count);
  for (PageId& page : pages) page = zipf.sample(rng);
  return pages;
}

void BM_ReplacementPolicyChurn(benchmark::State& state,
                               const std::string& name) {
  const std::size_t capacity = 4096;
  const auto policy = policy::make_replacement(name, capacity);
  const std::vector<PageId> pages = sampled_pages(1 << 16, capacity * 4, 7);
  // One benchmark iteration replays the whole pre-sampled stream, so the
  // per-access cost is the policy operation alone, not harness bookkeeping.
  for (auto _ : state) {
    for (const PageId page : pages) {
      if (policy->contains(page)) {
        policy->on_hit(page, AccessType::kRead);
      } else {
        if (policy->full()) {
          policy->erase(*policy->select_victim());
        }
        policy->insert(page, AccessType::kRead);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pages.size()));
}

void BM_CountedLruQueue(benchmark::State& state) {
  const std::size_t capacity = 4096;
  core::CountedLruQueue queue(capacity, 0.1, 0.3);
  Rng rng(5);
  const std::vector<PageId> pages = sampled_pages(1 << 16, capacity, 5);
  std::vector<AccessType> types(pages.size());
  for (AccessType& type : types) {
    type = rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
  }
  for (PageId p = 0; p < capacity; ++p) queue.insert_front(p);
  for (auto _ : state) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      benchmark::DoNotOptimize(queue.record_hit(pages[i], types[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pages.size()));
}

void BM_CacheHierarchy(benchmark::State& state) {
  cachesim::Hierarchy hierarchy((cachesim::HierarchyConfig()));
  synth::CpuStreamOptions opts;
  opts.accesses_per_core = 100000;
  const auto trace = synth::generate_cpu_stream(opts);
  std::size_t i = 0;
  for (auto _ : state) {
    hierarchy.access(trace[i]);
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TraceGenerator(benchmark::State& state) {
  synth::WorkloadProfile profile = synth::parsec_profile("bodytrack").scaled(64);
  synth::GeneratorOptions options;
  for (auto _ : state) {
    options.seed++;
    benchmark::DoNotOptimize(synth::generate(profile, options));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(profile.total_accesses()));
}

void BM_EndToEndSimulation(benchmark::State& state,
                           const std::string& policy) {
  const auto profile = synth::parsec_profile("bodytrack");
  sim::ExperimentConfig config;
  config.policy = policy;
  config.warmup_passes = 0;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    const auto result = sim::run_workload(profile, 128, config, 42);
    accesses += result.accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

// Shared fixture of the replay benchmarks: the dedup/4 trace (a ~32k-page
// footprint, so the page table and policy indexes see realistic cache
// pressure instead of fitting in L1) plus its Section V.A memory shape.
struct ReplayFixture {
  trace::Trace trace;
  os::VmmConfig vmm_config;
  double roi_seconds = 0;
  sim::ExperimentConfig config;
};

ReplayFixture make_replay_fixture(const std::string& policy) {
  ReplayFixture fx;
  const auto profile = synth::parsec_profile("dedup").scaled(4);
  synth::GeneratorOptions options;
  options.seed = 42;
  fx.trace = synth::generate(profile, options);
  fx.roi_seconds = profile.roi_seconds;
  fx.config.policy = policy;
  trace::TraceCharacterizer characterizer(fx.config.page_size);
  characterizer.observe(fx.trace);
  const sim::MemorySizing sizing =
      sim::size_memory(characterizer.stats().distinct_pages, fx.config);
  fx.vmm_config.dram_frames = sizing.dram_frames;
  fx.vmm_config.nvm_frames = sizing.nvm_frames;
  fx.vmm_config.page_size = fx.config.page_size;
  fx.vmm_config.access_granularity = fx.config.access_granularity;
  fx.vmm_config.dram = fx.config.dram;
  fx.vmm_config.nvm = fx.config.nvm;
  fx.vmm_config.disk = fx.config.disk;
  fx.vmm_config.transfer_mode = fx.config.transfer_mode;
  fx.vmm_config.wear_leveling = fx.config.wear_leveling;
  return fx;
}

// Replay throughput of the simulation core proper: the trace is generated
// and characterized once outside the timing loop, so items/second is
// accesses/sec of sim::run_blocks over a TraceBlockSource (one warmup pass
// + the measured pass, decode included), the number every figure and sweep
// cell is built from.
//
// `timeline_epoch` nonzero attaches an obs::EpochSampler with that epoch
// length, so the `_timeline` captures measure the instrumentation-on cost
// against their plain counterparts.
void BM_RunTrace(benchmark::State& state, const std::string& policy,
                 std::uint64_t timeline_epoch = 0) {
  const ReplayFixture fx = make_replay_fixture(policy);
  const trace::Trace& trace = fx.trace;
  const auto& profile_roi = fx.roi_seconds;
  const sim::ExperimentConfig& config = fx.config;
  const os::VmmConfig& vmm_config = fx.vmm_config;
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    os::Vmm vmm(vmm_config);
    const auto impl = sim::make_policy(policy, vmm, config.migration);
    trace::TraceBlockSource source(trace, config.page_size);
    if (timeline_epoch == 0) {
      const auto result = sim::run_blocks(*impl, source, profile_roi,
                                          /*warmup_passes=*/1);
      benchmark::DoNotOptimize(result.accesses);
    } else {
      const auto* scheme =
          dynamic_cast<const core::TwoLruMigrationPolicy*>(impl.get());
      obs::EpochSampler sampler(timeline_epoch, vmm, scheme,
                                profile_roi);
      const auto result = sim::run_blocks(*impl, source, profile_roi,
                                          /*warmup_passes=*/1, &sampler);
      benchmark::DoNotOptimize(result.accesses);
      const obs::Timeline timeline = sampler.take_timeline();
      benchmark::DoNotOptimize(timeline.epochs.size());
    }
    replayed += 2 * trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
}

BENCHMARK_CAPTURE(BM_ReplacementPolicyChurn, lru, "lru");
BENCHMARK_CAPTURE(BM_ReplacementPolicyChurn, clock, "clock");
BENCHMARK_CAPTURE(BM_ReplacementPolicyChurn, clock_pro, "clock-pro");
BENCHMARK_CAPTURE(BM_ReplacementPolicyChurn, car, "car");
BENCHMARK(BM_CountedLruQueue);
BENCHMARK(BM_CacheHierarchy);
BENCHMARK(BM_TraceGenerator);
BENCHMARK_CAPTURE(BM_EndToEndSimulation, two_lru, "two-lru");
BENCHMARK_CAPTURE(BM_EndToEndSimulation, clock_dwf, "clock-dwf");
// Streamed replay from the chunked HYTS byte format: O(chunk) memory, with
// the readahead producer decoding block N+1 while the policy replays block
// N. Measures the full capture-to-replay path a too-big-to-materialize
// trace takes.
void BM_RunTraceStreamedIo(benchmark::State& state, const std::string& policy,
                           std::size_t chunk) {
  const ReplayFixture fx = make_replay_fixture(policy);
  std::stringstream bytes;
  {
    trace::StreamTraceWriter writer(bytes, fx.trace.name(), chunk);
    for (const auto& access : fx.trace.accesses()) writer.append(access);
    writer.finish();
  }
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    os::Vmm vmm(fx.vmm_config);
    const auto impl = sim::make_policy(policy, vmm, fx.config.migration);
    bytes.clear();
    bytes.seekg(0);
    trace::StreamBlockSource source(bytes, fx.config.page_size, chunk,
                                    /*readahead=*/true);
    const auto result =
        sim::run_blocks(*impl, source, fx.roi_seconds, /*warmup_passes=*/1);
    benchmark::DoNotOptimize(result.accesses);
    replayed += 2 * fx.trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
}

BENCHMARK_CAPTURE(BM_RunTrace, two_lru, "two-lru");
BENCHMARK_CAPTURE(BM_RunTraceStreamedIo, two_lru, "two-lru", 16384u);
BENCHMARK_CAPTURE(BM_RunTrace, two_lru_adaptive, "two-lru-adaptive");
BENCHMARK_CAPTURE(BM_RunTrace, clock_dwf, "clock-dwf");
BENCHMARK_CAPTURE(BM_RunTrace, dram_only, "dram-only");
BENCHMARK_CAPTURE(BM_RunTrace, two_lru_timeline, "two-lru", 1024u);
BENCHMARK_CAPTURE(BM_RunTrace, clock_dwf_timeline, "clock-dwf", 1024u);

}  // namespace

BENCHMARK_MAIN();
