#include "runner/sharded.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/migration_scheme.hpp"
#include "obs/epoch.hpp"
#include "runner/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"
#include "trace/block_source.hpp"
#include "trace/trace_stats.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/flat_page_map.hpp"

namespace hymem::runner {

namespace {

/// Shard owning a page: a pure function of the page ID, so the partition
/// never depends on trace order or scheduling.
unsigned shard_of(PageId page, unsigned shards) {
  return static_cast<unsigned>(util::hash_page_id(page) % shards);
}

os::VmmConfig shard_vmm_config(std::uint64_t dram_frames,
                               std::uint64_t nvm_frames,
                               const sim::ExperimentConfig& config) {
  os::VmmConfig vmm_config;
  vmm_config.dram_frames = dram_frames;
  vmm_config.nvm_frames = nvm_frames;
  vmm_config.page_size = config.page_size;
  vmm_config.access_granularity = config.access_granularity;
  vmm_config.dram = config.dram;
  vmm_config.nvm = config.nvm;
  vmm_config.disk = config.disk;
  vmm_config.transfer_mode = config.transfer_mode;
  vmm_config.wear_leveling = config.wear_leveling;
  return vmm_config;
}

/// Merges shard results in shard-index order (the caller iterates 0..K-1):
/// counters sum, latencies sum in that fixed order, timelines concatenate.
void merge_into(sim::RunResult& merged, const sim::RunResult& shard) {
  merged.accesses += shard.accesses;
  merged.visible_latency_ns += shard.visible_latency_ns;
  auto& c = merged.counts;
  const auto& s = shard.counts;
  c.accesses += s.accesses;
  c.dram_read_hits += s.dram_read_hits;
  c.dram_write_hits += s.dram_write_hits;
  c.nvm_read_hits += s.nvm_read_hits;
  c.nvm_write_hits += s.nvm_write_hits;
  c.page_faults += s.page_faults;
  c.fills_to_dram += s.fills_to_dram;
  c.fills_to_nvm += s.fills_to_nvm;
  c.migrations_to_dram += s.migrations_to_dram;
  c.migrations_to_nvm += s.migrations_to_nvm;
  c.dirty_evictions += s.dirty_evictions;
  c.page_factor = s.page_factor;  // Config-derived; identical across shards.
  merged.params.dram_bytes += shard.params.dram_bytes;
  merged.params.nvm_bytes += shard.params.nvm_bytes;
  merged.timeline.epochs.insert(merged.timeline.epochs.end(),
                                shard.timeline.epochs.begin(),
                                shard.timeline.epochs.end());
}

}  // namespace

sim::RunResult run_sharded_experiment(const trace::Trace& warmup,
                                      const trace::Trace& measured,
                                      double duration_s,
                                      const sim::ExperimentConfig& config) {
  const unsigned shards = config.shards;
  if (shards < 2) {
    throw std::invalid_argument(
        "partitioned sharding needs --shards >= 2 (use the serial engine "
        "otherwise)");
  }
  if (!sim::is_shardable(config.policy)) {
    sim::throw_unshardable_policy("partitioned sharding", config.policy);
  }
  // Partition both traces by page, preserving order within each shard.
  std::vector<trace::Trace> shard_warmup(shards);
  std::vector<trace::Trace> shard_measured(shards);
  std::vector<std::uint64_t> shard_footprint(shards, 0);
  {
    util::FlatPageMap<char> seen;
    for (const auto& access : warmup.accesses()) {
      const PageId page = trace::page_of(access.addr, config.page_size);
      const unsigned s = shard_of(page, shards);
      shard_warmup[s].append(access);
      if (seen.try_emplace(page).second) ++shard_footprint[s];
    }
  }
  for (const auto& access : measured.accesses()) {
    const PageId page = trace::page_of(access.addr, config.page_size);
    shard_measured[shard_of(page, shards)].append(access);
  }
  for (unsigned s = 0; s < shards; ++s) {
    shard_warmup[s].set_name(warmup.name());
    shard_measured[s].set_name(measured.name());
  }
  // Global Section V.A sizing, split proportionally to shard footprints.
  std::uint64_t total_footprint = 0;
  for (const std::uint64_t f : shard_footprint) total_footprint += f;
  const sim::MemorySizing sizing = sim::size_memory(total_footprint, config);
  const std::vector<std::uint64_t> dram_split =
      util::split_budget(sizing.dram_frames, shard_footprint);
  const std::vector<std::uint64_t> nvm_split =
      util::split_budget(sizing.nvm_frames, shard_footprint);

  // Fan the shards out; each task owns its slot, errors are captured and
  // rethrown in shard order so failures are deterministic too.
  std::vector<sim::RunResult> results(shards);
  // char, not bool: each worker writes only its own slot, and
  // std::vector<bool> would pack neighbouring slots into one byte.
  std::vector<char> ran(shards, 0);
  std::vector<std::exception_ptr> errors(shards);
  const auto run_shard = [&](unsigned s) {
    if (shard_measured[s].empty()) return;  // No pages map here.
    os::Vmm vmm(shard_vmm_config(dram_split[s], nvm_split[s], config));
    const auto policy =
        sim::make_policy(config.policy, vmm, config.migration, config.sample);
    if (!shard_warmup[s].empty()) {
      trace::TraceBlockSource warm(shard_warmup[s], config.page_size);
      for (unsigned pass = 0; pass < std::max(1u, config.warmup_passes);
           ++pass) {
        if (pass > 0) warm.rewind();
        sim::replay_pass(*policy, warm);
      }
      vmm.reset_accounting();
    }
    trace::TraceBlockSource source(shard_measured[s], config.page_size);
    if (config.timeline_epoch == 0) {
      results[s] = sim::run_blocks(*policy, source, duration_s);
    } else {
      const auto* scheme =
          dynamic_cast<const core::TwoLruMigrationPolicy*>(policy.get());
      obs::EpochSampler sampler(config.timeline_epoch, vmm, scheme,
                                duration_s);
      results[s] = sim::run_blocks(*policy, source, duration_s,
                                   /*warmup_passes=*/0, &sampler);
      results[s].timeline = sampler.take_timeline();
    }
    ran[s] = 1;
  };
  {
    ThreadPool pool(std::min(shards, ThreadPool::default_threads()));
    for (unsigned s = 0; s < shards; ++s) {
      pool.submit([&, s] {
        try {
          run_shard(s);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (unsigned s = 0; s < shards; ++s) {
    if (errors[s] != nullptr) std::rethrow_exception(errors[s]);
  }

  // Deterministic merge in shard-index order.
  sim::RunResult merged;
  merged.workload = measured.name();
  merged.duration_s = duration_s;
  merged.timeline.epoch_length = config.timeline_epoch;
  bool seeded = false;
  for (unsigned s = 0; s < shards; ++s) {
    if (!ran[s]) continue;
    if (!seeded) {
      merged.policy = results[s].policy;
      merged.params = results[s].params;
      merged.params.dram_bytes = 0;
      merged.params.nvm_bytes = 0;
      merged.counts.page_factor = results[s].counts.page_factor;
      seeded = true;
    }
    merge_into(merged, results[s]);
  }
  if (!seeded) {
    throw std::invalid_argument("empty trace: \"" + measured.name() +
                                "\" has no accesses to replay");
  }
  return merged;
}

sim::RunResult run_sharded_workload(const synth::WorkloadProfile& profile,
                                    std::uint64_t scale,
                                    const sim::ExperimentConfig& config,
                                    std::uint64_t seed) {
  const synth::WorkloadProfile scaled = profile.scaled(scale);
  synth::GeneratorOptions options;
  options.page_size = config.page_size;
  options.line_size = config.access_granularity;
  options.seed = seed;
  const trace::Trace warmup = synth::generate(scaled, options);
  synth::GeneratorOptions body_options = options;
  body_options.ensure_full_footprint = false;
  body_options.seed = seed + 1;
  const trace::Trace measured = synth::generate(scaled, body_options);
  return run_sharded_experiment(warmup, measured, scaled.roi_seconds, config);
}

sim::RunResult run_workload_dispatch(const synth::WorkloadProfile& profile,
                                     std::uint64_t scale,
                                     const sim::ExperimentConfig& config,
                                     std::uint64_t seed) {
  if (config.shards > 1) {
    return run_sharded_workload(profile, scale, config, seed);
  }
  return sim::run_workload(profile, scale, config, seed);
}

}  // namespace hymem::runner
