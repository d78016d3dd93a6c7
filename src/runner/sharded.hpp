// Partitioned-shard execution of one experiment (ExperimentConfig::shards
// > 1): the run's address space is hash-partitioned across K
// independent policy instances, each owning a proportional slice of the
// DRAM/NVM budget, replayed in parallel on the shared thread pool, and
// merged into one RunResult in shard-index order.
//
// Determinism contract: the partition function is a pure function of the
// page ID (hash_page_id(page) % shards), sub-traces preserve trace order,
// every shard owns its VMM/policy, and the merge folds shard results in
// index order 0..K-1 — so output is byte-identical across repeated runs and
// worker counts *for a fixed K*. Results are NOT identical across different
// K, nor to the serial engine: each shard's LRU only sees its own pages
// and budget slice, so shard-local recency is an approximation knob of the
// global policy (see DESIGN.md §12).
//
// This lives in runner/ (not sim/) because it owns the fan-out: the
// dependency order puts the thread pool above the engine.
#pragma once

#include <cstdint>

#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {

/// Two-trace partitioned run: memory is sized from the warmup trace's
/// footprint, each shard warms on its slice of `traces.warmup`, then
/// replays its slice of `traces.measured` with counting on. Requires
/// config.shards > 1 and a non-sampled policy; throws std::invalid_argument
/// otherwise.
sim::RunResult run_sharded_experiment(const sim::WorkloadTraces& traces,
                                      const sim::ExperimentConfig& config);

/// Generates the workload's synthetic traces (sim::generate_workload) and
/// runs the partitioned experiment on them.
sim::RunResult run_sharded_workload(const synth::WorkloadProfile& profile,
                                    std::uint64_t scale,
                                    const sim::ExperimentConfig& config,
                                    std::uint64_t seed = 42);

/// Routing helper for the sweep runner: runs generated traces through
/// run_sharded_experiment when config.shards > 1, and through the serial
/// sim::run_experiment otherwise.
sim::RunResult run_workload_dispatch(const sim::WorkloadTraces& traces,
                                     const sim::ExperimentConfig& config);

/// As above, generating the workload's traces first.
sim::RunResult run_workload_dispatch(const synth::WorkloadProfile& profile,
                                     std::uint64_t scale,
                                     const sim::ExperimentConfig& config,
                                     std::uint64_t seed = 42);

}  // namespace hymem::runner
