// Experiment runner: the paper's evaluation methodology in one call.
//
// Sizing rule (Section V.A): total main memory = `memory_fraction` (75%) of
// the workload's footprint pages; DRAM = `dram_fraction` (10%) of that
// memory. Single-module policies get the whole budget as one module.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/migration_config.hpp"
#include "mem/technology.hpp"
#include "model/analytic.hpp"
#include "sample/config.hpp"
#include "sim/engine.hpp"
#include "synth/workload_profile.hpp"
#include "trace/trace.hpp"

namespace hymem::sim {

/// One experiment = one (policy, sizing, workload) run.
struct ExperimentConfig {
  std::string policy = "two-lru";
  double memory_fraction = 0.75;  ///< Memory pages / footprint pages.
  double dram_fraction = 0.10;    ///< DRAM frames / memory frames.
  std::uint64_t page_size = 4096;
  std::uint64_t access_granularity = 64;  ///< PageFactor = page/granularity.
  mem::MemTechnology dram = mem::dram_table4();
  mem::MemTechnology nvm = mem::pcm_table4();
  mem::DiskModel disk{};
  core::MigrationConfig migration{};
  /// Sampled-hotness tunables; consulted only when `policy` is a
  /// "sampled-*" name. The tap is wired automatically for those runs
  /// (warmup included on the two-trace path) and the end-of-run counters
  /// land in RunResult::sampled.
  sample::SampleConfig sample{};
  mem::TransferMode transfer_mode = mem::TransferMode::kDma;
  bool wear_leveling = false;
  /// Uncounted replays of the trace before the measured pass (steady-state
  /// measurement; see run_blocks).
  unsigned warmup_passes = 1;
  /// When nonzero, the measured pass samples an epoch time-series every
  /// `timeline_epoch` accesses into RunResult::timeline (obs::EpochSampler).
  /// Zero (the default) keeps the replay loop uninstrumented.
  std::uint64_t timeline_epoch = 0;
  /// Partitioned shards for one run (1 = serial). With K > 1, pages are
  /// hash-partitioned across K independent policy instances, each with a
  /// proportional slice of the DRAM/NVM budget, and the per-shard results
  /// are merged in shard-index order: deterministic for a fixed K, but an
  /// approximation of the global policy (shard-local LRU cannot see
  /// cross-shard recency). Executed by runner::run_sharded_experiment (the
  /// runner layer owns the thread pool).
  unsigned shards = 1;
};

/// Memory sizing derived from a trace's footprint.
struct MemorySizing {
  std::uint64_t total_frames = 0;
  std::uint64_t dram_frames = 0;
  std::uint64_t nvm_frames = 0;
};

/// Computes the Section V.A sizing for a given footprint.
MemorySizing size_memory(std::uint64_t footprint_pages,
                         const ExperimentConfig& config);

/// Runs one experiment over an existing memory trace. `duration_s` feeds the
/// Eq. 3 static proration.
RunResult run_experiment(const trace::Trace& trace, double duration_s,
                         const ExperimentConfig& config);

/// Two-trace variant: memory is sized from (and warmed on) `warmup`, then
/// `measured` is replayed with counting on. This is how run_workload
/// realizes the paper's steady-state methodology: the warmup trace covers
/// the full Table III footprint (cold start), while the measured trace has
/// the same distribution without the one-time cold touches.
RunResult run_experiment(const trace::Trace& warmup,
                         const trace::Trace& measured, double duration_s,
                         const ExperimentConfig& config);

/// Generates the synthetic traces for `profile` (divided by `scale`) and
/// runs the steady-state experiment on them.
RunResult run_workload(const synth::WorkloadProfile& profile,
                       std::uint64_t scale, const ExperimentConfig& config,
                       std::uint64_t seed = 42);

// --- Analytic fast path (model/analytic) -------------------------------------

/// True when `config` names a cell the analytic estimator models: the
/// two-LRU scheme with static thresholds, or the LRU single-tier baselines.
/// Adaptive thresholds, sampled policies and the other hybrid baselines must
/// be simulated.
bool analytic_supported(const ExperimentConfig& config);

/// Maps one experiment cell onto the estimator's input: the raw frame counts
/// from the Section V.A sizing plus ModelParams mirrored from the config.
/// Lives here (not in model/) because MemorySizing and ExperimentConfig are
/// sim-layer types — model stays below sim.
model::AnalyticConfig analytic_config_for(const ExperimentConfig& config,
                                          const MemorySizing& sizing,
                                          double duration_s);

/// A workload characterized once for any number of analytic evaluations:
/// the measured-window reuse profile, the sizing footprint and the ROI wall
/// time — the exact analytic mirror of run_workload (same generator seeds,
/// same steady-state split; the analyzer observes the warmup trace, resets
/// its statistics keeping the LRU stack, then observes the measured trace).
struct AnalyticWorkload {
  trace::ReuseProfile profile;
  std::uint64_t footprint_pages = 0;  ///< Warmup-trace footprint (sizing).
  double duration_s = 0.0;            ///< Scaled ROI seconds.
};

/// Characterizes `profile` (divided by `scale`) the way run_workload would
/// run it. One O(n log n) pass; reuse the result across a whole config grid.
AnalyticWorkload characterize_workload(const synth::WorkloadProfile& profile,
                                       std::uint64_t scale,
                                       const ExperimentConfig& config,
                                       std::uint64_t seed = 42);

/// The full fast path for one cell: size memory from the characterized
/// footprint, map the config, estimate. Throws std::invalid_argument for
/// unsupported policies (mirror of make_policy's contract).
model::AnalyticEstimate analytic_estimate(const AnalyticWorkload& workload,
                                          const ExperimentConfig& config);

}  // namespace hymem::sim
