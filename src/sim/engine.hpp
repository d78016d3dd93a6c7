// Simulation engine: replays decoded blocks through a hybrid policy and
// packages the resulting event counts and model inputs. replay_pass is the
// only replay loop; every warmup and measured pass in the simulator goes
// through it.
#pragma once

#include <cstdint>
#include <string>

#include "model/endurance_model.hpp"
#include "model/events.hpp"
#include "model/model_params.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "obs/epoch.hpp"
#include "obs/sampled_stats.hpp"
#include "obs/tap.hpp"
#include "policy/hybrid_policy.hpp"
#include "trace/block_source.hpp"

namespace hymem::sim {

/// Everything one run produces.
struct RunResult {
  std::string policy;
  std::string workload;
  std::uint64_t accesses = 0;
  double duration_s = 0;  ///< ROI wall time used for static proration.
  model::EventCounts counts;
  model::ModelParams params;
  /// Sum of the per-request latencies the policy reported (sanity handle;
  /// the headline metric is the Eq. 1 AMAT over `counts`).
  Nanoseconds visible_latency_ns = 0;
  /// Epoch time-series (empty unless the run sampled one; see
  /// ExperimentConfig::timeline_epoch and obs::EpochSampler).
  obs::Timeline timeline;
  /// End-of-run counters of the sampled-hotness subsystem; meaningful only
  /// when `has_sampled` (the run's policy was sampled-lru).
  obs::SampledStats sampled;
  bool has_sampled = false;

  model::AmatBreakdown amat() const { return model::amat(counts, params); }
  model::PowerBreakdown appr() const {
    return model::appr(counts, params, duration_s);
  }
  model::NvmWriteBreakdown nvm_writes() const {
    return model::nvm_writes(counts);
  }
};

/// Totals of one replay pass.
struct PassTotals {
  Nanoseconds visible_latency_ns = 0;
  std::uint64_t accesses = 0;
};

/// The replay loop: serves `source` from its current position to its end.
/// Without an observer every block goes through the policy's on_block fast
/// path; with one, each access goes through on_access and then
/// observer->on_access (the per-access observer contract — semantically
/// what on_block batches). Neither rewinds the source, resets accounting
/// nor calls on_run_end: the caller owns pass structure.
PassTotals replay_pass(policy::HybridPolicy& policy, trace::BlockSource& source,
                       obs::RunObserver* observer = nullptr);

/// Replays `source` through `policy` and packages the run. `duration_s` is
/// the workload's ROI wall time (Eq. 3 static proration).
///
/// `warmup_passes` replay passes run first, each followed by a rewind and an
/// accounting reset, so the measured pass reflects the steady state (the
/// paper sizes inputs "to minimize the effect of starting from cold
/// memory"); multi-pass replay therefore needs a rewindable source, while
/// `warmup_passes == 0` is one forward pass and works on non-seekable
/// streams too. The source decides the ingest path — a materialized trace
/// (TraceBlockSource) or the chunked stream format (StreamBlockSource) —
/// and results are byte-identical either way.
///
/// `observer` (optional) sees every *measured* access (never warmup) plus
/// one on_run_end().
///
/// Throws std::invalid_argument when the source yields no accesses — bad
/// input, not a logic error, so the sweep runner reports it as a per-job
/// failure.
RunResult run_blocks(policy::HybridPolicy& policy, trace::BlockSource& source,
                     double duration_s, unsigned warmup_passes = 0,
                     obs::RunObserver* observer = nullptr);

}  // namespace hymem::sim
