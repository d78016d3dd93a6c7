// Analytic prescreen: rank a sweep grid with the closed-form estimator
// (model/analytic) and dispatch only the most promising cells to full
// simulation — the fast path that makes exhaustive Table III-style config
// searches affordable.
//
// Flow: expand the grid exactly like run_sweep, characterize each distinct
// generator key (runner/trace_share's TraceKey: full profile, scale, seed,
// page and line size) once (one O(n log n) reuse-distance pass),
// estimate every analytic-supported cell in-process (thousands of cells per
// second), rank by predicted Eq. 1 AMAT, and simulate the union of
//   * the top `refine_top` supported cells (all of them when refine_top is
//     0 or >= the supported count), and
//   * every unsupported cell (adaptive thresholds, sampled policies, the
//     non-two-LRU hybrids — the estimator's contract in analytic_supported).
// Everything else is marked `skipped` in its result slot: same grid order,
// same CSV/JSON columns, blank metrics.
//
// Determinism contract (CI-gated like run_sweep's): ranking happens
// in-process before any job is dispatched, ordered by (predicted AMAT, grid
// index) — so the selected set, the result slots and every exported byte are
// identical for any --jobs value.
#pragma once

#include <cstddef>
#include <vector>

#include "model/analytic.hpp"
#include "runner/sweep.hpp"

namespace hymem::runner {

/// Per-cell outcome of the analytic ranking pass (grid order).
struct ScreenedJob {
  std::size_t index = 0;    ///< Grid index (mirrors SweepJob::index).
  bool analytic = false;    ///< Estimator supports this cell.
  bool selected = false;    ///< Dispatched to full simulation.
  /// Valid when `analytic`: the prediction and the ranking score.
  model::AnalyticEstimate estimate;
  double predicted_amat_ns = 0.0;
};

struct PrescreenOptions {
  /// Simulate only the best `refine_top` supported cells (plus every
  /// unsupported cell). 0 = simulate everything, i.e. a plain sweep with
  /// the analytic predictions attached.
  std::size_t refine_top = 0;
  /// Executor knobs for the simulation phase (workers, progress).
  SweepOptions run;
};

struct PrescreenResults {
  /// All grid slots: simulated cells carry results, pruned cells are
  /// `skipped`. The CSV/JSON/timeline writers splice exactly as for a full
  /// sweep.
  SweepResults sweep;
  /// The analytic pass, grid order (one entry per grid cell).
  std::vector<ScreenedJob> screen;
  std::size_t analytic_evals = 0;   ///< Estimates computed.
  double analytic_seconds = 0.0;    ///< Wall time of the estimates alone.
  std::size_t simulated = 0;        ///< Cells dispatched to simulation.

  /// Estimates per second over the ranking pass (characterization excluded).
  double analytic_evals_per_second() const {
    return analytic_seconds > 0.0
               ? static_cast<double>(analytic_evals) / analytic_seconds
               : 0.0;
  }
};

/// Expands `spec`, ranks it analytically and simulates the selected subset.
/// Never throws for job-level failures (same contract as run_sweep).
PrescreenResults run_prescreened_sweep(const SweepSpec& spec,
                                       const PrescreenOptions& options = {});

}  // namespace hymem::runner
