#include "runner/prescreen.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "runner/trace_share.hpp"
#include "sim/experiment.hpp"

namespace hymem::runner {

PrescreenResults run_prescreened_sweep(const SweepSpec& spec,
                                       const PrescreenOptions& options) {
  auto grid = expand_grid(spec);
  PrescreenResults out;
  out.sweep.jobs.resize(grid.size());
  out.screen.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.sweep.jobs[i].job = std::move(grid[i]);
    out.screen[i].index = i;
  }

  // One characterization per distinct generator key (the trace share's
  // key): the reuse-distance profile does not depend on the policy or
  // sizing knobs, so a whole policy/variant grid shares one O(n log n) pass.
  // characterize_workload frees its trace pair before returning, so this
  // phase holds one pair at a time.
  std::map<TraceKey, sim::AnalyticWorkload> characterized;
  const auto characterize = [&](const SweepJob& job)
      -> const sim::AnalyticWorkload& {
    const TraceKey key = trace_key(job, spec.scale);
    auto it = characterized.find(key);
    if (it == characterized.end()) {
      it = characterized
               .emplace(key, sim::characterize_workload(
                                 job.workload, spec.scale, job.config,
                                 job.seed))
               .first;
    }
    return it->second;
  };

  // Ranking pass: estimate every supported cell, order by (predicted AMAT,
  // grid index). The tie-break on grid index keeps the selected set a pure
  // function of the spec — independent of worker count or timing.
  std::vector<std::size_t> supported;
  for (std::size_t i = 0; i < out.sweep.jobs.size(); ++i) {
    const SweepJob& job = out.sweep.jobs[i].job;
    ScreenedJob& screen = out.screen[i];
    if (!sim::analytic_supported(job.config)) continue;
    const sim::AnalyticWorkload& workload = characterize(job);
    const auto t0 = std::chrono::steady_clock::now();
    screen.estimate = sim::analytic_estimate(workload, job.config);
    out.analytic_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ++out.analytic_evals;
    screen.analytic = true;
    screen.predicted_amat_ns = screen.estimate.amat.total();
    supported.push_back(i);
  }
  std::sort(supported.begin(), supported.end(),
            [&](std::size_t a, std::size_t b) {
              const double sa = out.screen[a].predicted_amat_ns;
              const double sb = out.screen[b].predicted_amat_ns;
              return sa != sb ? sa < sb : a < b;
            });

  const std::size_t keep =
      options.refine_top == 0
          ? supported.size()
          : std::min(options.refine_top, supported.size());
  for (std::size_t rank = 0; rank < keep; ++rank) {
    out.screen[supported[rank]].selected = true;
  }
  // Unsupported cells have no prediction to stand on: always simulate.
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < out.sweep.jobs.size(); ++i) {
    if (!out.screen[i].analytic) out.screen[i].selected = true;
    if (out.screen[i].selected) {
      selected.push_back(i);
    } else {
      out.sweep.jobs[i].skipped = true;
    }
  }
  out.simulated = selected.size();

  execute_jobs(out.sweep, spec.scale, selected, options.run);
  return out;
}

}  // namespace hymem::runner
