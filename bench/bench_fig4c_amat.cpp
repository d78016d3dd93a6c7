// Figure 4c: AMAT of the proposed scheme normalized to CLOCK-DWF
// (Read/Write Requests vs Migrations stacks).
//
// Expected shape: below 1.0 almost everywhere (paper: up to 70% better,
// ~48% G-Mean), with the migration contribution under 50% in most
// workloads; raytrace and vips tip towards CLOCK-DWF (the paper's
// threshold-sensitivity discussion).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/figure_schemas.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv);
  bench::print_header("Fig. 4c — proposed AMAT normalized to CLOCK-DWF", ctx);

  // One shared-seed grid: both policies of a workload replay one trace pair.
  const std::vector<std::string> policies = {"clock-dwf", "two-lru"};
  const auto profiles = synth::parsec_profiles();
  const auto sweep =
      bench::run_grid({profiles.begin(), profiles.end()}, policies, ctx);
  if (sweep.failures() != 0) return 1;

  sim::FigureTable table = sim::figure_schema("fig4c").make_table();
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const auto amat = [&](std::size_t p) {
      return sweep.jobs[w * policies.size() + p].result.amat();
    };
    const double base = amat(0).total();
    const auto proposed = amat(1);
    table.add(profiles[w].name,
              {sim::Stack{{proposed.request_ns() / base,
                           proposed.migration_ns / base}}});
  }
  table.print(std::cout);
  std::cout << "\nproposed / CLOCK-DWF AMAT (G-Mean): "
            << table.geomean_total(0) << "\n";
  if (ctx.csv) table.print_csv(std::cout);
  return 0;
}
