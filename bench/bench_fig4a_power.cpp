// Figure 4a: power breakdown of CLOCK-DWF (left bar) and the proposed
// scheme (right bar), normalized to DRAM-only power.
//
// Expected shape: the proposed scheme beats CLOCK-DWF on most workloads
// (paper: up to 48% / 14% G-Mean) and cuts total power vs DRAM-only by up
// to ~79% (43% G-Mean); the migration component shrinks by up to ~80%.
// canneal / fluidanimate / streamcluster remain hybrid-hostile; raytrace's
// migration cost exceeds CLOCK-DWF's (its best thresholds differ).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/figure_schemas.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv);
  bench::print_header(
      "Fig. 4a — power of CLOCK-DWF vs proposed, normalized to DRAM-only",
      ctx);

  // One shared-seed grid: every policy of a workload replays one trace pair.
  const std::vector<std::string> policies = {"dram-only", "clock-dwf",
                                             "two-lru"};
  const auto profiles = synth::parsec_profiles();
  const auto sweep =
      bench::run_grid({profiles.begin(), profiles.end()}, policies, ctx);
  if (sweep.failures() != 0) return 1;

  sim::FigureTable table = sim::figure_schema("fig4a").make_table();
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const auto appr = [&](std::size_t p) {
      return sweep.jobs[w * policies.size() + p].result.appr();
    };
    const double base = appr(0).total();
    std::vector<sim::Stack> stacks;
    for (std::size_t p = 1; p < policies.size(); ++p) {
      const auto power = appr(p);
      stacks.push_back(
          sim::Stack{{power.static_nj / base,
                      (power.hit_nj + power.fault_fill_nj) / base,
                      power.migration_nj / base}});
    }
    table.add(profiles[w].name, stacks);
  }
  table.print(std::cout);
  std::cout << "\nproposed / DRAM-only (G-Mean): "
            << table.geomean_total(1)
            << "\nproposed / CLOCK-DWF (G-Mean): "
            << table.geomean_total(1) / table.geomean_total(0) << "\n";
  if (ctx.csv) table.print_csv(std::cout);
  return 0;
}
