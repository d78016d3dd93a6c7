// Figure 4b: physical NVM writes of CLOCK-DWF (left) and the proposed
// scheme (right), broken down by source and normalized to NVM-only.
//
// Expected shape: the proposed scheme slashes NVM writes versus CLOCK-DWF
// (paper: up to 93%) and stays clearly below the NVM-only total (up to 75%,
// ~49% G-Mean reduction); unlike CLOCK-DWF, part of its writes are demand
// writes served by NVM directly (the scheme's deliberate trade-off).
// streamcluster and vips lean slightly towards CLOCK-DWF.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/figure_schemas.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv);
  bench::print_header(
      "Fig. 4b — NVM writes of CLOCK-DWF vs proposed, normalized to NVM-only",
      ctx);

  // One shared-seed grid: every policy of a workload replays one trace pair.
  const std::vector<std::string> policies = {"nvm-only", "clock-dwf",
                                             "two-lru"};
  const auto profiles = synth::parsec_profiles();
  const auto sweep =
      bench::run_grid({profiles.begin(), profiles.end()}, policies, ctx);
  if (sweep.failures() != 0) return 1;

  sim::FigureTable table = sim::figure_schema("fig4b").make_table();
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const auto nvm_writes = [&](std::size_t p) {
      return sweep.jobs[w * policies.size() + p].result.nvm_writes();
    };
    const auto base = static_cast<double>(nvm_writes(0).total());
    std::vector<sim::Stack> stacks;
    for (std::size_t p = 1; p < policies.size(); ++p) {
      const auto writes = nvm_writes(p);
      stacks.push_back(sim::Stack{
          {static_cast<double>(writes.fault_fill_writes) / base,
           static_cast<double>(writes.migration_writes) / base,
           static_cast<double>(writes.demand_writes) / base}});
    }
    table.add(profiles[w].name, stacks);
  }
  table.print(std::cout);
  std::cout << "\nproposed / NVM-only (G-Mean): " << table.geomean_total(1)
            << "\nproposed / CLOCK-DWF (G-Mean): "
            << table.geomean_total(1) / table.geomean_total(0) << "\n";
  if (ctx.csv) table.print_csv(std::cout);
  return 0;
}
