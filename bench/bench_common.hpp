// Shared plumbing for the figure-reproduction harnesses.
//
// Every harness accepts:
//   --scale N   divide each workload's Table III access counts (and working
//               set, keeping all ratios) by N. Default 64: the full suite
//               runs in seconds with the same shapes as scale 1.
//   --seed S    generator seed (default 42).
//   --jobs N    worker threads for grid-shaped harnesses (default: the
//               hardware concurrency). 1 = serial reference path. Results
//               are byte-identical for every N.
//   --csv       additionally dump the table as CSV to stdout.
//   --timeline PATH
//               sample an epoch time-series during every measured run and
//               write the spliced per-job timeline CSV to PATH (grid-shaped
//               harnesses; see src/obs/). Off by default: the replay loop
//               stays uninstrumented.
//   --epoch N   timeline epoch length in accesses (default 1024; only
//               meaningful with --timeline).
//   --shards K  partitioned shards inside each single run (default 1 =
//               serial). K > 1 hash-splits pages across K policy instances
//               with proportional budgets: deterministic per K, but an
//               approximation of the global policy.
//
// Unknown flags are rejected: every harness parses through util::cli and
// errors out listing the full flag set, so a typo ("--job 4") fails loudly
// instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/sharded.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/reporter.hpp"
#include "synth/workload_profile.hpp"
#include "util/cli.hpp"

namespace hymem::bench {

struct BenchContext {
  std::uint64_t scale = 64;
  std::uint64_t seed = 42;
  bool csv = false;
  unsigned jobs = 1;  ///< Sweep worker threads.
  std::string timeline;  ///< --timeline PATH; empty = sampling off.
  std::uint64_t timeline_epoch = 1024;  ///< --epoch N.
  unsigned shards = 1;  ///< --shards K inside each run.
};

/// The flags every harness accepts, with one-line help.
inline const std::vector<std::pair<std::string, std::string>>&
common_flag_help() {
  static const std::vector<std::pair<std::string, std::string>> help = {
      {"scale", "divide Table III access counts by N (default harness-set)"},
      {"seed", "generator seed (default 42)"},
      {"jobs", "sweep worker threads (default: hardware concurrency)"},
      {"csv", "also dump the table as CSV to stdout"},
      {"timeline", "write the spliced epoch time-series CSV to PATH"},
      {"epoch", "timeline epoch length in accesses (default 1024)"},
      {"shards", "partitioned shards inside each run (default 1 = serial)"},
  };
  return help;
}

/// Prints `message` and the full flag list, then exits 2 (the usage error
/// of every harness: unknown flags and malformed values alike).
[[noreturn]] inline void usage_error(
    const CliArgs& args, const std::string& message,
    const std::vector<std::string>& extra_flags) {
  std::cerr << args.program() << ": " << message;
  std::cerr << "\n\nAccepted flags:\n";
  for (const auto& [flag, help] : common_flag_help()) {
    std::cerr << "  --" << flag << "  " << help << "\n";
  }
  for (const std::string& flag : extra_flags) {
    std::cerr << "  --" << flag << "  (harness-specific)\n";
  }
  std::exit(2);
}

/// Exits with the full flag list when argv contains a flag outside the
/// common set plus `extra_flags` (harness-specific additions like --json).
inline void reject_unknown_flags(const CliArgs& args,
                                 const std::vector<std::string>& extra_flags) {
  std::string unknown;
  for (const std::string& name : args.flag_names()) {
    bool known = false;
    for (const auto& [flag, help] : common_flag_help()) {
      if (name == flag) known = true;
    }
    for (const std::string& flag : extra_flags) {
      if (name == flag) known = true;
    }
    if (!known) unknown += " --" + name;
  }
  if (!unknown.empty()) usage_error(args, "unknown flag" + unknown, extra_flags);
}

inline BenchContext parse_args(
    int argc, char** argv, std::uint64_t default_scale = 64,
    const std::vector<std::string>& extra_flags = {}) {
  const CliArgs args(argc, argv);
  reject_unknown_flags(args, extra_flags);
  BenchContext ctx;
  try {
    ctx.scale = args.get_uint("scale", default_scale);
    ctx.seed = args.get_uint("seed", 42);
    ctx.csv = args.get_bool("csv", false);
    ctx.jobs = static_cast<unsigned>(
        args.get_uint("jobs", runner::ThreadPool::default_threads()));
    ctx.timeline = args.get("timeline");
    ctx.timeline_epoch = args.get_uint("epoch", 1024);
    ctx.shards = static_cast<unsigned>(args.get_uint("shards", 1));
  } catch (const std::invalid_argument& e) {
    usage_error(args, e.what(), extra_flags);
  }
  if (ctx.scale == 0) usage_error(args, "--scale must be positive", extra_flags);
  return ctx;
}

/// Turns on epoch sampling in every grid cell when the harness was run with
/// --timeline, and threads the shard count through every variant.
/// Materializes the implicit default variant so the overrides have a config
/// to land on.
inline void apply_overrides(runner::SweepSpec& spec, const BenchContext& ctx) {
  if (spec.variants.empty()) spec.variants.emplace_back();
  for (auto& variant : spec.variants) {
    if (!ctx.timeline.empty()) {
      variant.config.timeline_epoch = ctx.timeline_epoch;
    }
    variant.config.shards = ctx.shards;
  }
}

/// Writes the sweep's spliced timeline CSV to ctx.timeline (no-op when the
/// flag was absent). Row count goes to stderr, keeping stdout deterministic.
inline void maybe_write_timeline(const runner::SweepResults& sweep,
                                 const BenchContext& ctx) {
  if (ctx.timeline.empty()) return;
  std::ofstream out(ctx.timeline, std::ios::binary);
  if (!out) {
    std::cerr << "cannot open --timeline path: " << ctx.timeline << "\n";
    return;
  }
  const std::size_t rows = sweep.write_timeline_csv(out);
  std::cerr << "timeline: " << rows << " epoch rows (epoch "
            << ctx.timeline_epoch << ") -> " << ctx.timeline << "\n";
}

inline void print_header(const std::string& title, const BenchContext& ctx) {
  std::cout << "### " << title << "\n";
  std::cout << "(scale 1/" << ctx.scale << ", seed " << ctx.seed
            << "; workload shapes are scale-stable)\n\n";
  sim::print_memory_characteristics(std::cout, mem::dram_table4(),
                                    mem::pcm_table4());
  std::cout << '\n';
}

/// Runs one (workload, policy) experiment at the bench's scale.
inline sim::RunResult run(const synth::WorkloadProfile& profile,
                          const std::string& policy, const BenchContext& ctx,
                          sim::ExperimentConfig config = {}) {
  config.policy = policy;
  config.shards = ctx.shards;
  return runner::run_workload_dispatch(profile, ctx.scale, config, ctx.seed);
}

/// Runs a (workload × policy × variant) grid through the sweep runner on
/// `ctx.jobs` workers, with progress on stderr. SeedMode::kShared replays
/// the same per-workload trace under every policy/variant — identical
/// numbers to the historical serial loops, just fanned out.
inline runner::SweepResults run_grid(
    std::vector<synth::WorkloadProfile> workloads,
    std::vector<std::string> policies, const BenchContext& ctx,
    std::vector<runner::ConfigVariant> variants = {},
    runner::SeedMode seed_mode = runner::SeedMode::kShared) {
  runner::SweepSpec spec;
  spec.workloads = std::move(workloads);
  spec.policies = std::move(policies);
  spec.variants = std::move(variants);
  spec.scale = ctx.scale;
  spec.base_seed = ctx.seed;
  spec.seed_mode = seed_mode;
  apply_overrides(spec, ctx);
  runner::SweepOptions options;
  options.jobs = ctx.jobs;
  options.progress = runner::stderr_progress();
  auto sweep = runner::run_sweep(spec, options);
  sweep.write_failures(std::cerr);
  maybe_write_timeline(sweep, ctx);
  return sweep;
}

}  // namespace hymem::bench
