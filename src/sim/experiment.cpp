#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/migration_scheme.hpp"
#include "obs/epoch.hpp"
#include "obs/tap.hpp"
#include "sample/sampled_policy.hpp"
#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"
#include "trace/block_source.hpp"
#include "trace/trace_stats.hpp"
#include "util/check.hpp"

namespace hymem::sim {

MemorySizing size_memory(std::uint64_t footprint_pages,
                         const ExperimentConfig& config) {
  // Bad input (an empty workload), not a logic error: throw something the
  // sweep runner can catch into a structured per-job failure.
  if (footprint_pages == 0) {
    throw std::invalid_argument(
        "empty footprint: workload touches no pages, cannot size memory");
  }
  HYMEM_CHECK(config.memory_fraction > 0.0 && config.memory_fraction <= 1.0);
  HYMEM_CHECK(config.dram_fraction >= 0.0 && config.dram_fraction <= 1.0);
  MemorySizing s;
  s.total_frames = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::llround(
             config.memory_fraction * static_cast<double>(footprint_pages))));
  if (is_single_tier(config.policy)) {
    const bool dram = config.policy.rfind("dram-only", 0) == 0;
    s.dram_frames = dram ? s.total_frames : 0;
    s.nvm_frames = dram ? 0 : s.total_frames;
    return s;
  }
  s.dram_frames = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(
          config.dram_fraction * static_cast<double>(s.total_frames))),
      1, s.total_frames - 1);
  s.nvm_frames = s.total_frames - s.dram_frames;
  return s;
}

namespace {

os::VmmConfig vmm_config_for(const MemorySizing& sizing,
                             const ExperimentConfig& config) {
  os::VmmConfig vmm_config;
  vmm_config.dram_frames = sizing.dram_frames;
  vmm_config.nvm_frames = sizing.nvm_frames;
  vmm_config.page_size = config.page_size;
  vmm_config.access_granularity = config.access_granularity;
  vmm_config.dram = config.dram;
  vmm_config.nvm = config.nvm;
  vmm_config.disk = config.disk;
  vmm_config.transfer_mode = config.transfer_mode;
  vmm_config.wear_leveling = config.wear_leveling;
  return vmm_config;
}

std::uint64_t footprint_of(const trace::Trace& trace,
                           const ExperimentConfig& config) {
  trace::TraceCharacterizer characterizer(config.page_size);
  characterizer.observe(trace);
  return characterizer.stats().distinct_pages;
}

// Serializes an observer's per-access VMM reads against a live background
// migrator through the policy's quiesced() seam. Used around the epoch
// sampler in threaded sampled runs — its boundary snapshots read VMM
// ledgers the migrator mutates. on_run_end forwards unwrapped: the tee
// delivers it to the tap first, whose run-end hook joins the migrator
// before the sampler's final flush runs.
class QuiescedObserver final : public obs::RunObserver {
 public:
  QuiescedObserver(const sample::SampledLruPolicy& policy,
                   obs::RunObserver& inner)
      : policy_(policy), inner_(inner) {}

  void on_access(PageId page, AccessType type, Nanoseconds latency) override {
    policy_.quiesced([&] { inner_.on_access(page, type, latency); });
  }
  void on_run_end() override { inner_.on_run_end(); }

 private:
  const sample::SampledLruPolicy& policy_;
  obs::RunObserver& inner_;
};

// Measured pass with the observers the run needs on the engine's single
// seam: the sampling tap (always, for sampled policies — without it the
// policy never migrates), plus an EpochSampler when the config asks for a
// timeline, chained through a TeeObserver (tap first, so epoch-boundary
// snapshots see the boundary access's sample).
RunResult measured_run(policy::HybridPolicy& policy, const trace::Trace& trace,
                       double duration_s, unsigned warmup_passes,
                       const ExperimentConfig& config) {
  trace::TraceBlockSource source(trace, config.page_size);
  auto* sampled = dynamic_cast<sample::SampledLruPolicy*>(&policy);
  obs::RunObserver* tap = sampled != nullptr ? &sampled->tap() : nullptr;

  const auto finish = [sampled](RunResult result) {
    if (sampled != nullptr) {
      // Threaded runs: quiesce the migrator so the stats are final and the
      // structures are safe to read without locking.
      sampled->stop_background();
      result.sampled = sampled->sampled_stats();
      result.has_sampled = true;
    }
    return result;
  };

  if (config.timeline_epoch == 0) {
    return finish(run_blocks(policy, source, duration_s, warmup_passes, tap));
  }
  // The sampler reads scheme internals (windows, thresholds) only when the
  // policy actually is the two-LRU scheme; single-tier baselines still get
  // the VMM-level columns.
  const auto* scheme =
      dynamic_cast<const core::TwoLruMigrationPolicy*>(&policy);
  obs::EpochSampler sampler(config.timeline_epoch, policy.vmm(), scheme,
                            duration_s, sampled);
  std::optional<QuiescedObserver> locked_sampler;
  obs::RunObserver* epoch_observer = &sampler;
  if (sampled != nullptr && sampled->config().threaded) {
    locked_sampler.emplace(*sampled, sampler);
    epoch_observer = &*locked_sampler;
  }
  std::optional<obs::TeeObserver> tee;
  obs::RunObserver* observer = epoch_observer;
  if (tap != nullptr) {
    tee.emplace(*tap, *epoch_observer);
    observer = &*tee;
  }
  RunResult result =
      run_blocks(policy, source, duration_s, warmup_passes, observer);
  result.timeline = sampler.take_timeline();
  return finish(result);
}

}  // namespace

RunResult run_experiment(const trace::Trace& trace, double duration_s,
                         const ExperimentConfig& config) {
  const MemorySizing sizing = size_memory(footprint_of(trace, config), config);
  os::Vmm vmm(vmm_config_for(sizing, config));
  const auto policy =
      make_policy(config.policy, vmm, config.migration, config.sample);
  // Note: run_blocks's warmup passes bypass the observer seam, so on this
  // single-trace path a sampled policy warms up placement (demand faults)
  // but not hotness. The two-trace variant below warms both.
  return measured_run(*policy, trace, duration_s, config.warmup_passes, config);
}

RunResult run_experiment(const trace::Trace& warmup,
                         const trace::Trace& measured, double duration_s,
                         const ExperimentConfig& config) {
  const MemorySizing sizing = size_memory(footprint_of(warmup, config), config);
  os::Vmm vmm(vmm_config_for(sizing, config));
  const auto policy =
      make_policy(config.policy, vmm, config.migration, config.sample);
  // Sampled policies learn hotness through their tap, which normally rides
  // the measured pass's observer seam; the warmup passes hand it to
  // replay_pass too, so the measured pass starts from a warmed hotness
  // board, not just warmed placement.
  auto* sampled_policy = dynamic_cast<sample::SampledLruPolicy*>(policy.get());
  obs::RunObserver* warm_tap =
      sampled_policy != nullptr ? &sampled_policy->tap() : nullptr;
  {
    trace::TraceBlockSource source(warmup, config.page_size);
    for (unsigned pass = 0; pass < std::max(1u, config.warmup_passes);
         ++pass) {
      if (pass > 0) source.rewind();
      replay_pass(*policy, source, warm_tap);
    }
  }
  // The warmup passes above fed the tap, so a threaded migrator may be
  // mid-migration right now: reset the ledgers under its serving mutex.
  if (sampled_policy != nullptr) {
    sampled_policy->quiesced([&vmm] { vmm.reset_accounting(); });
    sampled_policy->reset_stats();
  } else {
    vmm.reset_accounting();
  }
  return measured_run(*policy, measured, duration_s, /*warmup_passes=*/0,
                      config);
}

bool analytic_supported(const ExperimentConfig& config) {
  if (config.policy == "two-lru") return !config.migration.adaptive;
  // Single-tier baselines: only the (default) LRU replacement matches the
  // stack-distance model.
  return config.policy == "dram-only" || config.policy == "dram-only:lru" ||
         config.policy == "nvm-only" || config.policy == "nvm-only:lru";
}

model::AnalyticConfig analytic_config_for(const ExperimentConfig& config,
                                          const MemorySizing& sizing,
                                          double duration_s) {
  model::AnalyticConfig a;
  a.dram_frames = sizing.dram_frames;
  a.nvm_frames = sizing.nvm_frames;
  a.migration = config.migration;
  a.params.dram = config.dram;
  a.params.nvm = config.nvm;
  a.params.disk_latency_ns = config.disk.access_latency_ns;
  a.params.page_factor = config.page_size / config.access_granularity;
  a.params.dram_bytes = sizing.dram_frames * config.page_size;
  a.params.nvm_bytes = sizing.nvm_frames * config.page_size;
  a.params.transfer_mode = config.transfer_mode;
  a.duration_s = duration_s;
  return a;
}

AnalyticWorkload characterize_workload(const synth::WorkloadProfile& profile,
                                       std::uint64_t scale,
                                       const ExperimentConfig& config,
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

  trace::ReuseDistanceAnalyzer analyzer(config.page_size);
  // One warmup observation suffices for any warmup_passes: repeated passes
  // leave the same final LRU stack order.
  analyzer.observe(warmup);
  AnalyticWorkload w;
  w.footprint_pages = analyzer.distinct_pages();
  analyzer.reset_stats();
  analyzer.observe(measured);
  w.profile = analyzer.profile();
  w.duration_s = scaled.roi_seconds;
  return w;
}

model::AnalyticEstimate analytic_estimate(const AnalyticWorkload& workload,
                                          const ExperimentConfig& config) {
  if (!analytic_supported(config)) {
    throw std::invalid_argument("analytic estimator does not model policy: " +
                                config.policy);
  }
  const MemorySizing sizing = size_memory(workload.footprint_pages, config);
  return model::estimate(
      workload.profile,
      analytic_config_for(config, sizing, workload.duration_s));
}

RunResult run_workload(const synth::WorkloadProfile& profile,
                       std::uint64_t scale, const ExperimentConfig& config,
                       std::uint64_t seed) {
  const synth::WorkloadProfile scaled = profile.scaled(scale);
  synth::GeneratorOptions options;
  options.page_size = config.page_size;
  options.line_size = config.access_granularity;
  options.seed = seed;
  // The warmup trace covers the full Table III footprint (cold start);
  // the measured trace draws from the same distribution without the forced
  // one-time cold touches, so the counted window is steady-state.
  const trace::Trace warmup = synth::generate(scaled, options);
  synth::GeneratorOptions body_options = options;
  body_options.ensure_full_footprint = false;
  body_options.seed = seed + 1;
  const trace::Trace measured = synth::generate(scaled, body_options);
  return run_experiment(warmup, measured, scaled.roi_seconds, config);
}

}  // namespace hymem::sim
