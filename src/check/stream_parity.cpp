#include "check/stream_parity.hpp"

#include <memory>
#include <sstream>

#include "core/migration_scheme.hpp"
#include "os/vmm.hpp"
#include "sim/results_io.hpp"
#include "trace/block_source.hpp"
#include "trace/stream_io.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace hymem::check {

namespace {

constexpr double kDurationS = 1.0;

/// Fresh policy stack for one replay: every mode starts from cold memory.
struct Stack {
  os::Vmm vmm;
  core::TwoLruMigrationPolicy policy;

  explicit Stack(const FuzzCase& fc)
      : vmm([&fc] {
          os::VmmConfig config;
          config.dram_frames = fc.dram_frames;
          config.nvm_frames = fc.nvm_frames;
          return config;
        }()),
        policy(vmm, fc.migration) {}
};

/// The HYTS serialization of the case's trace (what a capture would ship).
std::string encode_stream(const trace::Trace& trace,
                          std::size_t chunk_records) {
  std::ostringstream bytes;
  trace::StreamTraceWriter writer(bytes, trace.name(), chunk_records);
  for (const auto& access : trace.accesses()) writer.append(access);
  writer.finish();
  return bytes.str();
}

}  // namespace

sim::RunResult replay_per_access(policy::HybridPolicy& policy,
                                 const trace::Trace& trace, double duration_s,
                                 unsigned warmup_passes) {
  os::Vmm& vmm = policy.vmm();
  const std::uint64_t page_size = vmm.config().page_size;
  sim::RunResult result;
  for (unsigned pass = 0; pass <= warmup_passes; ++pass) {
    result.visible_latency_ns = 0;
    for (const trace::MemAccess& access : trace.accesses()) {
      result.visible_latency_ns += policy.on_access(
          trace::page_of(access.addr, page_size), access.type);
    }
    if (pass < warmup_passes) vmm.reset_accounting();
  }
  result.policy = std::string(policy.name());
  result.workload = trace.name();
  result.duration_s = duration_s;
  result.accesses = trace.size();
  result.counts = model::EventCounts::from_vmm(vmm, result.accesses);
  result.params = model::ModelParams::from_vmm(vmm);
  return result;
}

StreamParityResult run_stream_parity(const FuzzCase& fc,
                                     std::size_t block_accesses) {
  HYMEM_CHECK_MSG(!fc.trace.empty(), "stream parity over an empty trace");
  HYMEM_CHECK_MSG(block_accesses > 0, "block size must be positive");
  StreamParityResult out;
  out.accesses = fc.trace.size();

  const std::uint64_t page_size = [&fc] {
    Stack probe(fc);
    return probe.vmm.config().page_size;
  }();

  std::string reference;
  {
    Stack stack(fc);
    reference = sim::to_json(
        replay_per_access(stack.policy, fc.trace, kDurationS));
  }

  const auto diff = [&](const char* mode, const sim::RunResult& result) {
    const std::string got = sim::to_json(result);
    if (got == reference) return true;
    // Name the first differing line so the report points at a field, not
    // just at the mode.
    std::istringstream want_lines(reference);
    std::istringstream got_lines(got);
    std::string want_line;
    std::string got_line;
    while (std::getline(want_lines, want_line) &&
           std::getline(got_lines, got_line)) {
      if (want_line != got_line) break;
    }
    out.divergence = std::string(mode) + ": reference " + want_line +
                     " != " + got_line;
    return false;
  };

  {
    Stack stack(fc);
    trace::TraceBlockSource source(fc.trace, page_size, block_accesses);
    if (!diff("blocks",
              sim::run_blocks(stack.policy, source, kDurationS))) {
      return out;
    }
  }
  const std::string bytes = encode_stream(fc.trace, block_accesses);
  for (const bool readahead : {false, true}) {
    Stack stack(fc);
    std::istringstream in(bytes);
    trace::StreamBlockSource source(in, page_size, block_accesses, readahead);
    if (!diff(readahead ? "stream+readahead" : "stream",
              sim::run_blocks(stack.policy, source, kDurationS))) {
      return out;
    }
  }
  return out;
}

StreamParityResult run_stream_parity_case(std::uint64_t seed,
                                          std::size_t accesses) {
  const FuzzCase fc = make_fuzz_case(seed, accesses);
  // Block size from the seed's own stream: 1 (degenerate per-access blocks)
  // up past the trace length (one whole-trace block).
  std::uint64_t state = seed ^ 0x5741525354524dULL;
  const std::size_t block_accesses =
      1 + static_cast<std::size_t>(splitmix64(state) %
                                   (fc.trace.size() + 7));
  return run_stream_parity(fc, block_accesses);
}

}  // namespace hymem::check
