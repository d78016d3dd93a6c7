#include "sim/engine.hpp"

#include <stdexcept>

namespace hymem::sim {

namespace {
/// How many accesses ahead the instrumented loop warms policy cache lines.
/// The decoded block makes the future known; ~8 accesses (a few hundred
/// nanoseconds of policy work) is enough to cover a memory round-trip
/// without evicting lines before they are used.
constexpr std::size_t kReplayPrefetchDistance = 8;
}  // namespace

PassTotals replay_pass(policy::HybridPolicy& policy, trace::BlockSource& source,
                       obs::RunObserver* observer) {
  PassTotals totals;
  if (observer == nullptr) {
    while (const trace::DecodedBlock* block = source.next()) {
      totals.visible_latency_ns += policy.on_block(*block);
      totals.accesses += block->size;
    }
    return totals;
  }
  // Separate instrumented loop so the uninstrumented path carries no
  // per-access observer branch at all.
  while (const trace::DecodedBlock* block = source.next()) {
    for (std::size_t i = 0; i < block->size; ++i) {
      if (i + kReplayPrefetchDistance < block->size) {
        policy.prefetch(block->pages[i + kReplayPrefetchDistance]);
      }
      const Nanoseconds latency =
          policy.on_access(block->pages[i], block->types[i]);
      totals.visible_latency_ns += latency;
      observer->on_access(block->pages[i], block->types[i], latency);
    }
    totals.accesses += block->size;
  }
  return totals;
}

RunResult run_blocks(policy::HybridPolicy& policy, trace::BlockSource& source,
                     double duration_s, unsigned warmup_passes,
                     obs::RunObserver* observer) {
  os::Vmm& vmm = policy.vmm();
  for (unsigned pass = 0; pass < warmup_passes; ++pass) {
    replay_pass(policy, source);
    source.rewind();
    vmm.reset_accounting();
  }
  const PassTotals measured = replay_pass(policy, source, observer);
  if (measured.accesses == 0) {
    throw std::invalid_argument("empty trace: \"" + source.name() +
                                "\" has no accesses to replay");
  }
  if (observer != nullptr) observer->on_run_end();
  RunResult result;
  result.policy = std::string(policy.name());
  result.workload = source.name();
  result.duration_s = duration_s;
  result.accesses = measured.accesses;
  result.visible_latency_ns = measured.visible_latency_ns;
  result.counts = model::EventCounts::from_vmm(vmm, result.accesses);
  result.params = model::ModelParams::from_vmm(vmm);
  return result;
}

}  // namespace hymem::sim
