// Stream-parity harness: the block replay engine vs a per-access reference.
//
// The engine (sim::run_blocks over a BlockSource) promises byte-identical
// results to the plain one-access-at-a-time loop — page_of, then the
// policy's on_access, per access — for every ingest mode: bounded-decode
// blocks of any size over a materialized trace, and the O(block)
// double-buffered stream of the HYTS format with readahead on or off.
// run_stream_parity() pins that promise the same way the differential
// harness pins the oracle: replay one trace through every mode and diff
// the complete serialized RunResult (counts, latencies, derived Eq. 1/2/3
// metrics) against the reference.
//
// run_stream_parity_case() wraps it for fuzzing: the trace and memory shape
// derive from a seed through the same check/fuzzer scenarios that feed the
// differential harness, so the hostile shapes (thrash loops, write bursts,
// capacity-1 modules) exercise the streaming seam too.
#pragma once

#include <cstdint>
#include <string>

#include "check/fuzzer.hpp"
#include "policy/hybrid_policy.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace hymem::check {

/// Outcome of one parity sweep over every ingest mode.
struct StreamParityResult {
  std::uint64_t accesses = 0;
  /// Name of the first diverging mode plus the field-level diff context;
  /// empty when every mode reproduced the reference bytes.
  std::string divergence;

  bool ok() const { return divergence.empty(); }
};

/// The reference replay: `warmup_passes` uncounted passes (each followed by
/// an accounting reset), then one measured pass, each a plain loop of
/// on_access over page_of(addr) — no blocks, no memoized hashes, no
/// batching. Packages the result exactly as sim::run_blocks does.
sim::RunResult replay_per_access(policy::HybridPolicy& policy,
                                 const trace::Trace& trace, double duration_s,
                                 unsigned warmup_passes = 0);

/// Replays `fc.trace` on `fc`'s memory shape through the reference loop
/// and through each block/stream ingest mode with `block_accesses`-sized
/// blocks, diffing full serialized results.
StreamParityResult run_stream_parity(const FuzzCase& fc,
                                     std::size_t block_accesses);

/// One fuzz iteration: derive the scenario for `seed`, sweep every mode.
/// The block size also derives from the seed (1 to ~accesses, covering the
/// degenerate one-access blocks and the whole-trace block).
StreamParityResult run_stream_parity_case(std::uint64_t seed,
                                          std::size_t accesses);

}  // namespace hymem::check
