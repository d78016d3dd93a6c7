// Read-only trace share for one execute_jobs call.
//
// A job's traces are a pure function of its generator key: the full
// workload profile, the scale divisor, the seed, the page size and the line
// size. Policies and config variants replay whatever traces their key
// yields, so under SeedMode::kShared the eight policies of a Table III
// workload replay one pair. The share generates each distinct key once, on
// the first job that needs it (std::call_once), hands every job of that key
// the same const sim::WorkloadTraces, and frees the pair when the key's last
// job releases it.
//
// Memory: dispatch_order() groups each key's jobs contiguously (the
// identity on a workload-major grid), so on a FIFO pool an entry is live
// only while one of its jobs is running or is next in the queue: at most
// `workers` pairs at once. The share never outlives its execute_jobs call.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {

/// Everything sim::generate_workload's output depends on.
struct TraceKey {
  synth::WorkloadProfile profile;
  std::uint64_t scale = 0;
  std::uint64_t seed = 0;
  std::uint64_t page_size = 0;
  std::uint64_t line_size = 0;  ///< config.access_granularity.

  bool operator==(const TraceKey&) const = default;
  auto operator<=>(const TraceKey&) const = default;
};

/// The generator key of `job` in a sweep at `scale`.
TraceKey trace_key(const SweepJob& job, std::uint64_t scale);

class TraceShare {
 public:
  /// One entry per distinct trace_key among jobs[i] for i in `indices`.
  /// `jobs` must outlive the share.
  TraceShare(const std::vector<JobResult>& jobs, std::uint64_t scale,
             const std::vector<std::size_t>& indices);

  TraceShare(const TraceShare&) = delete;
  TraceShare& operator=(const TraceShare&) = delete;

  /// `indices` with each entry's jobs contiguous, entries in order of first
  /// appearance, grid order within an entry.
  std::vector<std::size_t> dispatch_order() const;

  /// Job `index`'s traces. The entry's first caller generates them; a
  /// generation that throws is rethrown to every job of the entry.
  const sim::WorkloadTraces& acquire(std::size_t index);

  /// Marks job `index` finished (call exactly once per job, after acquire,
  /// whether or not it threw). The entry's last release frees its traces.
  void release(std::size_t index);

  TraceShareStats stats() const;

 private:
  struct Entry {
    const SweepJob* job = nullptr;  ///< First job: generates the entry.
    std::size_t rank = 0;           ///< Order of first appearance.
    std::atomic<std::size_t> pending{0};  ///< Jobs not yet released.
    std::once_flag generated;
    std::optional<sim::WorkloadTraces> traces;
    std::exception_ptr error;
  };

  std::uint64_t scale_;
  std::vector<std::size_t> indices_;
  std::map<TraceKey, Entry> entries_;
  std::vector<Entry*> entry_of_;  ///< By grid index; null when not run.
  std::atomic<std::size_t> generations_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_live_{0};
};

}  // namespace hymem::runner
