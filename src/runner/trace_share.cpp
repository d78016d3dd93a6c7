#include "runner/trace_share.hpp"

#include <algorithm>

namespace hymem::runner {

TraceKey trace_key(const SweepJob& job, std::uint64_t scale) {
  return TraceKey{job.workload, scale, job.seed, job.config.page_size,
                  job.config.access_granularity};
}

TraceShare::TraceShare(const std::vector<JobResult>& jobs,
                       std::uint64_t scale,
                       const std::vector<std::size_t>& indices)
    : scale_(scale), indices_(indices), entry_of_(jobs.size(), nullptr) {
  for (const std::size_t i : indices) {
    const SweepJob& job = jobs[i].job;
    const auto [it, inserted] = entries_.try_emplace(trace_key(job, scale));
    Entry& entry = it->second;
    if (inserted) {
      entry.job = &job;
      entry.rank = entries_.size() - 1;
    }
    ++entry.pending;
    entry_of_[i] = &entry;
  }
}

std::vector<std::size_t> TraceShare::dispatch_order() const {
  std::vector<std::size_t> order = indices_;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return entry_of_[a]->rank < entry_of_[b]->rank;
                   });
  return order;
}

const sim::WorkloadTraces& TraceShare::acquire(std::size_t index) {
  Entry& entry = *entry_of_[index];
  std::call_once(entry.generated, [&] {
    ++generations_;
    try {
      entry.traces.emplace(sim::generate_workload(
          entry.job->workload, scale_, entry.job->config, entry.job->seed));
    } catch (...) {
      entry.error = std::current_exception();
      return;
    }
    const std::size_t live = ++live_;
    std::size_t peak = peak_live_.load();
    while (live > peak && !peak_live_.compare_exchange_weak(peak, live)) {
    }
  });
  if (entry.error != nullptr) std::rethrow_exception(entry.error);
  return *entry.traces;
}

void TraceShare::release(std::size_t index) {
  Entry& entry = *entry_of_[index];
  // acq_rel: every other job's reads of the traces happen before their own
  // decrement, so the last decrement may free them.
  if (entry.pending.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      entry.traces.has_value()) {
    entry.traces.reset();
    --live_;
  }
}

TraceShareStats TraceShare::stats() const {
  return TraceShareStats{generations_.load(), peak_live_.load()};
}

}  // namespace hymem::runner
