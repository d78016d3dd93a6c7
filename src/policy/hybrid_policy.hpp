// Hybrid-memory management policy interface.
//
// A HybridPolicy handles each main-memory request end-to-end by deciding
// placement, migration and eviction, and executing those decisions through
// the VMM's primitives (which do all the accounting). Every policy is costed
// by the same mechanism layer, so comparisons are apples-to-apples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "os/vmm.hpp"
#include "trace/access.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace hymem::policy {

/// Base class of all hybrid-memory policies (and the single-module
/// baselines, which simply leave one module empty).
class HybridPolicy {
 public:
  explicit HybridPolicy(os::Vmm& vmm) : vmm_(vmm) {}
  virtual ~HybridPolicy() = default;
  HybridPolicy(const HybridPolicy&) = delete;
  HybridPolicy& operator=(const HybridPolicy&) = delete;

  virtual std::string_view name() const = 0;

  /// Serves one request; returns the latency visible to the requester
  /// (device hit latency, or disk latency plus any synchronous migrations).
  virtual Nanoseconds on_access(PageId page, AccessType type) = 0;

  /// Hints that `page` will be accessed shortly: warms the cache lines the
  /// policy's on_access will probe (page table, membership indexes). Replay
  /// loops call this a fixed distance ahead of on_access; it must have no
  /// architectural effect.
  virtual void prefetch(PageId page) const { vmm_.prefetch_translation(page); }

  /// Serves a decoded block of accesses and returns the summed visible
  /// latency. Semantically identical to calling on_access in sequence — the
  /// block engine's differential gate holds every override to that contract
  /// — but a policy may override it to batch the work: hoist per-access
  /// dispatch, reuse the memoized hashes, and keep its inner loop free of
  /// virtual calls. The default is the reference replay loop (prefetch a
  /// fixed distance ahead, then serve).
  virtual Nanoseconds on_block(const trace::DecodedBlock& block) {
    constexpr std::size_t kPrefetchDistance = 8;
    Nanoseconds total = 0;
    for (std::size_t i = 0; i < block.size; ++i) {
      if (i + kPrefetchDistance < block.size) {
        prefetch(block.pages[i + kPrefetchDistance]);
      }
      total += on_access(block.pages[i], block.types[i]);
    }
    return total;
  }

  os::Vmm& vmm() { return vmm_; }
  const os::Vmm& vmm() const { return vmm_; }

 protected:
  os::Vmm& vmm_;
};

}  // namespace hymem::policy
