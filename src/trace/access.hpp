// The unit record of every hymem pipeline: one main-memory request.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

namespace hymem::trace {

/// One memory request as seen below the last-level cache.
///
/// `addr` is a byte address; the simulation layers derive the page from it.
/// `core` identifies the issuing core (used by the cache-hierarchy substrate
/// and ignored by the memory policies, which are core-agnostic like the
/// paper's OS-level scheme).
struct MemAccess {
  Addr addr = 0;
  AccessType type = AccessType::kRead;
  std::uint8_t core = 0;

  friend bool operator==(const MemAccess&, const MemAccess&) = default;
};

/// One decoded block of replay work, the unit a BlockSource produces and a
/// policy's on_block consumes: parallel arrays of page IDs, access types and
/// memoized hash_page_id(pages[i]) — the decode stage runs the mixer once
/// per access so the policy's map probes never rerun it. Views into
/// producer-owned storage, valid until the producer's next next()/rewind().
struct DecodedBlock {
  const PageId* pages = nullptr;
  const AccessType* types = nullptr;
  const std::uint64_t* hashes = nullptr;
  std::size_t size = 0;
};

/// Page containing an address for a power-of-two page size.
constexpr PageId page_of(Addr addr, std::uint64_t page_size) {
  return addr / page_size;
}

}  // namespace hymem::trace
