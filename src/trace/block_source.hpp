// Block sources: the decoded-block ingest layer of the replay engine.
//
// The engine's unit of work is a DecodedBlock (trace/access.hpp) — parallel
// arrays of page IDs, access types and memoized page-ID hashes. A
// BlockSource produces the run's blocks in trace order and can rewind for
// warmup passes; the engine never sees raw byte addresses. Both sources
// decode through one BlockBuffer (page shift + hash mixer) into storage
// reused block after block, so replay memory is O(block) on either path:
//
//   * TraceBlockSource walks a materialized trace and decodes the next
//     window on every next() — no per-access arrays beside the trace.
//   * StreamBlockSource pulls the chunked stream_io format: with readahead
//     on, a producer thread decodes block N+1 while the consumer replays
//     block N (double buffering), for captures too large to materialize.
//
// Both sources emit identical block sequences for the same input, so every
// consumer downstream of this seam is byte-identical across ingest modes —
// the property tests/integration/test_stream_parity.cpp pins.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "trace/access.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace.hpp"
#include "util/flat_page_map.hpp"
#include "util/types.hpp"

namespace hymem::trace {

/// Default block size of both sources: 64 Ki accesses (~1 MiB decoded).
inline constexpr std::size_t kDefaultBlockAccesses = std::size_t{1} << 16;

/// Reused decode storage for one block. decode() writes one slot: the page
/// (a shift for power-of-two page sizes, as PageIdInterner does, otherwise
/// page_of's division), the type and the memoized hash.
class BlockBuffer {
 public:
  BlockBuffer(std::uint64_t page_size, std::size_t capacity);

  std::size_t capacity() const { return pages_.size(); }

  void decode(std::size_t slot, const MemAccess& access) {
    const PageId page =
        shift_ >= 0 ? access.addr >> shift_ : page_of(access.addr, page_size_);
    pages_[slot] = page;
    types_[slot] = access.type;
    hashes_[slot] = util::hash_page_id(page);
  }

  /// The first `size` decoded slots.
  DecodedBlock view(std::size_t size) const {
    return {pages_.data(), types_.data(), hashes_.data(), size};
  }

 private:
  std::uint64_t page_size_;
  int shift_;  ///< log2(page_size_), or -1 when it is not a power of two.
  std::vector<PageId> pages_;
  std::vector<AccessType> types_;
  std::vector<std::uint64_t> hashes_;
};

/// Produces a run's decoded blocks in trace order.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  virtual const std::string& name() const = 0;
  virtual std::uint64_t page_size() const = 0;

  /// Next block of the current pass, or nullptr at the end. The returned
  /// view is valid until the following next()/rewind().
  virtual const DecodedBlock* next() = 0;

  /// Restarts the block sequence from the beginning (warmup passes).
  virtual void rewind() = 0;
};

/// Bounded-decode source over a materialized trace: next() decodes the next
/// `block_accesses`-sized window into one reused BlockBuffer, so the source
/// holds O(block) memory however long the trace is. `trace` must outlive
/// the source.
class TraceBlockSource final : public BlockSource {
 public:
  /// `block_accesses` 0 serves the whole trace as a single block.
  TraceBlockSource(const Trace& trace, std::uint64_t page_size,
                   std::size_t block_accesses = kDefaultBlockAccesses);

  const std::string& name() const override { return name_; }
  std::uint64_t page_size() const override { return page_size_; }
  const DecodedBlock* next() override;
  void rewind() override { cursor_ = 0; }

  std::size_t total_accesses() const { return accesses_.size(); }

 private:
  std::string name_;
  std::uint64_t page_size_;
  std::span<const MemAccess> accesses_;
  BlockBuffer buffer_;
  std::size_t cursor_ = 0;
  DecodedBlock view_;
};

/// Streaming source over the chunked stream_io format: O(block) memory.
///
/// With `readahead` on, a producer thread decodes the next block into the
/// idle half of a double buffer while the consumer replays the other half;
/// next() blocks only when the producer has not finished yet. With it off,
/// next() decodes synchronously — same block sequence, no second thread
/// (the serial reference mode the determinism smokes compare against).
class StreamBlockSource final : public BlockSource {
 public:
  /// `in` must outlive the source; rewind() requires it to be seekable.
  StreamBlockSource(std::istream& in, std::uint64_t page_size,
                    std::size_t block_accesses = kDefaultBlockAccesses,
                    bool readahead = true);
  ~StreamBlockSource() override;

  const std::string& name() const override { return reader_.name(); }
  std::uint64_t page_size() const override { return page_size_; }
  const DecodedBlock* next() override;
  void rewind() override;

 private:
  /// One half of the double buffer.
  struct Buffer {
    BlockBuffer decoded;
    std::size_t size = 0;
    bool filled = false;  ///< Producer wrote it; consumer has not taken it.
    bool eof = false;     ///< No records behind this buffer's contents.
  };

  /// Decodes up to one block from the reader into `buf` (caller owns
  /// synchronization). Sets buf.eof when the stream is exhausted.
  void fill(Buffer& buf);
  void start_producer();
  void stop_producer();
  void producer_loop();

  StreamTraceReader reader_;
  std::uint64_t page_size_;
  bool readahead_;

  Buffer buffers_[2];
  std::size_t consume_index_ = 0;  ///< Next buffer the consumer takes.
  std::size_t produce_index_ = 0;  ///< Next buffer the producer fills.
  int holding_ = -1;               ///< Buffer backing the live view, or -1.
  bool finished_ = false;          ///< All records behind delivered blocks.
  DecodedBlock view_;

  std::thread producer_;
  std::mutex mutex_;
  std::condition_variable filled_cv_;  ///< Signals consumer: buffer ready.
  std::condition_variable free_cv_;    ///< Signals producer: buffer free.
  bool stop_ = false;
  std::exception_ptr producer_error_;
};

}  // namespace hymem::trace
