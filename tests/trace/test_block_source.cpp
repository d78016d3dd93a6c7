#include "trace/block_source.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "util/flat_page_map.hpp"
#include "util/random.hpp"

namespace hymem::trace {
namespace {

constexpr std::uint64_t kPage = 4096;

Trace make_trace(std::size_t n, std::uint64_t seed = 7) {
  Trace trace;
  trace.set_name("blocks");
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix64(state);
    trace.append({(r % 97) * kPage + (r % 64),
                  (r >> 32) % 3 == 0 ? AccessType::kWrite : AccessType::kRead,
                  0});
  }
  return trace;
}

/// Flattens a source into (page, type, hash) triples for comparison.
struct Flat {
  std::vector<PageId> pages;
  std::vector<AccessType> types;
  std::vector<std::uint64_t> hashes;
  std::vector<std::size_t> block_sizes;

  bool operator==(const Flat& other) const {
    return pages == other.pages && types == other.types &&
           hashes == other.hashes;
  }
};

Flat drain(BlockSource& source) {
  Flat flat;
  while (const DecodedBlock* block = source.next()) {
    flat.block_sizes.push_back(block->size);
    for (std::size_t i = 0; i < block->size; ++i) {
      flat.pages.push_back(block->pages[i]);
      flat.types.push_back(block->types[i]);
      flat.hashes.push_back(block->hashes[i]);
    }
  }
  return flat;
}

TEST(TraceBlockSource, WindowsCoverTraceInOrder) {
  const auto trace = make_trace(10);
  TraceBlockSource source(trace, kPage, /*block_accesses=*/3);
  EXPECT_EQ(source.name(), "blocks");
  EXPECT_EQ(source.page_size(), kPage);
  EXPECT_EQ(source.total_accesses(), 10u);
  const Flat flat = drain(source);
  EXPECT_EQ(flat.block_sizes, (std::vector<std::size_t>{3, 3, 3, 1}));
  ASSERT_EQ(flat.pages.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(flat.pages[i], page_of(trace[i].addr, kPage)) << i;
    EXPECT_EQ(flat.types[i], trace[i].type) << i;
    EXPECT_EQ(flat.hashes[i], util::hash_page_id(flat.pages[i])) << i;
  }
  EXPECT_EQ(source.next(), nullptr) << "exhaustion is sticky";
}

TEST(TraceBlockSource, ZeroBlockSizeServesWholeTrace) {
  const auto trace = make_trace(23);
  TraceBlockSource source(trace, kPage, /*block_accesses=*/0);
  const Flat flat = drain(source);
  EXPECT_EQ(flat.block_sizes, (std::vector<std::size_t>{23}));
}

TEST(TraceBlockSource, RewindRepeatsSequence) {
  const auto trace = make_trace(17);
  TraceBlockSource source(trace, kPage, 5);
  const Flat first = drain(source);
  source.rewind();
  const Flat second = drain(source);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.block_sizes, second.block_sizes);
}

TEST(TraceBlockSource, SuccessiveBlocksReuseOneBuffer) {
  // Bounded decode: every block is decoded into the same storage, so the
  // source holds one block of memory however long the trace is.
  const auto trace = make_trace(1000);
  TraceBlockSource source(trace, kPage, 64);
  const DecodedBlock* first = source.next();
  ASSERT_NE(first, nullptr);
  const PageId* pages = first->pages;
  const AccessType* types = first->types;
  const std::uint64_t* hashes = first->hashes;
  std::size_t seen = first->size;
  while (const DecodedBlock* block = source.next()) {
    EXPECT_EQ(block->pages, pages);
    EXPECT_EQ(block->types, types);
    EXPECT_EQ(block->hashes, hashes);
    // The reused slots hold this block's accesses, not a stale window.
    EXPECT_EQ(block->pages[0], page_of(trace[seen].addr, kPage)) << seen;
    seen += block->size;
  }
  EXPECT_EQ(seen, trace.size());
  source.rewind();
  EXPECT_EQ(source.next()->pages, pages) << "rewind keeps the buffer";
}

TEST(TraceBlockSource, NonPowerOfTwoPageSizeDecodesByDivision) {
  const auto trace = make_trace(200);
  constexpr std::uint64_t kOddPage = 3000;
  TraceBlockSource source(trace, kOddPage, 7);
  const Flat flat = drain(source);
  ASSERT_EQ(flat.pages.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(flat.pages[i], page_of(trace[i].addr, kOddPage)) << i;
  }
}

TEST(TraceBlockSource, EmptyTraceYieldsNoBlocks) {
  Trace trace;
  trace.set_name("empty");
  TraceBlockSource source(trace, kPage, 4);
  EXPECT_EQ(source.next(), nullptr);
  source.rewind();
  EXPECT_EQ(source.next(), nullptr);
}

std::string encode(const Trace& trace, std::size_t chunk_records) {
  std::ostringstream bytes;
  StreamTraceWriter writer(bytes, trace.name(), chunk_records);
  for (const auto& access : trace.accesses()) writer.append(access);
  writer.finish();
  return bytes.str();
}

TEST(StreamBlockSource, SyncMatchesTraceBlockSource) {
  const auto trace = make_trace(333);
  // Stream chunking and block size deliberately disagree so block
  // boundaries cross chunk boundaries.
  const std::string bytes = encode(trace, /*chunk_records=*/16);
  std::istringstream in(bytes);
  StreamBlockSource streamed(in, kPage, /*block_accesses=*/24,
                             /*readahead=*/false);
  EXPECT_EQ(streamed.name(), "blocks");
  TraceBlockSource cached(trace, kPage, 24);
  EXPECT_TRUE(drain(streamed) == drain(cached));
}

TEST(StreamBlockSource, SyncRewindRepeatsSequence) {
  const auto trace = make_trace(50);
  const std::string bytes = encode(trace, 8);
  std::istringstream in(bytes);
  StreamBlockSource source(in, kPage, 7, /*readahead=*/false);
  const Flat first = drain(source);
  EXPECT_EQ(first.pages.size(), 50u);
  source.rewind();
  const Flat second = drain(source);
  EXPECT_TRUE(first == second);
}

TEST(StreamBlockSource, EmptyStreamYieldsNoBlocks) {
  Trace trace;
  trace.set_name("empty");
  const std::string bytes = encode(trace, 8);
  std::istringstream in(bytes);
  StreamBlockSource source(in, kPage, 4, /*readahead=*/false);
  EXPECT_EQ(source.next(), nullptr);
  EXPECT_EQ(source.next(), nullptr);
}

TEST(StreamBlockSource, SyncTruncationSurfacesReaderError) {
  const auto trace = make_trace(40);
  std::string bytes = encode(trace, 8);
  bytes.resize(bytes.size() - 11);  // Lose the terminator and one record.
  std::istringstream in(bytes);
  StreamBlockSource source(in, kPage, 6, /*readahead=*/false);
  EXPECT_THROW(drain(source), std::runtime_error);
}

}  // namespace
}  // namespace hymem::trace
