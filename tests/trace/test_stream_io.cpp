#include "trace/stream_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace hymem::trace {
namespace {

TEST(StreamIo, RoundTripAcrossChunks) {
  std::stringstream buf;
  {
    StreamTraceWriter writer(buf, "big", /*chunk_records=*/4);
    for (Addr a = 0; a < 11; ++a) {
      writer.append({a * 64, a % 3 == 0 ? AccessType::kWrite : AccessType::kRead,
                     static_cast<std::uint8_t>(a % 2)});
    }
    writer.finish();
    EXPECT_EQ(writer.written(), 11u);
  }
  StreamTraceReader reader(buf);
  EXPECT_EQ(reader.name(), "big");
  for (Addr a = 0; a < 11; ++a) {
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value()) << a;
    EXPECT_EQ(rec->addr, a * 64);
    EXPECT_EQ(rec->type, a % 3 == 0 ? AccessType::kWrite : AccessType::kRead);
    EXPECT_EQ(rec->core, a % 2);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value()) << "terminator is sticky";
  EXPECT_EQ(reader.read_count(), 11u);
}

TEST(StreamIo, EmptyTrace) {
  std::stringstream buf;
  {
    StreamTraceWriter writer(buf, "empty");
    writer.finish();
  }
  StreamTraceReader reader(buf);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(StreamIo, DestructorFinishes) {
  std::stringstream buf;
  { StreamTraceWriter writer(buf, "x"); writer.append({1, AccessType::kRead, 0}); }
  StreamTraceReader reader(buf);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(StreamIo, AppendAfterFinishRejected) {
  std::stringstream buf;
  StreamTraceWriter writer(buf, "x");
  writer.finish();
  EXPECT_THROW(writer.append({1, AccessType::kRead, 0}), std::logic_error);
}

TEST(StreamIo, BadMagicRejected) {
  std::stringstream buf("XXXX....");
  EXPECT_THROW(StreamTraceReader{buf}, std::runtime_error);
}

TEST(StreamIo, TruncatedChunkRejected) {
  std::stringstream buf;
  {
    StreamTraceWriter writer(buf, "t", 8);
    for (Addr a = 0; a < 5; ++a) writer.append({a, AccessType::kRead, 0});
    writer.finish();
  }
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 7);
  std::stringstream cut(bytes);
  StreamTraceReader reader(cut);
  EXPECT_THROW(
      {
        while (reader.next().has_value()) {
        }
      },
      std::runtime_error);
}

// --- Error-path contract: every parse error names a byte offset. ---

namespace {
/// A 3-record stream named "t": header is 4 magic + 4 version + 4 name_len
/// + 1 name byte = 13 bytes, so the first chunk header sits at byte 13 and
/// records (10 bytes each) start at byte 17.
std::string three_record_bytes() {
  std::stringstream buf;
  StreamTraceWriter writer(buf, "t", /*chunk_records=*/8);
  for (Addr a = 0; a < 3; ++a) writer.append({a * 4096, AccessType::kRead, 0});
  writer.finish();
  return buf.str();
}

/// A stringbuf that refuses to seek, like a pipe.
class NoSeekBuf : public std::stringbuf {
 public:
  using std::stringbuf::stringbuf;

 protected:
  pos_type seekoff(off_type, std::ios_base::seekdir,
                   std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
};

std::string drain_error(std::istream& in) {
  try {
    StreamTraceReader reader(in);
    while (reader.next().has_value()) {
    }
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string error_of(const std::string& bytes) {
  std::stringstream in(bytes);
  return drain_error(in);
}

std::string pipe_error_of(const std::string& bytes) {
  NoSeekBuf pipe(bytes);
  std::istream in(&pipe);
  return drain_error(in);
}

/// "HYTS" | version | `name_len` — the first 12 bytes of a stream.
std::string stream_header(std::uint32_t name_len) {
  std::string bytes = "HYTS";
  for (const std::uint32_t word : {kStreamFormatVersion, name_len}) {
    char raw[sizeof(word)];
    std::memcpy(raw, &word, sizeof(word));
    bytes.append(raw, sizeof(word));
  }
  return bytes;
}
}  // namespace

TEST(StreamIo, BadMagicNamesByteZero) {
  EXPECT_NE(error_of("XXXX....").find("bad magic at byte 0"),
            std::string::npos);
}

TEST(StreamIo, UnsupportedVersionNamesByteFour) {
  std::string bytes = three_record_bytes();
  bytes[4] = 9;
  EXPECT_NE(error_of(bytes).find("unsupported version 9 at byte 4"),
            std::string::npos);
}

TEST(StreamIo, TruncatedNameNamesOffset) {
  std::string bytes = three_record_bytes();
  bytes.resize(12);  // name_len says 1 byte follows; nothing does.
  EXPECT_NE(error_of(bytes).find("truncated name at byte 12"),
            std::string::npos);
}

TEST(StreamIo, OversizedNameLengthFailsBeforeAllocating) {
  // 12 bytes claiming a 4 GiB name: refused against the bytes remaining.
  const std::string bytes = stream_header(0xFFFFFFFFu);
  const std::string what = error_of(bytes);
  EXPECT_NE(what.find("truncated name at byte 12"), std::string::npos) << what;
  EXPECT_NE(what.find("name length 4294967295"), std::string::npos) << what;
  // A pipe is read slice by slice and ends in the same named truncation.
  EXPECT_NE(pipe_error_of(bytes).find("truncated name at byte 12"),
            std::string::npos);
}

TEST(StreamIo, OversizedChunkCountOnAPipeEndsInTruncation) {
  // 17 bytes: a one-byte name, then a chunk claiming 2^32 - 1 records. A
  // seekable stream refuses the claim at the header; a pipe caps the
  // reserve and fails where the records run out.
  std::string bytes = stream_header(1);
  bytes += 'x';
  bytes.append(4, '\xff');
  ASSERT_EQ(bytes.size(), 17u);
  const std::string seekable = error_of(bytes);
  EXPECT_NE(seekable.find("starting at byte 13"), std::string::npos)
      << seekable;
  const std::string pipe = pipe_error_of(bytes);
  EXPECT_NE(pipe.find("truncated record address at byte 17"),
            std::string::npos)
      << pipe;
}

TEST(StreamIo, TruncatedChunkHeaderNamesOffset) {
  std::string bytes = three_record_bytes();
  // Drop the 4-byte terminator and 2 bytes of the last record: the reload
  // after the corrupt chunk fails while reading the chunk header at the
  // exact truncation point.
  bytes.resize(13);  // Exactly the header: chunk header missing entirely.
  const std::string what = error_of(bytes);
  EXPECT_NE(what.find("truncated chunk header at byte 13"), std::string::npos)
      << what;
}

TEST(StreamIo, CorruptCountFailsAtHeaderNotMidChunk) {
  std::string bytes = three_record_bytes();
  // Rewrite the chunk's count from 3 to 3000: the claim (30000 record
  // bytes) exceeds what remains, and the seekable-stream precheck reports
  // it with the header's own offset instead of running off the end.
  bytes[13] = static_cast<char>(0xB8);
  bytes[14] = 0x0B;
  const std::string what = error_of(bytes);
  EXPECT_NE(what.find("chunk header claims 30000 record bytes"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("chunk of 3000 records starting at byte 13"),
            std::string::npos)
      << what;
}

TEST(StreamIo, BadAccessTypeNamesChunkAndByte) {
  std::string bytes = three_record_bytes();
  // Second record's type byte: 13 header + 4 count + 10 first record +
  // 8 addr = byte 35.
  bytes[35] = 7;
  const std::string what = error_of(bytes);
  EXPECT_NE(what.find("bad access type 7 at byte 35"), std::string::npos)
      << what;
  EXPECT_NE(what.find("chunk of 3 records starting at byte 13"),
            std::string::npos)
      << what;
}

TEST(StreamIo, ByteOffsetTracksConsumption) {
  std::stringstream buf(three_record_bytes());
  StreamTraceReader reader(buf);
  EXPECT_EQ(reader.byte_offset(), 13u);
  reader.next();
  // The whole 3-record chunk is decoded on first pull: 13 + 4 + 3*10.
  EXPECT_EQ(reader.byte_offset(), 47u);
  while (reader.next().has_value()) {
  }
  EXPECT_EQ(reader.byte_offset(), 51u) << "terminator consumed";
}

TEST(StreamIo, RewindReplaysIdentically) {
  std::stringstream buf;
  {
    StreamTraceWriter writer(buf, "rw", 4);
    for (Addr a = 0; a < 11; ++a) {
      writer.append({a * 64, a % 2 ? AccessType::kWrite : AccessType::kRead,
                     static_cast<std::uint8_t>(a % 3)});
    }
    writer.finish();
  }
  StreamTraceReader reader(buf);
  std::vector<MemAccess> first;
  while (auto rec = reader.next()) first.push_back(*rec);
  reader.rewind();
  EXPECT_EQ(reader.read_count(), 0u);
  std::vector<MemAccess> second;
  while (auto rec = reader.next()) second.push_back(*rec);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].addr, second[i].addr) << i;
    EXPECT_EQ(first[i].type, second[i].type) << i;
    EXPECT_EQ(first[i].core, second[i].core) << i;
  }
}

TEST(StreamIo, ExactChunkBoundary) {
  std::stringstream buf;
  {
    StreamTraceWriter writer(buf, "b", 4);
    for (Addr a = 0; a < 8; ++a) writer.append({a, AccessType::kRead, 0});
    writer.finish();
  }
  StreamTraceReader reader(buf);
  std::size_t n = 0;
  while (reader.next().has_value()) ++n;
  EXPECT_EQ(n, 8u);
}

}  // namespace
}  // namespace hymem::trace
