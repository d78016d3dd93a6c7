#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

namespace hymem::trace {
namespace {

/// Appends `value`'s bytes in host (little-endian) order, as the writer does.
template <typename T>
void put(std::string& bytes, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  bytes.append(raw, sizeof(T));
}

/// "HYTR" | version 1 | `name_len` — the first 12 bytes of a binary trace.
std::string header(std::uint32_t name_len) {
  std::string bytes = "HYTR";
  put<std::uint32_t>(bytes, kTraceFormatVersion);
  put<std::uint32_t>(bytes, name_len);
  return bytes;
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

std::string binary_error(const std::string& bytes, bool seekable) {
  NoSeekBuf pipe(bytes);
  std::stringstream file(bytes);
  std::istream pipe_in(&pipe);
  try {
    read_binary(seekable ? static_cast<std::istream&>(file) : pipe_in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

Trace sample_trace() {
  Trace t("sample");
  t.append(0x1000, AccessType::kRead, 0);
  t.append(0xdeadbeef, AccessType::kWrite, 3);
  t.append(0, AccessType::kRead, 1);
  return t;
}

TEST(TraceIo, BinaryRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary(original, buf);
  const Trace loaded = read_binary(buf);
  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) EXPECT_EQ(loaded[i], original[i]);
}

TEST(TraceIo, TextRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_text(original, buf);
  const Trace loaded = read_text(buf, "sample");
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) EXPECT_EQ(loaded[i], original[i]);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks) {
  std::stringstream buf("# comment\n\nR 0x40 0\nW 0x80 1\n");
  const Trace loaded = read_text(buf);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].addr, 0x40u);
  EXPECT_EQ(loaded[1].type, AccessType::kWrite);
  EXPECT_EQ(loaded[1].core, 1);
}

TEST(TraceIo, BadMagicThrows) {
  std::stringstream buf("NOPE....");
  EXPECT_THROW(read_binary(buf), std::runtime_error);
}

TEST(TraceIo, TruncatedBinaryThrows) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary(original, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);
  std::stringstream cut(bytes);
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

TEST(TraceIo, OversizedNameLengthNamesItsOffset) {
  // 12 bytes: a header claiming a 4 GiB name with nothing behind it must
  // fail before allocating, naming where the name should start.
  const std::string bytes = header(0xFFFFFFFFu);
  const std::string what = binary_error(bytes, /*seekable=*/true);
  EXPECT_NE(what.find("truncated name at byte 12"), std::string::npos) << what;
  EXPECT_NE(what.find("name length 4294967295"), std::string::npos) << what;
  EXPECT_NE(what.find("0 bytes remaining"), std::string::npos) << what;
  // A pipe cannot be measured; the name is read slice by slice instead.
  EXPECT_NE(binary_error(bytes, /*seekable=*/false)
                .find("truncated name at byte 12"),
            std::string::npos);
}

TEST(TraceIo, OversizedRecordCountNamesItsOffset) {
  // 21 bytes: a one-byte name, then a record count of 2^63 and no records.
  std::string bytes = header(1);
  bytes += 'x';
  put<std::uint64_t>(bytes, std::uint64_t{1} << 63);
  ASSERT_EQ(bytes.size(), 21u);
  const std::string what = binary_error(bytes, /*seekable=*/true);
  EXPECT_NE(what.find("record count 9223372036854775808 at byte 13"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("0 bytes remain"), std::string::npos) << what;
  // Non-seekable: the reserve is capped, so the run ends in a truncation
  // error, not bad_alloc.
  EXPECT_NE(binary_error(bytes, /*seekable=*/false).find("truncated"),
            std::string::npos);
}

TEST(TraceIo, BadAccessKindThrows) {
  std::stringstream buf("X 0x40 0\n");
  EXPECT_THROW(read_text(buf), std::runtime_error);
}

TEST(TraceIo, SaveLoadBinaryFile) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/hymem_io_test.trc";
  save(original, path);
  const Trace loaded = load(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded[1], original[1]);
  std::remove(path.c_str());
}

TEST(TraceIo, SaveLoadTextFile) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/hymem_io_test.txt";
  save(original, path);
  const Trace loaded = load(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded[0], original[0]);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load("/nonexistent/path/file.trc"), std::runtime_error);
}

}  // namespace
}  // namespace hymem::trace
