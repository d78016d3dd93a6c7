#include "trace/stream_io.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

namespace hymem::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'H', 'Y', 'T', 'S'};

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

std::optional<std::uint64_t> bytes_remaining(std::istream& in) {
  const auto here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

bool read_bytes(std::istream& in, std::uint64_t len, std::string& out) {
  constexpr std::uint64_t kSlice = 1 << 16;
  out.clear();
  while (out.size() < len) {
    const std::size_t at = out.size();
    const auto piece = static_cast<std::size_t>(std::min(len - at, kSlice));
    out.resize(at + piece);
    in.read(out.data() + at, static_cast<std::streamsize>(piece));
    if (!in) return false;
  }
  return true;
}

StreamTraceWriter::StreamTraceWriter(std::ostream& out, std::string name,
                                     std::size_t chunk_records)
    : out_(out), chunk_records_(chunk_records) {
  HYMEM_CHECK_MSG(chunk_records > 0, "chunk size must be positive");
  out_.write(kMagic.data(), kMagic.size());
  put<std::uint32_t>(out_, kStreamFormatVersion);
  put<std::uint32_t>(out_, static_cast<std::uint32_t>(name.size()));
  out_.write(name.data(), static_cast<std::streamsize>(name.size()));
  pending_.reserve(chunk_records);
}

StreamTraceWriter::~StreamTraceWriter() {
  if (!finished_) finish();
}

void StreamTraceWriter::flush_chunk() {
  if (pending_.empty()) return;
  put<std::uint32_t>(out_, static_cast<std::uint32_t>(pending_.size()));
  for (const auto& a : pending_) {
    put<std::uint64_t>(out_, a.addr);
    put<std::uint8_t>(out_, static_cast<std::uint8_t>(a.type));
    put<std::uint8_t>(out_, a.core);
  }
  pending_.clear();
}

void StreamTraceWriter::append(const MemAccess& access) {
  HYMEM_CHECK_MSG(!finished_, "append after finish");
  pending_.push_back(access);
  ++written_;
  if (pending_.size() >= chunk_records_) flush_chunk();
}

void StreamTraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  put<std::uint32_t>(out_, 0);  // terminator
  finished_ = true;
}

template <typename T>
T StreamTraceReader::take(const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in_.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in_) {
    throw std::runtime_error("hymem stream trace: truncated " +
                             std::string(what) + " at byte " +
                             std::to_string(offset_));
  }
  offset_ += sizeof(value);
  return value;
}

StreamTraceReader::StreamTraceReader(std::istream& in) : in_(in) {
  std::array<char, 4> magic{};
  in_.read(magic.data(), magic.size());
  if (!in_ || magic != kMagic) {
    throw std::runtime_error("hymem stream trace: bad magic at byte 0");
  }
  offset_ += magic.size();
  const auto version = take<std::uint32_t>("version");
  if (version != kStreamFormatVersion) {
    throw std::runtime_error("hymem stream trace: unsupported version " +
                             std::to_string(version) + " at byte 4");
  }
  const auto name_len = take<std::uint32_t>("name length");
  const std::string truncated =
      "hymem stream trace: truncated name at byte " + std::to_string(offset_);
  const std::optional<std::uint64_t> remaining = bytes_remaining(in_);
  if (remaining && name_len > *remaining) {
    throw std::runtime_error(truncated + ": name length " +
                             std::to_string(name_len) + " (byte 8) exceeds the " +
                             std::to_string(*remaining) + " bytes remaining");
  }
  if (!read_bytes(in_, name_len, name_)) throw std::runtime_error(truncated);
  offset_ += name_len;
  data_offset_ = offset_;
}

bool StreamTraceReader::load_chunk() {
  const std::uint64_t header_offset = offset_;
  const auto count = take<std::uint32_t>("chunk header");
  if (count == 0) {
    done_ = true;
    return false;
  }
  chunk_.clear();
  // Record size is fixed (u64 + 2 * u8), so a header's claim is checkable
  // directly against a seekable stream: a corrupt count fails here with the
  // header's own offset rather than a truncation deep inside the chunk.
  constexpr std::uint64_t kRecordBytes = sizeof(std::uint64_t) + 2;
  const auto chunk_error = [&](const std::string& what) {
    return std::runtime_error("hymem stream trace: " + what + " (chunk of " +
                              std::to_string(count) +
                              " records starting at byte " +
                              std::to_string(header_offset) + ")");
  };
  const std::optional<std::uint64_t> remaining = bytes_remaining(in_);
  if (remaining && *remaining < count * kRecordBytes) {
    throw chunk_error("chunk header claims " +
                      std::to_string(count * kRecordBytes) +
                      " record bytes but only " + std::to_string(*remaining) +
                      " remain");
  }
  // A count checked against the bytes remaining is safe to reserve; on a
  // pipe the chunk grows with the records that actually arrive.
  if (remaining) chunk_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto addr = take<std::uint64_t>("record address");
    const auto type = take<std::uint8_t>("record type");
    const auto core = take<std::uint8_t>("record core");
    if (type > 1) {
      throw chunk_error("bad access type " + std::to_string(type) +
                        " at byte " + std::to_string(offset_ - 2));
    }
    chunk_.push_back({addr, static_cast<AccessType>(type), core});
  }
  cursor_ = 0;
  return true;
}

std::optional<MemAccess> StreamTraceReader::next() {
  if (done_) return std::nullopt;
  if (cursor_ >= chunk_.size() && !load_chunk()) return std::nullopt;
  ++read_;
  return chunk_[cursor_++];
}

void StreamTraceReader::rewind() {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(data_offset_));
  if (!in_) {
    throw std::runtime_error(
        "hymem stream trace: rewind failed (stream not seekable)");
  }
  offset_ = data_offset_;
  chunk_.clear();
  cursor_ = 0;
  read_ = 0;
  done_ = false;
}

}  // namespace hymem::trace
