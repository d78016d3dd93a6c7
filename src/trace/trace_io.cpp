#include "trace/trace_io.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "trace/stream_io.hpp"

namespace hymem::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'H', 'Y', 'T', 'R'};

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T take(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("hymem trace: truncated binary trace");
  return value;
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  put<std::uint32_t>(out, kTraceFormatVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.name().size()));
  out.write(trace.name().data(),
            static_cast<std::streamsize>(trace.name().size()));
  put<std::uint64_t>(out, trace.size());
  for (const auto& a : trace) {
    put<std::uint64_t>(out, a.addr);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(a.type));
    put<std::uint8_t>(out, a.core);
  }
}

Trace read_binary(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("hymem trace: bad magic");
  }
  const auto version = take<std::uint32_t>(in);
  if (version != kTraceFormatVersion) {
    throw std::runtime_error("hymem trace: unsupported version " +
                             std::to_string(version));
  }
  // Fixed header layout: magic (4) | version (4) | name_len (4) at byte 8 |
  // name at byte 12 | u64 count | count * 10-byte records.
  const auto name_len = take<std::uint32_t>(in);
  const std::string truncated = "hymem trace: truncated name at byte 12";
  const std::optional<std::uint64_t> name_room = bytes_remaining(in);
  if (name_room && name_len > *name_room) {
    throw std::runtime_error(truncated + ": name length " +
                             std::to_string(name_len) + " (byte 8) exceeds the " +
                             std::to_string(*name_room) + " bytes remaining");
  }
  std::string name;
  if (!read_bytes(in, name_len, name)) throw std::runtime_error(truncated);
  const std::uint64_t count_offset = 12 + std::uint64_t{name_len};
  const auto count = take<std::uint64_t>(in);
  constexpr std::uint64_t kRecordBytes = sizeof(std::uint64_t) + 2;
  const std::optional<std::uint64_t> record_room = bytes_remaining(in);
  if (record_room && count > *record_room / kRecordBytes) {
    throw std::runtime_error(
        "hymem trace: record count " + std::to_string(count) + " at byte " +
        std::to_string(count_offset) + " needs " +
        std::to_string(kRecordBytes) + " bytes per record but only " +
        std::to_string(*record_room) + " bytes remain");
  }
  Trace trace(std::move(name));
  // A count checked against the bytes remaining is safe to reserve; on a
  // pipe the trace grows with the records that actually arrive.
  if (record_room) trace.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto addr = take<std::uint64_t>(in);
    const auto type = take<std::uint8_t>(in);
    const auto core = take<std::uint8_t>(in);
    if (type > 1) throw std::runtime_error("hymem trace: bad access type");
    trace.append(addr, static_cast<AccessType>(type), core);
  }
  return trace;
}

void write_text(const Trace& trace, std::ostream& out) {
  out << "# hymem trace: " << trace.name() << '\n';
  for (const auto& a : trace) {
    out << (a.type == AccessType::kRead ? 'R' : 'W') << " 0x" << std::hex
        << a.addr << std::dec << ' ' << static_cast<int>(a.core) << '\n';
  }
}

Trace read_text(std::istream& in, std::string name) {
  Trace trace(std::move(name));
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char kind = 0;
    std::string addr_str;
    int core = 0;
    ls >> kind >> addr_str;
    if (!(ls >> core)) core = 0;
    if (!ls && ls.fail() && addr_str.empty()) {
      throw std::runtime_error("hymem trace: parse error at line " +
                               std::to_string(line_no));
    }
    AccessType type;
    if (kind == 'R' || kind == 'r') {
      type = AccessType::kRead;
    } else if (kind == 'W' || kind == 'w') {
      type = AccessType::kWrite;
    } else {
      throw std::runtime_error("hymem trace: bad access kind at line " +
                               std::to_string(line_no));
    }
    const Addr addr = std::stoull(addr_str, nullptr, 0);
    trace.append(addr, type, static_cast<std::uint8_t>(core));
  }
  return trace;
}

void save(const Trace& trace, const std::string& path) {
  const bool binary = path.size() >= 4 && path.ends_with(".trc");
  std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
  if (!out) throw std::runtime_error("hymem trace: cannot open " + path);
  if (binary) {
    write_binary(trace, out);
  } else {
    write_text(trace, out);
  }
}

Trace load(const std::string& path) {
  const bool binary = path.size() >= 4 && path.ends_with(".trc");
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) throw std::runtime_error("hymem trace: cannot open " + path);
  return binary ? read_binary(in) : read_text(in, path);
}

}  // namespace hymem::trace
