#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <type_traits>

namespace hymem {

namespace {

/// Parses all of `text` as a T, or throws std::invalid_argument naming the
/// flag: no sign for unsigned types, no trailing characters, no overflow,
/// no infinities or NaN.
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* kind) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (text.empty() || ec != std::errc{} || ptr != end || !finite) {
    throw std::invalid_argument("--" + name + " expects " + kind + ", got '" +
                                text + "'");
  }
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) > 0; }

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

std::string CliArgs::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def) const {
  const auto it = flags_.find(name);
  return it == flags_.end()
             ? def
             : parse_number<std::int64_t>(name, it->second, "an integer");
}

std::uint64_t CliArgs::get_uint(const std::string& name, std::uint64_t def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def
                            : parse_number<std::uint64_t>(
                                  name, it->second, "an unsigned integer");
}

double CliArgs::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  return it == flags_.end()
             ? def
             : parse_number<double>(name, it->second, "a number");
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("bad boolean flag --" + name + "=" + v);
}

}  // namespace hymem
