// Tiny command-line flag parser for the bench harnesses and examples.
// Supports --flag=value, --flag value, and boolean --flag.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hymem {

/// Parses argv into named flags and positional arguments.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  /// Names of every flag present on the command line, sorted (strict
  /// harnesses diff this against their known-flag list).
  std::vector<std::string> flag_names() const;

  /// Returns the flag's value, or `def` when absent. The numeric getters
  /// parse the whole value strictly and throw std::invalid_argument naming
  /// the flag on anything else: trailing characters, a sign on an unsigned
  /// flag, or a value out of the type's range.
  std::string get(const std::string& name, const std::string& def = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  std::uint64_t get_uint(const std::string& name, std::uint64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace hymem
