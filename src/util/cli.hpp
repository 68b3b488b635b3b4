// Tiny command-line flag parser shared by the CLI and the examples.
// Supports `--name value` and `--name=value`, with typed getters and
// defaults; every flag is stored, so each caller reads the ones it knows.
// A bare `--` ends flag parsing: everything after it is positional, so
// values that themselves start with `--` can be passed positionally (or
// via the always-unambiguous `--name=value` form).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace kronotri::util {

/// Parses a boolean token: 1/true/yes/on → true, 0/false/no/off → false;
/// throws std::invalid_argument naming `context` on anything else. Shared
/// by Cli::get_bool and api::GraphSpec::get_bool so flag and spec booleans
/// accept exactly the same vocabulary.
bool parse_bool_token(const std::string& value, const std::string& context);

/// Parses a byte count with an optional K/M/G (KiB/MiB/GiB) suffix.
/// Rejects anything that is not digits-then-one-suffix-letter (stoull alone
/// would wrap negatives and ignore trailing garbage). Shared by the CLI's
/// --mem-budget flag and the analysis-registry mem_budget params.
std::size_t parse_byte_count(const std::string& text);

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Boolean flag value: a bare `--name` is true; an explicit value must be
  /// one of 1/true/yes/on or 0/false/no/off (throws std::invalid_argument
  /// otherwise). An absent flag returns `fallback`.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional arguments (non-flag tokens), in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace kronotri::util
