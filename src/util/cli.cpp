#include "util/cli.hpp"

#include <cstddef>
#include <cstdlib>
#include <string>
#include <stdexcept>

namespace kronotri::util {

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (!flags_done && tok == "--") {  // end-of-flags terminator
      flags_done = true;
      continue;
    }
    if (flags_done || tok.rfind("--", 0) != 0) {
      positional_.push_back(std::move(tok));
      continue;
    }
    std::string name = tok.substr(2);
    std::string value = "1";  // boolean flag
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    flags_[std::move(name)] = std::move(value);
  }
}

std::size_t parse_byte_count(const std::string& text) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    throw std::invalid_argument("bad byte count \"" + text + "\"");
  }
  std::size_t end = 0;
  const unsigned long long value = std::stoull(text, &end);
  std::size_t shift = 0;
  if (end < text.size()) {
    switch (text[end]) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      default:
        throw std::invalid_argument("bad byte suffix in \"" + text + "\"");
    }
    if (end + 1 != text.size()) {
      throw std::invalid_argument("bad byte suffix in \"" + text + "\"");
    }
  }
  return static_cast<std::size_t>(value) << shift;
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool parse_bool_token(const std::string& value, const std::string& context) {
  if (value == "1" || value == "true" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument(context + ": expected a boolean, got \"" +
                              value + "\"");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_bool_token(it->second, "--" + name);
}

}  // namespace kronotri::util
