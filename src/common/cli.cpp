#include "common/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace rvma {

namespace {

// Numeric flags fail loud: "--link-latency=abc" silently becoming 0.0 (or
// "--nodes=64k" becoming 64) means benchmarking a configuration nobody
// asked for. Malformed or trailing-garbage values abort with exit code 2,
// the same contract ParamReader enforces for scenario parameters.
[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* kind) {
  std::fprintf(stderr, "bad %s value for --%s: \"%s\"\n", kind, key.c_str(),
               value.c_str());
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opts_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      opts_[arg] = "true";
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  consumed_[key] = true;
  const auto it = opts_.find(key);
  return it == opts_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  consumed_[key] = true;
  const auto it = opts_.find(key);
  if (it == opts_.end()) return fallback;
  const std::string& text = it->second;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  // from_chars does not consume a "0x" prefix itself; keep accepting hex
  // values (handy for seeds) by switching base explicitly.
  int base = 10;
  bool negative = false;
  if (first != last && (*first == '+' || *first == '-')) {
    negative = *first == '-';
    ++first;
  }
  if (last - first > 2 && first[0] == '0' && (first[1] == 'x' || first[1] == 'X')) {
    base = 16;
    first += 2;
  }
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(first, last, value, base);
  if (ec != std::errc{} || ptr != last || first == last) {
    bad_value(key, text, "integer");
  }
  return negative ? -value : value;
}

double Cli::get_double(const std::string& key, double fallback) const {
  consumed_[key] = true;
  const auto it = opts_.find(key);
  if (it == opts_.end()) return fallback;
  const std::string& text = it->second;
  // std::from_chars, unlike strtod, is locale-independent — a comma-decimal
  // LC_NUMERIC cannot change what "2.5" parses to — and surfacing ptr lets
  // us reject trailing garbage instead of ignoring it.
  const char* first = text.data();
  const char* last = text.data() + text.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || first == last) {
    bad_value(key, text, "numeric");
  }
  return value;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  consumed_[key] = true;
  const auto it = opts_.find(key);
  if (it == opts_.end()) return fallback;
  // Same fail-loud contract as the numeric getters: "--timing=on" must not
  // quietly mean false.
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  bad_value(key, text, "boolean");
}

std::vector<std::pair<std::string, std::string>> Cli::take_prefixed(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, value] : opts_) {
    if (key.size() > prefix.size() && key.rfind(prefix, 0) == 0) {
      consumed_[key] = true;
      out.emplace_back(key.substr(prefix.size()), value);
    }
  }
  return out;
}

std::vector<std::string> Cli::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : opts_) {
    if (!consumed_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace rvma
