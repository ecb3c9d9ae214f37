// Command-line handling shared by every bench and by tools/calibrate.
//
// A bench must not run its default (large) stream on a typo: an unknown
// flag, a non-numeric or missing value, a stray argument, or a count
// below 1 exits 2 at once with a first stderr line that names the
// problem, then the usage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/flags.hpp"
#include "common/strings.hpp"

namespace pmemflow::bench {

/// A positive integer flag and the largest value it accepts.
using CountFlag = std::pair<const char*, std::int64_t>;

/// Parses argv into `flags`. Returns the exit code the bench stops with
/// (0 after printing `--help`, 2 after a bad command line), or nullopt
/// when the run goes ahead. Every flag in `counts` must lie in
/// [1, its max], and every positional argument must be one of `names`.
inline std::optional<int> parse_bench_flags(
    FlagParser& flags, int argc, char** argv,
    std::initializer_list<CountFlag> counts,
    std::span<const char* const> names = {}) {
  const std::string program = argc > 0 ? argv[0] : "bench";
  auto status = flags.parse(argc, argv);
  if (!status.has_value()) {
    const std::string& message = status.error().message;
    if (message.find("usage:") != std::string::npos) {
      std::cout << message << "\n";
      return 0;
    }
    std::cerr << "error: " << message << "\n" << flags.usage(program);
    return 2;
  }
  for (const std::string& argument : flags.positional()) {
    if (std::find(names.begin(), names.end(), argument) == names.end()) {
      std::cerr << "error: unexpected argument '" << argument << "'\n"
                << flags.usage(program);
      return 2;
    }
  }
  for (const auto& [name, max] : counts) {
    const std::int64_t value = flags.get_int(name);
    if (value < 1 || value > max) {
      std::cerr << format("error: --%s must be between 1 and %lld, got %lld\n",
                          name, static_cast<long long>(max),
                          static_cast<long long>(value));
      return 2;
    }
  }
  return std::nullopt;
}

}  // namespace pmemflow::bench
