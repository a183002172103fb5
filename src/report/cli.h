#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/core/results.h"

namespace ckptsim::report {

/// One flag a tool accepts, for unknown-flag rejection.
struct FlagSpec {
  const char* name;         ///< e.g. "--processors"
  bool takes_value = false; ///< consumes the next token unless given as =
};

/// Tiny argument parser shared by benches and examples.
/// Supports `--flag` booleans and `--key value` / `--key=value` options.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view flag) const;
  [[nodiscard]] std::string value(std::string_view key, std::string fallback = "") const;
  [[nodiscard]] double number(std::string_view key, double fallback) const;

  /// Arguments not covered by `known`: misspelled flags and stray
  /// positional tokens.  A known value-taking flag consumes the following
  /// token (unless written as --key=value), so option values are never
  /// misreported.  Tools reject when this is non-empty — a typo'd flag
  /// must not silently run with the default it masked.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<FlagSpec>& known) const;

  /// Closest known flag to `flag` for a "did you mean" hint, or "" when
  /// nothing is plausibly close (edit distance > 3).
  [[nodiscard]] static std::string suggest(std::string_view flag,
                                           const std::vector<FlagSpec>& known);

 private:
  std::vector<std::string> args_;
};

/// RunSpec for a bench invocation: defaults to the full-fidelity spec, and
/// shrinks to RunSpec::quick() when `--quick` is passed or the environment
/// variable CKPTSIM_QUICK is set (used by CI).  `--seed N`, `--reps N`,
/// `--horizon-hours H`, and `--jobs N` override individual fields (jobs
/// falls back to CKPTSIM_JOBS, then to the hardware thread count; results
/// are identical for any value).  `--rel-precision R` switches the run to
/// precision-driven replications (sequential stopping at relative CI
/// half-width R, bounded by `--min-replications` / `--max-replications`);
/// without it the fixed `--reps` count is used and output is byte-identical
/// to earlier builds.
[[nodiscard]] RunSpec bench_spec(const Cli& cli);

/// True when quick mode is active (flag or environment).
[[nodiscard]] bool quick_mode(const Cli& cli);

}  // namespace ckptsim::report
