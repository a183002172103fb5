#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/results.h"
#include "src/model/parameters.h"
#include "src/proactive/proactive_model.h"

namespace ckptsim::proactive {

/// Aggregated output of a multi-replication proactive run.
struct ProactiveResult {
  RunResult run;             ///< base rewards, aggregated like run_model
  ProactiveCounters totals;  ///< proactive tallies summed over replications

  /// True failures (independent + correlated) per successful replication,
  /// in replication-index order.  This is the common-random-numbers witness:
  /// for a fixed (params-without-policy, spec.seed) it is bit-identical
  /// across every predictor setting and every policy.
  std::vector<std::uint64_t> failures_per_rep;

  /// FNV-1a checksum of failures_per_rep — a single comparable word for
  /// CRN assertions (tests, bench_proactive startup).
  [[nodiscard]] std::uint64_t failures_checksum() const noexcept;

  [[nodiscard]] std::string describe() const;
};

/// Simulate `params` under `spec` with the proactive engine and aggregate
/// replications in replication-index order (bit-identical for any
/// spec.exec job count).  Replication r seeds from
/// sim::replication_seed(spec.seed, r) — the same CRN contract as
/// run_model, and neither the policy nor the predictor settings enter seed
/// derivation, so configurations over the same spec are replication-paired
/// and their true-failure trajectories are bit-identical.
///
/// With the predictor off and policy none the proactive engine is
/// draw-for-draw identical to DesModel, so `out.run` matches run_model's
/// output bit-exactly (same seeds, same aggregation).
///
/// Runs on the shared replication driver (core/replicate.h) and honours
/// spec.exec / seed / transient / horizon / replications /
/// confidence_level, sequential stopping (deterministic rounds on the
/// useful-work fraction; out.run.rounds records the round sizes),
/// on_failure (fail-fast, retry, skip; out.run.failures), fault_injection,
/// watchdog, cancel, metrics and progress.  Snapshots stay a base-model
/// feature.  Under the skip policy, failures_per_rep lists the successful
/// replications only.
[[nodiscard]] ProactiveResult run_proactive(const Parameters& params, const RunSpec& spec);

}  // namespace ckptsim::proactive
