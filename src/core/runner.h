#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/replicate.h"
#include "src/core/results.h"
#include "src/model/parameters.h"

namespace ckptsim::obs {
struct ReplicationProbe;
}  // namespace ckptsim::obs

namespace ckptsim {

/// Which implementation of the model to simulate.
enum class EngineKind {
  kDes,  ///< hand-coded discrete-event engine (fast; default)
  kSan,  ///< the Table-1 SAN submodels on the generic SAN executor
};

/// Simulate `params` under `spec` and aggregate replications into a
/// RunResult (useful-work fraction CI, total useful work, counters).
/// Replications run across `spec.exec` worker threads; results are
/// collected in replication-index order, so the output is bit-identical
/// to a serial run for any thread count.
///
/// This is the library's main entry point:
///
///   ckptsim::Parameters p;
///   p.num_processors = 131072;
///   auto r = ckptsim::run_model(p, ckptsim::RunSpec{});
///   std::cout << r.useful_fraction.mean << "\n";
[[nodiscard]] RunResult run_model(const Parameters& params, const RunSpec& spec,
                                  EngineKind engine = EngineKind::kDes);

/// One independent replication of `params` under `engine` with its own
/// seed.  The unit of work the parallel drivers (run_model, sweep)
/// dispatch; callers derive `seed` via sim::replication_seed.  When `probe`
/// is non-null the replication additionally reports its telemetry (per-
/// EventKind counts, activity firings/aborts, event-queue stats) into it;
/// collection never perturbs the simulation.  `max_events` is the watchdog
/// budget (0 = unlimited): past it the run throws
/// sim::EventBudgetExceeded.  A non-null enabled `snapshot` turns on
/// event-granular crash-resume: the state is captured every
/// `snapshot->every` fired events, an existing snapshot file is resumed
/// from (bit-identically), and the file is removed once the replication
/// completes.  A snapshot that fails validation throws
/// snapshot::SnapshotError — never a partial restore.
[[nodiscard]] ReplicationResult run_replication(
    const Parameters& params, EngineKind engine, std::uint64_t seed, double transient,
    double horizon, obs::ReplicationProbe* probe = nullptr, std::uint64_t max_events = 0,
    const SnapshotSpec* snapshot = nullptr);

/// Run-context fingerprint embedded in (and checked against) every
/// snapshot `run_replication` writes: the canonical Parameters serialization
/// plus seed, observation window, engine, and replication index.  Any
/// difference in what would be simulated changes the string, so a stale
/// snapshot is rejected (kSnapshotMismatch) instead of silently resumed.
[[nodiscard]] std::string snapshot_run_context(const Parameters& params, std::uint64_t master_seed,
                                               double transient, double horizon, EngineKind engine,
                                               std::size_t rep);

namespace detail {

/// Outcome of one base-model replication under a FailurePolicy.
using ReplicationOutcome = Outcome<ReplicationResult>;

/// Run replication `rep` of `params` on `engine` under the attempt loop
/// (run_attempts): a result whose rewards are non-finite counts as a
/// kNonFiniteReward failure, and `probe` receives the telemetry of the
/// attempt that succeeds only.  The unit of work of run_model, sweep and
/// the campaign server.
[[nodiscard]] ReplicationOutcome run_replication_guarded(
    const Parameters& params, EngineKind engine, std::uint64_t master_seed, std::size_t rep,
    double transient, double horizon, const FailurePolicy& policy, const WatchdogSpec& watchdog,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    const SnapshotSpec* snapshot = nullptr);

/// One group of run_model / sweep: a point's parameters and the file-name
/// stem of its replication snapshots (`<snapshot_dir>/<stem><rep>.snap`).
struct Point {
  const Parameters* params = nullptr;
  std::string snapshot_stem;
};

/// The path run_model and sweep share: every point is one driver group
/// whose replications run under run_replication_guarded (snapshots per
/// spec, telemetry into spec.metrics), stopped on the useful-work fraction
/// under sequential stopping.  `tasks.group_done` / `tasks.where` are the
/// caller's; `run` and `value` are filled in here.
[[nodiscard]] std::vector<GroupOutcomes<ReplicationResult>> replicate_points(
    const std::vector<Point>& points, const RunSpec& spec, EngineKind engine,
    const DriverSpec& driver, ReplicationTasks<ReplicationResult> tasks);

/// Aggregate a finished group (replication-index order) with its failure
/// accounting and round sizes.
[[nodiscard]] RunResult aggregate_outcomes(const std::vector<ReplicationOutcome>& outcomes,
                                           const std::vector<std::uint32_t>& rounds,
                                           double confidence_level, const Parameters& params);

}  // namespace detail

/// Combine per-replication results (in replication-index order) into the
/// aggregate RunResult.  Order matters for bit-identical CIs.
[[nodiscard]] RunResult aggregate_replications(const std::vector<ReplicationResult>& reps,
                                               double confidence_level, const Parameters& params);

/// Convenience: total useful work (fraction * processors) for one point.
[[nodiscard]] double total_useful_work(const Parameters& params, const RunSpec& spec,
                                       EngineKind engine = EngineKind::kDes);

}  // namespace ckptsim
