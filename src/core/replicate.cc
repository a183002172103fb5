#include "src/core/replicate.h"

#include "src/san/executor.h"
#include "src/sim/rng.h"
#include "src/sim/slot_table.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"

namespace ckptsim::detail {

namespace {

/// Map a snapshot-layer fault onto the driver ErrorCode taxonomy at the
/// layer boundary.
ErrorCode snapshot_error_code(snapshot::SnapshotFault fault) noexcept {
  switch (fault) {
    case snapshot::SnapshotFault::kIo:
      return ErrorCode::kIoError;
    case snapshot::SnapshotFault::kVersionMismatch:
    case snapshot::SnapshotFault::kKindMismatch:
    case snapshot::SnapshotFault::kContextMismatch:
      return ErrorCode::kSnapshotMismatch;
    case snapshot::SnapshotFault::kTruncated:
    case snapshot::SnapshotFault::kCorrupt:
      return ErrorCode::kSnapshotCorrupt;
  }
  return ErrorCode::kSnapshotCorrupt;
}

}  // namespace

ReplicationStatus run_attempts(std::uint64_t master_seed, std::size_t rep,
                               const FailurePolicy& policy,
                               const std::function<void(std::size_t, std::size_t)>& fault_injection,
                               const AttemptBody& body, const SnapshotSpec* snapshot) {
  ReplicationStatus out;
  const bool snapshots = snapshot != nullptr && snapshot->enabled();
  const std::size_t max_attempts =
      policy.mode == FailurePolicy::Mode::kRetry ? 1 + policy.max_retries : 1;
  // Seed-derivation step: stays at the canonical replication seed across
  // transient failures, advances to a fresh attempt substream only after
  // deterministic ones (same seed would just reproduce the failure).
  std::uint64_t seed_step = 0;
  ErrorCode last_code = ErrorCode::kModelError;
  std::string last_message;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    try {
      if (fault_injection) fault_injection(rep, attempt);
    } catch (const std::exception& e) {
      last_code = ErrorCode::kInjectedFault;
      last_message = e.what();
      continue;
    }
    try {
      if (!body(sim::replication_attempt_seed(master_seed, rep, seed_step), &last_message)) {
        last_code = ErrorCode::kNonFiniteReward;
        ++seed_step;
        continue;
      }
      out.ok = true;
      if (attempt > 0) {
        out.failure = ReplicationFailure{rep, out.attempts, last_code, last_message};
      }
      return out;
    } catch (const sim::EventBudgetExceeded& e) {
      last_code = ErrorCode::kEventBudgetExceeded;
      last_message = e.what();
    } catch (const san::LivelockError& e) {
      last_code = ErrorCode::kLivelock;
      last_message = e.what();
    } catch (const snapshot::SnapshotError& e) {
      last_code = snapshot_error_code(e.fault());
      last_message = e.what();
    } catch (const SimError& e) {
      last_code = e.code();
      last_message = e.what();
    } catch (const std::exception& e) {
      last_code = ErrorCode::kModelError;
      last_message = e.what();
    }
    // A drain stop is not a failure: the snapshot just written IS the
    // resume point, so never retry past it and never delete it.
    if (last_code == ErrorCode::kInterrupted) break;
    if (error_is_deterministic(last_code)) ++seed_step;
    // A snapshot left by the failed attempt would make the retry resume
    // mid-failure (or re-reject a corrupt file forever); retries start
    // clean, so a recovered transient failure stays bit-identical to a
    // clean run.
    if (snapshots && attempt + 1 < max_attempts) snapshot::remove_snapshot_file(snapshot->path);
  }
  out.failure = ReplicationFailure{rep, out.attempts, last_code, last_message};
  // Permanent failure (skip policy, retries exhausted, or fail-fast): the
  // last attempt's snapshot must not linger in snapshot_dir — nothing will
  // ever resume it, and a later run of the same point would wrongly resume
  // mid-failure.  Two exceptions keep crash-resume intact: a drain stop
  // (kInterrupted) and a watchdog kill (kEventBudgetExceeded) both stop a
  // healthy replication mid-flight, and the snapshot just written IS the
  // restart's resume point.
  if (snapshots && last_code != ErrorCode::kInterrupted &&
      last_code != ErrorCode::kEventBudgetExceeded) {
    snapshot::remove_snapshot_file(snapshot->path);
  }
  return out;
}

std::size_t first_round(const stats::SequentialSpec& sequential, std::size_t replications) {
  return sequential.enabled() ? stats::SequentialStopper(sequential).initial_round()
                              : replications;
}

std::size_t next_round(const stats::SequentialSpec& sequential, std::size_t scheduled,
                       const stats::Summary& agg, double confidence_level) {
  if (!sequential.enabled()) return 0;
  const stats::SequentialDecision d =
      stats::SequentialStopper(sequential).decide(scheduled, agg, confidence_level);
  return d.stop ? 0 : d.next_batch;
}

void begin_progress(const DriverSpec& spec, std::size_t groups) {
  if (spec.progress == nullptr) return;
  // Under sequential stopping the total is the budget ceiling, not a
  // promise: groups usually stop well short of it.
  const std::size_t per_group =
      spec.sequential.enabled() ? spec.sequential.max_replications : spec.replications;
  spec.progress->begin(spec.label, groups * per_group);
}

bool cancelled(const DriverSpec& spec) noexcept {
  return spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed);
}

void end_run(const DriverSpec& spec, std::chrono::steady_clock::time_point t0) {
  if (spec.metrics != nullptr) {
    spec.metrics->add_wall_seconds(std::chrono::duration_cast<std::chrono::duration<double>>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
  }
  if (spec.progress != nullptr) spec.progress->finish();
  if (cancelled(spec)) throw SimError(ErrorCode::kInterrupted, spec.cancel_message);
}

void throw_failure(const DriverSpec& spec, const std::string& where,
                   const ReplicationFailure& failure) {
  const std::string context = where + "replication " + std::to_string(failure.replication) +
                              " failed after " + std::to_string(failure.attempts) +
                              " attempt(s): " + failure.message;
  if (spec.on_failure.mode == FailurePolicy::Mode::kRetry) {
    throw SimError(ErrorCode::kRetriesExhausted, context);
  }
  throw SimError(failure.code, context);
}

}  // namespace ckptsim::detail
