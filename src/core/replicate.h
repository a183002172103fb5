#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault.h"
#include "src/core/results.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/stats/sequential.h"
#include "src/stats/summary.h"

// The replication driver: the one implementation of a replicated-run study
// (independent replications after a discarded warm-up, CIs over
// replicates) behind run_model, sweep, run_proactive, run_interference and
// san::Study::run, plus the one attempt loop (failure policy, attempt
// seeds, error classification) every replication runs under.

namespace ckptsim::detail {

/// How one replication ended under a FailurePolicy.  `attempts == 0` marks
/// a replication abandoned before its first attempt (fail-fast bail-out or
/// cancellation).
struct ReplicationStatus {
  bool ok = false;
  std::size_t attempts = 0;     ///< attempts consumed
  ReplicationFailure failure;   ///< last failure; meaningful when !ok or attempts > 1
};

/// A replication's status plus the result its successful attempt kept.
template <class R>
struct Outcome : ReplicationStatus {
  R result;  ///< valid when ok
};

/// One attempt of a replication: simulate from `seed` and keep the result.
/// Returns false, after describing the reward in `*why`, when the result
/// is non-finite; every other failure is thrown.
using AttemptBody = std::function<bool(std::uint64_t seed, std::string* why)>;

/// Run replication `rep` under `policy`: up to 1 + max_retries attempts
/// (kRetry) or one, each preceded by `fault_injection(rep, attempt)` when
/// set.  Every attempt failure is caught and classified into the ErrorCode
/// taxonomy, so callers' tasks never throw.  Attempt seeds come from
/// sim::replication_attempt_seed(master_seed, rep, step): step 0 is the
/// canonical replication seed, and it advances only after failures that
/// are deterministic in (params, seed), so a transient failure retried
/// successfully reproduces a clean run bit-identically.  A drain stop
/// (kInterrupted) is never retried.  With a non-null enabled `snapshot`,
/// a retry starts clean (the failed attempt's snapshot is removed), and so
/// does a permanent failure other than a drain stop or a watchdog kill,
/// whose snapshot is the restart's resume point.
[[nodiscard]] ReplicationStatus run_attempts(
    std::uint64_t master_seed, std::size_t rep, const FailurePolicy& policy,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    const AttemptBody& body, const SnapshotSpec* snapshot = nullptr);

/// What the driver needs from RunSpec / StudySpec.
struct DriverSpec {
  std::size_t replications = 0;   ///< per group, when sequential is disabled
  stats::SequentialSpec sequential;
  double confidence_level = 0.95;
  FailurePolicy on_failure;
  std::size_t jobs = 1;           ///< resolved worker threads
  const std::atomic<bool>* cancel = nullptr;
  obs::Metrics* metrics = nullptr;
  obs::ProgressReporter* progress = nullptr;
  std::string label;           ///< progress label
  std::string cancel_message;  ///< context of the kInterrupted error
};

/// The driver fields of a RunSpec or san::StudySpec; `jobs` is clamped to
/// the metrics registry's shard count when one is attached (results are
/// thread-count-invariant, so the clamp is observability-only).
template <class Spec>
[[nodiscard]] DriverSpec driver_spec(const Spec& spec, std::string label) {
  DriverSpec d;
  d.replications = spec.replications;
  d.sequential = spec.sequential;
  d.confidence_level = spec.confidence_level;
  d.on_failure = spec.on_failure;
  d.jobs = spec.exec.resolve();
  if (spec.metrics != nullptr) d.jobs = std::min(d.jobs, spec.metrics->workers());
  d.cancel = spec.cancel;
  d.metrics = spec.metrics;
  d.progress = spec.progress;
  d.cancel_message = label + ": cancelled";
  d.label = std::move(label);
  return d;
}

/// Size of a group's first round: the stopper's initial round under
/// sequential stopping, else `replications`.
[[nodiscard]] std::size_t first_round(const stats::SequentialSpec& sequential,
                                      std::size_t replications);

/// Size of a group's next round after `scheduled` replications whose
/// successes aggregate to `agg`: 0 when the group is finished (fixed
/// count, or the stopper says stop).  A pure function of its arguments,
/// so round boundaries never depend on wall clock or arrival order.
[[nodiscard]] std::size_t next_round(const stats::SequentialSpec& sequential,
                                     std::size_t scheduled, const stats::Summary& agg,
                                     double confidence_level);

/// Per-group output of the driver.
template <class R>
struct GroupOutcomes {
  std::vector<Outcome<R>> reps;       ///< by replication index
  std::vector<std::uint32_t> rounds;  ///< round sizes; empty without sequential stopping
};

/// Failure accounting of a finished group, in replication-index order:
/// the failures the policy skipped and the successes that needed retries.
template <class R>
[[nodiscard]] FailureAccounting failure_accounting(const std::vector<Outcome<R>>& reps) {
  FailureAccounting a;
  for (const Outcome<R>& o : reps) {
    if (o.ok && o.attempts > 1) a.recovered.push_back(o.failure);
    if (!o.ok && o.attempts > 0) a.skipped.push_back(o.failure);
  }
  return a;
}

/// The caller's side of a driver run.
template <class R>
struct ReplicationTasks {
  /// Run replication `rep` of `group` on worker slot `worker`, keeping the
  /// result in `result`.  Must not throw (run it under run_attempts).
  std::function<ReplicationStatus(std::size_t worker, std::size_t group, std::size_t rep,
                                  R& result)>
      run;
  /// The scalar the stopper watches; required under sequential stopping.
  std::function<double(const R&)> value;
  /// Optional: called once per group whose replications all finished
  /// without a failure the policy cannot skip, by the worker that finished
  /// it — so a killed sweep never loses a finished point.
  std::function<void(std::size_t group, const GroupOutcomes<R>&)> group_done;
  /// Optional: prefix naming `group` in a surfaced failure.
  std::function<std::string(std::size_t group)> where;
};

// Non-template pieces of replicate().
void begin_progress(const DriverSpec& spec, std::size_t groups);
void end_run(const DriverSpec& spec, std::chrono::steady_clock::time_point t0);
[[nodiscard]] bool cancelled(const DriverSpec& spec) noexcept;
[[noreturn]] void throw_failure(const DriverSpec& spec, const std::string& where,
                                const ReplicationFailure& failure);

/// Run `groups` groups of independent replications under `spec` and return
/// every group's outcomes in replication-index order.
///
/// Rounds: each unfinished group contributes its next round (all of
/// `spec.replications` without sequential stopping) and the rounds of all
/// groups are flattened into one parallel_for_workers dispatch, so small
/// groups still share the worker pool.  The worker that completes a
/// group's round takes its stopping decision on the group's aggregate
/// over every completed round, in index order, and calls `group_done` when
/// the group is finished.  Replication r of every group has index r in
/// every round, so results are bit-identical for any job count.
///
/// A failure the policy cannot skip stops scheduling; after the run, the
/// failure with the smallest (group, replication) index is rethrown as
/// SimError (its own code, or kRetriesExhausted under kRetry) under the
/// prefix `where(group)`.  Cancellation (spec.cancel) throws
/// SimError(kInterrupted, spec.cancel_message).  Either way the progress
/// line is finished and the wall time recorded first.
template <class R>
std::vector<GroupOutcomes<R>> replicate(const DriverSpec& spec, std::size_t groups,
                                        const ReplicationTasks<R>& tasks) {
  struct Task {
    std::size_t group;
    std::size_t rep;
  };
  const bool skip = spec.on_failure.mode == FailurePolicy::Mode::kSkip;
  std::vector<GroupOutcomes<R>> out(groups);
  std::vector<std::size_t> batch(groups, first_round(spec.sequential, spec.replications));
  std::unique_ptr<std::atomic<std::size_t>[]> remaining(new std::atomic<std::size_t>[groups]);
  std::atomic<bool> bail{false};
  begin_progress(spec, groups);
  const auto t0 = std::chrono::steady_clock::now();
  // The worker that lands a group's last replication of the round decides
  // whether the group goes on; the atomic countdown orders every other
  // worker's writes to the group before that read.
  const auto finish_round = [&](std::size_t q) {
    GroupOutcomes<R>& g = out[q];
    stats::Summary agg;
    for (const Outcome<R>& o : g.reps) {
      if (o.attempts == 0 || (!o.ok && !skip)) return;  // surfaced after the run
      if (o.ok && spec.sequential.enabled()) agg.add(tasks.value(o.result));
    }
    batch[q] = next_round(spec.sequential, g.reps.size(), agg, spec.confidence_level);
    if (batch[q] == 0 && tasks.group_done) tasks.group_done(q, g);
  };
  for (;;) {
    std::vector<Task> round;
    for (std::size_t q = 0; q < groups; ++q) {
      if (batch[q] == 0) continue;
      const std::size_t begin = out[q].reps.size();
      out[q].reps.resize(begin + batch[q]);
      if (spec.sequential.enabled()) out[q].rounds.push_back(static_cast<std::uint32_t>(batch[q]));
      remaining[q].store(batch[q], std::memory_order_relaxed);
      for (std::size_t r = begin; r < out[q].reps.size(); ++r) round.push_back(Task{q, r});
      batch[q] = 0;  // until finish_round asks for more
    }
    if (round.empty()) break;
    parallel_for_workers(spec.jobs, round.size(), [&](std::size_t worker, std::size_t k) {
      const Task t = round[k];
      if (!bail.load(std::memory_order_relaxed) && !cancelled(spec)) {
        const obs::WorkerTimer timer(spec.metrics, worker);
        Outcome<R>& o = out[t.group].reps[t.rep];
        static_cast<ReplicationStatus&>(o) = tasks.run(worker, t.group, t.rep, o.result);
        if (!o.ok && !skip) bail.store(true, std::memory_order_relaxed);
        if (spec.progress != nullptr) spec.progress->tick();
      }
      if (remaining[t.group].fetch_sub(1, std::memory_order_acq_rel) == 1) finish_round(t.group);
    });
    if (bail.load(std::memory_order_relaxed) || cancelled(spec)) break;
  }
  end_run(spec, t0);
  if (!skip) {
    for (std::size_t q = 0; q < groups; ++q) {
      for (const Outcome<R>& o : out[q].reps) {
        if (o.attempts != 0 && !o.ok) {
          throw_failure(spec, tasks.where ? tasks.where(q) : std::string(), o.failure);
        }
      }
    }
  }
  return out;
}

}  // namespace ckptsim::detail
