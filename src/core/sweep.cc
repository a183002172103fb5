#include "src/core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/core/journal.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/sim/rng.h"

namespace ckptsim {

namespace {

/// Per-replication SnapshotSpec of sweep point `p` (global point index, so
/// paths stay stable across resumed sweeps); disabled when snapshots are
/// off.  The context embeds the point's own parameters, so a snapshot from
/// a neighbouring point can never be spliced in.
SnapshotSpec sweep_snapshot(const Parameters& point_params, std::size_t p, const RunSpec& spec,
                            EngineKind engine, std::size_t rep) {
  SnapshotSpec snap;
  if (spec.snapshot_every_events == 0) return snap;
  snap.every = spec.snapshot_every_events;
  snap.path = spec.snapshot_dir + "/point-" + std::to_string(p) + "-rep-" +
              std::to_string(rep) + ".snap";
  snap.context =
      snapshot_run_context(point_params, spec.seed, spec.transient, spec.horizon, engine, rep);
  return snap;
}

/// Mutable state of one pending point while the adaptive sweep runs.
struct AdaptivePointState {
  std::vector<detail::ReplicationOutcome> outcomes;  ///< indexed by replication
  std::vector<std::uint32_t> rounds;                 ///< scheduled round sizes
  bool active = true;        ///< still scheduling rounds
  std::size_t next_batch = 0;  ///< size of the point's next round
};

/// One unit of work in an adaptive round: replication `r` of pending point
/// `q`.  Rounds are flattened across points so a round's work shares the
/// worker pool regardless of how many points are still active.
struct RoundTask {
  std::size_t q = 0;
  std::size_t r = 0;
};

/// Precision-driven variant of the sweep body: global rounds with a
/// decision barrier after each.  Every active point contributes its next
/// batch to the round; after the barrier each point's stopper decides on
/// the aggregate over *all* its completed replications (index order), so
/// the round schedule — and therefore every result — is a pure function of
/// the spec and seeds, bit-identical for any job count.  Replication r of
/// every point keeps the canonical replication_seed(spec.seed, r) stream,
/// preserving common random numbers across sweep points.  Points are
/// journaled the moment their stopper says stop, so a killed adaptive
/// sweep resumes exactly like a fixed one.
void sweep_adaptive(SweepSeries& series, const std::vector<double>& xs,
                    const std::vector<std::size_t>& pending,
                    const std::vector<std::uint64_t>& fingerprints, const RunSpec& spec,
                    EngineKind engine, SweepJournal* journal) {
  const stats::SequentialStopper stopper(spec.sequential);
  std::vector<AdaptivePointState> state(pending.size());
  for (auto& s : state) s.next_batch = stopper.initial_round();
  std::atomic<bool> bail{false};
  std::size_t jobs = spec.exec.resolve();
  if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
  if (spec.progress != nullptr) {
    // Budget ceiling, not a promise: points usually stop well short of it.
    spec.progress->begin("sweep " + series.label,
                         pending.size() * spec.sequential.max_replications);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto cancelled = [&spec] {
    return spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed);
  };
  for (;;) {
    std::vector<RoundTask> tasks;
    for (std::size_t q = 0; q < state.size(); ++q) {
      if (!state[q].active) continue;
      const std::size_t begin = state[q].outcomes.size();
      state[q].outcomes.resize(begin + state[q].next_batch);
      state[q].rounds.push_back(static_cast<std::uint32_t>(state[q].next_batch));
      for (std::size_t r = begin; r < state[q].outcomes.size(); ++r) {
        tasks.push_back(RoundTask{q, r});
      }
    }
    if (tasks.empty()) break;  // every point has stopped
    parallel_for_workers(jobs, tasks.size(), [&](std::size_t worker, std::size_t k) {
      const std::size_t q = tasks[k].q;
      const std::size_t r = tasks[k].r;
      if (bail.load(std::memory_order_relaxed) || cancelled()) return;
      const std::size_t p = pending[q];
      const obs::WorkerTimer timer(spec.metrics, worker);
      obs::ReplicationProbe probe;
      const SnapshotSpec snap = sweep_snapshot(series.points[p].params, p, spec, engine, r);
      state[q].outcomes[r] = detail::run_replication_guarded(
          series.points[p].params, engine, spec.seed, r, spec.transient, spec.horizon,
          spec.on_failure, spec.watchdog, spec.metrics != nullptr ? &probe : nullptr,
          spec.fault_injection, snap.enabled() ? &snap : nullptr);
      if (!state[q].outcomes[r].ok && spec.on_failure.mode != FailurePolicy::Mode::kSkip) {
        bail.store(true, std::memory_order_relaxed);
      }
      if (state[q].outcomes[r].ok && spec.metrics != nullptr) {
        spec.metrics->shard(worker).absorb(probe);
      }
      if (spec.progress != nullptr) spec.progress->tick();
    });
    // A failure under fail-fast/retry stops all scheduling; the surfacing
    // loop below rethrows it deterministically.  Cancellation likewise —
    // points finalized in earlier rounds are already journaled.
    if (bail.load(std::memory_order_relaxed) || cancelled()) break;
    for (std::size_t q = 0; q < state.size(); ++q) {
      if (!state[q].active) continue;
      stats::Summary agg;
      for (const auto& o : state[q].outcomes) {
        if (o.ok) agg.add(o.result.useful_fraction);
      }
      const stats::SequentialDecision d =
          stopper.decide(state[q].outcomes.size(), agg, spec.confidence_level);
      if (!d.stop) {
        state[q].next_batch = d.next_batch;
        continue;
      }
      state[q].active = false;
      const std::size_t p = pending[q];
      std::vector<ReplicationResult> successes;
      successes.reserve(state[q].outcomes.size());
      FailureAccounting accounting;
      for (const auto& o : state[q].outcomes) {
        if (o.attempts == 0) continue;
        if (o.ok) {
          successes.push_back(o.result);
          if (o.attempts > 1) accounting.recovered.push_back(o.failure);
        } else {
          accounting.skipped.push_back(o.failure);
        }
      }
      series.points[p].result =
          aggregate_replications(successes, spec.confidence_level, series.points[p].params);
      series.points[p].result.failures = std::move(accounting);
      series.points[p].result.rounds = state[q].rounds;
      if (journal != nullptr) journal->record(fingerprints[p], xs[p], series.points[p].result);
      if (spec.metrics != nullptr) {
        spec.metrics->record_point(obs::PointRecord{
            series.label, xs[p], series.points[p].result.replications, state[q].rounds});
      }
    }
  }
  if (spec.metrics != nullptr) {
    spec.metrics->add_wall_seconds(
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (spec.progress != nullptr) spec.progress->finish();
  if (cancelled()) {
    throw SimError(ErrorCode::kInterrupted,
                   "sweep '" + series.label + "': cancelled (completed points journaled)");
  }
  // Surface the failure with the smallest (point, replication) index —
  // deterministic for any thread count.
  for (std::size_t q = 0; q < state.size(); ++q) {
    for (std::size_t r = 0; r < state[q].outcomes.size(); ++r) {
      const auto& o = state[q].outcomes[r];
      if (o.ok || o.attempts == 0) continue;
      if (spec.on_failure.mode == FailurePolicy::Mode::kSkip) continue;
      const std::string context =
          "sweep '" + series.label + "' point " + std::to_string(pending[q]) +
          " (x = " + std::to_string(xs[pending[q]]) + "): replication " +
          std::to_string(o.failure.replication) + " failed after " +
          std::to_string(o.failure.attempts) + " attempt(s): " + o.failure.message;
      if (spec.on_failure.mode == FailurePolicy::Mode::kRetry) {
        throw SimError(ErrorCode::kRetriesExhausted, context);
      }
      throw SimError(o.failure.code, context);
    }
  }
  for (std::size_t q = 0; q < state.size(); ++q) {
    if (state[q].active) {
      // Unreachable when the loop above found no failure, but guard anyway.
      throw SimError(ErrorCode::kModelError, "sweep '" + series.label + "' point " +
                                                 std::to_string(pending[q]) +
                                                 " finished without a result");
    }
  }
}

void check_finite_rewards(const std::vector<SweepPoint>& points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i].result.total_useful_work) ||
        !std::isfinite(points[i].result.useful_fraction.mean)) {
      throw SimError(ErrorCode::kNonFiniteReward,
                     "SweepSeries: point " + std::to_string(i) +
                         " (x = " + std::to_string(points[i].x) + ") has a non-finite reward");
    }
  }
}
}  // namespace

const SweepPoint& SweepSeries::argmax_total_useful_work() const {
  if (points.empty()) throw std::logic_error("SweepSeries: empty series");
  check_finite_rewards(points);
  return *std::max_element(points.begin(), points.end(), [](const auto& a, const auto& b) {
    return a.result.total_useful_work < b.result.total_useful_work;
  });
}

const SweepPoint& SweepSeries::argmax_fraction() const {
  if (points.empty()) throw std::logic_error("SweepSeries: empty series");
  check_finite_rewards(points);
  return *std::max_element(points.begin(), points.end(), [](const auto& a, const auto& b) {
    return a.result.useful_fraction.mean < b.result.useful_fraction.mean;
  });
}

SweepSeries sweep(std::string label, const Parameters& base, const std::vector<double>& xs,
                  const std::function<Parameters(Parameters, double)>& apply, const RunSpec& spec,
                  EngineKind engine, SweepJournal* journal) {
  if (!apply) throw std::invalid_argument("sweep: apply function required");
  spec.validate();
  SweepSeries series;
  series.label = std::move(label);
  series.points.resize(xs.size());
  // Materialise and validate every point serially (the apply callback is
  // caller-supplied and not required to be thread-safe), then dispatch the
  // flattened point x replication grid across the workers.  Replication r
  // of every point uses the canonical attempt-seed stream rooted at
  // replication_seed(spec.seed, r) — exactly what each point's serial
  // run_model would use — and aggregation walks replications in index
  // order, so the series is bit-identical for any thread count.
  for (std::size_t p = 0; p < xs.size(); ++p) {
    series.points[p].x = xs[p];
    series.points[p].params = apply(base, xs[p]);
    series.points[p].params.validate();
  }
  // Resume: restore journaled points, dispatch only the rest.
  std::vector<std::uint64_t> fingerprints(xs.size(), 0);
  std::vector<char> restored(xs.size(), 0);
  std::vector<std::size_t> pending;
  for (std::size_t p = 0; p < xs.size(); ++p) {
    if (journal != nullptr) {
      fingerprints[p] =
          journal_fingerprint(series.label, series.points[p].params, spec, engine, xs[p]);
      if (journal->lookup(fingerprints[p], &series.points[p].result)) {
        restored[p] = 1;
        continue;
      }
    }
    pending.push_back(p);
  }
  if (spec.sequential.enabled()) {
    sweep_adaptive(series, xs, pending, fingerprints, spec, engine, journal);
    return series;
  }
  const std::size_t reps = spec.replications;
  std::vector<std::vector<detail::ReplicationOutcome>> grid(pending.size());
  for (auto& row : grid) row.resize(reps);
  // Per-point countdown: the worker that completes a point's last
  // replication aggregates and journals it, so a kill or cancellation
  // never loses a finished point.
  std::unique_ptr<std::atomic<std::size_t>[]> remaining(
      new std::atomic<std::size_t>[pending.size()]);
  for (std::size_t q = 0; q < pending.size(); ++q) remaining[q].store(reps);
  std::vector<char> finalized(pending.size(), 0);
  std::atomic<bool> bail{false};
  std::size_t jobs = spec.exec.resolve();
  if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
  if (spec.progress != nullptr) {
    spec.progress->begin("sweep " + series.label, pending.size() * reps);
  }
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for_workers(jobs, pending.size() * reps, [&](std::size_t worker, std::size_t k) {
    const std::size_t q = k / reps;
    const std::size_t r = k % reps;
    const std::size_t p = pending[q];
    const bool abandoned =
        bail.load(std::memory_order_relaxed) ||
        (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed));
    if (!abandoned) {
      const obs::WorkerTimer timer(spec.metrics, worker);
      obs::ReplicationProbe probe;
      const SnapshotSpec snap = sweep_snapshot(series.points[p].params, p, spec, engine, r);
      grid[q][r] = detail::run_replication_guarded(
          series.points[p].params, engine, spec.seed, r, spec.transient, spec.horizon,
          spec.on_failure, spec.watchdog, spec.metrics != nullptr ? &probe : nullptr,
          spec.fault_injection, snap.enabled() ? &snap : nullptr);
      if (!grid[q][r].ok && spec.on_failure.mode != FailurePolicy::Mode::kSkip) {
        bail.store(true, std::memory_order_relaxed);
      }
      if (grid[q][r].ok && spec.metrics != nullptr) spec.metrics->shard(worker).absorb(probe);
      if (spec.progress != nullptr) spec.progress->tick();
    }
    if (remaining[q].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    // Last replication of point p: aggregate if every replication ran and
    // either succeeded or is skippable — otherwise leave it to the
    // post-loop collection, which throws the failure deterministically.
    for (const auto& o : grid[q]) {
      if (o.attempts == 0) return;
      if (!o.ok && spec.on_failure.mode != FailurePolicy::Mode::kSkip) return;
    }
    std::vector<ReplicationResult> successes;
    successes.reserve(reps);
    FailureAccounting accounting;
    for (const auto& o : grid[q]) {
      if (o.ok) {
        successes.push_back(o.result);
        if (o.attempts > 1) accounting.recovered.push_back(o.failure);
      } else {
        accounting.skipped.push_back(o.failure);
      }
    }
    series.points[p].result =
        aggregate_replications(successes, spec.confidence_level, series.points[p].params);
    series.points[p].result.failures = std::move(accounting);
    finalized[q] = 1;
    if (journal != nullptr) journal->record(fingerprints[p], xs[p], series.points[p].result);
    if (spec.metrics != nullptr) {
      spec.metrics->record_point(
          obs::PointRecord{series.label, xs[p], series.points[p].result.replications, {}});
    }
  });
  if (spec.metrics != nullptr) {
    spec.metrics->add_wall_seconds(
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (spec.progress != nullptr) spec.progress->finish();
  if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) {
    throw SimError(ErrorCode::kInterrupted,
                   "sweep '" + series.label + "': cancelled (completed points journaled)");
  }
  // Surface the failure with the smallest (point, replication) index —
  // deterministic for any thread count.
  for (std::size_t q = 0; q < pending.size(); ++q) {
    for (std::size_t r = 0; r < reps; ++r) {
      const auto& o = grid[q][r];
      if (o.ok || o.attempts == 0) continue;
      if (spec.on_failure.mode == FailurePolicy::Mode::kSkip) continue;
      const std::string context =
          "sweep '" + series.label + "' point " + std::to_string(pending[q]) +
          " (x = " + std::to_string(xs[pending[q]]) + "): replication " +
          std::to_string(o.failure.replication) + " failed after " +
          std::to_string(o.failure.attempts) + " attempt(s): " + o.failure.message;
      if (spec.on_failure.mode == FailurePolicy::Mode::kRetry) {
        throw SimError(ErrorCode::kRetriesExhausted, context);
      }
      throw SimError(o.failure.code, context);
    }
  }
  for (std::size_t q = 0; q < pending.size(); ++q) {
    if (finalized[q] == 0) {
      // Unreachable when the loop above found no failure, but guard anyway.
      throw SimError(ErrorCode::kModelError, "sweep '" + series.label + "' point " +
                                                 std::to_string(pending[q]) +
                                                 " finished without a result");
    }
  }
  return series;
}

std::vector<double> figure4_processor_axis() {
  return {8192, 16384, 32768, 65536, 131072, 262144};
}

std::vector<double> figure4_interval_axis_minutes() { return {15, 30, 60, 120, 240}; }

std::vector<double> figure5_processor_axis() {
  std::vector<double> xs;
  for (double n = 1; n <= 1073741824.0; n *= 4.0) xs.push_back(n);
  return xs;
}

}  // namespace ckptsim
