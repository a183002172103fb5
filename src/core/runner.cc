#include "src/core/runner.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "src/core/journal.h"
#include "src/model/des_model.h"
#include "src/model/san_model.h"
#include "src/obs/metrics.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"

namespace ckptsim {

namespace {

bool finite_result(const ReplicationResult& r) noexcept {
  return std::isfinite(r.useful_fraction) && std::isfinite(r.gross_execution_fraction) &&
         std::isfinite(r.observed_span) && std::isfinite(r.breakdown.total());
}

/// DES replication under event-granular crash-resume: resume from an
/// existing snapshot (whole-file validation first, then context check,
/// then state restore — any failure rejects the file outright), install
/// the periodic capture hook, run, and retire the snapshot on completion.
ReplicationResult run_des_snapshotted(const Parameters& params, std::uint64_t seed,
                                      double transient, double horizon,
                                      obs::ReplicationProbe* probe, std::uint64_t max_events,
                                      const SnapshotSpec& snap) {
  DesModel model(params, seed);
  bool resumed = false;
  if (snapshot::snapshot_exists(snap.path)) {
    const std::string payload = snapshot::read_snapshot_file(snap.path, snapshot::kKindDesModel);
    snapshot::StateReader r(payload);
    if (r.str() != snap.context) {
      throw snapshot::SnapshotError(snapshot::SnapshotFault::kContextMismatch,
                                    "snapshot '" + snap.path + "' belongs to a different run");
    }
    model.restore_state(r);
    r.expect_end();
    resumed = true;
  }
  model.set_event_budget(max_events);
  if (probe != nullptr) model.set_event_counts(&probe->events);
  model.set_fire_hook(snap.every, [&model, &snap] {
    snapshot::StateWriter w;
    w.str(snap.context);
    model.save_state(w);
    snapshot::write_snapshot_file(snap.path, snapshot::kKindDesModel, w.take());
    if (snap.stop != nullptr && snap.stop->load(std::memory_order_relaxed)) {
      throw SimError(ErrorCode::kInterrupted,
                     "replication drained at snapshot boundary ('" + snap.path + "')");
    }
  });
  const ReplicationResult r =
      resumed ? model.continue_run(transient, horizon) : model.run(transient, horizon);
  if (probe != nullptr) probe->queue = model.queue_stats();
  snapshot::remove_snapshot_file(snap.path);
  return r;
}
}  // namespace

std::string snapshot_run_context(const Parameters& params, std::uint64_t master_seed,
                                 double transient, double horizon, EngineKind engine,
                                 std::size_t rep) {
  std::string s = parameters_field_string(params);
  char buf[160];
  std::snprintf(buf, sizeof buf, "seed=%llu;transient=%.17g;horizon=%.17g;engine=%u;rep=%zu;",
                static_cast<unsigned long long>(master_seed), transient, horizon,
                static_cast<unsigned>(engine), rep);
  s += buf;
  return s;
}

RunResult aggregate_replications(const std::vector<ReplicationResult>& reps,
                                 double confidence_level, const Parameters& params) {
  RunResult result;
  if (reps.empty()) return result;  // all replications skipped: zeroed result
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (!finite_result(reps[i])) {
      throw SimError(ErrorCode::kNonFiniteReward,
                     "aggregate_replications: replication " + std::to_string(i) +
                         " reported a non-finite reward (useful_fraction = " +
                         std::to_string(reps[i].useful_fraction) + ")");
    }
  }
  result.replications = reps.size();
  for (const auto& r : reps) {
    result.fraction_replicates.add(r.useful_fraction);
    result.gross_replicates.add(r.gross_execution_fraction);
    result.mean_breakdown += r.breakdown;
    result.totals += r.counters;
  }
  result.mean_breakdown = result.mean_breakdown / static_cast<double>(reps.size());
  result.useful_fraction = stats::mean_confidence(result.fraction_replicates, confidence_level);
  result.total_useful_work =
      result.useful_fraction.mean * static_cast<double>(params.num_processors);
  return result;
}

ReplicationResult run_replication(const Parameters& params, EngineKind engine, std::uint64_t seed,
                                  double transient, double horizon, obs::ReplicationProbe* probe,
                                  std::uint64_t max_events, const SnapshotSpec* snapshot) {
  switch (engine) {
    case EngineKind::kDes: {
      if (snapshot != nullptr && snapshot->enabled()) {
        return run_des_snapshotted(params, seed, transient, horizon, probe, max_events,
                                   *snapshot);
      }
      DesModel model(params, seed);
      model.set_event_budget(max_events);
      if (probe != nullptr) model.set_event_counts(&probe->events);
      ReplicationResult r = model.run(transient, horizon);
      if (probe != nullptr) probe->queue = model.queue_stats();
      return r;
    }
    case EngineKind::kSan: {
      SanCheckpointModel model(params);
      return model.run_replication(seed, transient, horizon, probe, max_events, snapshot);
    }
  }
  throw std::logic_error("run_replication: unknown engine");
}

namespace detail {

ReplicationOutcome run_replication_guarded(
    const Parameters& params, EngineKind engine, std::uint64_t master_seed, std::size_t rep,
    double transient, double horizon, const FailurePolicy& policy, const WatchdogSpec& watchdog,
    obs::ReplicationProbe* probe,
    const std::function<void(std::size_t, std::size_t)>& fault_injection,
    const SnapshotSpec* snapshot) {
  ReplicationOutcome out;
  static_cast<ReplicationStatus&>(out) = run_attempts(
      master_seed, rep, policy, fault_injection,
      [&](std::uint64_t seed, std::string* why) {
        // A fresh probe per attempt: a failed attempt's partial counts must
        // not leak into the telemetry of the attempt that succeeds.
        obs::ReplicationProbe attempt_probe;
        out.result = run_replication(params, engine, seed, transient, horizon,
                                     probe != nullptr ? &attempt_probe : nullptr,
                                     watchdog.max_events, snapshot);
        if (!finite_result(out.result)) {
          *why = "useful_fraction = " + std::to_string(out.result.useful_fraction);
          return false;
        }
        if (probe != nullptr) *probe = attempt_probe;
        return true;
      },
      snapshot);
  return out;
}

std::vector<GroupOutcomes<ReplicationResult>> replicate_points(
    const std::vector<Point>& points, const RunSpec& spec, EngineKind engine,
    const DriverSpec& driver, ReplicationTasks<ReplicationResult> tasks) {
  tasks.run = [&](std::size_t worker, std::size_t group, std::size_t rep,
                  ReplicationResult& result) {
    const Parameters& params = *points[group].params;
    // One snapshot file per (point, replication), its context bound to
    // the point's own parameters, so a neighbour's snapshot is never
    // spliced in.
    SnapshotSpec snap;
    if (spec.snapshot_every_events > 0) {
      snap.every = spec.snapshot_every_events;
      snap.path = spec.snapshot_dir + "/" + points[group].snapshot_stem + std::to_string(rep) +
                  ".snap";
      snap.context =
          snapshot_run_context(params, spec.seed, spec.transient, spec.horizon, engine, rep);
    }
    obs::ReplicationProbe probe;
    ReplicationOutcome o = run_replication_guarded(
        params, engine, spec.seed, rep, spec.transient, spec.horizon, spec.on_failure,
        spec.watchdog, spec.metrics != nullptr ? &probe : nullptr, spec.fault_injection,
        snap.enabled() ? &snap : nullptr);
    if (o.ok && spec.metrics != nullptr) spec.metrics->shard(worker).absorb(probe);
    result = o.result;
    return static_cast<ReplicationStatus>(o);
  };
  tasks.value = [](const ReplicationResult& r) { return r.useful_fraction; };
  return replicate(driver, points.size(), tasks);
}

RunResult aggregate_outcomes(const std::vector<ReplicationOutcome>& outcomes,
                             const std::vector<std::uint32_t>& rounds, double confidence_level,
                             const Parameters& params) {
  std::vector<ReplicationResult> successes;
  successes.reserve(outcomes.size());
  for (const ReplicationOutcome& o : outcomes) {
    if (o.ok) successes.push_back(o.result);
  }
  RunResult result = aggregate_replications(successes, confidence_level, params);
  result.failures = failure_accounting(outcomes);
  result.rounds = rounds;
  return result;
}

}  // namespace detail

RunResult run_model(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  params.validate();
  spec.validate();
  if (params.proactive_enabled()) {
    // The base engines would silently ignore the predictor and policy;
    // refuse instead of reporting misleading results.
    throw std::invalid_argument(
        "run_model: proactive fault tolerance runs under proactive::run_proactive "
        "(CLI: --mode proactive)");
  }
  const auto groups = detail::replicate_points({detail::Point{&params, "rep-"}}, spec, engine,
                                               detail::driver_spec(spec, "run_model"), {});
  return detail::aggregate_outcomes(groups[0].reps, groups[0].rounds, spec.confidence_level,
                                    params);
}

double total_useful_work(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  return run_model(params, spec, engine).total_useful_work;
}

}  // namespace ckptsim
