#include "src/core/sweep.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/core/journal.h"
#include "src/obs/metrics.h"

namespace ckptsim {

namespace {

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
  std::vector<std::size_t> pending;
  std::vector<detail::Point> points;
  for (std::size_t p = 0; p < xs.size(); ++p) {
    if (journal != nullptr) {
      fingerprints[p] =
          journal_fingerprint(series.label, series.points[p].params, spec, engine, xs[p]);
      if (journal->lookup(fingerprints[p], &series.points[p].result)) continue;
    }
    pending.push_back(p);
    // Snapshot paths use the global point index, so they stay stable
    // across resumed sweeps.
    points.push_back(
        detail::Point{&series.points[p].params, "point-" + std::to_string(p) + "-rep-"});
  }
  detail::DriverSpec driver = detail::driver_spec(spec, "sweep " + series.label);
  driver.cancel_message = "sweep '" + series.label + "': cancelled (completed points journaled)";
  detail::ReplicationTasks<ReplicationResult> tasks;
  // The worker that finishes a point aggregates and journals it, so a kill
  // or cancellation never loses a finished point.
  tasks.group_done = [&](std::size_t q, const detail::GroupOutcomes<ReplicationResult>& g) {
    const std::size_t p = pending[q];
    RunResult& result = series.points[p].result;
    result = detail::aggregate_outcomes(g.reps, g.rounds, spec.confidence_level,
                                        series.points[p].params);
    if (journal != nullptr) journal->record(fingerprints[p], xs[p], result);
    if (spec.metrics != nullptr) {
      spec.metrics->record_point(
          obs::PointRecord{series.label, xs[p], result.replications, g.rounds});
    }
  };
  tasks.where = [&](std::size_t q) {
    return "sweep '" + series.label + "' point " + std::to_string(pending[q]) +
           " (x = " + std::to_string(xs[pending[q]]) + "): ";
  };
  (void)detail::replicate_points(points, spec, engine, driver, std::move(tasks));
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
