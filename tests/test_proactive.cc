// Proactive fault-tolerance layer: failure-predictor statistics at pinned
// seeds, the CRN contract (prediction quality and policy choice never
// perturb the true-failure streams), policy-specific reward accounting,
// degenerate predictor limits, golden trajectories per policy, and
// worker-count determinism of the run_proactive driver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/proactive/predictor.h"
#include "src/proactive/proactive_model.h"
#include "src/proactive/run.h"
#include "src/sim/rng.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::ProactivePolicy;
using ckptsim::RunSpec;
using ckptsim::proactive::FailurePredictor;
using ckptsim::proactive::ProactiveCounters;
using ckptsim::proactive::ProactiveModel;
using ckptsim::proactive::ProactiveReplication;
using ckptsim::proactive::ProactiveResult;
using ckptsim::proactive::run_proactive;
using ckptsim::sim::RngPool;
using ckptsim::sim::fnv1a64;
using ckptsim::trace::EventLog;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

Parameters predictor_params(double precision, double recall, double lead_s) {
  Parameters p;
  p.predictor_enabled = true;
  p.predictor_precision = precision;
  p.predictor_recall = recall;
  p.predictor_lead_time = lead_s;
  return p;
}

RunSpec fast_spec(std::size_t reps = 3) {
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 300.0 * kHour;
  spec.replications = reps;
  return spec;
}

// ------------------------------------------------------------ FailurePredictor

TEST(Predictor, DisabledNeverPredictsAndHasNoFalseAlarms) {
  Parameters p;  // predictor_enabled = false
  RngPool pool(1);
  FailurePredictor pred(p, pool, /*base_failure_rate=*/1e-3);
  EXPECT_FALSE(pred.enabled());
  EXPECT_EQ(pred.false_alarm_rate(), 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(pred.predict(0.0, 1000.0).has_value());
  }
}

TEST(Predictor, ZeroRecallNeverWarns) {
  const Parameters p = predictor_params(1.0, 0.0, 300.0);
  RngPool pool(2);
  FailurePredictor pred(p, pool, 1e-3);
  EXPECT_EQ(pred.false_alarm_rate(), 0.0);  // recall scales the false rate too
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(pred.predict(0.0, 1000.0).has_value());
  }
}

TEST(Predictor, PerfectPrecisionHasNoFalseAlarmProcess) {
  const Parameters p = predictor_params(1.0, 0.8, 300.0);
  RngPool pool(3);
  FailurePredictor pred(p, pool, 1e-3);
  EXPECT_EQ(pred.false_alarm_rate(), 0.0);
}

TEST(Predictor, FalseAlarmRateMatchesPrecisionFormula) {
  // rate_false = recall * rate_fail * (1 - precision) / precision, exactly.
  const double precision = 0.8, recall = 0.5, rate = 2e-3;
  const Parameters p = predictor_params(precision, recall, 300.0);
  RngPool pool(4);
  FailurePredictor pred(p, pool, rate);
  EXPECT_DOUBLE_EQ(pred.false_alarm_rate(), recall * rate * (1.0 - precision) / precision);
}

TEST(Predictor, RecallConvergesBinomially) {
  // 4000 armed failures at recall 0.7: the hit count is Binomial(n, 0.7).
  // At the pinned seed the z-score is one exact number; |z| < 4 leaves
  // no room for a flipped Bernoulli or a recall/precision swap.
  const double recall = 0.7;
  const Parameters p = predictor_params(1.0, recall, 300.0);
  RngPool pool(5);
  FailurePredictor pred(p, pool, 1e-3);
  const std::size_t n = 4000;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred.predict(0.0, 1e9).has_value()) ++hits;
  }
  const double nn = static_cast<double>(n);
  const double z = (static_cast<double>(hits) - nn * recall) /
                   std::sqrt(nn * recall * (1.0 - recall));
  EXPECT_LT(std::abs(z), 4.0) << "hits = " << hits << " of " << n;
}

TEST(Predictor, WarningNeverBeforeNowNorAfterFailure) {
  const Parameters p = predictor_params(1.0, 1.0, 600.0);
  RngPool pool(6);
  FailurePredictor pred(p, pool, 1e-3);
  for (int i = 0; i < 2000; ++i) {
    const double now = 100.0 * i;
    const double fire = now + 30.0;  // lead mean 600 s >> gap: clamps often
    const std::optional<double> warn = pred.predict(now, fire);
    ASSERT_TRUE(warn.has_value());
    EXPECT_GE(*warn, now);
    EXPECT_LE(*warn, fire);
  }
}

TEST(Predictor, FalseAlarmGapMeanMatchesRate) {
  const Parameters p = predictor_params(0.5, 0.8, 300.0);
  RngPool pool(7);
  const double rate = 1e-3;
  FailurePredictor pred(p, pool, rate);
  const double expected_rate = 0.8 * rate * (1.0 - 0.5) / 0.5;
  ASSERT_GT(pred.false_alarm_rate(), 0.0);
  const std::size_t n = 4000;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += pred.sample_false_alarm_gap();
  const double mean = sum / static_cast<double>(n);
  const double expected_mean = 1.0 / expected_rate;
  // Exponential sample mean: sd = mean / sqrt(n); allow 4 sigma.
  EXPECT_NEAR(mean, expected_mean, 4.0 * expected_mean / std::sqrt(static_cast<double>(n)));
}

// ---------------------------------------------------------------- validation

TEST(ProactiveValidation, ReactivePoliciesRequireThePredictor) {
  Parameters p;
  p.proactive_policy = ProactivePolicy::kProactiveCheckpoint;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.proactive_policy = ProactivePolicy::kMigrate;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.predictor_enabled = true;
  EXPECT_NO_THROW(p.validate());
}

TEST(ProactiveValidation, MalleableNeedsAtLeastTwoNodes) {
  Parameters p;
  p.proactive_policy = ProactivePolicy::kMalleable;
  p.num_processors = 8;  // one node
  p.processors_per_node = 8;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.num_processors = 16;
  EXPECT_NO_THROW(p.validate());
}

TEST(ProactiveValidation, PredictorBoundsEnforced) {
  Parameters p = predictor_params(0.0, 0.5, 300.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);  // precision must be > 0
  p = predictor_params(0.8, 1.5, 300.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);  // recall <= 1
  p = predictor_params(0.8, 0.5, -1.0);
  EXPECT_THROW(p.validate(), std::invalid_argument);  // lead >= 0
}

TEST(ProactiveValidation, RunModelRejectsProactiveParameters) {
  const Parameters p = predictor_params(0.8, 0.5, 300.0);
  EXPECT_THROW((void)ckptsim::run_model(p, fast_spec(), EngineKind::kDes),
               std::invalid_argument);
}

TEST(ProactiveValidation, PolicyNamesRoundTrip) {
  for (const ProactivePolicy policy :
       {ProactivePolicy::kNone, ProactivePolicy::kProactiveCheckpoint,
        ProactivePolicy::kMigrate, ProactivePolicy::kMalleable}) {
    EXPECT_EQ(ckptsim::parse_proactive_policy(ckptsim::to_string(policy)), policy);
  }
  EXPECT_THROW((void)ckptsim::parse_proactive_policy("bogus"), std::invalid_argument);
}

// -------------------------------------------------------------- CRN contract

TEST(ProactiveCrn, FailureTrajectoryInvariantAcrossPredictorSettings) {
  const RunSpec spec = fast_spec();
  Parameters off;
  const ProactiveResult base = run_proactive(off, spec);
  ASSERT_EQ(base.failures_per_rep.size(), spec.replications);
  for (const auto& [precision, recall] :
       std::vector<std::pair<double, double>>{{1.0, 1.0}, {0.5, 0.3}, {0.9, 0.05}}) {
    const Parameters p = predictor_params(precision, recall, 300.0);
    const ProactiveResult r = run_proactive(p, spec);
    EXPECT_EQ(r.failures_per_rep, base.failures_per_rep)
        << "precision " << precision << " recall " << recall;
  }
}

TEST(ProactiveCrn, FailureTrajectoryInvariantAcrossPolicies) {
  const RunSpec spec = fast_spec();
  const Parameters none;  // reactive baseline, predictor off
  const std::uint64_t baseline = run_proactive(none, spec).failures_checksum();
  for (const ProactivePolicy policy :
       {ProactivePolicy::kNone, ProactivePolicy::kProactiveCheckpoint,
        ProactivePolicy::kMigrate, ProactivePolicy::kMalleable}) {
    Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
    p.proactive_policy = policy;
    EXPECT_EQ(run_proactive(p, spec).failures_checksum(), baseline)
        << ckptsim::to_string(policy);
  }
}

TEST(ProactiveCrn, PolicyNoneMatchesRunModelBitExactly) {
  const RunSpec spec = fast_spec();
  const Parameters p;  // predictor off, policy none
  const ProactiveResult pro = run_proactive(p, spec);
  const ckptsim::RunResult ref = ckptsim::run_model(p, spec, EngineKind::kDes);
  EXPECT_EQ(pro.run.useful_fraction.mean, ref.useful_fraction.mean);
  EXPECT_EQ(pro.run.useful_fraction.half_width, ref.useful_fraction.half_width);
  EXPECT_EQ(pro.run.total_useful_work, ref.total_useful_work);
  EXPECT_EQ(pro.run.replications, ref.replications);
  EXPECT_EQ(pro.totals.predictions_true, 0u);
  EXPECT_EQ(pro.totals.false_alarms, 0u);
}

// ---------------------------------------------------------------- policies

TEST(ProactivePolicy, ZeroRecallCheckpointPolicyMatchesBaseline) {
  // recall 0 with precision 1: no warnings, no false alarms — the policy
  // never acts, so rewards are bit-identical to the reactive baseline.
  const RunSpec spec = fast_spec();
  Parameters base = predictor_params(1.0, 0.0, 300.0);
  Parameters acting = base;
  acting.proactive_policy = ProactivePolicy::kProactiveCheckpoint;
  const ProactiveResult a = run_proactive(base, spec);
  const ProactiveResult b = run_proactive(acting, spec);
  EXPECT_EQ(a.run.useful_fraction.mean, b.run.useful_fraction.mean);
  EXPECT_EQ(a.run.total_useful_work, b.run.total_useful_work);
  EXPECT_EQ(b.totals.proactive_ckpts, 0u);
  EXPECT_EQ(b.totals.predictions_true, 0u);
}

TEST(ProactivePolicy, ProactiveCheckpointImprovesOnBaseline) {
  // CRN-paired: the same failure trajectory under both configurations, so
  // the comparison is a policy effect, not noise.
  const RunSpec spec = fast_spec();
  Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
  const double baseline = run_proactive(p, spec).run.useful_fraction.mean;
  p.proactive_policy = ProactivePolicy::kProactiveCheckpoint;
  const ProactiveResult r = run_proactive(p, spec);
  EXPECT_GT(r.run.useful_fraction.mean, baseline);
  EXPECT_GT(r.totals.proactive_ckpts, 0u);
}

TEST(ProactivePolicy, MigrateAbsorbsPredictedFailures) {
  const RunSpec spec = fast_spec();
  Parameters p = predictor_params(1.0, 1.0, 10.0 * kMinute);
  p.proactive_policy = ProactivePolicy::kMigrate;
  p.migration_time = 30.0;
  const double baseline = run_proactive(predictor_params(1.0, 1.0, 10.0 * kMinute), spec)
                              .run.useful_fraction.mean;
  const ProactiveResult r = run_proactive(p, spec);
  EXPECT_GT(r.totals.migrations, 0u);
  EXPECT_GT(r.totals.failures_absorbed, 0u);
  EXPECT_LE(r.totals.failures_absorbed, r.totals.migrations);
  EXPECT_GT(r.run.useful_fraction.mean, baseline);
}

TEST(ProactivePolicy, MalleableRescaleAccountingIsConsistent) {
  const RunSpec spec = fast_spec();
  Parameters p;
  p.proactive_policy = ProactivePolicy::kMalleable;
  const ProactiveResult r = run_proactive(p, spec);
  // Every rescale absorbs exactly the failure that triggered it, performs
  // no other proactive action, and each repair regrows one shrunk node.
  EXPECT_GT(r.totals.rescales, 0u);
  EXPECT_EQ(r.totals.failures_absorbed, r.totals.rescales);
  EXPECT_EQ(r.totals.proactive_ckpts, 0u);
  EXPECT_EQ(r.totals.migrations, 0u);
  // repairs <= rescales holds only for lifetime counters (a pre-warmup
  // rescale can complete its repair inside the window); check it on a
  // single un-windowed replication.
  ProactiveModel model(p, /*seed=*/17);
  (void)model.run_replication(0.0, spec.transient + spec.horizon);
  const ProactiveCounters& life = model.lifetime_proactive();
  EXPECT_GT(life.rescales, 0u);
  EXPECT_LE(life.repairs, life.rescales);
  // Degraded capacity still beats rolling back: useful fraction improves
  // over the reactive baseline under the same failure trajectory.
  const double baseline = run_proactive(Parameters{}, spec).run.useful_fraction.mean;
  EXPECT_GT(r.run.useful_fraction.mean, baseline);
}

TEST(ProactivePolicy, WindowedCountersExcludeWarmup) {
  // Lifetime counters cover t = 0; the replication result is windowed to
  // [transient, transient + horizon], so lifetime >= windowed.
  Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
  p.proactive_policy = ProactivePolicy::kProactiveCheckpoint;
  ProactiveModel model(p, /*seed=*/99);
  const ProactiveReplication rep = model.run_replication(20.0 * kHour, 200.0 * kHour);
  const ProactiveCounters& life = model.lifetime_proactive();
  EXPECT_GE(life.predictions_true, rep.pro.predictions_true);
  EXPECT_GE(life.proactive_ckpts, rep.pro.proactive_ckpts);
  EXPECT_GT(life.predictions_true, 0u);
}

// ------------------------------------------------------------- determinism

TEST(ProactiveDeterminism, WorkerCountInvariance) {
  Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
  p.proactive_policy = ProactivePolicy::kMigrate;
  RunSpec spec = fast_spec(/*reps=*/6);
  spec.exec.jobs = 1;
  const ProactiveResult serial = run_proactive(p, spec);
  spec.exec.jobs = 4;
  const ProactiveResult parallel = run_proactive(p, spec);
  EXPECT_EQ(serial.run.useful_fraction.mean, parallel.run.useful_fraction.mean);
  EXPECT_EQ(serial.run.total_useful_work, parallel.run.total_useful_work);
  EXPECT_EQ(serial.failures_per_rep, parallel.failures_per_rep);
  EXPECT_EQ(serial.totals.migrations, parallel.totals.migrations);
  EXPECT_EQ(serial.describe(), parallel.describe());
}

TEST(ProactiveDeterminism, RepeatedRunIsByteIdentical) {
  Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
  p.proactive_policy = ProactivePolicy::kMalleable;
  const RunSpec spec = fast_spec();
  EXPECT_EQ(run_proactive(p, spec).describe(), run_proactive(p, spec).describe());
}

TEST(ProactiveDeterminism, SequentialStoppingIsWorkerCountInvariant) {
  Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
  p.proactive_policy = ProactivePolicy::kProactiveCheckpoint;
  RunSpec spec = fast_spec();
  spec.sequential.rel_precision = 0.05;
  spec.sequential.min_replications = 3;
  spec.sequential.max_replications = 12;
  spec.exec.jobs = 1;
  const ProactiveResult serial = run_proactive(p, spec);
  spec.exec.jobs = 4;
  const ProactiveResult parallel = run_proactive(p, spec);
  EXPECT_EQ(serial.run.replications, parallel.run.replications);
  EXPECT_EQ(serial.run.rounds, parallel.run.rounds);
  EXPECT_EQ(serial.run.useful_fraction.mean, parallel.run.useful_fraction.mean);
}

// -------------------------------------------------------- golden trajectories

/// Checksum of a full DES event log (same rendering as
/// test_golden_trajectory.cc: %.17g per field, so the hash is sensitive to
/// the last bit of every double).
std::uint64_t event_log_checksum(const EventLog& log) {
  std::string s;
  s.reserve(log.size() * 48);
  char buf[96];
  for (const auto& e : log.events()) {
    std::snprintf(buf, sizeof buf, "%.17g|%u|%.17g;", e.time,
                  static_cast<unsigned>(e.kind), e.value);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "#%llu",
                static_cast<unsigned long long>(log.total_recorded()));
  s += buf;
  return fnv1a64(s);
}

std::uint64_t policy_trajectory_checksum(ProactivePolicy policy) {
  Parameters p = predictor_params(0.8, 0.7, 5.0 * kMinute);
  p.proactive_policy = policy;
  EventLog log(1 << 18);
  ProactiveModel model(p, /*seed=*/20260809);
  model.set_event_log(&log);
  (void)model.run_replication(/*transient=*/0.0, /*horizon=*/60.0 * kHour);
  EXPECT_FALSE(log.dropped_any());
  return event_log_checksum(log);
}

// Pinned baselines, captured once from a verified build.  Any change to
// proactive event ordering, stream consumption, or pause semantics moves
// these; re-pin only in a PR that *claims* a behavioural change.
constexpr std::uint64_t kGoldenProactiveCkpt = 0xed2b249587162b09ULL;
constexpr std::uint64_t kGoldenMigrate = 0xdb5cfcdd56f9d259ULL;
constexpr std::uint64_t kGoldenMalleable = 0x00481031054e82acULL;

TEST(ProactiveGolden, ProactiveCheckpointTrajectoryIsPinned) {
  const std::uint64_t c = policy_trajectory_checksum(ProactivePolicy::kProactiveCheckpoint);
  EXPECT_EQ(c, kGoldenProactiveCkpt) << "new checksum 0x" << std::hex << c;
}

TEST(ProactiveGolden, MigrateTrajectoryIsPinned) {
  const std::uint64_t c = policy_trajectory_checksum(ProactivePolicy::kMigrate);
  EXPECT_EQ(c, kGoldenMigrate) << "new checksum 0x" << std::hex << c;
}

TEST(ProactiveGolden, MalleableTrajectoryIsPinned) {
  const std::uint64_t c = policy_trajectory_checksum(ProactivePolicy::kMalleable);
  EXPECT_EQ(c, kGoldenMalleable) << "new checksum 0x" << std::hex << c;
}

}  // namespace
