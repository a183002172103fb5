#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <stdexcept>
#include <vector>

#include "src/analytic/coordination.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"

namespace {

using ckptsim::CoordinationMode;
using ckptsim::DesModel;
using ckptsim::Parameters;
using ckptsim::ReplicationResult;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

Parameters failure_free() {
  Parameters p;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  return p;
}

ReplicationResult run(const Parameters& p, double hours = 500.0, std::uint64_t seed = 1) {
  DesModel model(p, seed);
  return model.run(/*transient=*/20.0 * kHour, hours * kHour);
}

TEST(DesProtocol, FailureFreeCycleCounting) {
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kFixedQuiesce;
  const auto r = run(p, 500.0);
  // Cycle length = interval + bcast + quiesce + dump ~ 30 min + ~57 s.
  const double cycle = p.checkpoint_interval + p.quiesce_broadcast_latency() + p.mttq +
                       p.checkpoint_dump_time();
  const double expected = 500.0 * kHour / cycle;
  EXPECT_NEAR(static_cast<double>(r.counters.ckpt_initiated), expected, expected * 0.03);
  // Every initiated checkpoint completes and commits (no failures).
  EXPECT_EQ(r.counters.ckpt_initiated, r.counters.ckpt_dumped);
  EXPECT_EQ(r.counters.ckpt_aborted_timeout, 0u);
  EXPECT_EQ(r.counters.ckpt_aborted_failure, 0u);
  EXPECT_EQ(r.counters.recoveries_started, 0u);
  // Commit (file-system write) trails the dump by ~131 s, so the committed
  // count can lag by at most one cycle.
  EXPECT_NEAR(static_cast<double>(r.counters.ckpt_committed),
              static_cast<double>(r.counters.ckpt_dumped), 1.0);
}

TEST(DesProtocol, FailureFreeFractionMatchesClosedForm) {
  for (const auto mode : {CoordinationMode::kFixedQuiesce, CoordinationMode::kSystemExponential,
                          CoordinationMode::kMaxOfExponentials}) {
    Parameters p = failure_free();
    p.coordination = mode;
    const auto r = run(p, 800.0);
    const double analytic = ckptsim::analytic::coordination_only_fraction(p);
    EXPECT_NEAR(r.useful_fraction, analytic, 0.005)
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(DesProtocol, UsefulEqualsGrossWithoutFailures) {
  const auto r = run(failure_free(), 300.0);
  EXPECT_DOUBLE_EQ(r.useful_fraction, r.gross_execution_fraction);
}

TEST(DesProtocol, CoordinationCostGrowsLogarithmically) {
  // Figure 5: the useful-work fraction decays slowly (log n) with scale.
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kMaxOfExponentials;
  double prev = 1.0;
  for (const std::uint64_t n : {1024ULL, 65536ULL, 4194304ULL, 268435456ULL}) {
    p.num_processors = n;
    const auto r = run(p, 300.0, /*seed=*/n);
    EXPECT_LT(r.useful_fraction, prev) << n;
    prev = r.useful_fraction;
  }
  EXPECT_GT(prev, 0.80);  // even at 256M processors the loss is modest (MTTQ 10 s)
}

TEST(DesProtocol, SmallerMttqImprovesFraction) {
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kMaxOfExponentials;
  p.mttq = 10.0;
  const double slow = run(p, 300.0).useful_fraction;
  p.mttq = 0.5;
  const double fast = run(p, 300.0).useful_fraction;
  EXPECT_GT(fast, slow);
}

TEST(DesProtocol, BackgroundWriteBeatsSynchronousWrite) {
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kFixedQuiesce;
  p.background_fs_write = true;
  const double bg = run(p, 400.0).useful_fraction;
  p.background_fs_write = false;
  const double sync = run(p, 400.0).useful_fraction;
  EXPECT_GT(bg, sync);
  // The gap should be roughly fs_write / cycle ~ 131 s / 30 min ~ 6-7%.
  EXPECT_NEAR(bg - sync, 0.065, 0.02);
}

TEST(DesProtocol, ShorterIntervalCostsMoreOverheadWithoutFailures) {
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kFixedQuiesce;
  p.checkpoint_interval = 15.0 * kMinute;
  const double frequent = run(p, 400.0).useful_fraction;
  p.checkpoint_interval = 240.0 * kMinute;
  const double rare = run(p, 400.0).useful_fraction;
  EXPECT_GT(rare, frequent);  // without failures, checkpoints are pure cost
}

TEST(DesProtocol, TimeoutAbortsMatchMaxQuantile) {
  // With failures off, the abort ratio must match P(Y > timeout).
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kMaxOfExponentials;
  p.num_processors = 65536;
  p.timeout = 100.0;
  const auto r = run(p, 2000.0);
  const double aborts = static_cast<double>(r.counters.ckpt_aborted_timeout);
  const double total = static_cast<double>(r.counters.ckpt_initiated);
  const double predicted =
      ckptsim::analytic::timeout_abort_probability(p.num_processors, p.mttq, p.timeout);
  EXPECT_GT(predicted, 0.05);
  EXPECT_LT(predicted, 0.95);
  EXPECT_NEAR(aborts / total, predicted, 0.04);
  EXPECT_EQ(r.counters.ckpt_initiated,
            r.counters.ckpt_dumped + r.counters.ckpt_aborted_timeout);
}

TEST(DesProtocol, GenerousTimeoutAlmostNeverAborts) {
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kMaxOfExponentials;
  p.timeout = 300.0;
  const auto r = run(p, 1000.0);
  EXPECT_LT(static_cast<double>(r.counters.ckpt_aborted_timeout),
            0.01 * static_cast<double>(r.counters.ckpt_initiated) + 2.0);
}

TEST(DesProtocol, AppIoBurstsDelayButDontBlockCheckpoints) {
  Parameters p = failure_free();
  p.coordination = CoordinationMode::kFixedQuiesce;
  p.compute_fraction = 0.88;  // long 21.6 s bursts
  const auto r = run(p, 500.0);
  EXPECT_GT(r.counters.ckpt_dumped, 0u);
  // Work done during bursts still counts as useful.
  EXPECT_GT(r.useful_fraction, 0.9);
}

TEST(DesProtocol, PureComputeWorkloadMatchesDisabledAppIo) {
  Parameters with_io = failure_free();
  with_io.coordination = CoordinationMode::kFixedQuiesce;
  Parameters no_io = with_io;
  no_io.app_io_enabled = false;
  const double a = run(with_io, 400.0).useful_fraction;
  const double b = run(no_io, 400.0).useful_fraction;
  // App I/O only adds a small expected quiesce wait; fractions are close.
  EXPECT_NEAR(a, b, 0.01);
}

TEST(DesProtocol, DeterministicForSameSeed) {
  Parameters p;
  DesModel m1(p, 777), m2(p, 777);
  const auto r1 = m1.run(10.0 * kHour, 200.0 * kHour);
  const auto r2 = m2.run(10.0 * kHour, 200.0 * kHour);
  EXPECT_DOUBLE_EQ(r1.useful_fraction, r2.useful_fraction);
  EXPECT_EQ(r1.counters.compute_failures, r2.counters.compute_failures);
  EXPECT_EQ(r1.counters.ckpt_dumped, r2.counters.ckpt_dumped);
}

TEST(DesProtocol, DifferentSeedsDiffer) {
  Parameters p;
  DesModel m1(p, 1), m2(p, 2);
  const auto r1 = m1.run(10.0 * kHour, 200.0 * kHour);
  const auto r2 = m2.run(10.0 * kHour, 200.0 * kHour);
  EXPECT_NE(r1.useful_fraction, r2.useful_fraction);
}

TEST(DesProtocol, SingleShotRunGuard) {
  DesModel m(Parameters{}, 1);
  (void)m.run(1.0 * kHour, 1.0 * kHour);
  EXPECT_THROW(m.run(1.0, 1.0), std::logic_error);
  EXPECT_THROW(DesModel(Parameters{}, 2).run(0.0, 0.0), std::invalid_argument);
}

/// DesModel with three probe slots of its own, exposing the scheduler the
/// model runs on.
class SlotProbe : public DesModel {
 public:
  enum : std::uint32_t { kA = kNumBaseSlots, kB, kC, kNumProbeSlots };
  explicit SlotProbe(const Parameters& p) : DesModel(p, /*seed=*/1, kNumProbeSlots) {}
  using DesModel::cancel;
  using DesModel::now;
  using DesModel::schedule_at;
  std::vector<std::uint32_t> fired;

 protected:
  void fire_extension(std::uint32_t slot) override { fired.push_back(slot); }
};

TEST(DesScheduler, TiesFireInInsertionOrderNotSlotOrder) {
  SlotProbe m(failure_free());
  m.schedule_at(SlotProbe::kC, 5.0);
  m.schedule_at(SlotProbe::kA, 5.0);
  m.schedule_at(SlotProbe::kB, 2.0);
  (void)m.run(0.0, 1.0 * kHour);
  EXPECT_EQ(m.fired, (std::vector<std::uint32_t>{SlotProbe::kB, SlotProbe::kC, SlotProbe::kA}));
}

TEST(DesScheduler, CancelledSlotNeverFiresAndIsCounted) {
  SlotProbe m(failure_free());
  m.schedule_at(SlotProbe::kA, 5.0);
  m.schedule_at(SlotProbe::kB, 6.0);
  m.cancel(SlotProbe::kA);
  m.cancel(SlotProbe::kA);  // no longer pending: a no-op
  EXPECT_EQ(m.queue_stats().cancelled, 1u);
  EXPECT_EQ(m.queue_stats().scheduled, 2u);
  (void)m.run(0.0, 1.0 * kHour);
  EXPECT_EQ(m.fired, (std::vector<std::uint32_t>{SlotProbe::kB}));
}

TEST(DesScheduler, RejectsDoubleArmingAndBadTimes) {
  SlotProbe m(failure_free());
  m.schedule_at(SlotProbe::kA, 5.0);
  EXPECT_THROW(m.schedule_at(SlotProbe::kA, 6.0), std::logic_error);
  EXPECT_THROW(m.schedule_at(SlotProbe::kB, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(m.schedule_at(SlotProbe::kB, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  (void)m.run(0.0, 1.0 * kHour);
  EXPECT_THROW(m.schedule_at(SlotProbe::kB, 1.0), std::invalid_argument);  // in the past
}

/// Failure-free, no application I/O and a first checkpoint beyond every
/// horizon used here: the base model fires nothing, so every fired event
/// is a probe slot.
Parameters quiet() {
  Parameters p = failure_free();
  p.app_io_enabled = false;
  p.checkpoint_interval = 1e9;
  return p;
}

/// DesModel built with an arbitrary slot count and no extension handler.
class SizedModel : public DesModel {
 public:
  static constexpr std::uint32_t kBase = kNumBaseSlots;
  static constexpr std::uint32_t kMax = kMaxSlots;
  SizedModel(const Parameters& p, std::uint32_t num_slots) : DesModel(p, 1, num_slots) {}
  using DesModel::schedule_at;
};

TEST(DesScheduler, FireHookRunsAfterEveryNthEventHandler) {
  SlotProbe m(quiet());
  m.schedule_at(SlotProbe::kA, 1.0);
  m.schedule_at(SlotProbe::kB, 2.0);
  m.schedule_at(SlotProbe::kC, 3.0);
  std::vector<std::size_t> seen;  // probe firings visible to each hook call
  m.set_fire_hook(2, [&] {
    EXPECT_EQ(m.queue_stats().fired % 2, 0u);
    seen.push_back(m.fired.size());
  });
  (void)m.run(0.0, 10.0);
  EXPECT_EQ(m.fired.size(), 3u);
  // One call, after the second handler had returned; none after the third.
  EXPECT_EQ(seen, (std::vector<std::size_t>{2}));
}

TEST(DesScheduler, EventAtTheHorizonFiresAndTheClockLandsOnIt) {
  SlotProbe m(quiet());
  m.schedule_at(SlotProbe::kA, 10.0);
  m.schedule_at(SlotProbe::kB, std::nextafter(10.0, 11.0));
  (void)m.run(0.0, 10.0);
  EXPECT_EQ(m.fired, (std::vector<std::uint32_t>{SlotProbe::kA}));
  EXPECT_EQ(m.now(), 10.0);
  EXPECT_EQ(m.queue_stats().fired, 1u);
}

TEST(DesScheduler, QueueStatsBalanceAndCarryNoTombstones) {
  // A full model with every failure process on: each arm either fired, was
  // cancelled, or is still pending in one of the base slots at the end.
  DesModel m(Parameters{}, 20260805);
  (void)m.run(0.0, 200.0 * kHour);
  const auto s = m.queue_stats();
  ASSERT_GT(s.fired, 1000u);
  EXPECT_GT(s.cancelled, 0u);
  const std::uint64_t pending = s.scheduled - s.fired - s.cancelled;
  EXPECT_GE(pending, 1u);  // the next checkpoint initiation at least
  EXPECT_LE(pending, s.peak_size);
  EXPECT_LE(s.peak_size, SizedModel::kBase);  // at most one pending event per slot
  EXPECT_EQ(s.compactions, 0u);
  EXPECT_EQ(s.peak_dead, 0u);
}

TEST(DesScheduler, SlotCountOutsideTheTableIsRejected) {
  EXPECT_THROW({ const SizedModel m(quiet(), SizedModel::kBase - 1); }, std::logic_error);
  EXPECT_THROW({ const SizedModel m(quiet(), SizedModel::kMax + 1); }, std::logic_error);
  EXPECT_NO_THROW({ const SizedModel m(quiet(), SizedModel::kBase); });
  EXPECT_NO_THROW({ const SizedModel m(quiet(), SizedModel::kMax); });
}

TEST(DesScheduler, UnhandledExtensionSlotThrowsWhenItFires) {
  SizedModel m(quiet(), SizedModel::kBase + 1);
  m.schedule_at(SizedModel::kBase, 5.0);
  try {
    (void)m.run(0.0, 10.0);
    FAIL() << "an extension slot without a handler fired silently";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("slot " + std::to_string(SizedModel::kBase)),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
