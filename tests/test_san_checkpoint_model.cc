#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <set>

#include "src/analytic/coordination.h"
#include "src/model/parameters.h"
#include "src/model/san_model.h"
#include "src/san/executor.h"

namespace {

using ckptsim::CoordinationMode;
using ckptsim::Parameters;
using ckptsim::SanCheckpointModel;
using ckptsim::units::kHour;
using ckptsim::units::kYear;

TEST(SanModel, BuildsTwelveSubmodelsOfTable1) {
  const SanCheckpointModel model{Parameters{}};
  const auto& submodels = model.submodels();
  ASSERT_EQ(submodels.size(), 12u);
  std::set<std::string> names;
  for (const auto& s : submodels) names.insert(s.name);
  // Table 1's submodel list.
  for (const char* expected :
       {"app_workload", "compute_nodes", "coordination", "io_nodes", "master",
        "comp_node_failure", "comp_node_recovery", "io_node_failure", "io_node_recovery",
        "system_reboot", "correlated_failures", "useful_work"}) {
    EXPECT_TRUE(names.contains(expected)) << expected;
  }
  // The four modules of Figure 1.
  std::set<std::string> modules;
  for (const auto& s : submodels) modules.insert(s.module);
  EXPECT_EQ(modules.size(), 4u);
}

TEST(SanModel, CoreActivitiesExist) {
  const SanCheckpointModel model{Parameters{}};
  const auto& m = model.model();
  for (const char* a : {"ckpt_interval", "recv_quiesce_bcast", "coord", "start_dump",
                        "dump_chkpt", "write_chkpt", "comp_node_failure", "io_node_failure",
                        "rec_route_stage2", "chkpt_read", "recovery_stage2_act",
                        "system_reboot_act", "master_failure", "compute_phase_end",
                        "io_phase_end"}) {
    EXPECT_TRUE(m.has_activity(a)) << a;
  }
  // No timeout configured -> no timeout activity.
  EXPECT_FALSE(m.has_activity("timeout_timer"));
  // No correlated failures configured -> no extra-failure process.
  EXPECT_FALSE(m.has_activity("extra_failure"));
}

TEST(SanModel, OptionalActivitiesFollowParameters) {
  Parameters p;
  p.timeout = 100.0;
  p.coordination = CoordinationMode::kMaxOfExponentials;
  p.prob_correlated = 0.1;
  p.generic_correlated_coefficient = 0.0025;
  const SanCheckpointModel model{p};
  EXPECT_TRUE(model.model().has_activity("timeout_timer"));
  EXPECT_TRUE(model.model().has_activity("extra_failure"));
  EXPECT_TRUE(model.model().has_activity("prop_window_end"));
  // Smooth generic mode (default) needs no phase-alternation activities...
  EXPECT_FALSE(model.model().has_activity("generic_to_correlated"));
  // ...the explicit hyper-exponential alternation is the ablation variant.
  p.generic_correlated_smooth = false;
  const SanCheckpointModel alternating{p};
  EXPECT_TRUE(alternating.model().has_activity("generic_to_correlated"));
  EXPECT_TRUE(alternating.model().has_activity("generic_to_normal"));
}

TEST(SanModel, InitialMarkingMatchesFigure2) {
  const SanCheckpointModel model{Parameters{}};
  const auto& m = model.model();
  const auto init = m.initial_marking();
  // Figure 2's block arrows: execution, master_sleep, app compute, io idle.
  EXPECT_EQ(init.tokens(m.place("execution")), 1);
  EXPECT_EQ(init.tokens(m.place("master_sleep")), 1);
  EXPECT_EQ(init.tokens(m.place("app_compute")), 1);
  EXPECT_EQ(init.tokens(m.place("ionode_idle")), 1);
  EXPECT_EQ(init.tokens(m.place("quiescing")), 0);
  EXPECT_EQ(init.tokens(m.place("buffered_valid")), 0);
}

TEST(SanModel, RewardSpecsNameUsefulWork) {
  const SanCheckpointModel model{Parameters{}};
  const auto rates = model.rate_rewards();
  ASSERT_EQ(rates.size(), 5u);
  EXPECT_EQ(rates[0].name, "useful");
  EXPECT_EQ(rates[1].name, "executing");
  EXPECT_EQ(rates[2].name, "checkpointing");
  EXPECT_EQ(rates[3].name, "recovering");
  EXPECT_EQ(rates[4].name, "rebooting");
  const auto impulses = model.impulse_rewards();
  ASSERT_FALSE(impulses.empty());
  for (const auto& imp : impulses) EXPECT_EQ(imp.name, "useful");
}

TEST(SanModel, FailureFreeFractionMatchesClosedForm) {
  Parameters p;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  p.coordination = CoordinationMode::kFixedQuiesce;
  const SanCheckpointModel model{p};
  const auto r = model.run_replication(/*seed=*/4, 10.0 * kHour, 300.0 * kHour);
  EXPECT_NEAR(r.useful_fraction, ckptsim::analytic::coordination_only_fraction(p), 0.01);
  EXPECT_DOUBLE_EQ(r.useful_fraction, r.gross_execution_fraction);
  EXPECT_GT(r.counters.ckpt_initiated, 0u);
  EXPECT_EQ(r.counters.ckpt_initiated, r.counters.ckpt_dumped);
}

TEST(SanModel, WithFailuresProducesRecoveriesAndLoss) {
  Parameters p;
  p.num_processors = 131072;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  p.coordination = CoordinationMode::kFixedQuiesce;
  const SanCheckpointModel model{p};
  const auto r = model.run_replication(11, 20.0 * kHour, 400.0 * kHour);
  EXPECT_GT(r.counters.compute_failures, 100u);
  EXPECT_GT(r.counters.recoveries_completed, 50u);
  EXPECT_LT(r.useful_fraction, r.gross_execution_fraction);
  EXPECT_GT(r.useful_fraction, 0.2);
  EXPECT_LT(r.useful_fraction, 0.7);
}

TEST(SanModel, DeterministicPerSeed) {
  Parameters p;
  p.num_processors = 32768;
  const SanCheckpointModel model{p};
  const auto a = model.run_replication(21, 10.0 * kHour, 200.0 * kHour);
  const auto b = model.run_replication(21, 10.0 * kHour, 200.0 * kHour);
  EXPECT_DOUBLE_EQ(a.useful_fraction, b.useful_fraction);
  EXPECT_EQ(a.counters.compute_failures, b.counters.compute_failures);
  const auto c = model.run_replication(22, 10.0 * kHour, 200.0 * kHour);
  EXPECT_NE(a.useful_fraction, c.useful_fraction);
}

TEST(SanModel, TimeoutAbortsAppearInCounters) {
  Parameters p;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  p.coordination = CoordinationMode::kMaxOfExponentials;
  p.timeout = 100.0;  // ~ median of the 64K coordination distribution
  const SanCheckpointModel model{p};
  const auto r = model.run_replication(31, 10.0 * kHour, 500.0 * kHour);
  EXPECT_GT(r.counters.ckpt_aborted_timeout, 0u);
  EXPECT_GT(r.counters.ckpt_dumped, 0u);
}

TEST(SanModel, InventoryListsPlacesAndActivities) {
  const SanCheckpointModel model{Parameters{}};
  for (const auto& s : model.submodels()) {
    if (s.name == "compute_nodes") {
      EXPECT_FALSE(s.places.empty());
      EXPECT_FALSE(s.activities.empty());
    }
  }
  EXPECT_GT(model.model().place_count(), 25u);
  EXPECT_GT(model.model().activity_count(), 12u);
}

/// What the executor's scheduler and refresh did over one run: the queue
/// counters, the aborts, the enabling evaluations and the bits of the
/// `useful` time-average.  Any change to the fire order, the RNG draw
/// order or the abort bookkeeping moves at least one of them.
struct ExecutorPin {
  std::uint64_t scheduled, fired, cancelled, peak, aborts, evaluations, useful_bits;
  bool operator==(const ExecutorPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ExecutorPin& p) {
  return os << "{" << p.scheduled << ", " << p.fired << ", " << p.cancelled << ", " << p.peak
            << ", " << p.aborts << ", " << p.evaluations << ", 0x" << std::hex << p.useful_bits
            << std::dec << "}";
}

ExecutorPin run_executor(const Parameters& p) {
  const SanCheckpointModel model{p};
  ckptsim::san::Executor exec(model.model(), 42);
  for (const auto& r : model.rate_rewards()) exec.rewards().add_rate(r);
  for (const auto& r : model.impulse_rewards()) exec.rewards().add_impulse(r);
  exec.run_until(2000.0 * kHour);
  const auto q = exec.queue_stats();
  return {q.scheduled, q.fired, q.cancelled, q.peak_size, exec.total_aborts(),
          exec.enabling_evaluations(),
          std::bit_cast<std::uint64_t>(exec.rewards().time_average("useful", exec.now()))};
}

TEST(SanExecutorPin, DefaultsAreUnchanged) {
  EXPECT_EQ(run_executor(Parameters{}),
            (ExecutorPin{119199, 110979, 8215, 6, 8215, 516564, 0x3fe37f04b2464648}));
}

TEST(SanExecutorPin, CorrelatedFailuresAreUnchanged) {
  Parameters p;
  p.prob_correlated = 0.2;
  p.correlated_factor = 800.0;
  EXPECT_EQ(run_executor(p),
            (ExecutorPin{131128, 122368, 8756, 6, 8709, 710567, 0x3fe333721d63122f}));
}

TEST(SanExecutorPin, TimeoutWithGenericCorrelationIsUnchanged) {
  Parameters p;
  p.timeout = 100.0;
  p.generic_correlated_coefficient = 0.0025;
  EXPECT_EQ(run_executor(p),
            (ExecutorPin{201408, 96181, 105222, 8, 10923, 549235, 0x3fa0b536f0cc2360}));
}

}  // namespace
