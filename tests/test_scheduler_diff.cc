// Randomized differential test of the two schedulers in the simulator: the
// DES engine's fixed slot table (DesModel) and the general pending-event
// set (sim::EventQueue).  The slot table promises EventQueue's semantics
// for at most one pending event per slot — (time, insertion sequence)
// order, cancel-is-a-no-op-when-not-pending, lifetime fire budget — so the
// same seeded schedule / re-arm / cancel script driven through both must
// produce identical fire order, fire times and QueueStats.  The scripts
// stress equal-time ties, cancel-heavy timer churn, far-future outliers
// and callbacks that schedule while firing.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/sim/event_queue.h"

namespace {

using ckptsim::DesModel;
using ckptsim::Parameters;
using ckptsim::sim::EventBudgetExceeded;
using ckptsim::sim::EventHandle;
using ckptsim::sim::EventQueue;
using ckptsim::sim::QueueStats;

/// Script slot 0 is the driver (it runs one round of operations per
/// firing); slots 1..kScriptSlots-1 are the probes whose firings are traced.
constexpr int kDriver = 0;
constexpr int kScriptSlots = 13;

/// A scheduler with a fixed set of slots, at most one pending event each.
class SlotScheduler {
 public:
  virtual ~SlotScheduler() = default;
  [[nodiscard]] virtual double now() const = 0;
  virtual void arm(int slot, double t) = 0;
  virtual void cancel(int slot) = 0;
};

struct ScriptShape {
  int rounds = 0;         ///< driver firings that perform operations
  int ops_per_round = 0;  ///< random operations per round
  bool quantize = false;  ///< integer-offset times: many exact ties
  bool churn = false;     ///< failure-timer pattern: re-arm far-future timers
  /// Self-rescheduling probes: (period, firings), one per slot from 1.
  std::vector<std::pair<double, int>> chains;
};

/// Deterministic workload, replayed identically on any SlotScheduler: the
/// random decisions depend only on the seed and on which slots are
/// pending, so two schedulers that agree produce the same script.
class Script {
 public:
  Script(ScriptShape shape, std::uint64_t seed)
      : shape_(std::move(shape)), gen_(seed), pending_(kScriptSlots, false) {}

  void begin(SlotScheduler& s) {
    s_ = &s;
    if (shape_.rounds > 0) arm(kDriver, 0.0);
    for (std::size_t c = 0; c < shape_.chains.size(); ++c) {
      chain_left_.push_back(shape_.chains[c].second);
      arm(static_cast<int>(c) + 1, 0.0);
    }
  }

  void fire(int slot) {
    pending_[slot] = false;
    if (slot == kDriver) {
      round();
      return;
    }
    trace_.emplace_back(slot, s_->now());
    const auto c = static_cast<std::size_t>(slot - 1);
    if (c < shape_.chains.size() && --chain_left_[c] > 0) {
      arm(slot, s_->now() + shape_.chains[c].first);
    }
  }

  [[nodiscard]] const std::vector<std::pair<int, double>>& trace() const { return trace_; }

 private:
  void arm(int slot, double t) {
    s_->arm(slot, t);
    pending_[slot] = true;
  }
  void cancel(int slot) {
    // Called on idle slots too: cancelling a non-pending event must be a
    // no-op on both schedulers.
    s_->cancel(slot);
    pending_[slot] = false;
  }

  double draw_time() {
    if (shape_.churn) return s_->now() + std::uniform_real_distribution<double>(1e3, 1e6)(gen_);
    std::uniform_real_distribution<double> span(0.0, 1000.0);
    double t = s_->now() + span(gen_);
    if (shape_.quantize) t = s_->now() + static_cast<int>(span(gen_)) % 32;
    if (std::uniform_int_distribution<int>(0, 9)(gen_) == 0) t += 1e7;  // far-future outlier
    return t;
  }

  void round() {
    std::uniform_int_distribution<int> pick(1, kScriptSlots - 1);
    std::uniform_int_distribution<int> op(0, 9);
    for (int i = 0; i < shape_.ops_per_round; ++i) {
      const int slot = pick(gen_);
      if (shape_.churn || op(gen_) < 6) {
        // (Re-)arm: the engines' reschedule pattern, cancel then arm.
        if (pending_[slot]) cancel(slot);
        arm(slot, draw_time());
      } else {
        cancel(slot);
      }
    }
    if (++rounds_done_ < shape_.rounds) {
      const double step = shape_.churn
                              ? 1.0
                              : std::uniform_real_distribution<double>(0.0, 500.0)(gen_);
      arm(kDriver, s_->now() + step);
    }
  }

  ScriptShape shape_;
  std::mt19937_64 gen_;
  std::vector<bool> pending_;
  std::vector<int> chain_left_;
  int rounds_done_ = 0;
  SlotScheduler* s_ = nullptr;
  std::vector<std::pair<int, double>> trace_;
};

/// Parameters under which the base model fires nothing: failures and
/// application I/O are off and the first checkpoint lies beyond any
/// horizon used here, so the checkpoint-init slot is the only base slot
/// armed and it stays armed throughout.
Parameters quiet_parameters() {
  Parameters p;
  p.compute_failures_enabled = false;
  p.io_failures_enabled = false;
  p.master_failures_enabled = false;
  p.app_io_enabled = false;
  p.checkpoint_interval = 1e9;
  return p;
}

/// The script on the DES slot table: script slot k is model slot
/// kNumBaseSlots + k.
class DesSide final : public DesModel, public SlotScheduler {
 public:
  DesSide(ScriptShape shape, std::uint64_t seed)
      : DesModel(quiet_parameters(), /*seed=*/1, kNumBaseSlots + kScriptSlots),
        script(std::move(shape), seed) {
    script.begin(*this);
  }

  [[nodiscard]] double now() const override { return DesModel::now(); }
  void arm(int slot, double t) override { schedule_at(to_model(slot), t); }
  void cancel(int slot) override { DesModel::cancel(to_model(slot)); }

  Script script;

 protected:
  void fire_extension(std::uint32_t slot) override {
    script.fire(static_cast<int>(slot - kNumBaseSlots));
  }

 private:
  static std::uint32_t to_model(int slot) { return kNumBaseSlots + static_cast<std::uint32_t>(slot); }
};

/// The script on a general EventQueue, one handle per slot.
class QueueSide final : public SlotScheduler {
 public:
  QueueSide(ScriptShape shape, std::uint64_t seed)
      : script(std::move(shape), seed), handles_(kScriptSlots) {
    script.begin(*this);
  }

  [[nodiscard]] double now() const override { return q.now(); }
  void arm(int slot, double t) override {
    handles_[slot] = q.schedule(t, [this, slot] { script.fire(slot); });
  }
  void cancel(int slot) override { (void)q.cancel(handles_[slot]); }

  EventQueue q;
  Script script;

 private:
  std::vector<EventHandle> handles_;
};

/// The checkpoint-init slot is the one base event the DES arms: it counts
/// once in `scheduled` and in every live-event peak, and never fires.
void expect_same_behaviour(DesSide& des, const QueueSide& queue) {
  const auto& dt = des.script.trace();
  const auto& qt = queue.script.trace();
  ASSERT_EQ(dt.size(), qt.size());
  for (std::size_t i = 0; i < dt.size(); ++i) {
    EXPECT_EQ(dt[i].first, qt[i].first) << "firing " << i;
    EXPECT_EQ(dt[i].second, qt[i].second) << "firing " << i;
  }
  const QueueStats ds = des.queue_stats();
  const QueueStats qs = queue.q.stats();
  EXPECT_EQ(ds.fired, qs.fired);
  EXPECT_EQ(ds.cancelled, qs.cancelled);
  EXPECT_EQ(ds.scheduled, qs.scheduled + 1);
  EXPECT_EQ(ds.peak_size, qs.peak_size + 1);
  EXPECT_EQ(ds.compactions, 0u);
  EXPECT_EQ(ds.peak_dead, 0u);
}

/// Runs one script to `horizon` on both schedulers and diffs them.
void run_script(const ScriptShape& shape, std::uint64_t seed, double horizon) {
  DesSide des(shape, seed);
  QueueSide queue(shape, seed);
  (void)des.run(/*transient=*/0.0, horizon);
  (void)queue.q.run_until(horizon);
  ASSERT_FALSE(queue.script.trace().empty());
  expect_same_behaviour(des, queue);
}

TEST(SchedulerDiff, RandomScriptsAgree) {
  // Horizon past the far-future outliers, so they fire too.
  ScriptShape shape;
  shape.rounds = 400;
  shape.ops_per_round = 10;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20260808ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_script(shape, seed, 2e7);
  }
}

TEST(SchedulerDiff, QuantizedTieScriptsAgree) {
  // Integer-offset times (zero offsets included) force many exact time
  // ties, so the order falls entirely on the insertion-sequence tie-break.
  ScriptShape shape;
  shape.rounds = 400;
  shape.ops_per_round = 10;
  shape.quantize = true;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_script(shape, seed, 2e7);
  }
}

TEST(SchedulerDiff, CancelHeavyChurnAgrees) {
  // The DES failure-timer pattern: far-future timers cancelled and
  // re-sampled over and over, with the clock barely moving between rounds.
  ScriptShape shape;
  shape.rounds = 200;
  shape.ops_per_round = 100;
  shape.churn = true;
  run_script(shape, 7, 2e6);
}

TEST(SchedulerDiff, FireBudgetTripsAtSameEvent) {
  ScriptShape shape;
  shape.rounds = 100;
  shape.ops_per_round = 10;
  shape.quantize = true;
  for (const std::uint64_t budget : {1ULL, 7ULL, 33ULL, 250ULL}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    DesSide des(shape, 99 + budget);
    QueueSide queue(shape, 99 + budget);
    des.set_event_budget(budget);
    queue.q.set_fire_budget(budget);
    EXPECT_THROW((void)des.run(0.0, 2e7), EventBudgetExceeded);
    EXPECT_THROW((void)queue.q.run_until(2e7), EventBudgetExceeded);
    EXPECT_EQ(des.queue_stats().fired, budget);
    expect_same_behaviour(des, queue);
  }
}

TEST(SchedulerDiff, RecursiveSchedulingAgrees) {
  // Probes that re-arm themselves while firing (the engines' pattern):
  // chains with incommensurate periods interleave identically, including
  // their exact ties at common multiples.
  ScriptShape shape;
  shape.chains = {{3.0, 40}, {7.5, 16}, {4.5, 25}};
  DesSide des(shape, 0);
  QueueSide queue(shape, 0);
  (void)des.run(0.0, 130.0);
  (void)queue.q.run_until(130.0);
  EXPECT_EQ(queue.script.trace().size(), 40u + 16u + 25u);
  expect_same_behaviour(des, queue);
}

}  // namespace
