// sim::SlotTable, the fixed-slot pending-event set of the DES engines: fire
// order and tie-break, the execution controls (horizon rule, fire budget,
// post-fire hook), QueueStats, snapshot round trip, both storage kinds, and
// a randomized differential run against sim::EventQueue on a table wider
// than one mask word.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/slot_table.h"
#include "src/snapshot/state_io.h"

namespace {

using ckptsim::sim::EventBudgetExceeded;
using ckptsim::sim::EventHandle;
using ckptsim::sim::EventQueue;
using ckptsim::sim::QueueStats;
using Table = ckptsim::sim::SlotTable<>;  // heap storage, any slot count
using ckptsim::snapshot::StateReader;
using ckptsim::snapshot::StateWriter;

/// Runs `table` to `t_end`, returning the fired slots in order.
template <typename T>
std::vector<std::uint32_t> fire_all(T& table, double t_end) {
  std::vector<std::uint32_t> fired;
  table.run_until(t_end, [&](std::uint32_t slot) { fired.push_back(slot); });
  return fired;
}

TEST(SlotTable, FiresInTimeOrderWithInsertionOrderTies) {
  // Slots in three different words of the armed mask, tied at t = 5:
  // insertion order decides, not slot order.
  Table table(150);
  table.schedule_at(140, 5.0);
  table.schedule_at(3, 5.0);
  table.schedule_at(70, 5.0);
  table.schedule_at(100, 2.0);
  EXPECT_EQ(fire_all(table, 10.0), (std::vector<std::uint32_t>{100, 140, 3, 70}));
  EXPECT_EQ(table.now(), 10.0);
}

TEST(SlotTable, ReArmTakesAFreshSequenceNumber) {
  Table table(4);
  table.schedule_at(0, 1.0);
  table.schedule_at(1, 1.0);
  table.cancel(0);
  table.schedule_at(0, 1.0);  // re-armed after slot 1: fires after it
  EXPECT_EQ(fire_all(table, 1.0), (std::vector<std::uint32_t>{1, 0}));
}

TEST(SlotTable, CancelIsANoOpWhenIdle) {
  Table table(2);
  table.cancel(1);
  EXPECT_EQ(table.stats().cancelled, 0u);
  table.schedule_at(1, 3.0);
  EXPECT_TRUE(table.armed(1));
  table.cancel(1);
  table.cancel(1);
  EXPECT_FALSE(table.armed(1));
  EXPECT_EQ(table.stats().cancelled, 1u);
  EXPECT_TRUE(fire_all(table, 10.0).empty());
}

TEST(SlotTable, RejectsBadArms) {
  Table table(2);
  table.schedule_at(0, 1.0);
  EXPECT_THROW(table.schedule_at(0, 2.0), std::logic_error);  // still pending
  EXPECT_THROW(table.schedule_at(1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(table.schedule_at(1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  (void)fire_all(table, 5.0);
  EXPECT_THROW(table.schedule_at(1, 4.0), std::invalid_argument);  // in the past
  EXPECT_THROW(table.run_until(std::numeric_limits<double>::infinity(), [](std::uint32_t) {}),
               std::invalid_argument);
  EXPECT_THROW(Table(0), std::invalid_argument);
}

TEST(SlotTable, EventAtTheHorizonFiresAndTheClockLandsOnIt) {
  Table table(2);
  table.schedule_at(0, 10.0);
  table.schedule_at(1, std::nextafter(10.0, 11.0));
  EXPECT_EQ(fire_all(table, 10.0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(table.now(), 10.0);
  EXPECT_TRUE(table.armed(1));
}

TEST(SlotTable, FireNextStopsPastTheLimit) {
  Table table(2);
  table.schedule_at(0, 1.0);
  table.schedule_at(1, 3.0);
  std::vector<std::uint32_t> fired;
  const auto record = [&](std::uint32_t slot) { fired.push_back(slot); };
  EXPECT_TRUE(table.fire_next(2.0, record));
  EXPECT_FALSE(table.fire_next(2.0, record));
  EXPECT_EQ(table.now(), 1.0);  // fire_next never lands the clock
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0}));
}

TEST(SlotTable, FireBudgetThrowsBeforeFiringPastIt) {
  Table table(3);
  table.set_fire_budget(2);
  int dispatched = 0;
  // Each firing re-arms itself one second later: unbounded without a cap.
  const auto chain = [&](std::uint32_t slot) {
    ++dispatched;
    table.schedule_in(slot, 1.0);
  };
  table.schedule_at(2, 0.0);
  try {
    table.run_until(100.0, chain);
    FAIL() << "expected EventBudgetExceeded";
  } catch (const EventBudgetExceeded& e) {
    EXPECT_EQ(e.budget(), 2u);
  }
  EXPECT_EQ(dispatched, 2);
  EXPECT_EQ(table.stats().fired, 2u);
}

TEST(SlotTable, ReservedSequenceNumbersOrderReplayedEdges) {
  // A reserved number is spent like an arm's: a later arm ties after it,
  // and arming under it later keeps the edge's place in the tie order.
  Table table(3);
  const std::uint64_t edge = table.reserve_seq();  // a replayed edge at t = 5
  table.schedule_at(0, 5.0);
  EXPECT_EQ(table.next_seq(), 2u);
  table.schedule_reserved(1, 5.0, edge);
  EXPECT_EQ(fire_all(table, 10.0), (std::vector<std::uint32_t>{1, 0}));
  EXPECT_EQ(table.stats().scheduled, 2u);  // arms, not sequence numbers
}

TEST(SlotTable, CatchUpSeesEachFiringKeyThenTheEnd) {
  Table table(2);
  table.schedule_at(0, 1.0);
  table.schedule_at(1, 3.0);
  std::vector<std::pair<double, std::uint64_t>> keys;
  std::vector<std::uint32_t> fired;
  table.run_until(
      2.0, [&](std::uint32_t slot) { fired.push_back(slot); },
      [&](double t, std::uint64_t seq) { keys.emplace_back(t, seq); });
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], (std::pair<double, std::uint64_t>{1.0, 0}));
  EXPECT_EQ(keys[1], (std::pair<double, std::uint64_t>{
                         2.0, std::numeric_limits<std::uint64_t>::max()}));

  // The budget trips before the catch-up: a killed run replays nothing
  // past its last fired event.
  table.set_fire_budget(1);
  keys.clear();
  EXPECT_THROW(table.run_until(
                   5.0, [](std::uint32_t) {},
                   [&](double t, std::uint64_t seq) { keys.emplace_back(t, seq); }),
               EventBudgetExceeded);
  EXPECT_TRUE(keys.empty());
}

TEST(SlotTable, HookRunsAfterEveryNthDispatch) {
  Table table(3);
  std::vector<int> order;
  table.set_fire_hook(2, [&] { order.push_back(-static_cast<int>(table.stats().fired)); });
  for (std::uint32_t s = 0; s < 3; ++s) table.schedule_at(s, 1.0 + s);
  table.run_until(10.0, [&](std::uint32_t slot) { order.push_back(static_cast<int>(slot)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, -2, 2}));
}

TEST(SlotTable, StatsCountWhatAnEventQueueWould) {
  Table table(3);
  table.schedule_at(0, 1.0);
  table.schedule_at(1, 2.0);
  table.schedule_at(2, 3.0);
  table.cancel(1);
  (void)fire_all(table, 1.5);
  const QueueStats s = table.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.fired, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.peak_size, 3u);
  EXPECT_EQ(s.compactions, 0u);
  EXPECT_EQ(s.peak_dead, 0u);
}

TEST(SlotTable, SnapshotRoundTripContinuesIdentically) {
  // A wide table mid-run: the restored copy fires the rest in the same
  // order, ties included, and ends with the same statistics.
  Table a(130);
  for (std::uint32_t s = 0; s < 130; s += 7) a.schedule_at(s, static_cast<double>(s % 5));
  a.cancel(14);
  const auto first = [&] {
    std::vector<std::uint32_t> fired;
    a.run_until(1.0, [&](std::uint32_t slot) { fired.push_back(slot); });
    return fired;
  }();
  ASSERT_FALSE(first.empty());
  StateWriter w;
  a.save_state(w);
  const std::string bytes = w.take();
  Table b(130);
  StateReader r(bytes);
  b.restore_state(r);
  r.expect_end();
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(fire_all(b, 10.0), fire_all(a, 10.0));
  const QueueStats sa = a.stats();
  const QueueStats sb = b.stats();
  EXPECT_EQ(sb.scheduled, sa.scheduled);
  EXPECT_EQ(sb.fired, sa.fired);
  EXPECT_EQ(sb.cancelled, sa.cancelled);
  EXPECT_EQ(sb.peak_size, sa.peak_size);
  // A table of another width refuses the payload.
  Table narrow(129);
  StateReader r2(bytes);
  EXPECT_THROW(narrow.restore_state(r2), ckptsim::snapshot::SnapshotError);
}

TEST(SlotTable, InObjectStorageHoldsUpToItsCapacity) {
  using Small = ckptsim::sim::SlotTable<4>;
  EXPECT_THROW(Small(5), std::invalid_argument);
  EXPECT_THROW(Small(0), std::invalid_argument);
  Small table(4);
  table.schedule_at(3, 2.0);
  table.schedule_at(0, 2.0);
  EXPECT_EQ(fire_all(table, 5.0), (std::vector<std::uint32_t>{3, 0}));
}

TEST(SlotTable, StorageDoesNotChangeTheSnapshot) {
  // The same table on the heap and in the object serializes to the same
  // bytes, and either restores the other's payload.
  Table heap(40);
  ckptsim::sim::SlotTable<64> inline_table(40);
  for (std::uint32_t s = 0; s < 40; s += 3) {
    heap.schedule_at(s, 1.0 + s % 4);
    inline_table.schedule_at(s, 1.0 + s % 4);
  }
  (void)fire_all(heap, 2.0);
  (void)fire_all(inline_table, 2.0);
  StateWriter wh;
  heap.save_state(wh);
  StateWriter wi;
  inline_table.save_state(wi);
  const std::string bytes = wh.take();
  ASSERT_EQ(bytes, wi.take());
  ckptsim::sim::SlotTable<64> restored(40);
  StateReader r(bytes);
  restored.restore_state(r);
  EXPECT_EQ(fire_all(restored, 10.0), fire_all(heap, 10.0));
}

/// Randomized differential run: the same seeded script of arms, re-arms
/// and cancels over 150 slots (three mask words), with firings that
/// schedule more work, on a SlotTable and on an EventQueue holding one
/// handle per slot.  Fire order, fire times and QueueStats must agree.
class Differential {
 public:
  static constexpr std::uint32_t kSlots = 150;

  Differential(std::uint64_t seed, bool quantize) : gen_(seed), quantize_(quantize) {}

  /// One scheduler's view: arm(slot, t), cancel(slot), now().
  template <typename Arm, typename Cancel, typename Now>
  void react(std::uint32_t fired_slot, Arm&& arm, Cancel&& cancel, Now&& now,
             std::vector<bool>& pending) {
    pending[fired_slot] = false;
    trace.emplace_back(fired_slot, now());
    std::uniform_int_distribution<std::uint32_t> pick(0, kSlots - 1);
    std::uniform_int_distribution<int> op(0, 9);
    std::uniform_real_distribution<double> span(0.0, 50.0);
    for (int i = 0; i < 3; ++i) {
      const std::uint32_t slot = pick(gen_);
      if (op(gen_) < 7) {
        if (pending[slot]) cancel(slot);
        double t = now() + span(gen_);
        if (quantize_) t = now() + static_cast<int>(span(gen_)) % 4;
        arm(slot, t);
        pending[slot] = true;
      } else {
        cancel(slot);
        pending[slot] = false;
      }
    }
  }

  std::vector<std::pair<std::uint32_t, double>> trace;

 private:
  std::mt19937_64 gen_;
  bool quantize_;
};

template <typename TableT>
void run_differential(std::uint64_t seed, bool quantize) {
  constexpr std::uint32_t kSlots = Differential::kSlots;
  // Tie-heavy scripts fire ~15x more often per unit of time.
  const double end = quantize ? 200.0 : 3000.0;

  Differential on_table(seed, quantize);
  TableT table(kSlots);
  std::vector<bool> table_pending(kSlots, false);
  Differential on_queue(seed, quantize);
  EventQueue queue;
  std::vector<EventHandle> handles(kSlots);
  std::vector<bool> queue_pending(kSlots, false);

  // The same opening arms on both.
  for (std::uint32_t s = 0; s < kSlots; s += 11) {
    table.schedule_at(s, static_cast<double>(s % 13));
    table_pending[s] = true;
  }
  std::function<void(std::uint32_t)> queue_fire;
  const auto queue_arm = [&](std::uint32_t slot, double t) {
    handles[slot] = queue.schedule(t, [&queue_fire, slot] { queue_fire(slot); });
  };
  queue_fire = [&](std::uint32_t slot) {
    on_queue.react(
        slot, queue_arm, [&](std::uint32_t s) { (void)queue.cancel(handles[s]); },
        [&] { return queue.now(); }, queue_pending);
  };
  for (std::uint32_t s = 0; s < kSlots; s += 11) {
    queue_arm(s, static_cast<double>(s % 13));
    queue_pending[s] = true;
  }

  table.run_until(end, [&](std::uint32_t slot) {
    on_table.react(
        slot, [&](std::uint32_t s, double t) { table.schedule_at(s, t); },
        [&](std::uint32_t s) { table.cancel(s); }, [&] { return table.now(); }, table_pending);
  });
  (void)queue.run_until(end);

  ASSERT_GT(on_queue.trace.size(), 1000u);
  ASSERT_EQ(on_table.trace.size(), on_queue.trace.size());
  for (std::size_t i = 0; i < on_table.trace.size(); ++i) {
    ASSERT_EQ(on_table.trace[i], on_queue.trace[i]) << "firing " << i;
  }
  const QueueStats ts = table.stats();
  const QueueStats qs = queue.stats();
  EXPECT_EQ(ts.scheduled, qs.scheduled);
  EXPECT_EQ(ts.fired, qs.fired);
  EXPECT_EQ(ts.cancelled, qs.cancelled);
  EXPECT_EQ(ts.peak_size, qs.peak_size);
}

TEST(SlotTable, WideRandomScriptsAgreeWithEventQueue) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 20261017ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential<Table>(seed, /*quantize=*/false);
    run_differential<ckptsim::sim::SlotTable<192>>(seed, /*quantize=*/false);
  }
}

TEST(SlotTable, WideTieHeavyScriptsAgreeWithEventQueue) {
  // Integer offsets from 0 to 3: most firings tie with another, so the
  // order falls on the insertion-sequence tie-break across mask words.
  for (const std::uint64_t seed : {5ULL, 6ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential<Table>(seed, /*quantize=*/true);
    run_differential<ckptsim::sim::SlotTable<192>>(seed, /*quantize=*/true);
  }
}

}  // namespace
