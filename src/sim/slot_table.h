#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/snapshot/state_io.h"

namespace ckptsim::sim {

/// Thrown when a scheduler's fire budget (watchdog) is exhausted: the
/// replication fired more events than the caller allowed, which the
/// execution drivers convert into a structured kEventBudgetExceeded
/// failure instead of a hung or runaway worker.  The message keeps its
/// "EventQueue:" prefix because failure messages reach reports and pinned
/// driver output.
class EventBudgetExceeded : public std::runtime_error {
 public:
  explicit EventBudgetExceeded(std::uint64_t budget)
      : std::runtime_error("EventQueue: fire budget of " + std::to_string(budget) +
                           " events exhausted"),
        budget_(budget) {}

  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint64_t budget_;
};

/// Lifetime statistics of one scheduler, cheap enough to keep always-on.
/// `merge` combines schedulers from different replications: counts add,
/// peaks take the maximum.  `compactions` and `peak_dead` count the heap
/// EventQueue's tombstones; a SlotTable has none and leaves them 0.
struct QueueStats {
  std::uint64_t scheduled = 0;    ///< schedule() calls
  std::uint64_t fired = 0;        ///< events that actually ran
  std::uint64_t cancelled = 0;    ///< cancel() calls that hit a pending event
  std::uint64_t compactions = 0;  ///< tombstone-compaction passes
  std::size_t peak_size = 0;      ///< max live events at any instant
  std::size_t peak_dead = 0;      ///< max tombstones occupying pending-set slots

  void merge(const QueueStats& o) noexcept;
};

namespace detail {
[[noreturn]] void throw_slot_bad_count();
[[noreturn]] void throw_slot_bad_time();
[[noreturn]] void throw_slot_armed_twice();
[[noreturn]] void throw_slot_bad_end_time();
[[noreturn]] void throw_slot_snapshot(const char* what);

/// SlotTable's default catch-up: the owner replays nothing.
struct NoCatchUp {
  void operator()(double, std::uint64_t) const noexcept {}
};
}  // namespace detail

/// Fixed-slot pending-event set for models that keep at most one pending
/// event per event kind: the scheduler of every engine (the DES engines
/// with one slot per event kind, the SAN executor with one per activity).
///
/// Each slot holds one (time, insertion sequence) pair, meaningful while
/// its bit in the armed mask is set; the mask spans as many 64-bit words as
/// the slot count needs.  The next event is the argmin over the armed slots
/// with ties in time broken by insertion sequence, exactly as the heap
/// EventQueue (the tests' reference) breaks them, so a model that re-arms a
/// slot (cancel, then schedule with a fresh sequence number) wherever it
/// would have cancelled and rescheduled a queue event fires in the same
/// order and reports the same QueueStats.  The owner dispatches fired slots
/// itself (a `switch` or an index, no type-erased callbacks): scheduling,
/// cancelling and firing touch only the preallocated table and never
/// allocate.
///
/// Execution controls: a lifetime fire budget (EventBudgetExceeded before
/// firing past it), a post-fire hook every N firings (the snapshot layer's
/// capture boundary), and the horizon rule of run_until (events exactly at
/// t_end fire, then the clock lands on t_end).
///
/// Storage: `kCapacity` > 0 keeps up to that many slots inside the object,
/// for the DES engines, whose slot count has a compile-time bound and whose
/// events are so cheap that addressing the table directly instead of
/// through heap pointers shows on the paper model (~4% of a replication in
/// a single-core A/B run).  `kCapacity` == 0 sizes the table on the heap at
/// construction, for any slot count (the interference engine, the SAN
/// executor).
template <std::uint32_t kCapacity = 0>
class SlotTable {
 public:
  explicit SlotTable(std::uint32_t num_slots) : num_slots_(num_slots) {
    if (num_slots == 0 || (kCapacity != 0 && num_slots > kCapacity)) {
      detail::throw_slot_bad_count();
    }
    if constexpr (kCapacity == 0) {
      armed_.assign((num_slots + 63) / 64, 0);
      time_.assign(num_slots, 0.0);
      seq_.assign(num_slots, 0);
    }
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool armed(std::uint32_t slot) const noexcept {
    return (armed_[slot >> 6] >> (slot & 63) & 1u) != 0;
  }

  /// Arm `slot` at absolute time `t` (finite, >= now()).  Arming a slot
  /// that is still pending is a logic error.
  void schedule_at(std::uint32_t slot, double t) {
    arm(slot, t, next_seq_);
    ++next_seq_;
  }
  void schedule_in(std::uint32_t slot, double dt) { schedule_at(slot, now_ + dt); }

  /// Take the next insertion sequence number without arming a slot: for an
  /// owner that replays a deterministic process between events instead of
  /// scheduling it, and orders the process's edges against the armed slots
  /// by the same (time, sequence) rule.
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }
  /// The sequence number the next arm or reservation will take.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Arm `slot` at `t` under a sequence number taken earlier with
  /// reserve_seq(), so a replayed edge turned into a real event keeps its
  /// place in the tie order.  Same admission rules as schedule_at.
  void schedule_reserved(std::uint32_t slot, double t, std::uint64_t seq) { arm(slot, t, seq); }

  /// Disarm `slot`; a no-op when it is not pending.
  void cancel(std::uint32_t slot) noexcept {
    std::uint64_t& word = armed_[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if ((word & bit) != 0) {
      word &= ~bit;
      ++cancelled_;
      --live_;
    }
  }

  /// Fire the earliest pending slot if its time is <= t_end: the clock
  /// advances to it, `dispatch(slot)` handles it, then the post-fire hook
  /// runs when due.  Returns false (nothing fired) otherwise.
  ///
  /// `catch_up(time, seq)` lets the owner replay a process it keeps off the
  /// table (see reserve_seq): it is called with the due slot's key right
  /// before the slot fires — after the fire-budget check, so a killed run
  /// stops exactly at the last fired event — and with (t_end, max) when
  /// nothing is due, and must advance the process over every edge ordered
  /// before that key.  It may reserve sequence numbers but arms nothing.
  template <typename Dispatch, typename CatchUp = detail::NoCatchUp>
  bool fire_next(double t_end, Dispatch&& dispatch, CatchUp&& catch_up = {}) {
    const std::uint32_t slot = next_due(t_end);
    if (slot == kNone) {
      catch_up(t_end, std::numeric_limits<std::uint64_t>::max());
      return false;
    }
    if (fire_budget_ != 0 && fired_ >= fire_budget_) throw EventBudgetExceeded(fire_budget_);
    catch_up(time_[slot], seq_[slot]);
    armed_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    --live_;
    ++fired_;
    now_ = time_[slot];
    dispatch(slot);
    if (hook_every_ != 0 && fired_ % hook_every_ == 0) hook_fn_();
    return true;
  }

  /// Fire slots up to and including `t_end` (finite), then land the clock
  /// on it.  `catch_up` as for fire_next.
  template <typename Dispatch, typename CatchUp = detail::NoCatchUp>
  void run_until(double t_end, Dispatch&& dispatch, CatchUp&& catch_up = {}) {
    if (!std::isfinite(t_end)) detail::throw_slot_bad_end_time();
    while (fire_next(t_end, dispatch, catch_up)) {
    }
    if (now_ < t_end) now_ = t_end;
  }

  /// Watchdog: cap lifetime firings at `max_fired` (0 = unlimited).
  void set_fire_budget(std::uint64_t max_fired) noexcept { fire_budget_ = max_fired; }

  /// Post-fire hook, invoked right after a dispatch returns whenever the
  /// lifetime fired count is a multiple of `every` (0 disables).
  void set_fire_hook(std::uint64_t every, std::function<void()> hook) {
    hook_every_ = every;
    hook_fn_ = std::move(hook);
  }

  /// scheduled / fired / cancelled / live peak count what an EventQueue
  /// would (reserved sequence numbers count only once armed);
  /// compactions and peak_dead are always 0 (no tombstones).
  [[nodiscard]] QueueStats stats() const noexcept {
    QueueStats s;
    s.scheduled = scheduled_;
    s.fired = fired_;
    s.cancelled = cancelled_;
    s.peak_size = peak_live_;
    return s;
  }

  /// Serialize the clock, the next sequence number, the counters
  /// (scheduled, fired, cancelled, live peak), the slot count, then one
  /// (time, sequence) pair per slot in slot order; idle slots carry
  /// (+infinity, 0), so the layout is canonical.  The fire budget and the
  /// hook are execution controls and are not part of the state.
  void save_state(snapshot::StateWriter& w) const {
    w.f64(now_);
    w.u64(next_seq_);
    w.u64(scheduled_);
    w.u64(fired_);
    w.u64(cancelled_);
    w.u64(peak_live_);
    w.u32(num_slots_);
    for (std::uint32_t s = 0; s < num_slots_; ++s) {
      const bool on = armed(s);
      w.f64(on ? time_[s] : kNever);
      w.u64(on ? seq_[s] : 0);
    }
  }

  /// Restore onto a table of the same slot count.  Validates everything
  /// before mutating; an inconsistent table throws snapshot::SnapshotError
  /// (kCorrupt).
  void restore_state(snapshot::StateReader& r) {
    const double now = r.f64();
    if (!std::isfinite(now) || now < 0.0) detail::throw_slot_snapshot("bad clock");
    const std::uint64_t next_seq = r.u64();
    const std::uint64_t scheduled = r.u64();
    const std::uint64_t fired = r.u64();
    const std::uint64_t cancelled = r.u64();
    const std::uint64_t peak_live = r.u64();
    if (r.u32() != num_slots_) detail::throw_slot_snapshot("slot count mismatch");
    Store<double> times = time_;
    Store<std::uint64_t> seqs = seq_;
    MaskStore armed_words = armed_;
    std::fill(armed_words.begin(), armed_words.end(), 0);
    std::size_t live = 0;
    for (std::uint32_t s = 0; s < num_slots_; ++s) {
      times[s] = r.f64();
      seqs[s] = r.u64();
      if (times[s] == kNever) {
        if (seqs[s] != 0) detail::throw_slot_snapshot("bad slot");
        continue;
      }
      if (!(times[s] >= now) || !std::isfinite(times[s]) || seqs[s] >= next_seq) {
        detail::throw_slot_snapshot("inconsistent slot");
      }
      for (std::uint32_t o = 0; o < s; ++o) {
        if ((armed_words[o >> 6] >> (o & 63) & 1u) != 0 && seqs[o] == seqs[s]) {
          detail::throw_slot_snapshot("duplicate slot sequence");
        }
      }
      armed_words[s >> 6] |= std::uint64_t{1} << (s & 63);
      ++live;
    }
    if (live > peak_live || peak_live > scheduled) {
      detail::throw_slot_snapshot("inconsistent counters");
    }
    now_ = now;
    next_seq_ = next_seq;
    scheduled_ = scheduled;
    fired_ = fired;
    cancelled_ = cancelled;
    peak_live_ = static_cast<std::size_t>(peak_live);
    live_ = live;
    armed_ = std::move(armed_words);
    time_ = std::move(times);
    seq_ = std::move(seqs);
  }

 private:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  template <typename T, std::size_t kCount>
  using StoreOf = std::conditional_t<kCapacity == 0, std::vector<T>, std::array<T, kCount>>;
  template <typename T>
  using Store = StoreOf<T, kCapacity>;
  using MaskStore = StoreOf<std::uint64_t, (kCapacity + 63) / 64>;

  void arm(std::uint32_t slot, double t, std::uint64_t seq) {
    // Same admission rules as EventQueue: a NaN or infinite time would
    // break the (time, seq) order, a past time would run the clock
    // backwards.
    if (!(t >= now_) || t == kNever) [[unlikely]] detail::throw_slot_bad_time();
    std::uint64_t& word = armed_[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if ((word & bit) != 0) [[unlikely]] detail::throw_slot_armed_twice();
    word |= bit;
    time_[slot] = t;
    seq_[slot] = seq;
    ++scheduled_;
    if (++live_ > peak_live_) peak_live_ = live_;
  }

  /// Argmin over the armed slots when it is due by `t_end`, kNone
  /// otherwise.  Nothing is disarmed.
  std::uint32_t next_due(double t_end) const {
    // Only the armed slots are visited: a handful at any instant, against
    // a table sized for every event kind.  The lowest armed slot seeds the
    // argmin, the remaining armed bits are compared against it.
    std::uint32_t w = 0;
    while (armed_[w] == 0) {
      if (++w == armed_.size()) return kNone;
    }
    std::uint64_t mask = armed_[w];
    std::uint32_t best = (w << 6) | static_cast<std::uint32_t>(std::countr_zero(mask));
    double bt = time_[best];
    std::uint64_t bs = seq_[best];
    mask &= mask - 1;
    for (;;) {
      for (; mask != 0; mask &= mask - 1) {
        const std::uint32_t s = (w << 6) | static_cast<std::uint32_t>(std::countr_zero(mask));
        const double t = time_[s];
        if (t < bt || (t == bt && seq_[s] < bs)) {
          best = s;
          bt = t;
          bs = seq_[s];
        }
      }
      if (++w == armed_.size()) break;
      mask = armed_[w];
    }
    return bt > t_end ? kNone : best;
  }

  std::uint32_t num_slots_;
  // Per slot, meaningful while its bit in armed_ is set: the fire time and
  // the insertion sequence that breaks time ties.
  MaskStore armed_{};
  Store<double> time_{};
  Store<std::uint64_t> seq_{};
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;  ///< arms, reserved or not
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t fire_budget_ = 0;  ///< 0 = unlimited
  std::uint64_t hook_every_ = 0;   ///< 0 = no post-fire hook
  std::function<void()> hook_fn_;
};

}  // namespace ckptsim::sim
