#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/slot_table.h"

namespace ckptsim::sim {

/// Move-only callable with small-buffer storage, the event queue's callback
/// type.  Callables up to `kInlineCapacity` bytes (an object pointer plus
/// an index or member-function pointer) are stored inline — scheduling them performs no heap
/// allocation, unlike std::function whose small-object buffer is both
/// smaller and implementation-defined.  Larger callables fall back to a
/// single heap allocation, so arbitrary lambdas still work.
class InlineCallback {
 public:
  /// Sized so Entry{time, seq, id, fn} fills one 64-byte cache line and
  /// `[this, member-pointer]` captures (24 bytes on Itanium ABI) stay
  /// inline.
  static constexpr std::size_t kInlineCapacity = 32;

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineCallback> &&
                                        !std::is_same_v<Fn, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVTable<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &kHeapVTable<Fn>;
    }
  }

  InlineCallback(InlineCallback&& o) noexcept { move_from(o); }
  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline = sizeof(Fn) <= kInlineCapacity &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static inline const VTable kInlineVTable = {
      [](void* b) { (*static_cast<Fn*>(b))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* b) noexcept { static_cast<Fn*>(b)->~Fn(); },
  };

  template <typename Fn>
  static inline const VTable kHeapVTable = {
      [](void* b) { (**static_cast<Fn**>(b))(); },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* b) noexcept { delete *static_cast<Fn**>(b); },
  };

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }
  void move_from(InlineCallback& o) noexcept {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, o.buf_);
      o.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  const VTable* vt_ = nullptr;
};

/// Opaque handle to a scheduled event; used to cancel it.
/// A handle may be kept after the event fires — cancelling it then is a
/// harmless no-op.
struct EventHandle {
  std::uint64_t id = 0;  ///< 0 means "no event".

  [[nodiscard]] bool valid() const noexcept { return id != 0; }
  void clear() noexcept { id = 0; }
};

/// General pending-event set with type-erased callbacks.  No engine runs
/// on it: every engine schedules on SlotTable.  It is the reference that
/// the SlotTable differential tests check the engines' scheduler against,
/// and the pending-event layer that perfbench and bench_micro_engine time.
///
/// Events fire in (time, insertion sequence) order: ties in time fire in
/// insertion order, which makes runs fully deterministic.  Cancellation is
/// lazy — a cancelled id is invalidated in the slot table and its stored
/// entry becomes a tombstone skipped/reclaimed by later operations, making
/// cancel amortised O(1).  When tombstones outnumber live entries the
/// pending set is compacted in place, so cancel-heavy workloads (e.g.
/// far-future failure timers re-sampled on every enable/disable churn)
/// keep storage at O(live events) instead of growing without bound.
///
/// Liveness is tracked by a generation-counted slot table recycled through a
/// free list (an event id is a (generation, slot) pair), so steady-state
/// schedule/cancel/fire churn touches only pre-grown vectors: no heap
/// allocation per event, unlike the hash-set bookkeeping it replaces.
///
/// The pending set is one binary heap under the (time, seq) comparator:
/// O(log n) schedule/fire.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedule `fn` at absolute time `t`.  `t` must be finite (NaN and
  /// +/-infinity are rejected — a NaN time would silently break the
  /// ordering invariant and reorder every subsequent event) and >= now().
  EventHandle schedule(double t, Callback fn);

  /// Schedule `fn` at now() + dt (dt >= 0 and finite).
  EventHandle schedule_in(double dt, Callback fn) { return schedule(now_ + dt, std::move(fn)); }

  /// Cancel a previously scheduled event.  Returns true if the event was
  /// still pending (i.e. this call prevented it from firing).  Safe on
  /// invalid or already-fired handles.
  bool cancel(EventHandle& h) noexcept;

  /// True when no live events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live (not cancelled, not fired) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Current simulation time; advances only in run_* / step().
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Time of the next live event; +infinity when empty.
  [[nodiscard]] double peek_time() const noexcept;

  /// Fire the next live event (advancing now()).  Returns false when empty.
  bool step();

  /// Run until the queue empties or the next event lies beyond `t_end`.
  /// Events scheduled exactly at `t_end` do fire.  On return now() == t_end
  /// whenever t_end >= the entry now(), including when the queue empties
  /// early or was empty all along.  Returns events fired.  `t_end` must be
  /// finite (use run_all() to drain the queue).
  std::uint64_t run_until(double t_end);

  /// Run until the queue is empty. Returns the number of events fired.
  std::uint64_t run_all();

  /// Total events fired over the queue's lifetime.
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

  /// Watchdog: cap lifetime fired events at `max_fired` (0 = unlimited).
  /// step()/run_* throw EventBudgetExceeded before firing past the cap.
  void set_fire_budget(std::uint64_t max_fired) noexcept { fire_budget_ = max_fired; }

  /// Cancelled entries still occupying pending-set slots (awaiting lazy
  /// removal or compaction).  Bounded by size() + a constant thanks to
  /// compaction.
  [[nodiscard]] std::size_t dead_count() const noexcept { return heap_.size() - live_; }

  /// Lifetime statistics (peaks, cancellations, compactions).
  [[nodiscard]] QueueStats stats() const noexcept;

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint64_t id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// id layout: generation in the high 32 bits, slot index + 1 in the low
  /// 32 bits (so id 0 never collides with EventHandle's "no event").
  static std::uint32_t id_slot(std::uint64_t id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static std::uint32_t id_generation(std::uint64_t id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint64_t make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(generation) << 32) | (slot + 1u);
  }

  [[nodiscard]] bool is_live(std::uint64_t id) const noexcept {
    return generations_[id_slot(id)] == id_generation(id);
  }
  /// Invalidate the id (bumping the slot generation) and recycle its slot.
  void release(std::uint64_t id) {
    const std::uint32_t slot = id_slot(id);
    ++generations_[slot];
    free_slots_.push_back(slot);
    --live_;
  }

  /// Record the current tombstone count into peak_dead_.  Must run before
  /// any lazy tombstone removal so obs snapshots report the true peak.
  void note_peak_dead() const noexcept {
    const std::size_t dead = heap_.size() - live_;
    if (dead > peak_dead_) peak_dead_ = dead;
  }

  /// Pop tombstoned (cancelled) entries off the heap top.
  void drop_dead() const;

  /// Rebuild the pending set without tombstones once they outnumber live
  /// entries (and the set is large enough to care).
  void maybe_compact() noexcept;

  mutable std::vector<Entry> heap_;  ///< binary heap under Later{}

  std::vector<std::uint32_t> generations_;  ///< slot -> current generation
  std::vector<std::uint32_t> free_slots_;   ///< recycled slot indices
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t fire_budget_ = 0;  ///< 0 = unlimited
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t peak_size_ = 0;
  mutable std::size_t peak_dead_ = 0;
  double now_ = 0.0;
};

}  // namespace ckptsim::sim
