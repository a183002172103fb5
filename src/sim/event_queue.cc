#include "src/sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ckptsim::sim {

namespace {
/// Below this stored size, tombstones are too cheap to bother compacting.
constexpr std::size_t kCompactMin = 64;
}  // namespace

EventHandle EventQueue::schedule(double t, Callback fn) {
  // NaN slips past a plain `t < now_` check and then poisons the ordering
  // comparator, silently reordering every later event; +/-infinity would
  // park an event that can never fire (or fire "before" everything).
  // Reject both up front.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  }
  if (t < now_) throw std::invalid_argument("EventQueue::schedule: time in the past");
  if (!fn) throw std::invalid_argument("EventQueue::schedule: empty callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(generations_.size());
    generations_.push_back(0);
    // The freelist can hold at most one entry per slot; sizing it to the
    // slot table's capacity here keeps release() allocation-free, so the
    // steady-state schedule/fire/cancel cycle never touches the heap.
    free_slots_.reserve(generations_.capacity());
  }
  const std::uint64_t id = make_id(slot, generations_[slot]);
  heap_.push_back(Entry{t, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (live_ > peak_size_) peak_size_ = live_;
  return EventHandle{id};
}

bool EventQueue::cancel(EventHandle& h) noexcept {
  if (!h.valid()) return false;
  const std::uint32_t slot = id_slot(h.id);
  const bool was_pending = slot < generations_.size() && is_live(h.id);
  if (was_pending) {
    release(h.id);
    ++cancelled_;
    note_peak_dead();
    maybe_compact();
  }
  h.clear();
  return was_pending;
}

QueueStats EventQueue::stats() const noexcept {
  QueueStats s;
  s.scheduled = next_seq_;
  s.fired = fired_;
  s.cancelled = cancelled_;
  s.compactions = compactions_;
  s.peak_size = peak_size_;
  s.peak_dead = peak_dead_;
  return s;
}

void EventQueue::maybe_compact() noexcept {
  // Keeps storage at <= 2x the live-event count: dead entries are erased
  // in place (no allocation) and the heap invariant rebuilt.
  const std::size_t stored = heap_.size();
  if (stored < kCompactMin || stored - live_ <= stored / 2) return;
  ++compactions_;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !is_live(e.id); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::drop_dead() const {
  // Record the tombstone peak before lazily removing them: a cancel burst
  // consumed entirely here (e.g. via peek_time) must still show up in
  // QueueStats::peak_dead, or obs snapshots under-report cancel pressure.
  note_peak_dead();
  while (!heap_.empty() && !is_live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

// ---------------------------------------------------------------------------

double EventQueue::peek_time() const noexcept {
  drop_dead();
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().time;
}

bool EventQueue::step() {
  drop_dead();
  if (heap_.empty()) return false;
  if (fire_budget_ != 0 && fired_ >= fire_budget_) throw EventBudgetExceeded(fire_budget_);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  release(e.id);
  ++fired_;
  now_ = e.time;
  e.fn();
  return true;
}

std::uint64_t EventQueue::run_until(double t_end) {
  // A NaN t_end makes `peek_time() <= t_end` universally false (silently
  // firing nothing); +/-infinity can never be landed on exactly.  Callers
  // wanting "drain everything" have run_all().
  if (!std::isfinite(t_end)) {
    throw std::invalid_argument("EventQueue::run_until: non-finite t_end");
  }
  std::uint64_t n = 0;
  while (peek_time() <= t_end) {
    step();
    ++n;
  }
  // Contract: the clock lands exactly on t_end even when the queue empties
  // early (or was empty all along), not on the last fired event.
  if (now_ < t_end) now_ = t_end;
  return n;
}

std::uint64_t EventQueue::run_all() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace ckptsim::sim
