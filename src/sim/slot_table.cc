#include "src/sim/slot_table.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ckptsim::sim {

void QueueStats::merge(const QueueStats& o) noexcept {
  scheduled += o.scheduled;
  fired += o.fired;
  cancelled += o.cancelled;
  compactions += o.compactions;
  peak_size = std::max(peak_size, o.peak_size);
  peak_dead = std::max(peak_dead, o.peak_dead);
}

}  // namespace ckptsim::sim

namespace ckptsim::sim::detail {

void throw_slot_bad_count() {
  throw std::invalid_argument("SlotTable: slot count is zero or above the capacity");
}

void throw_slot_bad_time() {
  throw std::invalid_argument("SlotTable: event time is non-finite or in the past");
}

void throw_slot_armed_twice() { throw std::logic_error("SlotTable: event slot armed twice"); }

void throw_slot_bad_end_time() {
  throw std::invalid_argument("SlotTable: non-finite end time");
}

void throw_slot_snapshot(const char* what) {
  throw snapshot::SnapshotError(snapshot::SnapshotFault::kCorrupt,
                                std::string("slot table snapshot: ") + what);
}

}  // namespace ckptsim::sim::detail
