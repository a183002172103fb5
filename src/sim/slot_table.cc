#include "src/sim/slot_table.h"

#include <stdexcept>
#include <string>

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
