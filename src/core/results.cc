#include "src/core/results.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ckptsim {

RunCounters& RunCounters::operator+=(const RunCounters& o) {
  compute_failures += o.compute_failures;
  extra_failures += o.extra_failures;
  io_failures += o.io_failures;
  master_aborts += o.master_aborts;
  ckpt_initiated += o.ckpt_initiated;
  ckpt_dumped += o.ckpt_dumped;
  ckpt_full += o.ckpt_full;
  ckpt_incremental += o.ckpt_incremental;
  ckpt_committed += o.ckpt_committed;
  ckpt_aborted_timeout += o.ckpt_aborted_timeout;
  ckpt_aborted_failure += o.ckpt_aborted_failure;
  ckpt_aborted_io += o.ckpt_aborted_io;
  recoveries_started += o.recoveries_started;
  recoveries_completed += o.recoveries_completed;
  recovery_restarts += o.recovery_restarts;
  stage1_reads += o.stage1_reads;
  reboots += o.reboots;
  prop_windows += o.prop_windows;
  return *this;
}

RunCounters RunCounters::operator-(const RunCounters& o) const {
  RunCounters r = *this;
  r.compute_failures -= o.compute_failures;
  r.extra_failures -= o.extra_failures;
  r.io_failures -= o.io_failures;
  r.master_aborts -= o.master_aborts;
  r.ckpt_initiated -= o.ckpt_initiated;
  r.ckpt_dumped -= o.ckpt_dumped;
  r.ckpt_full -= o.ckpt_full;
  r.ckpt_incremental -= o.ckpt_incremental;
  r.ckpt_committed -= o.ckpt_committed;
  r.ckpt_aborted_timeout -= o.ckpt_aborted_timeout;
  r.ckpt_aborted_failure -= o.ckpt_aborted_failure;
  r.ckpt_aborted_io -= o.ckpt_aborted_io;
  r.recoveries_started -= o.recoveries_started;
  r.recoveries_completed -= o.recoveries_completed;
  r.recovery_restarts -= o.recovery_restarts;
  r.stage1_reads -= o.stage1_reads;
  r.reboots -= o.reboots;
  r.prop_windows -= o.prop_windows;
  return r;
}

StateBreakdown& StateBreakdown::operator+=(const StateBreakdown& o) noexcept {
  executing += o.executing;
  checkpointing += o.checkpointing;
  recovering += o.recovering;
  rebooting += o.rebooting;
  return *this;
}

StateBreakdown StateBreakdown::operator/(double d) const noexcept {
  return StateBreakdown{executing / d, checkpointing / d, recovering / d, rebooting / d};
}

std::string RunResult::describe() const {
  std::ostringstream out;
  out << "useful_fraction = " << useful_fraction.mean << " +/- " << useful_fraction.half_width
      << " (" << useful_fraction.level * 100 << "% CI, " << replications << " reps)\n"
      << "total_useful_work = " << total_useful_work << " job units\n"
      << "failures: compute=" << totals.compute_failures << " correlated=" << totals.extra_failures
      << " io=" << totals.io_failures << "\n"
      << "checkpoints: init=" << totals.ckpt_initiated << " dumped=" << totals.ckpt_dumped
      << " committed=" << totals.ckpt_committed << " aborted(timeout/failure/io)="
      << totals.ckpt_aborted_timeout << "/" << totals.ckpt_aborted_failure << "/"
      << totals.ckpt_aborted_io << "\n"
      << "recoveries: started=" << totals.recoveries_started
      << " completed=" << totals.recoveries_completed
      << " restarts=" << totals.recovery_restarts << " reboots=" << totals.reboots << "\n"
      << "time split: executing=" << mean_breakdown.executing
      << " checkpointing=" << mean_breakdown.checkpointing
      << " recovering=" << mean_breakdown.recovering
      << " rebooting=" << mean_breakdown.rebooting;
  if (!failures.clean()) out << "\nreplication failures: " << failures.describe();
  if (!rounds.empty()) {
    out << "\nsequential rounds:";
    for (const auto r : rounds) out << " " << r;
  }
  return out.str();
}

void RunSpec::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("RunSpec: " + msg); };
  if (replications == 0) fail("need >= 1 replication");
  if (!(horizon > 0.0) || !std::isfinite(horizon)) fail("horizon must be finite and > 0");
  if (!(transient >= 0.0) || !std::isfinite(transient)) {
    fail("transient must be finite and >= 0");
  }
  if (!(confidence_level > 0.0 && confidence_level < 1.0)) {
    fail("confidence_level must be in (0, 1)");
  }
  if (snapshot_every_events > 0 && snapshot_dir.empty()) {
    fail("snapshot_every_events needs snapshot_dir");
  }
  sequential.validate();
}

RunSpec RunSpec::quick() {
  RunSpec s;
  s.transient = 50.0 * 3600.0;
  s.horizon = 400.0 * 3600.0;
  s.replications = 3;
  return s;
}

}  // namespace ckptsim
