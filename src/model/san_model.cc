#include "src/model/san_model.h"

#include <stdexcept>
#include <utility>

#include "src/core/fault.h"
#include "src/model/correlated.h"
#include "src/obs/metrics.h"
#include "src/san/executor.h"
#include "src/sim/distributions.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"

namespace ckptsim {

using san::ActivitySpec;
using san::Case;
using san::Context;
using san::InputArc;
using san::InputGate;
using san::Marking;
using san::OutputArc;
using san::OutputGate;

/// Ids of every shared place (integer and extended), resolved once in
/// build() and captured by value inside gate lambdas.
struct SanCheckpointModel::Places {
  // compute_nodes
  san::PlaceId execution, quiescing, wait_io_dump, checkpointing, wait_fs_write;
  // master
  san::PlaceId master_sleep, master_checkpointing, bcast_pending, timeout_armed;
  // coordination
  san::PlaceId coordinating, quiesce_requested, want_dump;
  // app_workload
  san::PlaceId app_compute, app_io;
  // io_nodes
  san::PlaceId ionode_idle, io_receiving_dump, writing_chkpt, writing_app_data, reading_chkpt,
      io_restarting, io_rebooting, pending_app_writes, buffered_valid;
  // recovery / reboot
  san::PlaceId recovery_pending, recovery_stage1_wait, recovery_stage1, recovery_stage2,
      rebooting, failed_recoveries;
  // correlated failures
  san::PlaceId prop_window, generic_normal, generic_correlated;
  // useful_work (extended)
  san::ExtendedPlaceId x_exec_since, x_work_total, x_work_buffered, x_work_committed,
      x_recovery_target, x_last_loss;
};

namespace {

using Places = SanCheckpointModel::Places;

// --- gate helper functions (the Möbius-style C++ gate bodies) --------------

/// Close the current execution span into x_work_total.
void flush_exec(const Places& pl, Context& c) {
  if (c.marking.has(pl.execution)) {
    c.marking.add_real(pl.x_work_total, c.now - c.marking.real(pl.x_exec_since));
  }
}

/// Restart execution-time accounting and reset the application to the
/// compute phase (paper Fig. 2c: app_workload resets at `compute`).
void resume_execution(const Places& pl, Context& c) {
  c.marking.set_real(pl.x_exec_since, c.now);
  c.marking.set_tokens(pl.app_compute, 1);
  c.marking.set_tokens(pl.app_io, 0);
}

[[nodiscard]] bool in_recovery(const Places& pl, const Marking& m) {
  return m.has(pl.recovery_pending) || m.has(pl.recovery_stage1_wait) ||
         m.has(pl.recovery_stage1) || m.has(pl.recovery_stage2);
}

[[nodiscard]] bool in_checkpointing(const Places& pl, const Marking& m) {
  return m.has(pl.quiescing) || m.has(pl.wait_io_dump) || m.has(pl.checkpointing) ||
         m.has(pl.wait_fs_write);
}

/// Enabling predicate of the compute-failure processes, honouring the
/// ablation switches that thin failures during checkpointing / recovery
/// (the assumptions of older checkpoint models).
[[nodiscard]] bool compute_failures_possible(const Places& pl, const Marking& m,
                                             bool during_ckpt, bool during_recovery) {
  if (m.has(pl.rebooting)) return false;
  if (!during_recovery && in_recovery(pl, m)) return false;
  if (!during_ckpt && in_checkpointing(pl, m)) return false;
  return true;
}

/// Abort the coordination protocol (timeout or master failure): clear all
/// protocol flags, reset the master, and resume execution if the compute
/// nodes were stopped.
void abort_protocol(const Places& pl, Context& c) {
  Marking& m = c.marking;
  m.set_tokens(pl.bcast_pending, 0);
  m.set_tokens(pl.timeout_armed, 0);
  m.set_tokens(pl.coordinating, 0);
  m.set_tokens(pl.quiesce_requested, 0);
  m.set_tokens(pl.want_dump, 0);
  if (m.has(pl.master_checkpointing)) {
    m.set_tokens(pl.master_checkpointing, 0);
    m.set_tokens(pl.master_sleep, 1);
  }
  const bool blocked =
      m.has(pl.quiescing) || m.has(pl.wait_io_dump) || m.has(pl.checkpointing);
  if (blocked) {
    m.set_tokens(pl.quiescing, 0);
    m.set_tokens(pl.wait_io_dump, 0);
    if (m.has(pl.checkpointing)) {
      m.set_tokens(pl.checkpointing, 0);
      if (m.has(pl.io_receiving_dump)) {
        m.set_tokens(pl.io_receiving_dump, 0);
        m.set_tokens(pl.ionode_idle, 1);
      }
    }
    m.set_tokens(pl.execution, 1);
    resume_execution(pl, c);
  }
}

/// Drop the buffered checkpoint.  When a recovery was targeting it, fall
/// back to the committed checkpoint and charge the extra lost work.
void invalidate_buffer(const Places& pl, Context& c, bool recovering) {
  Marking& m = c.marking;
  if (!m.has(pl.buffered_valid)) return;
  m.set_tokens(pl.buffered_valid, 0);
  if (recovering && m.real(pl.x_recovery_target) > m.real(pl.x_work_committed)) {
    const double extra = m.real(pl.x_recovery_target) - m.real(pl.x_work_committed);
    m.add_real(pl.x_last_loss, extra);
    m.set_real(pl.x_work_total, m.real(pl.x_work_committed));
    m.set_real(pl.x_recovery_target, m.real(pl.x_work_committed));
  }
}

/// Reboot the whole system after too many failed recoveries.
void enter_reboot(const Places& pl, Context& c) {
  Marking& m = c.marking;
  invalidate_buffer(pl, c, /*recovering=*/true);
  m.set_tokens(pl.recovery_pending, 0);
  m.set_tokens(pl.recovery_stage1_wait, 0);
  m.set_tokens(pl.recovery_stage1, 0);
  m.set_tokens(pl.recovery_stage2, 0);
  m.set_tokens(pl.want_dump, 0);
  m.set_tokens(pl.pending_app_writes, 0);
  m.set_tokens(pl.ionode_idle, 0);
  m.set_tokens(pl.io_receiving_dump, 0);
  m.set_tokens(pl.writing_chkpt, 0);
  m.set_tokens(pl.writing_app_data, 0);
  m.set_tokens(pl.reading_chkpt, 0);
  m.set_tokens(pl.io_restarting, 0);
  m.set_tokens(pl.io_rebooting, 1);
  m.set_tokens(pl.rebooting, 1);
}

/// A failure interrupted an in-progress recovery: count it, abort the
/// current stage, and either restart the recovery or reboot.
void unsuccessful_recovery(const Places& pl, Context& c, std::uint32_t threshold) {
  Marking& m = c.marking;
  m.add_tokens(pl.failed_recoveries, 1);
  if (m.has(pl.recovery_stage1)) {
    m.set_tokens(pl.recovery_stage1, 0);
    if (m.has(pl.reading_chkpt)) {  // stage-1 read aborted (compute failure)
      m.set_tokens(pl.reading_chkpt, 0);
      m.set_tokens(pl.ionode_idle, 1);
    }
  }
  m.set_tokens(pl.recovery_stage1_wait, 0);
  m.set_tokens(pl.recovery_stage2, 0);
  m.set_tokens(pl.recovery_pending, 0);
  if (static_cast<std::uint32_t>(m.tokens(pl.failed_recoveries)) > threshold) {
    enter_reboot(pl, c);
  } else {
    m.set_tokens(pl.recovery_pending, 1);
  }
}

/// Roll the application back to the newest recoverable checkpoint and start
/// the recovery (the core of the comp_node_failure -> comp_node_recovery
/// interaction in Figure 1).
void do_rollback(const Places& pl, Context& c) {
  Marking& m = c.marking;
  // Abort any checkpoint-protocol activity.
  m.set_tokens(pl.bcast_pending, 0);
  m.set_tokens(pl.timeout_armed, 0);
  m.set_tokens(pl.coordinating, 0);
  m.set_tokens(pl.quiesce_requested, 0);
  m.set_tokens(pl.want_dump, 0);
  if (m.has(pl.master_checkpointing)) {
    m.set_tokens(pl.master_checkpointing, 0);
    m.set_tokens(pl.master_sleep, 1);
  }
  flush_exec(pl, c);
  m.set_tokens(pl.execution, 0);
  m.set_tokens(pl.quiescing, 0);
  m.set_tokens(pl.wait_io_dump, 0);
  if (m.has(pl.checkpointing)) {
    m.set_tokens(pl.checkpointing, 0);
    if (m.has(pl.io_receiving_dump)) {
      m.set_tokens(pl.io_receiving_dump, 0);
      m.set_tokens(pl.ionode_idle, 1);
    }
  }
  m.set_tokens(pl.wait_fs_write, 0);
  // Charge the lost work.
  const double target =
      m.has(pl.buffered_valid) ? m.real(pl.x_work_buffered) : m.real(pl.x_work_committed);
  m.add_real(pl.x_last_loss, m.real(pl.x_work_total) - target);
  m.set_real(pl.x_work_total, target);
  m.set_real(pl.x_recovery_target, target);
  m.set_tokens(pl.failed_recoveries, 0);
  m.set_tokens(pl.recovery_pending, 1);
}

}  // namespace

// ---------------------------------------------------------------------------

SanCheckpointModel::SanCheckpointModel(const Parameters& params)
    : p_(params), io_timing_(params), workload_(params) {
  p_.validate();
  if (p_.failure_distribution != FailureDistribution::kExponential) {
    // SAN activation/abort semantics assume memoryless failure activities;
    // the Weibull ablation lives in the DES engine only.
    throw std::invalid_argument(
        "SanCheckpointModel: only exponential failures are supported (use the DES engine "
        "for the Weibull ablation)");
  }
  if (p_.full_checkpoint_period != 1 || p_.incremental_size_fraction != 1.0) {
    throw std::invalid_argument(
        "SanCheckpointModel: incremental checkpointing is a DES-engine extension");
  }
  if (p_.trace_driven()) {
    // SAN failure activities are memoryless rate processes; replaying
    // recorded timestamps is a DES-engine extension.
    throw std::invalid_argument(
        "SanCheckpointModel: trace-driven failure injection is a DES-engine extension");
  }
  if (p_.proactive_enabled()) {
    throw std::invalid_argument(
        "SanCheckpointModel: proactive fault tolerance is a DES-engine extension "
        "(use run_proactive / --engine des)");
  }
  build();
}

SubmodelInfo& SanCheckpointModel::submodel(std::string module, std::string name,
                                           std::string comment) {
  submodels_.push_back(SubmodelInfo{std::move(module), std::move(name), std::move(comment), {}, {}});
  return submodels_.back();
}

void SanCheckpointModel::build() {
  Places pl;
  // computing & checkpointing places
  pl.execution = model_.add_place("execution", 1);
  pl.quiescing = model_.add_place("quiescing", 0);
  pl.wait_io_dump = model_.add_place("wait_io_dump", 0);
  pl.checkpointing = model_.add_place("checkpointing", 0);
  pl.wait_fs_write = model_.add_place("wait_fs_write", 0);
  pl.master_sleep = model_.add_place("master_sleep", 1);
  pl.master_checkpointing = model_.add_place("master_checkpointing", 0);
  pl.bcast_pending = model_.add_place("bcast_pending", 0);
  pl.timeout_armed = model_.add_place("timeout_armed", 0);
  pl.coordinating = model_.add_place("coordinating", 0);
  pl.quiesce_requested = model_.add_place("quiesce_requested", 0);
  pl.want_dump = model_.add_place("want_dump", 0);
  pl.app_compute = model_.add_place("app_compute", 1);
  pl.app_io = model_.add_place("app_io", 0);
  pl.ionode_idle = model_.add_place("ionode_idle", 1);
  pl.io_receiving_dump = model_.add_place("io_receiving_dump", 0);
  pl.writing_chkpt = model_.add_place("writing_chkpt", 0);
  pl.writing_app_data = model_.add_place("writing_app_data", 0);
  pl.reading_chkpt = model_.add_place("reading_chkpt", 0);
  pl.io_restarting = model_.add_place("io_restarting", 0);
  pl.io_rebooting = model_.add_place("io_rebooting", 0);
  pl.pending_app_writes = model_.add_place("pending_app_writes", 0);
  pl.buffered_valid = model_.add_place("buffered_valid", 0);
  pl.recovery_pending = model_.add_place("recovery_pending", 0);
  pl.recovery_stage1_wait = model_.add_place("recovery_stage1_wait", 0);
  pl.recovery_stage1 = model_.add_place("recovery_stage1", 0);
  pl.recovery_stage2 = model_.add_place("recovery_stage2", 0);
  pl.rebooting = model_.add_place("rebooting", 0);
  pl.failed_recoveries = model_.add_place("failed_recoveries", 0);
  pl.prop_window = model_.add_place("prop_window", 0);
  pl.generic_normal =
      model_.add_place("generic_normal", p_.generic_correlated_coefficient > 0.0 ? 1 : 0);
  pl.generic_correlated = model_.add_place("generic_correlated", 0);
  pl.x_exec_since = model_.add_extended_place("x_exec_since", 0.0);
  pl.x_work_total = model_.add_extended_place("x_work_total", 0.0);
  pl.x_work_buffered = model_.add_extended_place("x_work_buffered", 0.0);
  pl.x_work_committed = model_.add_extended_place("x_work_committed", 0.0);
  pl.x_recovery_target = model_.add_extended_place("x_recovery_target", 0.0);
  pl.x_last_loss = model_.add_extended_place("x_last_loss", 0.0);

  build_app_workload(pl);
  build_master(pl);
  build_coordination(pl);
  build_compute_nodes(pl);
  build_io_nodes(pl);
  build_comp_node_failure(pl);
  build_comp_node_recovery(pl);
  build_io_node_failure(pl);
  build_io_node_recovery(pl);
  build_system_reboot(pl);
  build_correlated_failures(pl);
  build_useful_work(pl);
}

// --- app_workload -----------------------------------------------------------

void SanCheckpointModel::build_app_workload(const Places& pl) {
  auto& info = submodel("computing & checkpointing", "app_workload",
                        "Application state: performing computation or I/O operations");
  info.places = {"app_compute", "app_io"};
  if (!p_.app_io_enabled || workload_.io_phase <= 0.0) return;  // pure-compute workload

  const double compute_phase = workload_.compute_phase;
  const double io_phase = workload_.io_phase;
  const bool has_app_data = p_.app_io_data_per_node > 0.0;

  ActivitySpec compute_end;
  compute_end.name = "compute_phase_end";
  compute_end.latency = [compute_phase](const Marking&, sim::Rng&) { return compute_phase; };
  compute_end.input_arcs = {InputArc{pl.app_compute, 1}};
  compute_end.input_gates = {InputGate{
      "app_running", [pl](const Marking& m) { return m.has(pl.execution); }, {},
      {pl.execution}}};
  compute_end.output_arcs = {OutputArc{pl.app_io, 1}};
  model_.add_activity(std::move(compute_end));

  ActivitySpec io_end;
  io_end.name = "io_phase_end";
  io_end.latency = [io_phase](const Marking&, sim::Rng&) { return io_phase; };
  io_end.input_arcs = {InputArc{pl.app_io, 1}};
  io_end.input_gates = {InputGate{
      "app_running_io", [pl](const Marking& m) { return m.has(pl.execution); }, {},
      {pl.execution}}};
  io_end.output_arcs = {OutputArc{pl.app_compute, 1}};
  io_end.output_gates = {OutputGate{"io_burst_done", [pl, has_app_data](Context& c) {
    Marking& m = c.marking;
    if (has_app_data) m.add_tokens(pl.pending_app_writes, 1);
    if (m.has(pl.quiesce_requested)) {
      // The burst the quiesce was waiting for just finished: coordinate now.
      m.set_tokens(pl.quiesce_requested, 0);
      flush_exec(pl, c);
      m.set_tokens(pl.execution, 0);
      m.set_tokens(pl.quiescing, 1);
      m.set_tokens(pl.coordinating, 1);
    }
  }}};
  model_.add_activity(std::move(io_end));

  info.activities = {"compute_phase_end", "io_phase_end"};
}

// --- master -----------------------------------------------------------------

void SanCheckpointModel::build_master(const Places& pl) {
  auto& info = submodel("computing & checkpointing", "master",
                        "System checkpointing state: if checkpointing is started or not");
  info.places = {"master_sleep", "master_checkpointing", "bcast_pending", "timeout_armed"};

  const double interval = p_.checkpoint_interval;
  const bool has_timeout = p_.timeout > 0.0;

  ActivitySpec interval_act;
  interval_act.name = "ckpt_interval";
  interval_act.latency = [interval](const Marking&, sim::Rng&) { return interval; };
  interval_act.input_arcs = {InputArc{pl.master_sleep, 1}};
  interval_act.input_gates = {InputGate{
      "compute_executing", [pl](const Marking& m) { return m.has(pl.execution); }, {},
      {pl.execution}}};
  interval_act.output_arcs = {OutputArc{pl.master_checkpointing, 1},
                              OutputArc{pl.bcast_pending, 1}};
  interval_act.output_gates = {OutputGate{"start_timer", [pl, has_timeout](Context& c) {
    if (has_timeout) c.marking.set_tokens(pl.timeout_armed, 1);
  }}};
  model_.add_activity(std::move(interval_act));
  info.activities.push_back("ckpt_interval");

  if (has_timeout) {
    const double timeout = p_.timeout;
    ActivitySpec timeout_act;
    timeout_act.name = "timeout_timer";
    timeout_act.latency = [timeout](const Marking&, sim::Rng&) { return timeout; };
    timeout_act.input_arcs = {InputArc{pl.timeout_armed, 1}};
    timeout_act.output_gates = {OutputGate{"skip_chkpt", [pl](Context& c) {
      abort_protocol(pl, c);
    }}};
    model_.add_activity(std::move(timeout_act));
    info.activities.push_back("timeout_timer");
  }

  if (p_.master_failures_enabled) {
    const double mean = p_.mttf_node;
    ActivitySpec master_fail;
    master_fail.name = "master_failure";
    master_fail.latency = [mean](const Marking&, sim::Rng& r) {
      return r.exponential_mean(mean);
    };
    master_fail.input_gates = {InputGate{
        "master_busy", [pl](const Marking& m) { return m.has(pl.master_checkpointing); }, {},
        {pl.master_checkpointing}}};
    master_fail.output_gates = {OutputGate{"master_abort", [pl](Context& c) {
      abort_protocol(pl, c);
    }}};
    model_.add_activity(std::move(master_fail));
    info.activities.push_back("master_failure");
  }
}

// --- coordination -----------------------------------------------------------

void SanCheckpointModel::build_coordination(const Places& pl) {
  auto& info = submodel("computing & checkpointing", "coordination",
                        "Coordination procedure for checkpointing");
  info.places = {"coordinating", "quiesce_requested", "want_dump"};

  san::LatencySampler sampler;
  switch (p_.coordination) {
    case CoordinationMode::kFixedQuiesce: {
      const double q = p_.mttq;
      sampler = [q](const Marking&, sim::Rng&) { return q; };
      break;
    }
    case CoordinationMode::kSystemExponential: {
      const double q = p_.mttq;
      sampler = [q](const Marking&, sim::Rng& r) { return r.exponential_mean(q); };
      break;
    }
    case CoordinationMode::kMaxOfExponentials: {
      const sim::MaxOfExponentials dist(p_.num_processors, p_.mttq);
      sampler = [dist](const Marking&, sim::Rng& r) { return dist.sample(r); };
      break;
    }
  }

  ActivitySpec coord;
  coord.name = "coord";
  coord.latency = std::move(sampler);
  coord.input_arcs = {InputArc{pl.coordinating, 1}};
  coord.output_gates = {OutputGate{"complete_coordination", [pl](Context& c) {
    Marking& m = c.marking;
    m.set_tokens(pl.quiescing, 0);
    m.set_tokens(pl.wait_io_dump, 1);
    m.set_tokens(pl.want_dump, 1);
    m.set_tokens(pl.timeout_armed, 0);  // all 'ready' replies collected
  }}};
  model_.add_activity(std::move(coord));
  info.activities = {"coord"};
}

// --- compute_nodes ----------------------------------------------------------

void SanCheckpointModel::build_compute_nodes(const Places& pl) {
  auto& info = submodel("computing & checkpointing", "compute_nodes",
                        "Compute processor state in the checkpoint cycle: executing, "
                        "quiescing, or checkpoint dumping");
  info.places = {"execution", "quiescing", "wait_io_dump", "checkpointing", "wait_fs_write"};

  const double bcast = p_.quiesce_broadcast_latency();
  const bool app_io_on = p_.app_io_enabled && workload_.io_phase > 0.0;

  ActivitySpec bcast_act;
  bcast_act.name = "recv_quiesce_bcast";
  bcast_act.latency = [bcast](const Marking&, sim::Rng&) { return bcast; };
  bcast_act.input_arcs = {InputArc{pl.bcast_pending, 1}};
  bcast_act.output_gates = {OutputGate{"to_quiesce_or_wait", [pl, app_io_on](Context& c) {
    Marking& m = c.marking;
    if (app_io_on && m.has(pl.app_io)) {
      m.set_tokens(pl.quiesce_requested, 1);  // wait for the burst to finish
    } else {
      flush_exec(pl, c);
      m.set_tokens(pl.execution, 0);
      m.set_tokens(pl.quiescing, 1);
      m.set_tokens(pl.coordinating, 1);
    }
  }}};
  model_.add_activity(std::move(bcast_act));

  // ionode_is_idle input gate of Figure 2a: the dump may only start once the
  // I/O nodes are idle; instantaneous so it fires the moment they are.
  ActivitySpec start_dump;
  start_dump.name = "start_dump";
  start_dump.timed = false;
  start_dump.priority = 2;
  start_dump.input_arcs = {InputArc{pl.want_dump, 1}, InputArc{pl.ionode_idle, 1},
                           InputArc{pl.wait_io_dump, 1}};
  start_dump.output_arcs = {OutputArc{pl.io_receiving_dump, 1}, OutputArc{pl.checkpointing, 1}};
  start_dump.output_gates = {OutputGate{"reuse_buffer", [pl](Context& c) {
    // The I/O buffer is reused for the incoming checkpoint.
    c.marking.set_tokens(pl.buffered_valid, 0);
  }}};
  model_.add_activity(std::move(start_dump));

  const double dump_time = io_timing_.dump;
  const bool background = p_.background_fs_write;
  ActivitySpec dump;
  dump.name = "dump_chkpt";
  dump.latency = [dump_time](const Marking&, sim::Rng&) { return dump_time; };
  dump.input_arcs = {InputArc{pl.checkpointing, 1}, InputArc{pl.io_receiving_dump, 1}};
  dump.output_gates = {OutputGate{"enable_chkpt", [pl, background](Context& c) {
    Marking& m = c.marking;
    m.set_tokens(pl.buffered_valid, 1);
    m.set_real(pl.x_work_buffered, m.real(pl.x_work_total));
    m.set_tokens(pl.writing_chkpt, 1);  // background write to the file system
    m.set_tokens(pl.master_checkpointing, 0);
    m.set_tokens(pl.master_sleep, 1);
    if (background) {
      m.set_tokens(pl.execution, 1);
      resume_execution(pl, c);
    } else {
      m.set_tokens(pl.wait_fs_write, 1);
    }
  }}};
  model_.add_activity(std::move(dump));

  info.activities = {"recv_quiesce_bcast", "start_dump", "dump_chkpt"};
}

// --- io_nodes ----------------------------------------------------------------

void SanCheckpointModel::build_io_nodes(const Places& pl) {
  auto& info = submodel("computing & checkpointing", "io_nodes",
                        "I/O processor state: idling, writing application data, writing "
                        "checkpoint, or reading checkpoint; if checkpoint is locally buffered");
  info.places = {"ionode_idle",     "io_receiving_dump", "writing_chkpt", "writing_app_data",
                 "reading_chkpt",   "io_restarting",     "io_rebooting",  "pending_app_writes",
                 "buffered_valid"};

  const double fs_write = io_timing_.fs_write;
  ActivitySpec write_ckpt;
  write_ckpt.name = "write_chkpt";
  write_ckpt.latency = [fs_write](const Marking&, sim::Rng&) { return fs_write; };
  write_ckpt.input_arcs = {InputArc{pl.writing_chkpt, 1}};
  write_ckpt.output_arcs = {OutputArc{pl.ionode_idle, 1}};
  write_ckpt.output_gates = {OutputGate{"commit_chkpt", [pl](Context& c) {
    Marking& m = c.marking;
    m.set_real(pl.x_work_committed, m.real(pl.x_work_buffered));
    if (m.has(pl.wait_fs_write)) {  // synchronous-write ablation
      m.set_tokens(pl.wait_fs_write, 0);
      m.set_tokens(pl.execution, 1);
      resume_execution(pl, c);
    }
  }}};
  model_.add_activity(std::move(write_ckpt));
  info.activities.push_back("write_chkpt");

  if (p_.app_io_enabled && p_.app_io_data_per_node > 0.0 && workload_.io_phase > 0.0) {
    ActivitySpec start_app_write;
    start_app_write.name = "start_app_write";
    start_app_write.timed = false;
    start_app_write.priority = 1;
    start_app_write.input_arcs = {InputArc{pl.ionode_idle, 1}, InputArc{pl.pending_app_writes, 1}};
    start_app_write.output_arcs = {OutputArc{pl.writing_app_data, 1}};
    model_.add_activity(std::move(start_app_write));

    const double app_write = io_timing_.app_write;
    ActivitySpec write_app;
    write_app.name = "write_app_data";
    write_app.latency = [app_write](const Marking&, sim::Rng&) { return app_write; };
    write_app.input_arcs = {InputArc{pl.writing_app_data, 1}};
    write_app.output_arcs = {OutputArc{pl.ionode_idle, 1}};
    model_.add_activity(std::move(write_app));

    info.activities.push_back("start_app_write");
    info.activities.push_back("write_app_data");
  }
}

// --- comp_node_failure --------------------------------------------------------

void SanCheckpointModel::build_comp_node_failure(const Places& pl) {
  auto& info = submodel("failure & recovery", "comp_node_failure",
                        "Failure behavior of compute nodes");
  if (!p_.compute_failures_enabled) return;

  const double rate = p_.system_failure_rate();
  const double prob_correlated = p_.prob_correlated;
  const std::uint32_t threshold = p_.recovery_failure_threshold;
  const bool during_ckpt = p_.failures_during_checkpointing;
  const bool during_rec = p_.failures_during_recovery;

  ActivitySpec fail;
  fail.name = "comp_node_failure";
  fail.latency = [rate](const Marking&, sim::Rng& r) { return r.exponential_rate(rate); };
  fail.input_gates = {InputGate{
      "system_up",
      [pl, during_ckpt, during_rec](const Marking& m) {
        return compute_failures_possible(pl, m, during_ckpt, during_rec);
      },
      {},
      // Read-set of compute_failures_possible (a superset when the ablation
      // flags thin it further, which is safe — just extra re-evaluations).
      {pl.rebooting, pl.recovery_pending, pl.recovery_stage1_wait, pl.recovery_stage1,
       pl.recovery_stage2, pl.quiescing, pl.wait_io_dump, pl.checkpointing,
       pl.wait_fs_write}}};
  fail.output_gates = {OutputGate{"compute_failure_effects",
                                  [pl, prob_correlated, threshold](Context& c) {
    Marking& m = c.marking;
    m.set_real(pl.x_last_loss, 0.0);
    if (prob_correlated > 0.0 && !m.has(pl.prop_window) &&
        c.rng.bernoulli(prob_correlated)) {
      m.set_tokens(pl.prop_window, 1);  // error-propagation burst begins
    }
    if (in_recovery(pl, m)) {
      unsuccessful_recovery(pl, c, threshold);
    } else {
      do_rollback(pl, c);
    }
  }}};
  model_.add_activity(std::move(fail));
  info.activities = {"comp_node_failure"};
}

// --- comp_node_recovery --------------------------------------------------------

void SanCheckpointModel::build_comp_node_recovery(const Places& pl) {
  auto& info = submodel("failure & recovery", "comp_node_recovery",
                        "Recovery behavior of compute nodes");
  info.places = {"recovery_pending", "recovery_stage1_wait", "recovery_stage1",
                 "recovery_stage2", "failed_recoveries"};

  ActivitySpec route2;
  route2.name = "rec_route_stage2";
  route2.timed = false;
  route2.priority = 5;
  route2.input_arcs = {InputArc{pl.recovery_pending, 1}};
  route2.input_gates = {InputGate{
      "buffered", [pl](const Marking& m) { return m.has(pl.buffered_valid); }, {},
      {pl.buffered_valid}}};
  route2.output_arcs = {OutputArc{pl.recovery_stage2, 1}};
  model_.add_activity(std::move(route2));

  ActivitySpec route1;
  route1.name = "rec_route_stage1";
  route1.timed = false;
  route1.priority = 4;
  route1.input_arcs = {InputArc{pl.recovery_pending, 1}};
  route1.input_gates = {InputGate{
      "not_buffered", [pl](const Marking& m) { return !m.has(pl.buffered_valid); }, {},
      {pl.buffered_valid}}};
  route1.output_arcs = {OutputArc{pl.recovery_stage1_wait, 1}};
  model_.add_activity(std::move(route1));

  ActivitySpec start_read;
  start_read.name = "start_stage1_read";
  start_read.timed = false;
  start_read.priority = 3;
  start_read.input_arcs = {InputArc{pl.recovery_stage1_wait, 1}, InputArc{pl.ionode_idle, 1}};
  start_read.output_arcs = {OutputArc{pl.recovery_stage1, 1}, OutputArc{pl.reading_chkpt, 1}};
  model_.add_activity(std::move(start_read));

  const double fs_read = io_timing_.fs_read;
  ActivitySpec read;
  read.name = "chkpt_read";
  read.latency = [fs_read](const Marking&, sim::Rng&) { return fs_read; };
  read.input_arcs = {InputArc{pl.recovery_stage1, 1}, InputArc{pl.reading_chkpt, 1}};
  read.output_arcs = {OutputArc{pl.recovery_stage2, 1}, OutputArc{pl.ionode_idle, 1}};
  read.output_gates = {OutputGate{"buffer_restored", [pl](Context& c) {
    Marking& m = c.marking;
    m.set_tokens(pl.buffered_valid, 1);
    m.set_real(pl.x_work_buffered, m.real(pl.x_work_committed));
  }}};
  model_.add_activity(std::move(read));

  const double mttr = p_.mttr_compute;
  ActivitySpec stage2;
  stage2.name = "recovery_stage2_act";
  stage2.latency = [mttr](const Marking&, sim::Rng& r) { return r.exponential_mean(mttr); };
  stage2.input_arcs = {InputArc{pl.recovery_stage2, 1}};
  stage2.output_arcs = {OutputArc{pl.execution, 1}};
  stage2.output_gates = {OutputGate{"recovery_completes", [pl](Context& c) {
    Marking& m = c.marking;
    m.set_tokens(pl.failed_recoveries, 0);
    m.set_tokens(pl.prop_window, 0);  // successful recovery exits the window
    resume_execution(pl, c);
  }}};
  model_.add_activity(std::move(stage2));

  info.activities = {"rec_route_stage2", "rec_route_stage1", "start_stage1_read", "chkpt_read",
                     "recovery_stage2_act"};
}

// --- io_node_failure ------------------------------------------------------------

void SanCheckpointModel::build_io_node_failure(const Places& pl) {
  auto& info = submodel("failure & recovery", "io_node_failure",
                        "Failure behavior of I/O nodes");
  if (!p_.io_failures_enabled) return;

  const double rate = p_.io_failure_rate();
  const std::uint32_t threshold = p_.recovery_failure_threshold;

  ActivitySpec fail;
  fail.name = "io_node_failure";
  fail.latency = [rate](const Marking&, sim::Rng& r) { return r.exponential_rate(rate); };
  fail.input_gates = {InputGate{
      "io_up",
      [pl](const Marking& m) {
        return !m.has(pl.io_restarting) && !m.has(pl.io_rebooting);
      },
      {},
      {pl.io_restarting, pl.io_rebooting}}};
  fail.output_gates = {OutputGate{"io_failure_effects", [pl, threshold](Context& c) {
    Marking& m = c.marking;
    m.set_real(pl.x_last_loss, 0.0);
    const bool recovering = in_recovery(pl, m);
    const bool was_receiving = m.has(pl.io_receiving_dump);
    const bool was_app = m.has(pl.writing_app_data);
    const bool was_read = m.has(pl.reading_chkpt);
    // All I/O nodes restart; whatever they held or were doing is lost.
    m.set_tokens(pl.pending_app_writes, 0);
    m.set_tokens(pl.io_receiving_dump, 0);
    m.set_tokens(pl.writing_app_data, 0);
    m.set_tokens(pl.reading_chkpt, 0);
    m.set_tokens(pl.writing_chkpt, 0);
    m.set_tokens(pl.ionode_idle, 0);
    m.set_tokens(pl.io_restarting, 1);
    invalidate_buffer(pl, c, recovering);
    if (was_receiving) {
      // Dump aborted; compute nodes resume execution unaffected.
      abort_protocol(pl, c);
    } else if (was_app) {
      // Application results lost: roll back to the last checkpoint.
      if (recovering) {
        unsuccessful_recovery(pl, c, threshold);
      } else {
        do_rollback(pl, c);
      }
    } else if (was_read) {
      // Recovery stage-1 read aborted.
      unsuccessful_recovery(pl, c, threshold);
    }
    // A stage-2 recovery lost its buffered source and must restart.
    if (m.has(pl.recovery_stage2)) unsuccessful_recovery(pl, c, threshold);
  }}};
  model_.add_activity(std::move(fail));
  info.activities = {"io_node_failure"};
}

// --- io_node_recovery -----------------------------------------------------------

void SanCheckpointModel::build_io_node_recovery(const Places& pl) {
  auto& info = submodel("failure & recovery", "io_node_recovery",
                        "Recovery behavior of I/O nodes");
  info.places = {"io_restarting"};
  if (!p_.io_failures_enabled) return;

  const double mttr_io = p_.mttr_io;
  ActivitySpec restart;
  restart.name = "io_restart";
  restart.latency = [mttr_io](const Marking&, sim::Rng& r) { return r.exponential_mean(mttr_io); };
  restart.input_arcs = {InputArc{pl.io_restarting, 1}};
  restart.output_arcs = {OutputArc{pl.ionode_idle, 1}};
  model_.add_activity(std::move(restart));
  info.activities = {"io_restart"};
}

// --- system_reboot ---------------------------------------------------------------

void SanCheckpointModel::build_system_reboot(const Places& pl) {
  auto& info = submodel("failure & recovery", "system_reboot", "System reboot operation");
  info.places = {"rebooting", "io_rebooting"};

  const double reboot_time = p_.reboot_time;
  ActivitySpec reboot;
  reboot.name = "system_reboot_act";
  reboot.latency = [reboot_time](const Marking&, sim::Rng&) { return reboot_time; };
  reboot.input_arcs = {InputArc{pl.rebooting, 1}};
  reboot.output_gates = {OutputGate{"reboot_completes", [pl](Context& c) {
    Marking& m = c.marking;
    // I/O processors are ready; compute nodes still need to read the last
    // checkpoint and recover (Figure 1 "reboot completes" arrows).
    m.set_tokens(pl.io_rebooting, 0);
    m.set_tokens(pl.ionode_idle, 1);
    m.set_tokens(pl.failed_recoveries, 0);
    m.set_tokens(pl.recovery_pending, 1);
  }}};
  model_.add_activity(std::move(reboot));
  info.activities = {"system_reboot_act"};
}

// --- correlated_failures -----------------------------------------------------------

void SanCheckpointModel::build_correlated_failures(const Places& pl) {
  auto& info = submodel("correlated failure", "correlated_failures",
                        "Correlated failure behavior");
  info.places = {"prop_window", "generic_normal", "generic_correlated"};
  if (!p_.compute_failures_enabled) return;

  const bool any_correlated =
      p_.prob_correlated > 0.0 || p_.generic_correlated_coefficient > 0.0;
  if (any_correlated) {
    const double extra_rate = p_.correlated_failure_rate();
    const double alpha = p_.generic_correlated_coefficient;
    const bool smooth = p_.generic_correlated_smooth;
    const std::uint32_t threshold = p_.recovery_failure_threshold;
    // Marking-dependent rate: r*n*lambda while a propagation window is
    // open, plus the generic contribution (alpha*r*n*lambda continuously in
    // smooth mode, r*n*lambda during a correlated phase otherwise).
    const auto current_rate = [pl, extra_rate, alpha, smooth](const Marking& m) {
      double rate = 0.0;
      if (m.has(pl.prop_window)) rate += extra_rate;
      if (alpha > 0.0) {
        if (smooth) {
          rate += alpha * extra_rate;
        } else if (m.has(pl.generic_correlated)) {
          rate += extra_rate;
        }
      }
      return rate;
    };
    ActivitySpec extra;
    extra.name = "extra_failure";
    // kResample keeps the in-flight sample consistent with the
    // marking-dependent rate whenever the marking changes (memoryless, so
    // resampling is statistically exact).
    extra.reactivation = san::Reactivation::kResample;
    extra.latency = [current_rate](const Marking& m, sim::Rng& r) {
      return r.exponential_rate(current_rate(m));
    };
    const bool during_ckpt = p_.failures_during_checkpointing;
    const bool during_rec = p_.failures_during_recovery;
    extra.input_gates = {InputGate{
        "correlated_active",
        [pl, current_rate, during_ckpt, during_rec](const Marking& m) {
          return current_rate(m) > 0.0 &&
                 compute_failures_possible(pl, m, during_ckpt, during_rec);
        },
        {},
        // current_rate reads prop_window / generic_correlated; the rest is
        // the compute_failures_possible read-set.
        {pl.prop_window, pl.generic_correlated, pl.rebooting, pl.recovery_pending,
         pl.recovery_stage1_wait, pl.recovery_stage1, pl.recovery_stage2, pl.quiescing,
         pl.wait_io_dump, pl.checkpointing, pl.wait_fs_write}}};
    extra.output_gates = {OutputGate{"correlated_failure_effects", [pl, threshold](Context& c) {
      Marking& m = c.marking;
      m.set_real(pl.x_last_loss, 0.0);
      if (in_recovery(pl, m)) {
        unsuccessful_recovery(pl, c, threshold);
      } else {
        do_rollback(pl, c);
      }
    }}};
    model_.add_activity(std::move(extra));
    info.activities.push_back("extra_failure");
  }

  if (p_.prob_correlated > 0.0) {
    const double window = p_.correlated_window;
    ActivitySpec window_end;
    window_end.name = "prop_window_end";
    window_end.latency = [window](const Marking&, sim::Rng&) { return window; };
    window_end.input_arcs = {InputArc{pl.prop_window, 1}};
    model_.add_activity(std::move(window_end));
    info.activities.push_back("prop_window_end");
  }

  if (p_.generic_correlated_coefficient > 0.0 && !p_.generic_correlated_smooth) {
    const GenericPhases phases(p_.generic_correlated_coefficient, p_.correlated_window);
    const double normal_mean = phases.normal_mean;
    const double corr_mean = phases.correlated_mean;

    ActivitySpec to_corr;
    to_corr.name = "generic_to_correlated";
    to_corr.latency = [normal_mean](const Marking&, sim::Rng& r) {
      return r.exponential_mean(normal_mean);
    };
    to_corr.input_arcs = {InputArc{pl.generic_normal, 1}};
    to_corr.output_arcs = {OutputArc{pl.generic_correlated, 1}};
    model_.add_activity(std::move(to_corr));

    ActivitySpec to_normal;
    to_normal.name = "generic_to_normal";
    to_normal.latency = [corr_mean](const Marking&, sim::Rng& r) {
      return r.exponential_mean(corr_mean);
    };
    to_normal.input_arcs = {InputArc{pl.generic_correlated, 1}};
    to_normal.output_arcs = {OutputArc{pl.generic_normal, 1}};
    model_.add_activity(std::move(to_normal));

    info.activities.push_back("generic_to_correlated");
    info.activities.push_back("generic_to_normal");
  }
}

// --- useful_work ----------------------------------------------------------------

void SanCheckpointModel::build_useful_work(const Places& pl) {
  auto& info = submodel("useful work", "useful_work", "Useful work computation");
  info.places = {"x_exec_since", "x_work_total", "x_work_buffered", "x_work_committed",
                 "x_recovery_target", "x_last_loss"};
  (void)pl;  // the submodel is realised as reward variables; see rate_rewards()
}

// ---------------------------------------------------------------------------

std::vector<san::RateRewardSpec> SanCheckpointModel::rate_rewards() const {
  const san::PlaceId execution = model_.place("execution");
  std::vector<san::RateRewardSpec> rewards;
  rewards.push_back(san::RateRewardSpec{
      "useful", [execution](const Marking& m) { return m.has(execution) ? 1.0 : 0.0; }});
  rewards.push_back(san::RateRewardSpec{
      "executing", [execution](const Marking& m) { return m.has(execution) ? 1.0 : 0.0; }});
  // StateBreakdown categories (see core/results.h).
  const san::PlaceId quiescing = model_.place("quiescing");
  const san::PlaceId wait_io = model_.place("wait_io_dump");
  const san::PlaceId dumping = model_.place("checkpointing");
  const san::PlaceId wait_fs = model_.place("wait_fs_write");
  rewards.push_back(san::RateRewardSpec{
      "checkpointing", [quiescing, wait_io, dumping, wait_fs](const Marking& m) {
        return (m.has(quiescing) || m.has(wait_io) || m.has(dumping) || m.has(wait_fs)) ? 1.0
                                                                                        : 0.0;
      }});
  const san::PlaceId rec_pending = model_.place("recovery_pending");
  const san::PlaceId rec_wait = model_.place("recovery_stage1_wait");
  const san::PlaceId rec1 = model_.place("recovery_stage1");
  const san::PlaceId rec2 = model_.place("recovery_stage2");
  rewards.push_back(san::RateRewardSpec{
      "recovering", [rec_pending, rec_wait, rec1, rec2](const Marking& m) {
        return (m.has(rec_pending) || m.has(rec_wait) || m.has(rec1) || m.has(rec2)) ? 1.0 : 0.0;
      }});
  const san::PlaceId rebooting = model_.place("rebooting");
  rewards.push_back(san::RateRewardSpec{
      "rebooting", [rebooting](const Marking& m) { return m.has(rebooting) ? 1.0 : 0.0; }});
  return rewards;
}

std::vector<san::ImpulseRewardSpec> SanCheckpointModel::impulse_rewards() const {
  const san::ExtendedPlaceId last_loss = model_.extended_place("x_last_loss");
  const auto loss = [last_loss](const Marking& m, double) { return -m.real(last_loss); };
  std::vector<san::ImpulseRewardSpec> rewards;
  if (p_.compute_failures_enabled) {
    rewards.push_back(san::ImpulseRewardSpec{"useful", "comp_node_failure", loss});
    if (p_.prob_correlated > 0.0 || p_.generic_correlated_coefficient > 0.0) {
      rewards.push_back(san::ImpulseRewardSpec{"useful", "extra_failure", loss});
    }
  }
  if (p_.io_failures_enabled) {
    rewards.push_back(san::ImpulseRewardSpec{"useful", "io_node_failure", loss});
  }
  return rewards;
}

ReplicationResult SanCheckpointModel::run_replication(std::uint64_t seed, double transient,
                                                      double horizon,
                                                      obs::ReplicationProbe* probe,
                                                      std::uint64_t max_events,
                                                      const SnapshotSpec* snapshot) const {
  if (!(horizon > 0.0)) throw std::invalid_argument("SanCheckpointModel: horizon must be > 0");
  san::Executor exec(model_, seed);
  // Rewards must be registered before a restore so the restored
  // accumulator count has something to be validated against.
  for (const auto& r : rate_rewards()) exec.rewards().add_rate(r);
  for (const auto& r : impulse_rewards()) exec.rewards().add_impulse(r);
  auto firings_or_zero = [&exec, this](const char* name) -> std::uint64_t {
    return model_.has_activity(name) ? exec.firings(name) : 0;
  };
  const char* counted[] = {"comp_node_failure",  "extra_failure", "io_node_failure",
                           "ckpt_interval",      "dump_chkpt",    "write_chkpt",
                           "timeout_timer",      "master_failure", "recovery_stage2_act",
                           "system_reboot_act",  "chkpt_read"};
  // Warm-up baselines travel inside the snapshot payload (ahead of the
  // executor state) so a post-transient resume keeps its windowed counts.
  bool warmup_done = false;
  std::vector<std::uint64_t> before(std::size(counted), 0);

  const bool snap_on = snapshot != nullptr && snapshot->enabled();
  if (snap_on && snapshot::snapshot_exists(snapshot->path)) {
    const std::string payload =
        snapshot::read_snapshot_file(snapshot->path, snapshot::kKindSanExecutor);
    snapshot::StateReader r(payload);
    if (r.str() != snapshot->context) {
      throw snapshot::SnapshotError(snapshot::SnapshotFault::kContextMismatch,
                                    "snapshot '" + snapshot->path +
                                        "' belongs to a different run");
    }
    warmup_done = r.b();
    for (auto& v : before) v = r.u64();
    exec.restore_state(r);
    r.expect_end();
  }
  exec.set_event_budget(max_events);
  if (snap_on) {
    exec.set_fire_hook(snapshot->every, [&] {
      snapshot::StateWriter w;
      w.str(snapshot->context);
      w.b(warmup_done);
      for (const auto v : before) w.u64(v);
      exec.save_state(w);
      snapshot::write_snapshot_file(snapshot->path, snapshot::kKindSanExecutor, w.take());
      if (snapshot->stop != nullptr && snapshot->stop->load(std::memory_order_relaxed)) {
        throw SimError(ErrorCode::kInterrupted,
                       "replication drained at snapshot boundary ('" + snapshot->path + "')");
      }
    });
  }

  if (!warmup_done) {
    exec.run_until(transient);
    exec.reset_rewards();
    for (std::size_t i = 0; i < std::size(counted); ++i) before[i] = firings_or_zero(counted[i]);
    warmup_done = true;
  }

  exec.run_until(transient + horizon);

  ReplicationResult r;
  r.observed_span = horizon;
  r.useful_fraction = exec.rewards().time_average("useful", exec.now());
  r.gross_execution_fraction = exec.rewards().time_average("executing", exec.now());
  r.breakdown.executing = r.gross_execution_fraction;
  r.breakdown.checkpointing = exec.rewards().time_average("checkpointing", exec.now());
  r.breakdown.recovering = exec.rewards().time_average("recovering", exec.now());
  r.breakdown.rebooting = exec.rewards().time_average("rebooting", exec.now());
  std::vector<std::uint64_t> after;
  for (const char* name : counted) after.push_back(firings_or_zero(name));
  r.counters.compute_failures = after[0] - before[0];
  r.counters.extra_failures = after[1] - before[1];
  r.counters.io_failures = after[2] - before[2];
  r.counters.ckpt_initiated = after[3] - before[3];
  r.counters.ckpt_dumped = after[4] - before[4];
  r.counters.ckpt_committed = after[5] - before[5];
  r.counters.ckpt_aborted_timeout = after[6] - before[6];
  r.counters.master_aborts = after[7] - before[7];
  r.counters.recoveries_completed = after[8] - before[8];
  r.counters.reboots = after[9] - before[9];
  r.counters.stage1_reads = after[10] - before[10];
  if (probe != nullptr) {
    probe->activity_firings = exec.total_firings();
    probe->activity_aborts = exec.total_aborts();
    probe->queue = exec.queue_stats();
  }
  if (snap_on) snapshot::remove_snapshot_file(snapshot->path);
  return r;
}

}  // namespace ckptsim
