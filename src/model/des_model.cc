#include "src/model/des_model.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/snapshot/state_io.h"

namespace ckptsim {

namespace {
constexpr const char* kSeedNames[] = {"fail_compute", "fail_io", "fail_master", "fail_extra",
                                      "coordination", "recovery",  "correlated",  "io_restart"};

void save_counters(snapshot::StateWriter& w, const RunCounters& c) {
  w.u64(c.compute_failures);
  w.u64(c.extra_failures);
  w.u64(c.io_failures);
  w.u64(c.master_aborts);
  w.u64(c.ckpt_initiated);
  w.u64(c.ckpt_dumped);
  w.u64(c.ckpt_full);
  w.u64(c.ckpt_incremental);
  w.u64(c.ckpt_committed);
  w.u64(c.ckpt_aborted_timeout);
  w.u64(c.ckpt_aborted_failure);
  w.u64(c.ckpt_aborted_io);
  w.u64(c.recoveries_started);
  w.u64(c.recoveries_completed);
  w.u64(c.recovery_restarts);
  w.u64(c.stage1_reads);
  w.u64(c.reboots);
  w.u64(c.prop_windows);
}

RunCounters load_counters(snapshot::StateReader& r) {
  RunCounters c;
  c.compute_failures = r.u64();
  c.extra_failures = r.u64();
  c.io_failures = r.u64();
  c.master_aborts = r.u64();
  c.ckpt_initiated = r.u64();
  c.ckpt_dumped = r.u64();
  c.ckpt_full = r.u64();
  c.ckpt_incremental = r.u64();
  c.ckpt_committed = r.u64();
  c.ckpt_aborted_timeout = r.u64();
  c.ckpt_aborted_failure = r.u64();
  c.ckpt_aborted_io = r.u64();
  c.recoveries_started = r.u64();
  c.recoveries_completed = r.u64();
  c.recovery_restarts = r.u64();
  c.stage1_reads = r.u64();
  c.reboots = r.u64();
  c.prop_windows = r.u64();
  return c;
}
}  // namespace

DesModel::DesModel(const Parameters& params, std::uint64_t seed, std::uint32_t num_slots)
    : p_(params),
      io_timing_(params),
      workload_(params),
      rates_(params),
      pool_(seed),
      rng_{pool_.stream(kSeedNames[0]), pool_.stream(kSeedNames[1]),
           pool_.stream(kSeedNames[2]), pool_.stream(kSeedNames[3]),
           pool_.stream(kSeedNames[4]), pool_.stream(kSeedNames[5]),
           pool_.stream(kSeedNames[6]), pool_.stream(kSeedNames[7])},
      slots_(num_slots) {
  if (num_slots < kNumBaseSlots) {
    throw std::logic_error("DesModel: slot count out of range");
  }
  p_.validate();
  if (p_.failure_distribution == FailureDistribution::kWeibull &&
      rates_.independent_rate > 0.0) {
    const double mean = 1.0 / rates_.independent_rate;
    weibull_scale_ = mean / std::tgamma(1.0 + 1.0 / p_.weibull_shape);
  }
  if (p_.trace_driven()) {
    trace_ = FailureTrace::shared(p_.failure_trace_path);
    trace_->validate_nodes(p_.nodes(), '\'' + p_.failure_trace_path + '\'');
  }
}

// ---------------------------------------------------------------------------
// scheduler
//
// schedule_at and run_until stay out of line: inlining the table's arm into
// every handler measured slower on the paper model.

void DesModel::schedule_at(std::uint32_t slot, double t) { slots_.schedule_at(slot, t); }

void DesModel::run_until(double t_end) {
  slots_.run_until(
      t_end, [this](std::uint32_t slot) { dispatch(slot); },
      [this](double t, std::uint64_t seq) { catch_up_app(t, seq); });
}

bool DesModel::fire_next(double t_end) {
  return slots_.fire_next(
      t_end, [this](std::uint32_t slot) { dispatch(slot); },
      [this](double t, std::uint64_t seq) { catch_up_app(t, seq); });
}

void DesModel::dispatch(std::uint32_t slot) {
  switch (slot) {
    case kSlotCkptInit: on_ckpt_init(); break;
    case kSlotTimeout: on_timeout(); break;
    case kSlotBcast: on_bcast_received(); break;
    case kSlotCoord: on_coordination_done(); break;
    case kSlotDump: on_dump_done(); break;
    case kSlotFsWrite: on_fs_write_done(); break;
    case kSlotAppWrite: on_app_write_done(); break;
    case kSlotBurstEnd: on_app_edge(now()); break;
    case kSlotStage1Done: on_stage1_done(); break;
    case kSlotRecoveryDone: on_recovery_done(); break;
    case kSlotReboot: on_reboot_done(); break;
    case kSlotIoRestart: on_io_restart_done(); break;
    case kSlotFailCompute: on_compute_failure(true); break;
    case kSlotFailIo: on_io_failure(); break;
    case kSlotFailMaster: on_master_failure(); break;
    case kSlotFailExtra: on_compute_failure(false); break;
    case kSlotWindowEnd: on_prop_window_end(); break;
    case kSlotGenericToggle: on_generic_toggle(); break;
    case kSlotJobDone: job_completed_ = true; break;
    default: fire_extension(slot); break;
  }
  sync_app_slots();
}

void DesModel::fire_extension(std::uint32_t slot) {
  throw std::logic_error("DesModel: no handler for event slot " + std::to_string(slot));
}

// ---------------------------------------------------------------------------
// plumbing

void DesModel::reschedule(std::uint32_t slot, sim::Rng& rng, double rate) {
  cancel(slot);
  if (rate > 0.0) schedule_in(slot, rng.exponential_rate(rate));
}

bool DesModel::next_checkpoint_is_full() const noexcept {
  if (p_.full_checkpoint_period <= 1) return true;
  if (!any_full_committed_) return true;
  return chain_since_full_ >= p_.full_checkpoint_period - 1;
}

double DesModel::current_dump_scale() const noexcept {
  return current_dump_is_full_ ? 1.0 : p_.incremental_size_fraction;
}

double DesModel::stage1_read_time() const noexcept {
  // Replay the last full checkpoint plus every increment after it.
  return io_timing_.fs_read *
         (1.0 + static_cast<double>(chain_since_full_) * p_.incremental_size_fraction);
}

double DesModel::sample_failure_interarrival() {
  if (p_.failure_distribution == FailureDistribution::kWeibull) {
    const sim::Weibull dist(p_.weibull_shape, weibull_scale_);
    return dist.sample(rng_.fail_compute);
  }
  return rng_.fail_compute.exponential_rate(rates_.independent_rate);
}

void DesModel::schedule_independent_failure() {
  cancel(kSlotFailCompute);
  if (!p_.compute_failures_enabled) return;
  double dt = 0.0;
  if (trace_ != nullptr) {
    // Trace replay: arm the next recorded failure (timestamps are absolute
    // replication time; the trace is sorted, so the next one is never in
    // the past).  An exhausted trace injects nothing further.
    if (trace_next_ >= trace_->size()) return;
    const double t = trace_->events()[trace_next_++].time;
    dt = t > now() ? t - now() : 0.0;
  } else {
    if (rates_.independent_rate <= 0.0) return;
    dt = sample_failure_interarrival();
  }
  schedule_in(kSlotFailCompute, dt);
  on_independent_failure_armed(now() + dt);
}

bool DesModel::in_recovery() const noexcept {
  return compute_ == ComputeState::kRecoveryStage1 || compute_ == ComputeState::kRecoveryStage2;
}

double DesModel::rollback_target() const noexcept {
  return buffered_valid_ ? work_at_buffered_ : work_at_committed_;
}

std::size_t DesModel::state_category(ComputeState state) noexcept {
  switch (state) {
    case ComputeState::kExecuting:
      return 0;
    case ComputeState::kQuiescing:
    case ComputeState::kWaitIoForDump:
    case ComputeState::kDumping:
    case ComputeState::kWaitFsWrite:
      return 1;
    case ComputeState::kRecoveryStage1:
    case ComputeState::kRecoveryStage2:
      return 2;
    case ComputeState::kRebooting:
      return 3;
  }
  return 0;
}

void DesModel::enter_state(ComputeState next) {
  const double t = now();
  state_time_[state_category(compute_)].set_rate(t, 0.0);
  state_time_[state_category(next)].set_rate(t, 1.0);
  compute_ = next;
}

double DesModel::sample_coordination_time() {
  switch (p_.coordination) {
    case CoordinationMode::kFixedQuiesce:
      return p_.mttq;
    case CoordinationMode::kSystemExponential:
      return rng_.coordination.exponential_mean(p_.mttq);
    case CoordinationMode::kMaxOfExponentials: {
      const sim::MaxOfExponentials dist(p_.num_processors, p_.mttq);
      return dist.sample(rng_.coordination);
    }
  }
  throw std::logic_error("DesModel: unknown coordination mode");
}

void DesModel::schedule_failure_processes() {
  schedule_independent_failure();
  if (p_.io_failures_enabled) {
    reschedule(kSlotFailIo, rng_.fail_io, p_.io_failure_rate());
  }
  if (p_.master_failures_enabled) {
    reschedule(kSlotFailMaster, rng_.fail_master, 1.0 / p_.mttf_node);
  }
  update_extra_failure_process();
}

// ---------------------------------------------------------------------------
// run driver

void DesModel::start() {
  if (started_) throw std::logic_error("DesModel: single-shot object, construct a new one");
  started_ = true;
  set_useful_rate(1.0);
  executing_.set_rate(0.0, 1.0);
  state_time_[state_category(compute_)].set_rate(0.0, 1.0);
  schedule_next_init();
  anchor_app(true);
  schedule_failure_processes();
  if (p_.generic_correlated_coefficient > 0.0 && !p_.generic_correlated_smooth) {
    const GenericPhases phases(p_.generic_correlated_coefficient, p_.correlated_window);
    generic_correlated_phase_ = false;
    schedule_in(kSlotGenericToggle, rng_.correlated.exponential_mean(phases.normal_mean));
  }
}

ReplicationResult DesModel::run(double transient, double horizon) {
  if (!(horizon > 0.0)) throw std::invalid_argument("DesModel::run: horizon must be > 0");
  start();
  return continue_run(transient, horizon);
}

ReplicationResult DesModel::continue_run(double transient, double horizon) {
  if (!(horizon > 0.0)) throw std::invalid_argument("DesModel::run: horizon must be > 0");
  if (!started_) {
    throw std::logic_error("DesModel::continue_run: replication not started");
  }

  if (!warmup_captured_) {
    run_until(transient);
    useful_at_warmup_ = useful_.value(transient);
    exec_at_warmup_ = executing_.value(transient);
    for (std::size_t i = 0; i < kStateCategories; ++i) {
      state_at_warmup_[i] = state_time_[i].value(transient);
    }
    counters_at_warmup_ = counters_;
    warmup_captured_ = true;
    on_warmup_captured();
  }

  run_until(transient + horizon);

  ReplicationResult r;
  r.observed_span = horizon;
  r.useful_fraction = (useful_.value(transient + horizon) - useful_at_warmup_) / horizon;
  r.gross_execution_fraction = (executing_.value(transient + horizon) - exec_at_warmup_) / horizon;
  const double t_end = transient + horizon;
  r.breakdown.executing = (state_time_[0].value(t_end) - state_at_warmup_[0]) / horizon;
  r.breakdown.checkpointing = (state_time_[1].value(t_end) - state_at_warmup_[1]) / horizon;
  r.breakdown.recovering = (state_time_[2].value(t_end) - state_at_warmup_[2]) / horizon;
  r.breakdown.rebooting = (state_time_[3].value(t_end) - state_at_warmup_[3]) / horizon;
  r.counters = counters_ - counters_at_warmup_;
  return r;
}

double DesModel::run_until_work(double useful_work, double max_time) {
  if (!(useful_work > 0.0)) {
    throw std::invalid_argument("DesModel::run_until_work: work target must be > 0");
  }
  if (!(max_time > 0.0)) {
    throw std::invalid_argument("DesModel::run_until_work: max_time must be > 0");
  }
  job_target_ = useful_work;
  start();  // set_useful_rate(1.0) inside start() arms the completion event
  while (!job_completed_ && fire_next(max_time)) {
  }
  return job_completed_ ? now() : std::numeric_limits<double>::infinity();
}

void DesModel::charge_loss(double loss) {
  useful_.impulse(-loss);
  note(trace::EventKind::kRollback, loss);
  refresh_job_event();
}

void DesModel::refresh_job_event() {
  if (job_target_ <= 0.0 || job_completed_) return;
  cancel(kSlotJobDone);
  const double rate = useful_.rate();
  if (rate <= 0.0) return;
  const double remaining = job_target_ - useful_.value(now());
  // While the rate holds and nothing intervenes, the job finishes exactly
  // remaining / rate seconds from now (rate is 1 outside the malleable
  // policy, and x / 1.0 == x bit-exactly); any state change re-arms this.
  schedule_in(kSlotJobDone, remaining > 0.0 ? remaining / rate : 0.0);
}

// ---------------------------------------------------------------------------
// checkpoint protocol

void DesModel::schedule_next_init() {
  cancel(kSlotCkptInit);
  schedule_in(kSlotCkptInit, p_.checkpoint_interval);
}

void DesModel::on_ckpt_init() {
  if (compute_ != ComputeState::kExecuting || master_ != MasterState::kSleep) {
    throw std::logic_error("DesModel: checkpoint initiated outside the executing state");
  }
  master_ = MasterState::kCheckpointing;
  ++counters_.ckpt_initiated;
  note(trace::EventKind::kCkptInitiated);
  if (p_.timeout > 0.0) {
    schedule_in(kSlotTimeout, p_.timeout);
  }
  schedule_in(kSlotBcast, p_.quiesce_broadcast_latency());
}

void DesModel::on_bcast_received() {
  if (compute_ != ComputeState::kExecuting) {
    throw std::logic_error("DesModel: quiesce broadcast arrived outside the executing state");
  }
  if (app_phase_ == AppPhase::kIo) {
    // Tasks performing an I/O write cannot quiesce until it finishes
    // (paper Sec. 3.3); the burst-end event starts the coordination.
    quiesce_requested_ = true;
  } else {
    begin_quiesce();
  }
}

void DesModel::begin_quiesce() {
  note(trace::EventKind::kQuiesceStarted);
  enter_state(ComputeState::kQuiescing);
  set_useful_rate(0.0);
  executing_.set_rate(now(), 0.0);
  anchor_app(false);  // application frozen until resume
  schedule_in(kSlotCoord, sample_coordination_time());
}

void DesModel::on_coordination_done() {
  note(trace::EventKind::kCoordinationDone);
  cancel(kSlotTimeout);  // all 'ready' replies collected
  want_dump_ = true;
  enter_state(ComputeState::kWaitIoForDump);
  try_start_io_work();
}

void DesModel::start_dump() {
  if (io_ != IoState::kIdle) {
    throw std::logic_error("DesModel: checkpoint dump started while the I/O nodes are busy");
  }
  note(trace::EventKind::kDumpStarted);
  want_dump_ = false;
  enter_state(ComputeState::kDumping);
  io_ = IoState::kReceivingDump;
  // The I/O buffer is reused for the incoming checkpoint, so the previously
  // buffered copy stops being a valid recovery source; the last committed
  // (file-system) checkpoint remains valid throughout.
  buffered_valid_ = false;
  current_dump_is_full_ = next_checkpoint_is_full();
  schedule_in(kSlotDump, io_timing_.dump * current_dump_scale());
}

void DesModel::on_dump_done() {
  ++counters_.ckpt_dumped;
  if (current_dump_is_full_) {
    ++counters_.ckpt_full;
  } else {
    ++counters_.ckpt_incremental;
  }
  note(trace::EventKind::kDumpDone);
  buffered_valid_ = true;
  work_at_buffered_ = useful_.value(now());
  io_ = IoState::kWritingCkpt;
  schedule_in(kSlotFsWrite, io_timing_.fs_write * current_dump_scale());
  if (p_.background_fs_write) {
    finish_cycle_success();
  } else {
    enter_state(ComputeState::kWaitFsWrite);
    master_ = MasterState::kSleep;
  }
}

void DesModel::on_fs_write_done() {
  ++counters_.ckpt_committed;
  note(trace::EventKind::kCkptCommitted);
  work_at_committed_ = work_at_buffered_;
  if (current_dump_is_full_) {
    any_full_committed_ = true;
    chain_since_full_ = 0;
  } else {
    ++chain_since_full_;
  }
  io_ = IoState::kIdle;
  if (compute_ == ComputeState::kWaitFsWrite) finish_cycle_success();
  try_start_io_work();
}

void DesModel::finish_cycle_success() {
  master_ = MasterState::kSleep;
  resume_execution();
}

void DesModel::resume_execution() {
  enter_state(ComputeState::kExecuting);
  set_useful_rate(1.0);
  executing_.set_rate(now(), 1.0);
  anchor_app(true);
  schedule_next_init();
}

void DesModel::cancel_protocol_events() {
  cancel(kSlotCkptInit);  // the interval timer restarts at resume
  cancel(kSlotTimeout);
  cancel(kSlotBcast);
  cancel(kSlotCoord);
  cancel(kSlotDump);
  quiesce_requested_ = false;
  want_dump_ = false;
}

void DesModel::abort_protocol(std::uint64_t RunCounters::* reason) {
  ++(counters_.*reason);
  note(trace::EventKind::kCkptAborted);
  const bool was_blocked = compute_ == ComputeState::kQuiescing ||
                           compute_ == ComputeState::kWaitIoForDump ||
                           compute_ == ComputeState::kDumping;
  cancel_protocol_events();
  if (io_ == IoState::kReceivingDump) {
    io_ = IoState::kIdle;  // partial dump discarded
  }
  master_ = MasterState::kSleep;
  if (was_blocked) {
    resume_execution();
    try_start_io_work();
  } else {
    // Broadcast or I/O-burst wait phase: the application never stopped;
    // just arm the next cycle.
    schedule_next_init();
  }
}

void DesModel::on_timeout() {
  // The master stopped waiting for 'ready' replies; nodes abandon the
  // checkpoint and proceed (probabilistic checkpoint-abort, Sec. 7.2).
  abort_protocol(&RunCounters::ckpt_aborted_timeout);
}

// ---------------------------------------------------------------------------
// application workload

void DesModel::anchor_app(bool running) {
  cancel(kSlotBurstEnd);
  app_running_ = false;
  if (!running) return;
  app_phase_ = AppPhase::kCompute;
  if (p_.app_io_enabled && workload_.io_phase > 0.0) {
    app_running_ = true;
    app_edge_time_ = now() + workload_.compute_phase;
    app_edge_seq_ = slots_.reserve_seq();
  }
}

void DesModel::on_app_edge(double t) {
  if (app_phase_ == AppPhase::kCompute) {
    app_phase_ = AppPhase::kIo;
    note_at(t, trace::EventKind::kAppPhaseIo);
    app_edge_time_ = t + workload_.io_phase;
    app_edge_seq_ = slots_.reserve_seq();
    return;
  }
  // I/O burst finished: the data sits in the I/O-node buffers and is
  // written to the file system in the background.
  app_phase_ = AppPhase::kCompute;
  note_at(t, trace::EventKind::kAppPhaseCompute);
  if (p_.app_io_data_per_node > 0.0) {
    ++pending_app_writes_;
    // While the application runs no dump or recovery read waits on the
    // I/O nodes, so an idle I/O node takes the write at once.
    if (io_ == IoState::kIdle) start_next_app_write(t);
  }
  if (quiesce_requested_) {
    // Only the armed kSlotBurstEnd gets here: a deferred quiesce starts.
    quiesce_requested_ = false;
    begin_quiesce();
  } else {
    app_edge_time_ = t + workload_.compute_phase;
    app_edge_seq_ = slots_.reserve_seq();
  }
}

void DesModel::start_next_app_write(double t) {
  if (pending_app_writes_ == 0) return;
  --pending_app_writes_;
  io_ = IoState::kWritingAppData;
  app_write_time_ = t + io_timing_.app_write;
  app_write_seq_ = slots_.reserve_seq();
}

void DesModel::catch_up_app(double t, std::uint64_t seq) {
  const auto before = [](double at, std::uint64_t as, double bt, std::uint64_t bs) {
    return at < bt || (at == bt && as < bs);
  };
  for (;;) {
    const bool edge = app_running_ && !slots_.armed(kSlotBurstEnd) &&
                      before(app_edge_time_, app_edge_seq_, t, seq);
    const bool write = io_ == IoState::kWritingAppData && !slots_.armed(kSlotAppWrite) &&
                       before(app_write_time_, app_write_seq_, t, seq);
    if (edge && !(write && before(app_write_time_, app_write_seq_, app_edge_time_,
                                  app_edge_seq_))) {
      on_app_edge(app_edge_time_);
    } else if (write) {
      // Nothing waits on this write (it would be armed otherwise): the
      // I/O node just moves on to the next queued one.
      io_ = IoState::kIdle;
      start_next_app_write(app_write_time_);
    } else {
      return;
    }
  }
}

void DesModel::sync_app_slots() {
  const bool burst_wait = quiesce_requested_ && app_running_;
  if (burst_wait != slots_.armed(kSlotBurstEnd)) {
    if (burst_wait) {
      slots_.schedule_reserved(kSlotBurstEnd, app_edge_time_, app_edge_seq_);
    } else {
      cancel(kSlotBurstEnd);
    }
  }
  const bool write_wait =
      io_ == IoState::kWritingAppData &&
      (recovery_wait_io_ || (want_dump_ && compute_ == ComputeState::kWaitIoForDump));
  if (write_wait != slots_.armed(kSlotAppWrite)) {
    if (write_wait) {
      slots_.schedule_reserved(kSlotAppWrite, app_write_time_, app_write_seq_);
    } else {
      cancel(kSlotAppWrite);
    }
  }
}

// ---------------------------------------------------------------------------
// failures and recovery

void DesModel::on_compute_failure(bool independent) {
  // Re-arm the Poisson process first (the extra process re-arms at the
  // *current* combined correlated rate, not the raw window rate).
  if (independent) {
    schedule_independent_failure();
  } else {
    update_extra_failure_process();
  }
  if (compute_ == ComputeState::kRebooting) return;  // system already down

  const bool recovering = in_recovery() || recovery_wait_io_;
  // Ablation thinning: older models assume failures cannot strike while a
  // checkpoint or recovery is in progress.
  if (!p_.failures_during_recovery && recovering) return;
  if (!p_.failures_during_checkpointing && !recovering &&
      compute_ != ComputeState::kExecuting) {
    return;
  }

  note(trace::EventKind::kComputeFailure, independent ? 1.0 : 0.0);
  if (independent) {
    ++counters_.compute_failures;
    on_independent_failure();
    maybe_open_prop_window();
  } else {
    ++counters_.extra_failures;
  }

  // Proactive extension point: every RNG-advancing step above is committed,
  // so a policy absorbing the failure (evacuated node, malleable shrink)
  // never shifts a stream — failure trajectories stay bit-identical.
  if (consume_failure(independent)) return;

  if (recovering) {
    record_unsuccessful_recovery();
    return;
  }

  // Failure during execution or checkpointing: the whole application rolls
  // back to the newest recoverable checkpoint.
  if (master_ == MasterState::kCheckpointing) ++counters_.ckpt_aborted_failure;
  cancel_protocol_events();
  if (io_ == IoState::kReceivingDump) io_ = IoState::kIdle;
  master_ = MasterState::kSleep;
  anchor_app(false);

  const double target = rollback_target();
  const double loss = useful_.value(now()) - target;
  assert(loss >= -1e-9);
  charge_loss(loss);
  set_useful_rate(0.0);
  executing_.set_rate(now(), 0.0);
  recovery_target_work_ = target;
  failed_recoveries_ = 0;
  ++counters_.recoveries_started;
  start_recovery();
}

void DesModel::record_unsuccessful_recovery() {
  ++counters_.recovery_restarts;
  ++failed_recoveries_;
  cancel_recovery();
  if (io_ == IoState::kReadingCkpt) io_ = IoState::kIdle;  // stage-1 read aborted
  recovery_wait_io_ = false;
  if (failed_recoveries_ > p_.recovery_failure_threshold) {
    start_reboot();
  } else {
    start_recovery();
  }
}

void DesModel::start_recovery() {
  if (buffered_valid_) {
    // Checkpoint already in the I/O-node memories: skip stage 1.
    note(trace::EventKind::kRecoveryStage2);
    enter_state(ComputeState::kRecoveryStage2);
    schedule_in(kSlotRecoveryDone, rng_.recovery.exponential_mean(p_.mttr_compute));
    return;
  }
  note(trace::EventKind::kRecoveryStage1);
  enter_state(ComputeState::kRecoveryStage1);
  if (io_ == IoState::kIdle) {
    io_ = IoState::kReadingCkpt;
    schedule_in(kSlotStage1Done, stage1_read_time());
  } else {
    recovery_wait_io_ = true;  // try_start_io_work() will begin the read
  }
}

void DesModel::restart_recovery() {
  cancel_recovery();
  if (io_ == IoState::kReadingCkpt) io_ = IoState::kIdle;
  recovery_wait_io_ = false;
  start_recovery();
}

void DesModel::on_stage1_done() {
  // The I/O nodes now hold the committed checkpoint in memory.
  ++counters_.stage1_reads;
  note(trace::EventKind::kRecoveryStage2);
  io_ = IoState::kIdle;
  buffered_valid_ = true;
  work_at_buffered_ = work_at_committed_;
  enter_state(ComputeState::kRecoveryStage2);
  schedule_in(kSlotRecoveryDone, rng_.recovery.exponential_mean(p_.mttr_compute));
  try_start_io_work();
}

void DesModel::on_recovery_done() {
  ++counters_.recoveries_completed;
  note(trace::EventKind::kRecoveryDone);
  failed_recoveries_ = 0;
  if (prop_window_active_) {
    // A successful recovery wipes latent errors and closes the window.
    cancel(kSlotWindowEnd);
    prop_window_active_ = false;
    note(trace::EventKind::kWindowClosed);
    update_extra_failure_process();
  }
  resume_execution();
}

void DesModel::start_reboot() {
  ++counters_.reboots;
  note(trace::EventKind::kRebootStarted);
  cancel_recovery();
  cancel(kSlotFsWrite);
  cancel(kSlotAppWrite);
  cancel(kSlotIoRestart);
  recovery_wait_io_ = false;
  pending_app_writes_ = 0;
  invalidate_buffer();
  enter_state(ComputeState::kRebooting);
  io_ = IoState::kRebooting;
  schedule_in(kSlotReboot, p_.reboot_time);
}

void DesModel::on_reboot_done() {
  // I/O processors come back ready; compute nodes must still read the last
  // checkpoint and recover (paper Fig. 1, "reboot completes" arrows).
  io_ = IoState::kIdle;
  failed_recoveries_ = 0;
  start_recovery();
}

void DesModel::invalidate_buffer() {
  buffered_valid_ = false;
  if ((in_recovery() || recovery_wait_io_) && recovery_target_work_ > work_at_committed_) {
    // The recovery was aimed at the buffered checkpoint, which is now gone:
    // fall back to the committed one and charge the extra lost work.
    charge_loss(recovery_target_work_ - work_at_committed_);
    recovery_target_work_ = work_at_committed_;
  }
}

void DesModel::on_io_failure() {
  reschedule(kSlotFailIo, rng_.fail_io, p_.io_failure_rate());
  if (compute_ == ComputeState::kRebooting || io_ == IoState::kRebooting) return;
  if (io_ == IoState::kRestarting) return;  // already restarting all I/O nodes
  ++counters_.io_failures;
  note(trace::EventKind::kIoFailure);

  const IoState failed_in = io_;
  // Whatever the I/O nodes were doing is lost; all of them restart.  The
  // restarting state is entered *before* the side effects so that recovery
  // and dump logic observes the I/O nodes as busy.
  cancel(kSlotFsWrite);
  cancel(kSlotAppWrite);
  pending_app_writes_ = 0;  // buffered application data is gone
  io_ = IoState::kRestarting;
  invalidate_buffer();

  switch (failed_in) {
    case IoState::kWritingCkpt:
      // Checkpoint write aborted; previous (committed) checkpoint stays
      // valid; compute nodes are not affected (paper Sec. 3.4).
      ++counters_.ckpt_aborted_io;
      break;
    case IoState::kReceivingDump:
      // Dump in progress is lost: the checkpoint protocol aborts but the
      // compute nodes resume execution unharmed.
      abort_protocol(&RunCounters::ckpt_aborted_io);
      break;
    case IoState::kWritingAppData: {
      // Application results are lost: the system rolls back to the last
      // checkpoint (paper Sec. 3.4 / Fig. 1 "I/O failure" arrow).
      if (in_recovery() || recovery_wait_io_) {
        record_unsuccessful_recovery();
      } else {
        if (master_ == MasterState::kCheckpointing) ++counters_.ckpt_aborted_failure;
        cancel_protocol_events();
        if (compute_ == ComputeState::kDumping) {
          // cannot happen while the I/O nodes write app data, but keep the
          // invariant explicit for future protocol variants
          enter_state(ComputeState::kExecuting);
        }
        master_ = MasterState::kSleep;
        anchor_app(false);
        const double target = rollback_target();
        const double loss = useful_.value(now()) - target;
        charge_loss(loss);
        set_useful_rate(0.0);
        executing_.set_rate(now(), 0.0);
        recovery_target_work_ = target;
        failed_recoveries_ = 0;
        ++counters_.recoveries_started;
        start_recovery();  // stage 1 will wait for the I/O restart below
      }
      break;
    }
    case IoState::kReadingCkpt:
      // Recovery stage 1 aborted.
      record_unsuccessful_recovery();
      break;
    case IoState::kIdle:
      break;
    case IoState::kRestarting:
    case IoState::kRebooting:
      break;  // unreachable, handled above
  }
  // A stage-2 recovery was reading the checkpoint out of the (now lost)
  // I/O buffers: it must restart from stage 1.
  if (compute_ == ComputeState::kRecoveryStage2) record_unsuccessful_recovery();
  if (compute_ == ComputeState::kRebooting) return;  // a reboot was triggered
  schedule_in(kSlotIoRestart, rng_.io_restart.exponential_mean(p_.mttr_io));
}

void DesModel::on_io_restart_done() {
  io_ = IoState::kIdle;
  try_start_io_work();
}

void DesModel::on_master_failure() {
  reschedule(kSlotFailMaster, rng_.fail_master, 1.0 / p_.mttf_node);
  // Outside checkpointing the master detects the error and recovers on its
  // own without disturbing the system (paper Sec. 3.4).
  if (master_ != MasterState::kCheckpointing) return;
  // Master death aborts the protocol only while it is coordinating; once
  // the dump completed the cycle already succeeded.
  if (compute_ == ComputeState::kExecuting || compute_ == ComputeState::kQuiescing ||
      compute_ == ComputeState::kWaitIoForDump || compute_ == ComputeState::kDumping) {
    note(trace::EventKind::kMasterFailure);
    abort_protocol(&RunCounters::master_aborts);
  }
}

// ---------------------------------------------------------------------------
// I/O work scheduling

void DesModel::try_start_io_work() {
  if (io_ != IoState::kIdle) return;
  if (recovery_wait_io_) {
    recovery_wait_io_ = false;
    io_ = IoState::kReadingCkpt;
    schedule_in(kSlotStage1Done, stage1_read_time());
    return;
  }
  if (want_dump_ && compute_ == ComputeState::kWaitIoForDump) {
    start_dump();
    return;
  }
  start_next_app_write(now());
}

void DesModel::on_app_write_done() {
  io_ = IoState::kIdle;
  try_start_io_work();
}

// ---------------------------------------------------------------------------
// correlated failures

void DesModel::maybe_open_prop_window() {
  if (p_.prob_correlated <= 0.0 || prop_window_active_) return;
  if (!rng_.correlated.bernoulli(p_.prob_correlated)) return;
  ++counters_.prop_windows;
  note(trace::EventKind::kWindowOpened);
  prop_window_active_ = true;
  schedule_in(kSlotWindowEnd, p_.correlated_window);
  update_extra_failure_process();
}

void DesModel::on_prop_window_end() {
  note(trace::EventKind::kWindowClosed);
  prop_window_active_ = false;
  update_extra_failure_process();
}

void DesModel::on_generic_toggle() {
  const GenericPhases phases(p_.generic_correlated_coefficient, p_.correlated_window);
  generic_correlated_phase_ = !generic_correlated_phase_;
  const double mean =
      generic_correlated_phase_ ? phases.correlated_mean : phases.normal_mean;
  schedule_in(kSlotGenericToggle, rng_.correlated.exponential_mean(mean));
  update_extra_failure_process();
}

void DesModel::update_extra_failure_process() {
  // Combined rate of the correlated mechanisms (paper Sec. 6): the
  // error-propagation window contributes r*n*lambda while open; the generic
  // mechanism contributes alpha*r*n*lambda on average — continuously in the
  // smooth (default) mode, or r*n*lambda gated by the alternating phase.
  double rate = 0.0;
  if (p_.compute_failures_enabled) {
    if (prop_window_active_) rate += rates_.extra_rate;
    if (p_.generic_correlated_coefficient > 0.0) {
      if (p_.generic_correlated_smooth) {
        rate += p_.generic_correlated_coefficient * rates_.extra_rate;
      } else if (generic_correlated_phase_) {
        rate += rates_.extra_rate;
      }
    }
  }
  reschedule(kSlotFailExtra, rng_.fail_extra, rate);
}

// ---------------------------------------------------------------------------
// snapshot / restore

void DesModel::save_state(snapshot::StateWriter& w) const {
  if (!started_) throw std::logic_error("DesModel::save_state: replication not started");
  rng_.fail_compute.save_state(w);
  rng_.fail_io.save_state(w);
  rng_.fail_master.save_state(w);
  rng_.fail_extra.save_state(w);
  rng_.coordination.save_state(w);
  rng_.recovery.save_state(w);
  rng_.correlated.save_state(w);
  rng_.io_restart.save_state(w);
  w.u32(static_cast<std::uint32_t>(compute_));
  w.u32(static_cast<std::uint32_t>(app_phase_));
  w.u32(static_cast<std::uint32_t>(io_));
  w.u32(static_cast<std::uint32_t>(master_));
  w.b(quiesce_requested_);
  w.b(want_dump_);
  w.b(recovery_wait_io_);
  w.u32(pending_app_writes_);
  w.u32(failed_recoveries_);
  w.b(app_running_);
  w.f64(app_edge_time_);
  w.u64(app_edge_seq_);
  w.f64(app_write_time_);
  w.u64(app_write_seq_);
  w.b(buffered_valid_);
  w.f64(work_at_buffered_);
  w.f64(work_at_committed_);
  w.f64(recovery_target_work_);
  w.b(current_dump_is_full_);
  w.u32(chain_since_full_);
  w.b(any_full_committed_);
  w.b(prop_window_active_);
  w.b(generic_correlated_phase_);
  useful_.save_state(w);
  executing_.save_state(w);
  for (const auto& s : state_time_) s.save_state(w);
  save_counters(w, counters_);
  w.b(warmup_captured_);
  w.f64(useful_at_warmup_);
  w.f64(exec_at_warmup_);
  for (const double s : state_at_warmup_) w.f64(s);
  save_counters(w, counters_at_warmup_);
  w.f64(job_target_);
  w.b(job_completed_);
  // Trace cursor, present only for trace-driven runs: the layout (and
  // therefore every existing snapshot) is unchanged otherwise.  The run
  // context embeds the trace path, so a restore never mixes layouts.
  if (trace_ != nullptr) w.u64(trace_next_);
  slots_.save_state(w);
}

void DesModel::restore_state(snapshot::StateReader& r) {
  using snapshot::SnapshotError;
  using snapshot::SnapshotFault;
  if (started_) {
    throw std::logic_error("DesModel::restore_state: construct a fresh model");
  }
  rng_.fail_compute.restore_state(r);
  rng_.fail_io.restore_state(r);
  rng_.fail_master.restore_state(r);
  rng_.fail_extra.restore_state(r);
  rng_.coordination.restore_state(r);
  rng_.recovery.restore_state(r);
  rng_.correlated.restore_state(r);
  rng_.io_restart.restore_state(r);
  const std::uint32_t compute = r.u32();
  if (compute > static_cast<std::uint32_t>(ComputeState::kRebooting)) {
    throw SnapshotError(SnapshotFault::kCorrupt, "des snapshot: bad compute state");
  }
  const std::uint32_t app_phase = r.u32();
  if (app_phase > static_cast<std::uint32_t>(AppPhase::kIo)) {
    throw SnapshotError(SnapshotFault::kCorrupt, "des snapshot: bad application phase");
  }
  const std::uint32_t io = r.u32();
  if (io > static_cast<std::uint32_t>(IoState::kRebooting)) {
    throw SnapshotError(SnapshotFault::kCorrupt, "des snapshot: bad I/O state");
  }
  const std::uint32_t master = r.u32();
  if (master > static_cast<std::uint32_t>(MasterState::kCheckpointing)) {
    throw SnapshotError(SnapshotFault::kCorrupt, "des snapshot: bad master state");
  }
  compute_ = static_cast<ComputeState>(compute);
  app_phase_ = static_cast<AppPhase>(app_phase);
  io_ = static_cast<IoState>(io);
  master_ = static_cast<MasterState>(master);
  quiesce_requested_ = r.b();
  want_dump_ = r.b();
  recovery_wait_io_ = r.b();
  pending_app_writes_ = r.u32();
  failed_recoveries_ = r.u32();
  app_running_ = r.b();
  app_edge_time_ = r.f64();
  app_edge_seq_ = r.u64();
  app_write_time_ = r.f64();
  app_write_seq_ = r.u64();
  buffered_valid_ = r.b();
  work_at_buffered_ = r.f64();
  work_at_committed_ = r.f64();
  recovery_target_work_ = r.f64();
  current_dump_is_full_ = r.b();
  chain_since_full_ = r.u32();
  any_full_committed_ = r.b();
  prop_window_active_ = r.b();
  generic_correlated_phase_ = r.b();
  useful_.restore_state(r);
  executing_.restore_state(r);
  for (auto& s : state_time_) s.restore_state(r);
  counters_ = load_counters(r);
  warmup_captured_ = r.b();
  useful_at_warmup_ = r.f64();
  exec_at_warmup_ = r.f64();
  for (double& s : state_at_warmup_) s = r.f64();
  counters_at_warmup_ = load_counters(r);
  job_target_ = r.f64();
  job_completed_ = r.b();
  if (trace_ != nullptr) {
    trace_next_ = r.u64();
    if (trace_next_ > trace_->size()) {
      throw SnapshotError(SnapshotFault::kCorrupt, "des snapshot: trace cursor out of range");
    }
  }
  slots_.restore_state(r);
  // The replayed edges must lie ahead of the clock, under sequence numbers
  // the slot table already handed out.
  const auto bad_edge = [this](double t, std::uint64_t seq) {
    return !std::isfinite(t) || t < now() || seq >= slots_.next_seq();
  };
  if ((app_running_ && bad_edge(app_edge_time_, app_edge_seq_)) ||
      (io_ == IoState::kWritingAppData && bad_edge(app_write_time_, app_write_seq_))) {
    throw SnapshotError(SnapshotFault::kCorrupt, "des snapshot: bad application-cycle anchor");
  }
  started_ = true;
}

}  // namespace ckptsim
