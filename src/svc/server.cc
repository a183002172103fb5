#include "src/svc/server.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/core/fault.h"
#include "src/core/journal.h"
#include "src/core/thread_pool.h"

namespace ckptsim::svc {

namespace {

bool blank(std::string_view line) {
  return line.find_first_not_of(" \t\r\n") == std::string_view::npos;
}

}  // namespace

CampaignServer::CampaignServer(ServerConfig config)
    : config_(std::move(config)), cache_(config_.cache_path) {
  if (!config_.ledger_path.empty()) {
    ledger_ = std::make_unique<CampaignLedger>(config_.ledger_path);
  }
  if (config_.snapshot_every_events > 0) {
    if (config_.snapshot_dir.empty()) {
      throw SimError(ErrorCode::kInvalidParameter,
                     "CampaignServer: snapshot_every_events needs snapshot_dir");
    }
    if (::mkdir(config_.snapshot_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw SimError(ErrorCode::kIoError, "CampaignServer: cannot create snapshot dir '" +
                                              config_.snapshot_dir +
                                              "': " + std::strerror(errno));
    }
  }
  std::size_t n = ExecSpec{config_.workers}.resolve();
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
    // Worker i owns metrics shard i, so the pool can never be wider than
    // the registry (mirrors the drivers' clamp).
    n = std::min(n, metrics_->workers());
  } else {
    owned_metrics_ = std::make_unique<obs::Metrics>(n);
    metrics_ = owned_metrics_.get();
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::handle_line(std::string_view line, const Sink& sink) {
  if (blank(line)) return;
  obs::ServiceCounters& svcc = metrics_->service();
  svcc.requests.fetch_add(1, std::memory_order_relaxed);
  Request req;
  std::string error;
  if (!parse_request(line, &req, &error)) {
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error(req.id, error));
    return;
  }
  switch (req.op) {
    case Request::Op::kPing:
      sink(response_pong());
      return;
    case Request::Op::kStats:
      sink(response_stats(svcc.snapshot()));
      return;
    case Request::Op::kShutdown:
      shutdown_.store(true, std::memory_order_relaxed);
      sink(response_bye());
      return;
    case Request::Op::kCancel:
      cancel_campaign(req.id, sink);
      return;
    case Request::Op::kSweep:
      submit_sweep(std::move(req), line, sink);
      return;
    case Request::Op::kInterference:
      run_interference_request(std::move(req), sink);
      return;
    case Request::Op::kOptimize:
      run_optimize_request(std::move(req), sink);
      return;
  }
}

void CampaignServer::run_interference_request(Request&& req, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      svcc.errors.fetch_add(1, std::memory_order_relaxed);
      sink(response_error(req.id, "server is stopping"));
      return;
    }
    if (draining_) {
      svcc.rejected.fetch_add(1, std::memory_order_relaxed);
      sink(response_draining(req.id));
      return;
    }
  }
  svcc.accepted.fetch_add(1, std::memory_order_relaxed);
  sink(response_accepted(req.id, req.mix.jobs.size(), /*cached=*/0));
  try {
    const platform::InterferenceResult result = platform::run_interference(req.mix, req.spec);
    for (const platform::InterferenceJobResult& job : result.jobs) {
      sink(response_job(req.id, job));
      svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
    }
    sink(response_platform(req.id, req.mix, result));
    svcc.replications_run.fetch_add(result.replications * req.mix.jobs.size(),
                                    std::memory_order_relaxed);
    sink(response_done(req.id, req.mix.jobs.size(), /*cached=*/0, /*failed=*/0));
  } catch (const std::exception& e) {
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error(req.id, std::string("interference run failed: ") + e.what()));
  }
}

void CampaignServer::run_optimize_request(Request&& req, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      svcc.errors.fetch_add(1, std::memory_order_relaxed);
      sink(response_error(req.id, "server is stopping"));
      return;
    }
    if (draining_) {
      svcc.rejected.fetch_add(1, std::memory_order_relaxed);
      sink(response_draining(req.id));
      return;
    }
  }
  svcc.accepted.fetch_add(1, std::memory_order_relaxed);
  // Candidate count is search-dependent (memo hits shrink it), so the
  // accepted line reports the planned upper bound per (policy, procs) pair:
  // the coarse grid plus the golden-section evaluations.
  const std::size_t combos =
      std::max<std::size_t>(1, req.opt.policies.size()) *
      std::max<std::size_t>(1, req.opt.processor_candidates.size());
  const std::size_t planned =
      combos * (req.opt.grid + (req.opt.refine_iters > 0 ? req.opt.refine_iters + 1 : 0));
  sink(response_accepted(req.id, planned, /*cached=*/0));
  try {
    std::size_t evaluated = 0;
    const OptimizeObserver observer = [&](const OptimizeCandidate& c) {
      sink(response_candidate(req.id, c));
      ++evaluated;
      svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
    };
    const OptimumPolicy best =
        optimize(req.params, req.spec, req.opt, /*journal=*/nullptr, observer);
    sink(response_optimum(req.id, best));
    sink(response_done(req.id, evaluated, /*cached=*/0, /*failed=*/0));
  } catch (const std::exception& e) {
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error(req.id, std::string("optimize run failed: ") + e.what()));
  }
}

void CampaignServer::submit_sweep(Request&& req, std::string_view raw_line, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  auto c = std::make_shared<Campaign>();
  c->id = req.id;
  c->priority = req.priority;
  c->sink = sink;
  c->req = std::move(req);
  const Request& r = c->req;

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    lock.unlock();
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error(r.id, "server is stopping"));
    return;
  }
  // Checked before every other admission rule: a draining server must say
  // so explicitly — a generic queue-full rejection would invite the client
  // to retry against a process that is about to exit.
  if (draining_) {
    lock.unlock();
    svcc.rejected.fetch_add(1, std::memory_order_relaxed);
    sink(response_draining(r.id));
    return;
  }
  for (const CampaignPtr& existing : campaigns_) {
    if (existing->id == r.id) {
      lock.unlock();
      svcc.errors.fetch_add(1, std::memory_order_relaxed);
      sink(response_error(r.id, "campaign id '" + r.id + "' is already active"));
      return;
    }
  }
  // Admission control, checked before any cache work: when the queue is
  // full the cheapest possible answer — a rejection line — is the whole
  // point of backpressure.
  if (campaigns_.size() >= config_.max_queue_depth) {
    const std::size_t depth = campaigns_.size();
    lock.unlock();
    svcc.rejected.fetch_add(1, std::memory_order_relaxed);
    sink(response_rejected(r.id, depth, config_.max_queue_depth));
    return;
  }

  // Durable admission record, written before any replication runs: if the
  // process dies — SIGKILL included — from here on, a restart finds the
  // request line in the ledger and re-admits it.
  if (ledger_ != nullptr) ledger_->admit(r.id, std::string(raw_line));

  // Materialize every point and restore what the cache already holds.  The
  // fingerprint is exactly the sweep journal's, so a CLI --journal file
  // warms this lookup and vice versa.
  c->points.resize(r.values.size());
  std::vector<std::pair<std::size_t, RunResult>> restored;
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    PointState& ps = c->points[i];
    ps.x = r.values[i];
    ps.params = apply_axis(r.axis, r.params, ps.x);
    ps.fingerprint = journal_fingerprint(r.label, ps.params, r.spec, r.engine, ps.x);
    RunResult hit;
    if (cache_.lookup(ps.fingerprint, &hit)) {
      ps.finalized = true;
      ++c->cached;
      svcc.cache_hits.fetch_add(1, std::memory_order_relaxed);
      svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
      restored.emplace_back(i, std::move(hit));
    } else {
      svcc.cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  c->unfinalized = c->points.size() - c->cached;
  svcc.accepted.fetch_add(1, std::memory_order_relaxed);
  c->outbox.push_back(response_accepted(c->id, c->points.size(), c->cached));
  for (const auto& [i, hit] : restored) {
    c->outbox.push_back(response_point(c->id, c->points[i].x, /*cached=*/true, hit));
  }

  if (c->unfinalized == 0) {
    // Fully served from the cache: reply on this thread, never queue.
    if (ledger_ != nullptr) ledger_->retire(c->id);
    c->outbox.push_back(response_done(c->id, c->points.size(), c->cached, 0));
    std::deque<std::string> lines;
    lines.swap(c->outbox);
    lock.unlock();
    for (const std::string& out : lines) sink(out);
    return;
  }

  for (std::size_t i = 0; i < c->points.size(); ++i) {
    if (c->points[i].finalized) continue;
    schedule_round(c, i, detail::first_round(r.spec.sequential, r.spec.replications));
  }
  campaigns_.push_back(c);
  svcc.queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                         std::memory_order_relaxed);
  c->flushing = true;
  ++flushers_;
  lock.unlock();
  work_cv_.notify_all();
  flush_outbox(c);
}

void CampaignServer::cancel_campaign(const std::string& id, const Sink& sink) {
  obs::ServiceCounters& svcc = metrics_->service();
  std::unique_lock<std::mutex> lock(mu_);
  CampaignPtr c;
  for (const CampaignPtr& existing : campaigns_) {
    if (existing->id == id) {
      c = existing;
      break;
    }
  }
  if (c == nullptr) {
    // Unknown id and already-completed campaign land here alike (retired
    // campaigns leave campaigns_); both must answer with a structured,
    // machine-readable error — not a silent drop or a bare message.
    lock.unlock();
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    sink(response_error_code(id, "unknown_campaign",
                             "unknown or already-completed campaign '" + id + "'"));
    return;
  }
  svcc.cancelled.fetch_add(1, std::memory_order_relaxed);
  // Cooperative, like RunSpec::cancel: raise the flag, drop queued work,
  // let in-flight replications finish.
  c->cancelled.store(true, std::memory_order_relaxed);
  c->ready.clear();
  maybe_retire(c);
  const bool flush = !c->outbox.empty() && !c->flushing;
  if (flush) {
    c->flushing = true;
    ++flushers_;
  }
  lock.unlock();
  // Immediate ack to the canceller; the campaign's own stream terminates
  // with its own "cancelled" line once in-flight work drains.
  sink(response_cancelled(id));
  if (flush) flush_outbox(c);
}

void CampaignServer::worker_loop(std::size_t worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    CampaignPtr c;
    Task t;
    if (!pick_task(&c, &t)) {
      if (stopping_) return;
      work_cv_.wait(lock);
      continue;
    }
    lock.unlock();
    detail::ReplicationOutcome outcome;
    if (!c->cancelled.load(std::memory_order_relaxed)) {
      const Request& r = c->req;
      const PointState& ps = c->points[t.point];
      // Event-granular crash-resume, keyed by the point's cache fingerprint
      // (unique per simulated work, filename-safe for any campaign id) plus
      // the replication index; drain_stop_ parks the replication at its
      // next snapshot boundary when the daemon drains.
      SnapshotSpec snap;
      if (config_.snapshot_every_events > 0) {
        char fp_hex[17];
        std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                      static_cast<unsigned long long>(ps.fingerprint));
        snap.every = config_.snapshot_every_events;
        snap.path = config_.snapshot_dir + "/" + fp_hex + "-rep-" + std::to_string(t.rep) +
                    ".snap";
        snap.context = snapshot_run_context(ps.params, r.spec.seed, r.spec.transient,
                                            r.spec.horizon, r.engine, t.rep);
        snap.stop = &drain_stop_;
      }
      const obs::WorkerTimer timer(metrics_, worker);
      obs::ReplicationProbe probe;
      outcome = detail::run_replication_guarded(
          ps.params, r.engine, r.spec.seed, t.rep, r.spec.transient, r.spec.horizon,
          r.spec.on_failure, r.spec.watchdog, &probe, r.spec.fault_injection,
          snap.enabled() ? &snap : nullptr);
      metrics_->service().replications_run.fetch_add(1, std::memory_order_relaxed);
      if (outcome.ok) metrics_->shard(worker).absorb(probe);
    }
    lock.lock();
    on_task_done(c, t, std::move(outcome));
    const bool flush = !c->outbox.empty() && !c->flushing;
    if (flush) {
      c->flushing = true;
      ++flushers_;
    }
    lock.unlock();
    if (flush) flush_outbox(c);
    lock.lock();
  }
}

bool CampaignServer::pick_task(CampaignPtr* campaign, Task* task) {
  // A draining server starts nothing new: ready tasks stay queued (and
  // ledgered) for the restarted daemon.
  if (draining_) return false;
  // Highest priority first; round-robin (least recently served) among
  // equals, so concurrent campaigns of one priority share the pool fairly
  // instead of running in submission order.
  CampaignPtr best;
  for (const CampaignPtr& c : campaigns_) {
    if (c->ready.empty()) continue;
    if (best == nullptr || c->priority > best->priority ||
        (c->priority == best->priority && c->last_served < best->last_served)) {
      best = c;
    }
  }
  if (best == nullptr) return false;
  *task = best->ready.front();
  best->ready.pop_front();
  ++best->inflight;
  best->last_served = ++serve_seq_;
  *campaign = std::move(best);
  return true;
}

void CampaignServer::schedule_round(const CampaignPtr& c, std::size_t point, std::size_t batch) {
  PointState& ps = c->points[point];
  const std::size_t begin = ps.outcomes.size();
  ps.outcomes.resize(begin + batch);
  if (c->req.spec.sequential.enabled()) ps.rounds.push_back(static_cast<std::uint32_t>(batch));
  for (std::size_t rep = begin; rep < begin + batch; ++rep) {
    c->ready.push_back(Task{point, rep});
  }
}

void CampaignServer::on_task_done(const CampaignPtr& c, const Task& t,
                                  detail::ReplicationOutcome&& outcome) {
  --c->inflight;
  if (!outcome.ok && outcome.failure.code == ErrorCode::kInterrupted) {
    // Drain stop: the replication parked itself in its snapshot.  Nothing
    // is recorded — the campaign stays pending in the ledger, and the
    // restarted daemon resumes this replication from the snapshot,
    // bit-identical to never having stopped.
    idle_cv_.notify_all();
    return;
  }
  if (c->cancelled.load(std::memory_order_relaxed)) {
    // The outcome is discarded: the point can no longer finalize, and the
    // campaign retires once the last in-flight task lands here.
    maybe_retire(c);
    return;
  }
  PointState& ps = c->points[t.point];
  ps.outcomes[t.rep] = std::move(outcome);
  ++ps.completed;
  if (ps.completed != ps.outcomes.size()) return;
  if (c->req.spec.sequential.enabled()) {
    // Round complete.  The stopping decision is a pure function of (spec,
    // scheduled, aggregate) — the same one the replication driver takes per
    // sweep point — so no cross-point barrier is needed and replication
    // counts reproduce the CLI's adaptive sweeps bit-identically.
    bool point_failed = false;
    for (const auto& o : ps.outcomes) {
      if (!o.ok && c->req.spec.on_failure.mode != FailurePolicy::Mode::kSkip) {
        point_failed = true;
        break;
      }
    }
    if (!point_failed) {
      stats::Summary agg;
      for (const auto& o : ps.outcomes) {
        if (o.ok) agg.add(o.result.useful_fraction);
      }
      const std::size_t batch = detail::next_round(c->req.spec.sequential, ps.outcomes.size(),
                                                   agg, c->req.spec.confidence_level);
      if (batch != 0) {
        schedule_round(c, t.point, batch);
        work_cv_.notify_all();
        return;
      }
    }
  }
  finalize_point(c, t.point);
  maybe_retire(c);
}

void CampaignServer::finalize_point(const CampaignPtr& c, std::size_t point) {
  PointState& ps = c->points[point];
  const Request& r = c->req;
  obs::ServiceCounters& svcc = metrics_->service();
  ps.finalized = true;
  --c->unfinalized;
  for (const auto& o : ps.outcomes) {
    if (o.ok || r.spec.on_failure.mode == FailurePolicy::Mode::kSkip) continue;
    // Unlike sweep(), one bad point fails alone: its error line carries the
    // sweep-style context and the campaign's other points proceed.
    ++c->failed;
    svcc.errors.fetch_add(1, std::memory_order_relaxed);
    c->outbox.push_back(response_error(
        c->id, "point x = " + std::to_string(ps.x) + ": replication " +
                   std::to_string(o.failure.replication) + " failed after " +
                   std::to_string(o.failure.attempts) + " attempt(s): " + o.failure.message));
    return;
  }
  const RunResult result =
      detail::aggregate_outcomes(ps.outcomes, ps.rounds, r.spec.confidence_level, ps.params);
  // Insert before the "point" line is queued: by the time a client reads
  // the response, the entry is fsync'd and survives a daemon restart.
  cache_.insert(ps.fingerprint, ps.x, result);
  metrics_->record_point(obs::PointRecord{r.label, ps.x, result.replications, ps.rounds});
  svcc.points_completed.fetch_add(1, std::memory_order_relaxed);
  c->outbox.push_back(response_point(c->id, ps.x, /*cached=*/false, result));
}

void CampaignServer::maybe_retire(const CampaignPtr& c) {
  if (c->retired) return;
  if (c->cancelled.load(std::memory_order_relaxed)) {
    if (c->inflight != 0) return;
    c->outbox.push_back(response_cancelled(c->id));
  } else {
    if (c->unfinalized != 0 || c->inflight != 0) return;
    c->outbox.push_back(response_done(c->id, c->points.size(), c->cached, c->failed));
  }
  c->retired = true;
  // The campaign reached its terminal line on its own (done, or a
  // client-requested cancel): retire it from the ledger.  Shutdown and
  // drain deliberately never get here, so their campaigns stay pending.
  if (ledger_ != nullptr) ledger_->retire(c->id);
  campaigns_.remove(c);
  metrics_->service().queue_depth.store(static_cast<std::int64_t>(campaigns_.size()),
                                        std::memory_order_relaxed);
  idle_cv_.notify_all();
}

void CampaignServer::flush_outbox(const CampaignPtr& c) {
  for (;;) {
    std::deque<std::string> batch;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (c->outbox.empty()) {
        c->flushing = false;
        --flushers_;
        idle_cv_.notify_all();
        return;
      }
      batch.swap(c->outbox);
    }
    for (const std::string& line : batch) c->sink(line);
  }
}

void CampaignServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Wait for the response streams too: a retired campaign's last lines may
  // still be in a flusher's hands.
  idle_cv_.wait(lock, [this] { return campaigns_.empty() && flushers_ == 0; });
}

void CampaignServer::begin_drain() {
  // Raise the replication-level stop first: a worker that picks up its
  // campaign's snapshot hook after this sees the flag at the very next
  // boundary.
  drain_stop_.store(true, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
  }
  work_cv_.notify_all();
}

bool CampaignServer::drained() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!draining_) return false;
  if (flushers_ != 0) return false;
  for (const CampaignPtr& c : campaigns_) {
    if (c->inflight != 0) return false;
  }
  return true;
}

std::size_t CampaignServer::readmit_pending(const Sink& sink) {
  if (ledger_ == nullptr) return 0;
  const std::vector<std::string> lines = ledger_->pending();
  for (const std::string& line : lines) handle_line(line, sink);
  return lines.size();
}

void CampaignServer::stop() {
  // In-flight replications park at their next snapshot boundary (when
  // snapshots are on) instead of running to completion, so join is prompt
  // and their progress survives in the snapshot files.
  drain_stop_.store(true, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (const CampaignPtr& c : campaigns_) {
      c->cancelled.store(true, std::memory_order_relaxed);
      c->retired = true;  // suppress terminal lines: the sinks are dying too
      c->ready.clear();
    }
    // The sockets are going away with us; drop the campaigns rather than
    // emitting into the void.  In-flight workers still hold their own
    // shared_ptrs, so per-campaign state stays valid until they land.
    campaigns_.clear();
    metrics_->service().queue_depth.store(0, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  idle_cv_.notify_all();
}

}  // namespace ckptsim::svc
