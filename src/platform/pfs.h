#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/rate_integral.h"
#include "src/trace/event_log.h"

namespace ckptsim::platform {

/// How the shared parallel file system orders and serves concurrent
/// checkpoint/recovery transfers from the K jobs of an interference mix.
enum class PfsPolicy {
  /// Processor sharing: every in-flight transfer receives bandwidth / n.
  kFairShare,
  /// One transfer at a time at full bandwidth, in arrival order.
  kFcfs,
  /// Herault/Robert-style cooperative checkpointing: a job must hold the
  /// exclusive PFS reservation before it quiesces, and keeps computing
  /// while it waits in the grant queue.  Transfers then run one at a time
  /// at full bandwidth (recovery reads bypass the reservation — a failed
  /// job cannot compute while waiting, so there is nothing to save).
  kBlockingCooperative,
  /// Fair-share service, but each job's first checkpoint initiation is
  /// offset by j * interval / K so the periodic dumps interleave instead
  /// of colliding (the offset is applied by the interference model; the
  /// serving discipline here equals kFairShare).
  kStaggered,
};

[[nodiscard]] const char* to_string(PfsPolicy policy) noexcept;

/// Inverse of to_string plus the CLI spellings (fair|fcfs|coop|stagger).
/// Returns false when `name` matches no policy.
[[nodiscard]] bool pfs_policy_from_string(const std::string& name, PfsPolicy* out) noexcept;

/// Shared-bandwidth transfer server: the single contended PFS of an
/// interference mix.  Jobs submit byte-counted transfer requests; the
/// server serves them under the configured discipline (processor sharing
/// or one-at-a-time FCFS) and accounts utilization (busy-time integral) and
/// per-job stretch (actual service span / uncontended ideal).
///
/// The server is clock-free: it owns no events.  Every call that changes
/// the transfer set takes the owner's current time, and afterwards
/// next_completion() holds the exact time the earliest active transfer
/// finishes (the owner arms one completion event there and calls advance()
/// when it fires) and finished() lists the jobs whose transfers that call
/// completed, in arrival order, for the owner to dispatch.  Exclusive grants work the
/// same way: a call that hands the grant to a job reports that job, and the
/// owner delivers the grant as an event of its own.
///
/// Fully deterministic — the server draws no random numbers, so two runs
/// with the same submission sequence replay identically and the RNG-stream
/// positions of the jobs never depend on the policy (the CRN contract).
class PfsServer {
 public:
  using RequestId = std::uint64_t;

  /// `bandwidth` is aggregate bytes/s; throws std::invalid_argument unless
  /// finite and > 0 (degenerate PFS configs must fail loudly).
  PfsServer(double bandwidth, PfsPolicy policy);
  PfsServer(const PfsServer&) = delete;
  PfsServer& operator=(const PfsServer&) = delete;

  /// Submit, at time `now`, a transfer of `bytes` for `job`.  Returns an id
  /// for cancel().  Throws std::invalid_argument for non-finite or
  /// non-positive byte counts.
  RequestId submit(double now, std::size_t job, double bytes);

  /// Abort, at time `now`, an in-flight or queued transfer (it never
  /// appears in finished()).  Returns false, with next_completion()
  /// unchanged, when the id is unknown / already completed.
  bool cancel(double now, RequestId id);

  /// Move every active transfer forward to `now` and complete those that
  /// finished: the owner calls this when its completion event fires.
  void advance(double now);

  /// Finish time of the earliest active transfer; +infinity when idle.
  [[nodiscard]] double next_completion() const noexcept { return next_completion_; }

  /// Jobs of the transfers the last submit/cancel/advance completed, in
  /// arrival order.  Valid until the next such call.
  [[nodiscard]] const std::vector<std::size_t>& finished() const noexcept { return finished_; }

  // --- exclusive reservation (kBlockingCooperative) ----------------------
  /// Queue `job` for the exclusive PFS grant.  Returns true when the server
  /// was free and `job` now holds the grant; the owner delivers it (as a
  /// zero-delay event, never synchronously inside the requester's call).
  bool request_grant(std::size_t job);
  /// Drop a not-yet-granted reservation request.  Returns false when `job`
  /// is not waiting.
  bool cancel_grant(std::size_t job);
  /// Release the grant `job` holds (std::logic_error otherwise).  Returns
  /// the next waiter, which now holds the grant and must be delivered it,
  /// or nullopt when nobody waits.
  std::optional<std::size_t> release_grant(std::size_t job);
  [[nodiscard]] bool grant_held_by(std::size_t job) const noexcept;

  // --- accounting --------------------------------------------------------
  /// Busy-time integral (seconds with >= 1 active transfer) up to `now`.
  [[nodiscard]] double busy_seconds(double now) const { return busy_.value(now); }
  /// Sum of per-request stretch factors completed so far for `job`, where
  /// stretch = (finish - submit) / (bytes / bandwidth) >= 1.
  [[nodiscard]] double stretch_sum(std::size_t job) const;
  [[nodiscard]] std::uint64_t completed(std::size_t job) const;
  [[nodiscard]] std::uint64_t completed_total() const noexcept { return completed_total_; }
  [[nodiscard]] std::uint64_t cancelled_total() const noexcept { return cancelled_total_; }
  /// Transfers currently queued behind the active set (FCFS disciplines
  /// only; 0 under processor sharing, where every transfer is active).
  [[nodiscard]] std::size_t queued_now() const noexcept;
  [[nodiscard]] std::size_t active_now() const noexcept;
  [[nodiscard]] double bandwidth() const noexcept { return bandwidth_; }
  [[nodiscard]] PfsPolicy policy() const noexcept { return policy_; }

  /// Attach trace sinks (not owned; nullptr = off).  The server notes
  /// kPfsRequestQueued on submit, kPfsServiceStarted when a transfer first
  /// receives bandwidth, and kPfsServiceDone on completion — the
  /// queued-vs-active I/O signal the obs layer exports.
  void set_event_log(trace::EventLog* log) noexcept { log_ = log; }
  void set_event_counts(trace::EventCounts* counts) noexcept { counts_ = counts; }

 private:
  struct Transfer {
    RequestId id = 0;
    std::size_t job = 0;
    double bytes = 0.0;
    double remaining = 0.0;  ///< bytes left to move
    double submitted = 0.0;  ///< submission time
    bool started = false;    ///< kPfsServiceStarted already noted
  };

  /// True when the discipline serves one transfer at a time.
  [[nodiscard]] bool serial() const noexcept {
    return policy_ == PfsPolicy::kFcfs || policy_ == PfsPolicy::kBlockingCooperative;
  }
  [[nodiscard]] std::size_t active_count() const noexcept {
    if (inflight_.empty()) return 0;
    return serial() ? 1 : inflight_.size();
  }
  /// Move every active transfer forward to `now` at its current share.
  void progress(double now);
  /// Complete finished transfers into finished_, recompute the next
  /// completion time, and refresh the busy rate.
  void reconcile();
  /// Account one completed transfer and append it to finished_.
  void finish(const Transfer& t);
  void note(trace::EventKind kind, double value);

  double bandwidth_;
  PfsPolicy policy_;
  std::vector<Transfer> inflight_;  ///< arrival order; front is the FCFS head
  std::vector<std::size_t> finished_;  ///< jobs, see finished()
  double last_advance_ = 0.0;  ///< the owner's time at the last call
  double next_completion_ = std::numeric_limits<double>::infinity();
  RequestId next_id_ = 1;

  // exclusive reservation state
  bool grant_busy_ = false;
  std::size_t grant_holder_ = 0;
  std::vector<std::size_t> grant_queue_;  ///< waiters, FIFO

  sim::RateIntegral busy_;
  std::vector<double> stretch_sum_;        // indexed by job
  std::vector<std::uint64_t> completed_;   // indexed by job
  std::uint64_t completed_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
  trace::EventLog* log_ = nullptr;
  trace::EventCounts* counts_ = nullptr;
};

}  // namespace ckptsim::platform
