// Shared-platform interference layer: PfsServer contention disciplines,
// job-mix parsing, and the K-job interference engine's determinism
// contracts — K=1 reduction to the single-application model, worker-count
// invariance, CRN pairing across PFS policies, and pinned golden
// trajectories per policy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/model/io_timing.h"
#include "src/model/parameters.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/platform/pfs.h"
#include "src/sim/rng.h"
#include "src/sim/slot_table.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::platform::InterferenceModel;
using ckptsim::platform::InterferenceResult;
using ckptsim::platform::JobMix;
using ckptsim::platform::parse_job_mix;
using ckptsim::platform::PfsPolicy;
using ckptsim::platform::PfsServer;
using ckptsim::platform::run_interference;
using ckptsim::sim::fnv1a64;
using ckptsim::trace::EventLog;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

// ---------------------------------------------------------------- PfsServer

constexpr double kNever = std::numeric_limits<double>::infinity();

/// A transfer the server completed, and when.
struct Done {
  std::size_t job;
  double time;
};

/// Minimal owner of a clock-free PfsServer: fire its completion event at
/// next_completion() until `t_end`, collecting what each firing completed.
std::vector<Done> drive(PfsServer& pfs, double t_end) {
  std::vector<Done> done;
  for (int firings = 0; pfs.next_completion() <= t_end; ++firings) {
    if (firings == 1000) {
      ADD_FAILURE() << "completion event keeps re-arming";
      break;
    }
    const double t = pfs.next_completion();
    pfs.advance(t);
    for (const std::size_t job : pfs.finished()) done.push_back({job, t});
  }
  return done;
}

TEST(PfsServer, FairShareStretchesConcurrentTransfers) {
  PfsServer pfs(/*bandwidth=*/100.0, PfsPolicy::kFairShare);
  EXPECT_EQ(pfs.next_completion(), kNever);
  pfs.submit(0.0, 0, 1000.0);
  pfs.submit(0.0, 1, 1000.0);
  // Two equal transfers under processor sharing each see half the
  // bandwidth: both finish at 2x the uncontended 10 s, stretch 2.0, and
  // come back together in arrival order.
  EXPECT_DOUBLE_EQ(pfs.next_completion(), 20.0);
  const std::vector<Done> done = drive(pfs, 100.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].job, 0u);
  EXPECT_EQ(done[1].job, 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 20.0);
  EXPECT_DOUBLE_EQ(done[1].time, 20.0);
  EXPECT_EQ(pfs.next_completion(), kNever);
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(0), 2.0);
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(1), 2.0);
  EXPECT_EQ(pfs.completed_total(), 2u);
  // The server was busy exactly while the transfers ran.
  EXPECT_DOUBLE_EQ(pfs.busy_seconds(100.0), 20.0);
}

TEST(PfsServer, FcfsServesOneTransferAtATimeInArrivalOrder) {
  PfsServer pfs(100.0, PfsPolicy::kFcfs);
  pfs.submit(0.0, 0, 1000.0);
  pfs.submit(0.0, 1, 500.0);
  EXPECT_EQ(pfs.active_now(), 1u);
  EXPECT_EQ(pfs.queued_now(), 1u);
  const std::vector<Done> done = drive(pfs, 100.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].job, 0u);
  EXPECT_DOUBLE_EQ(done[0].time, 10.0);  // full bandwidth, arrival order
  EXPECT_EQ(done[1].job, 1u);
  EXPECT_DOUBLE_EQ(done[1].time, 15.0);  // waited 10 s, then 5 s of service
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(0), 1.0);
  EXPECT_DOUBLE_EQ(pfs.stretch_sum(1), 3.0);  // 15 s for a 5 s transfer
}

TEST(PfsServer, CancelRemovesQueuedTransfer) {
  PfsServer pfs(100.0, PfsPolicy::kFcfs);
  pfs.submit(0.0, 0, 1000.0);
  const PfsServer::RequestId b = pfs.submit(0.0, 1, 1000.0);
  EXPECT_TRUE(pfs.cancel(1.0, b));
  EXPECT_FALSE(pfs.cancel(2.0, b));  // already gone
  const std::vector<Done> done = drive(pfs, 100.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].job, 0u);
  EXPECT_EQ(pfs.completed_total(), 1u);
  EXPECT_EQ(pfs.cancelled_total(), 1u);
}

TEST(PfsServer, SubmitRejectsDegenerateByteCounts) {
  PfsServer pfs(100.0, PfsPolicy::kFairShare);
  EXPECT_THROW(pfs.submit(0.0, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(pfs.submit(0.0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(pfs.submit(0.0, 0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(pfs.submit(0.0, 0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(pfs.next_completion(), kNever);  // rejected before any change
  EXPECT_THROW(PfsServer(0.0, PfsPolicy::kFairShare), std::invalid_argument);
  EXPECT_THROW(PfsServer(std::nan(""), PfsPolicy::kFairShare), std::invalid_argument);
}

TEST(PfsServer, GrantIsExclusiveAndFifo) {
  PfsServer pfs(100.0, PfsPolicy::kBlockingCooperative);
  EXPECT_TRUE(pfs.request_grant(0));   // free: granted, the owner delivers it
  EXPECT_FALSE(pfs.request_grant(1));  // waits behind the holder
  EXPECT_FALSE(pfs.request_grant(2));
  EXPECT_TRUE(pfs.grant_held_by(0));
  EXPECT_THROW((void)pfs.release_grant(1), std::logic_error);  // not the holder
  EXPECT_TRUE(pfs.cancel_grant(2));
  EXPECT_FALSE(pfs.cancel_grant(2));  // no longer waiting
  // Released grants pass to the next waiter, who must be delivered them.
  EXPECT_EQ(pfs.release_grant(0), std::optional<std::size_t>(1));
  EXPECT_TRUE(pfs.grant_held_by(1));
  EXPECT_EQ(pfs.release_grant(1), std::nullopt);
  EXPECT_FALSE(pfs.grant_held_by(1));
  EXPECT_TRUE(pfs.request_grant(2));
}

TEST(PfsServer, LongRunReachesQuiescenceWithoutLivelock) {
  // Regression: late in a long run the last sliver of a transfer implies a
  // completion delay below the fp resolution of `now`; the server must
  // finish it instead of re-arming a zero-advance completion forever.
  PfsServer pfs(1.6e10, PfsPolicy::kFairShare);
  // Far out on the clock, overlap two transfers.
  pfs.submit(7.0e6, 0, 1.0e9);
  pfs.submit(7.0e6, 1, 1.0e9 / 3.0);  // remainder not representable cleanly
  const std::vector<Done> done = drive(pfs, 8.0e6);
  EXPECT_EQ(done.size(), 2u);
  EXPECT_EQ(pfs.completed_total(), 2u);
  EXPECT_EQ(pfs.active_now(), 0u);
  EXPECT_EQ(pfs.next_completion(), kNever);
}

TEST(PfsServer, SubmitReportsTransfersDueAtTheSameInstant) {
  // A submit at the exact finish time of an active transfer, before the
  // owner's completion event has fired, completes that transfer itself:
  // the owner must take it from finished() there.
  PfsServer pfs(100.0, PfsPolicy::kFairShare);
  pfs.submit(0.0, 0, 1000.0);
  ASSERT_DOUBLE_EQ(pfs.next_completion(), 10.0);
  pfs.submit(10.0, 1, 500.0);
  ASSERT_EQ(pfs.finished().size(), 1u);
  EXPECT_EQ(pfs.finished()[0], 0u);
  EXPECT_DOUBLE_EQ(pfs.next_completion(), 15.0);
  EXPECT_EQ(pfs.completed(0), 1u);
}

TEST(PfsServer, MissedCancelKeepsTheNextCompletion) {
  PfsServer pfs(100.0, PfsPolicy::kFcfs);
  pfs.submit(0.0, 0, 1000.0);
  const double next = pfs.next_completion();
  EXPECT_FALSE(pfs.cancel(4.0, /*id=*/99));
  EXPECT_EQ(pfs.next_completion(), next);
  EXPECT_TRUE(pfs.finished().empty());
}

// -------------------------------------------------------- transfer_seconds

TEST(IoTiming, TransferSecondsRejectsNonFiniteInputs) {
  EXPECT_DOUBLE_EQ(ckptsim::transfer_seconds(1000.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(ckptsim::transfer_seconds(0.0, 100.0), 0.0);
  EXPECT_THROW(ckptsim::transfer_seconds(std::nan(""), 100.0), std::invalid_argument);
  EXPECT_THROW(ckptsim::transfer_seconds(std::numeric_limits<double>::infinity(), 100.0),
               std::invalid_argument);
  EXPECT_THROW(ckptsim::transfer_seconds(-1.0, 100.0), std::invalid_argument);
  EXPECT_THROW(ckptsim::transfer_seconds(1000.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ckptsim::transfer_seconds(1000.0, -5.0), std::invalid_argument);
  EXPECT_THROW(ckptsim::transfer_seconds(1000.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(ckptsim::transfer_seconds(1000.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// ------------------------------------------------------------------ JobMix

TEST(JobMix, ParsesOverridesOntoBase) {
  Parameters base;
  const JobMix mix = parse_job_mix(
      "big:procs=65536;small:procs=8192,interval_min=15,ckpt_mb=512;plain", base);
  ASSERT_EQ(mix.jobs.size(), 3u);
  EXPECT_EQ(mix.jobs[0].name, "big");
  EXPECT_EQ(mix.jobs[0].params.num_processors, 65536u);
  EXPECT_DOUBLE_EQ(mix.jobs[0].params.checkpoint_interval, base.checkpoint_interval);
  EXPECT_EQ(mix.jobs[1].params.num_processors, 8192u);
  EXPECT_DOUBLE_EQ(mix.jobs[1].params.checkpoint_interval, 15.0 * kMinute);
  EXPECT_DOUBLE_EQ(mix.jobs[1].params.checkpoint_size_per_node, 512.0 * ckptsim::units::kMB);
  EXPECT_EQ(mix.jobs[2].name, "plain");
  EXPECT_EQ(mix.jobs[2].params.num_processors, base.num_processors);
  mix.validate();
  // Default bandwidth derives from the first job's I/O subsystem.
  EXPECT_DOUBLE_EQ(mix.resolved_bandwidth(),
                   static_cast<double>(mix.jobs[0].params.io_nodes()) *
                       mix.jobs[0].params.bw_io_to_fs);
}

TEST(JobMix, RejectsMalformedSpecs) {
  const Parameters base;
  EXPECT_THROW(parse_job_mix("", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:bogus_key=1", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:procs=abc", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix("a:procs", base), std::invalid_argument);
  EXPECT_THROW(parse_job_mix(":procs=1", base), std::invalid_argument);
  // Duplicate names are a validation error.
  JobMix dup = parse_job_mix("a;a", base);
  EXPECT_THROW(dup.validate(), std::invalid_argument);
}

TEST(JobMix, RejectsNonExponentialFailures) {
  Parameters weibull;
  weibull.failure_distribution = ckptsim::FailureDistribution::kWeibull;
  JobMix mix = JobMix::uniform(2, weibull, PfsPolicy::kFairShare);
  EXPECT_THROW(mix.validate(), std::invalid_argument);
}

// ------------------------------------------------- interference determinism

RunSpec small_spec() {
  RunSpec spec;
  spec.replications = 3;
  spec.seed = 2026;
  spec.transient = 0.5 * kHour;
  spec.horizon = 12.0 * kHour;
  return spec;
}

JobMix three_job_mix(PfsPolicy policy) {
  const Parameters base;
  JobMix mix = parse_job_mix(
      "big:procs=65536;mid:procs=16384,interval_min=20;small:procs=8192,interval_min=15",
      base);
  mix.pfs.policy = policy;
  return mix;
}

TEST(Interference, SingleJobMixReproducesRunModelBitIdentically) {
  const Parameters base;
  JobMix mix = parse_job_mix("solo", base);
  const RunSpec spec = small_spec();
  const InterferenceResult inter = run_interference(mix, spec);
  const RunResult direct = ckptsim::run_model(base, spec, EngineKind::kDes);
  ASSERT_EQ(inter.jobs.size(), 1u);
  // Delegation: exact double equality, not tolerance — same seeds, same
  // model, same aggregation.
  EXPECT_EQ(inter.jobs[0].useful_fraction.mean, direct.useful_fraction.mean);
  EXPECT_EQ(inter.jobs[0].useful_fraction.half_width, direct.useful_fraction.half_width);
  EXPECT_EQ(inter.jobs[0].commits, direct.totals.ckpt_committed);
  EXPECT_EQ(inter.replications, direct.replications);
  // Interference-only rewards read as the uncontended ideal.
  EXPECT_DOUBLE_EQ(inter.jobs[0].stretch_replicates.mean(), 1.0);
  EXPECT_DOUBLE_EQ(inter.pfs_utilization.mean(), 0.0);
}

TEST(Interference, WorkerCountDoesNotChangeResults) {
  const JobMix mix = three_job_mix(PfsPolicy::kFairShare);
  RunSpec one = small_spec();
  one.exec.jobs = 1;
  RunSpec four = small_spec();
  four.exec.jobs = 4;
  const InterferenceResult a = run_interference(mix, one);
  const InterferenceResult b = run_interference(mix, four);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].useful_fraction.mean, b.jobs[j].useful_fraction.mean);
    EXPECT_EQ(a.jobs[j].useful_fraction.half_width, b.jobs[j].useful_fraction.half_width);
    EXPECT_EQ(a.jobs[j].commits, b.jobs[j].commits);
    EXPECT_EQ(a.jobs[j].failures, b.jobs[j].failures);
  }
  EXPECT_EQ(a.pfs_utilization.mean(), b.pfs_utilization.mean());
}

TEST(Interference, PoliciesAreCrnPairedAndDiverge) {
  const RunSpec spec = small_spec();
  const InterferenceResult fair = run_interference(three_job_mix(PfsPolicy::kFairShare), spec);
  const InterferenceResult fcfs = run_interference(three_job_mix(PfsPolicy::kFcfs), spec);
  const InterferenceResult coop =
      run_interference(three_job_mix(PfsPolicy::kBlockingCooperative), spec);
  ASSERT_EQ(fair.jobs.size(), 3u);
  bool any_divergence = false;
  for (std::size_t j = 0; j < 3; ++j) {
    // CRN contract: the failure process draws from a policy-independent
    // stream, so every policy sees the identical failure trajectory.
    EXPECT_EQ(fair.jobs[j].failures, fcfs.jobs[j].failures) << "job " << j;
    EXPECT_EQ(fair.jobs[j].failures, coop.jobs[j].failures) << "job " << j;
    if (fair.jobs[j].useful_fraction.mean != fcfs.jobs[j].useful_fraction.mean ||
        fair.jobs[j].stretch_replicates.mean() != fcfs.jobs[j].stretch_replicates.mean()) {
      any_divergence = true;
    }
  }
  // The policies are genuinely different disciplines: the contended rewards
  // must not be identical across them.
  EXPECT_TRUE(any_divergence);
  // A contended 3-job mix keeps the PFS measurably busy.
  EXPECT_GT(fair.pfs_utilization.mean(), 0.0);
}

/// Sixteen heterogeneous jobs: 82 scheduler slots, more than one word of
/// the armed mask.
JobMix sixteen_job_mix(PfsPolicy policy) {
  const char* procs[] = {"4096", "8192", "16384", "32768"};
  const char* interval_min[] = {"15", "20", "30", "45"};
  std::string spec;
  for (int j = 0; j < 16; ++j) {
    if (j > 0) spec += ";";
    spec += "j" + std::to_string(j) + ":procs=" + procs[j % 4] +
            ",interval_min=" + interval_min[j / 4];
  }
  JobMix mix = parse_job_mix(spec, Parameters{});
  mix.pfs.policy = policy;
  return mix;
}

TEST(Interference, SixteenJobMixIsCrnPairedAcrossPolicies) {
  RunSpec spec = small_spec();
  spec.replications = 2;
  const InterferenceResult fair = run_interference(sixteen_job_mix(PfsPolicy::kFairShare), spec);
  ASSERT_EQ(fair.jobs.size(), 16u);
  std::uint64_t commits = 0;
  std::uint64_t failures = 0;
  for (const auto& job : fair.jobs) {
    commits += job.commits;
    failures += job.failures;
  }
  EXPECT_GT(commits, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GT(fair.pfs_utilization.mean(), 0.0);
  for (const PfsPolicy policy :
       {PfsPolicy::kFcfs, PfsPolicy::kBlockingCooperative, PfsPolicy::kStaggered}) {
    SCOPED_TRACE(ckptsim::platform::to_string(policy));
    const InterferenceResult other = run_interference(sixteen_job_mix(policy), spec);
    ASSERT_EQ(other.jobs.size(), 16u);
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_EQ(other.jobs[j].failures, fair.jobs[j].failures) << "job " << j;
    }
  }
}

// ------------------------------------------------------ golden trajectories

/// Same reduction as tests/test_golden_trajectory.cc: every retained
/// (time, kind, value) triple plus the total count, %.17g so the checksum
/// is sensitive to the last bit of every double.
std::uint64_t event_log_checksum(const EventLog& log) {
  std::string s;
  s.reserve(log.size() * 48);
  char buf[96];
  for (const auto& e : log.events()) {
    std::snprintf(buf, sizeof buf, "%.17g|%u|%.17g;", e.time,
                  static_cast<unsigned>(e.kind), e.value);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "#%llu",
                static_cast<unsigned long long>(log.total_recorded()));
  s += buf;
  return fnv1a64(s);
}

std::uint64_t interference_checksum(PfsPolicy policy) {
  EventLog log(1 << 18);
  InterferenceModel model(three_job_mix(policy), ckptsim::sim::replication_seed(2026, 0));
  model.set_event_log(&log);
  (void)model.run(0.5 * kHour, 12.0 * kHour);
  return event_log_checksum(log);
}

// Pinned baselines, captured from a verified build (one per policy).  Any
// change to the interference engine's event ordering or stream consumption
// moves these; re-pin only with an explanation of the trajectory change.
constexpr std::uint64_t kGoldenFair = 0x5706de634d597084ULL;
constexpr std::uint64_t kGoldenFcfs = 0x0fc5f1638327b067ULL;
constexpr std::uint64_t kGoldenCoop = 0x2301b8dc2925b457ULL;
constexpr std::uint64_t kGoldenStagger = 0x0a4dcbca65ba5a1aULL;

TEST(Interference, GoldenTrajectoryFairShare) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kFairShare);
  EXPECT_EQ(got, kGoldenFair) << "checksum 0x" << std::hex << got;
}

TEST(Interference, GoldenTrajectoryFcfs) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kFcfs);
  EXPECT_EQ(got, kGoldenFcfs) << "checksum 0x" << std::hex << got;
}

TEST(Interference, GoldenTrajectoryCooperative) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kBlockingCooperative);
  EXPECT_EQ(got, kGoldenCoop) << "checksum 0x" << std::hex << got;
}

TEST(Interference, GoldenTrajectoryStaggered) {
  const std::uint64_t got = interference_checksum(PfsPolicy::kStaggered);
  EXPECT_EQ(got, kGoldenStagger) << "checksum 0x" << std::hex << got;
}

// ------------------------------------------------------ scheduler pins

/// Scheduler statistics of one golden run: what the pending-event set saw.
/// Every schedule, every cancel that hit a pending event, every firing and
/// the live-event peak are properties of the event ordering, so a
/// scheduler rewrite that claims the same order must reproduce them.
struct StatsPin {
  PfsPolicy policy;
  std::uint64_t scheduled;
  std::uint64_t fired;
  std::uint64_t cancelled;
  std::size_t peak_size;
};

// Captured from the heap-queue engine, before the slot-table scheduler.
constexpr StatsPin kStatsPins[] = {
    {PfsPolicy::kFairShare, 329, 299, 24, 7},
    {PfsPolicy::kFcfs, 331, 298, 27, 7},
    {PfsPolicy::kBlockingCooperative, 406, 384, 16, 7},
    {PfsPolicy::kStaggered, 325, 295, 24, 7},
};

TEST(Interference, GoldenQueueStatsArePinned) {
  for (const StatsPin& pin : kStatsPins) {
    SCOPED_TRACE(ckptsim::platform::to_string(pin.policy));
    InterferenceModel model(three_job_mix(pin.policy), ckptsim::sim::replication_seed(2026, 0));
    (void)model.run(0.5 * kHour, 12.0 * kHour);
    const ckptsim::sim::QueueStats s = model.queue_stats();
    EXPECT_EQ(s.scheduled, pin.scheduled);
    EXPECT_EQ(s.fired, pin.fired);
    EXPECT_EQ(s.cancelled, pin.cancelled);
    EXPECT_EQ(s.peak_size, pin.peak_size);
  }
}

TEST(Interference, EventBudgetTripsAtPinnedEvent) {
  // The watchdog fires exactly `budget` events, then throws before the
  // next one; what the scheduler had seen by then is pinned too.
  struct BudgetPin {
    PfsPolicy policy;
    std::uint64_t budget;
    std::uint64_t scheduled;
    std::uint64_t cancelled;
  };
  constexpr BudgetPin kPins[] = {
      {PfsPolicy::kFairShare, 1, 8, 0},
      {PfsPolicy::kFcfs, 97, 109, 6},
      {PfsPolicy::kBlockingCooperative, 250, 266, 10},
      {PfsPolicy::kStaggered, 180, 198, 12},
  };
  for (const BudgetPin& pin : kPins) {
    SCOPED_TRACE(ckptsim::platform::to_string(pin.policy));
    InterferenceModel model(three_job_mix(pin.policy), ckptsim::sim::replication_seed(2026, 0));
    model.set_event_budget(pin.budget);
    try {
      (void)model.run(0.5 * kHour, 12.0 * kHour);
      FAIL() << "expected EventBudgetExceeded";
    } catch (const ckptsim::sim::EventBudgetExceeded& e) {
      EXPECT_EQ(e.budget(), pin.budget);
    }
    const ckptsim::sim::QueueStats s = model.queue_stats();
    EXPECT_EQ(s.fired, pin.budget);
    EXPECT_EQ(s.scheduled, pin.scheduled);
    EXPECT_EQ(s.cancelled, pin.cancelled);
  }
}

}  // namespace
