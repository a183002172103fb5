#include "src/san/study.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace ckptsim::san {

void StudySpec::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("StudySpec: " + msg); };
  if (replications == 0) fail("need >= 1 replication");
  if (!(horizon > 0.0) || !std::isfinite(horizon)) fail("horizon must be finite and > 0");
  if (!(transient >= 0.0) || !std::isfinite(transient)) {
    fail("transient must be finite and >= 0");
  }
  if (!(confidence_level > 0.0 && confidence_level < 1.0)) {
    fail("confidence_level must be in (0, 1)");
  }
  sequential.validate();
}

const StudyMeasure& StudyResult::reward(const std::string& name) const {
  const auto it = rewards.find(name);
  if (it == rewards.end()) {
    throw std::out_of_range("StudyResult::reward: unknown reward '" + name + "'");
  }
  return it->second;
}

Study::Study(const Model& model, std::vector<RateRewardSpec> rate_rewards,
             std::vector<ImpulseRewardSpec> impulse_rewards)
    : model_(model),
      rate_rewards_(std::move(rate_rewards)),
      impulse_rewards_(std::move(impulse_rewards)) {
  for (const auto& r : rate_rewards_) {
    if (std::find(reward_names_.begin(), reward_names_.end(), r.name) == reward_names_.end()) {
      reward_names_.push_back(r.name);
    }
  }
  for (const auto& r : impulse_rewards_) {
    if (std::find(reward_names_.begin(), reward_names_.end(), r.name) == reward_names_.end()) {
      reward_names_.push_back(r.name);
    }
  }
}

StudyResult Study::run(const StudySpec& spec) const {
  spec.validate();
  // Each replication owns its executor and writes only its own slot; the
  // aggregation below walks replications in index order, so the result is
  // bit-identical to a serial run for any thread count.
  struct RepOutput {
    std::vector<double> means;  ///< one per reward_names_ entry, same order
    std::uint64_t firings = 0;
    bool ok = false;
    std::size_t attempts = 0;  ///< 0 = abandoned before the first attempt
    ReplicationFailure failure;
  };
  std::vector<RepOutput> outputs;
  std::atomic<bool> bail{false};
  const std::size_t max_attempts =
      spec.on_failure.mode == FailurePolicy::Mode::kRetry ? 1 + spec.on_failure.max_retries : 1;
  std::size_t jobs = spec.exec.resolve();
  if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
  // The per-replication body, shared verbatim by the fixed path (one
  // dispatch over all replications) and the adaptive path (one dispatch per
  // round), so replication `rep` behaves identically in both.
  const auto run_one = [&](std::size_t worker, std::size_t rep) {
    if (bail.load(std::memory_order_relaxed)) return;
    if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) return;
    const obs::WorkerTimer timer(spec.metrics, worker);
    RepOutput& out = outputs[rep];
    // Same attempt-seed discipline as the core runner: transient failures
    // retry with the canonical replication seed; deterministic ones
    // (livelock, budget, non-finite rewards) advance to a fresh substream.
    std::uint64_t seed_step = 0;
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      out.attempts = attempt + 1;
      ErrorCode code = ErrorCode::kModelError;
      std::string message;
      try {
        Executor exec(model_, sim::replication_attempt_seed(spec.seed, rep, seed_step));
        exec.set_event_budget(spec.watchdog.max_events);
        for (const auto& r : rate_rewards_) exec.rewards().add_rate(r);
        for (const auto& r : impulse_rewards_) exec.rewards().add_impulse(r);
        exec.run_until(spec.transient);
        exec.reset_rewards();
        exec.run_until(spec.transient + spec.horizon);
        out.means.clear();
        out.means.reserve(reward_names_.size());
        // A variable may have both a rate and impulse components under one
        // name (e.g. useful_work); time_average covers both, so record each
        // name once.
        bool finite = true;
        for (const auto& name : reward_names_) {
          const double mean = exec.rewards().time_average(name, exec.now());
          finite = finite && std::isfinite(mean);
          out.means.push_back(mean);
        }
        if (!finite) {
          code = ErrorCode::kNonFiniteReward;
          message = "a reward time-average is non-finite";
          ++seed_step;
          out.failure = ReplicationFailure{rep, out.attempts, code, message};
          continue;
        }
        out.firings = exec.total_firings();
        out.ok = true;
        if (spec.metrics != nullptr) {
          obs::Metrics::Shard& shard = spec.metrics->shard(worker);
          ++shard.replications;
          shard.activity_firings += exec.total_firings();
          shard.activity_aborts += exec.total_aborts();
          shard.queue.merge(exec.queue_stats());
        }
        break;
      } catch (const sim::EventBudgetExceeded& e) {
        code = ErrorCode::kEventBudgetExceeded;
        message = e.what();
      } catch (const LivelockError& e) {
        code = ErrorCode::kLivelock;
        message = e.what();
      } catch (const SimError& e) {
        code = e.code();
        message = e.what();
      } catch (const std::exception& e) {
        code = ErrorCode::kModelError;
        message = e.what();
      }
      if (error_is_deterministic(code)) ++seed_step;
      out.failure = ReplicationFailure{rep, out.attempts, code, message};
    }
    if (!out.ok && spec.on_failure.mode != FailurePolicy::Mode::kSkip) {
      bail.store(true, std::memory_order_relaxed);
    }
    if (spec.progress != nullptr) spec.progress->tick();
  };
  std::vector<std::uint32_t> rounds;
  const auto t0 = std::chrono::steady_clock::now();
  if (!spec.sequential.enabled()) {
    outputs.resize(spec.replications);
    if (spec.progress != nullptr) spec.progress->begin("san study", spec.replications);
    parallel_for_workers(jobs, spec.replications, run_one);
  } else {
    if (reward_names_.empty()) {
      throw std::invalid_argument("Study: sequential stopping needs at least one reward");
    }
    // Resolve the reward the stopper watches (default: first registered).
    std::size_t primary = 0;
    if (!spec.precision_reward.empty()) {
      const auto it =
          std::find(reward_names_.begin(), reward_names_.end(), spec.precision_reward);
      if (it == reward_names_.end()) {
        throw std::invalid_argument("Study: precision_reward '" + spec.precision_reward +
                                    "' is not a registered reward");
      }
      primary = static_cast<std::size_t>(it - reward_names_.begin());
    }
    const stats::SequentialStopper stopper(spec.sequential);
    if (spec.progress != nullptr) {
      // Budget ceiling, not a promise: adaptive studies usually stop early.
      spec.progress->begin("san study", spec.sequential.max_replications);
    }
    std::size_t batch = stopper.initial_round();
    for (;;) {
      const std::size_t begin = outputs.size();
      outputs.resize(begin + batch);
      rounds.push_back(static_cast<std::uint32_t>(batch));
      parallel_for_workers(jobs, batch,
                           [&](std::size_t worker, std::size_t k) { run_one(worker, begin + k); });
      if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) break;
      if (bail.load(std::memory_order_relaxed)) break;
      // The stopping decision sees the aggregate over all completed rounds
      // in replication-index order — never wall-clock or arrival order —
      // so the round schedule is bit-identical for any job count.
      stats::Summary agg;
      for (const auto& out : outputs) {
        if (out.ok) agg.add(out.means[primary]);
      }
      const stats::SequentialDecision d =
          stopper.decide(outputs.size(), agg, spec.confidence_level);
      if (d.stop) break;
      batch = d.next_batch;
    }
  }
  if (spec.metrics != nullptr) {
    spec.metrics->add_wall_seconds(
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (spec.progress != nullptr) spec.progress->finish();
  if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) {
    throw SimError(ErrorCode::kInterrupted, "san study: cancelled");
  }
  StudyResult result;
  for (const auto& out : outputs) {
    if (out.attempts == 0) continue;  // abandoned after a fail-fast bail-out
    if (!out.ok) {
      if (spec.on_failure.mode == FailurePolicy::Mode::kSkip) {
        result.failures.skipped.push_back(out.failure);
        continue;
      }
      const std::string context = "san study: replication " +
                                  std::to_string(out.failure.replication) + " failed after " +
                                  std::to_string(out.failure.attempts) +
                                  " attempt(s): " + out.failure.message;
      if (spec.on_failure.mode == FailurePolicy::Mode::kRetry) {
        throw SimError(ErrorCode::kRetriesExhausted, context);
      }
      throw SimError(out.failure.code, context);
    }
    if (out.attempts > 1) result.failures.recovered.push_back(out.failure);
    for (std::size_t k = 0; k < reward_names_.size(); ++k) {
      result.rewards[reward_names_[k]].replicate_means.add(out.means[k]);
    }
    result.total_firings += out.firings;
    ++result.replications;
  }
  for (auto& [name, measure] : result.rewards) {
    measure.interval = stats::mean_confidence(measure.replicate_means, spec.confidence_level);
  }
  result.rounds = std::move(rounds);
  return result;
}

}  // namespace ckptsim::san
