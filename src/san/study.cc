#include "src/san/study.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/core/replicate.h"
#include "src/obs/metrics.h"

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
  // Resolve the reward the stopper watches (default: first registered).
  std::size_t primary = 0;
  if (spec.sequential.enabled()) {
    if (reward_names_.empty()) {
      throw std::invalid_argument("Study: sequential stopping needs at least one reward");
    }
    if (!spec.precision_reward.empty()) {
      const auto it =
          std::find(reward_names_.begin(), reward_names_.end(), spec.precision_reward);
      if (it == reward_names_.end()) {
        throw std::invalid_argument("Study: precision_reward '" + spec.precision_reward +
                                    "' is not a registered reward");
      }
      primary = static_cast<std::size_t>(it - reward_names_.begin());
    }
  }
  struct RepOutput {
    std::vector<double> means;  ///< one per reward_names_ entry, same order
    std::uint64_t firings = 0;
  };
  detail::ReplicationTasks<RepOutput> tasks;
  tasks.run = [&](std::size_t worker, std::size_t, std::size_t rep, RepOutput& out) {
    return detail::run_attempts(
        spec.seed, rep, spec.on_failure, {}, [&](std::uint64_t seed, std::string* why) {
          Executor exec(model_, seed);
          exec.set_event_budget(spec.watchdog.max_events);
          for (const auto& r : rate_rewards_) exec.rewards().add_rate(r);
          for (const auto& r : impulse_rewards_) exec.rewards().add_impulse(r);
          exec.run_until(spec.transient);
          exec.reset_rewards();
          exec.run_until(spec.transient + spec.horizon);
          out.means.clear();
          out.means.reserve(reward_names_.size());
          // A variable may have both a rate and impulse components under
          // one name (e.g. useful_work); time_average covers both, so
          // record each name once.
          bool finite = true;
          for (const auto& name : reward_names_) {
            const double mean = exec.rewards().time_average(name, exec.now());
            finite = finite && std::isfinite(mean);
            out.means.push_back(mean);
          }
          if (!finite) {
            *why = "a reward time-average is non-finite";
            return false;
          }
          out.firings = exec.total_firings();
          if (spec.metrics != nullptr) {
            obs::Metrics::Shard& shard = spec.metrics->shard(worker);
            ++shard.replications;
            shard.activity_firings += exec.total_firings();
            shard.activity_aborts += exec.total_aborts();
            shard.queue.merge(exec.queue_stats());
          }
          return true;
        });
  };
  tasks.value = [primary](const RepOutput& out) { return out.means[primary]; };
  tasks.where = [](std::size_t) { return std::string("san study: "); };
  const auto groups = detail::replicate(detail::driver_spec(spec, "san study"), 1, tasks);

  // Aggregate in replication-index order: bit-identical to a serial run
  // for any thread count.
  StudyResult result;
  result.failures = detail::failure_accounting(groups[0].reps);
  for (const auto& o : groups[0].reps) {
    if (!o.ok) continue;
    for (std::size_t k = 0; k < reward_names_.size(); ++k) {
      result.rewards[reward_names_[k]].replicate_means.add(o.result.means[k]);
    }
    result.total_firings += o.result.firings;
    ++result.replications;
  }
  for (auto& [name, measure] : result.rewards) {
    measure.interval = stats::mean_confidence(measure.replicate_means, spec.confidence_level);
  }
  result.rounds = groups[0].rounds;
  return result;
}

}  // namespace ckptsim::san
