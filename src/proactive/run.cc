#include "src/proactive/run.h"

#include <cstdio>

#include "src/core/replicate.h"
#include "src/core/runner.h"
#include "src/obs/metrics.h"

namespace ckptsim::proactive {

std::uint64_t ProactiveResult::failures_checksum() const noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::uint64_t v : failures_per_rep) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string ProactiveResult::describe() const {
  std::string out = run.describe();
  if (!out.empty() && out.back() != '\n') out.push_back('\n');
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "proactive: predictions %llu (false alarms %llu), proactive ckpts %llu, "
                "skipped %llu\n",
                static_cast<unsigned long long>(totals.predictions_true),
                static_cast<unsigned long long>(totals.false_alarms),
                static_cast<unsigned long long>(totals.proactive_ckpts),
                static_cast<unsigned long long>(totals.actions_skipped));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "           migrations %llu (wasted %llu), absorbed failures %llu, "
                "rescales %llu, repairs %llu\n",
                static_cast<unsigned long long>(totals.migrations),
                static_cast<unsigned long long>(totals.migrations_wasted),
                static_cast<unsigned long long>(totals.failures_absorbed),
                static_cast<unsigned long long>(totals.rescales),
                static_cast<unsigned long long>(totals.repairs));
  out += buf;
  return out;
}

ProactiveResult run_proactive(const Parameters& params, const RunSpec& spec) {
  params.validate();
  spec.validate();
  detail::ReplicationTasks<ProactiveReplication> tasks;
  tasks.run = [&](std::size_t worker, std::size_t, std::size_t rep, ProactiveReplication& out) {
    obs::ReplicationProbe probe;
    const detail::ReplicationStatus status = detail::run_attempts(
        spec.seed, rep, spec.on_failure, spec.fault_injection,
        [&](std::uint64_t seed, std::string*) {
          ProactiveModel model(params, seed);
          probe = obs::ReplicationProbe{};
          if (spec.metrics != nullptr) model.set_event_counts(&probe.events);
          model.set_event_budget(spec.watchdog.max_events);
          out = model.run_replication(spec.transient, spec.horizon);
          probe.queue = model.queue_stats();
          return true;
        });
    if (status.ok && spec.metrics != nullptr) spec.metrics->shard(worker).absorb(probe);
    return status;
  };
  tasks.value = [](const ProactiveReplication& r) { return r.rep.useful_fraction; };
  tasks.where = [](std::size_t) { return std::string("run_proactive: "); };
  const auto groups = detail::replicate(detail::driver_spec(spec, "run_proactive"), 1, tasks);

  // Aggregate in replication-index order through the same reducer as
  // run_model, so policy-none output is bit-identical by construction.
  ProactiveResult out;
  std::vector<ReplicationResult> base;
  for (const auto& o : groups[0].reps) {
    if (!o.ok) continue;
    base.push_back(o.result.rep);
    out.totals += o.result.pro;
    out.failures_per_rep.push_back(o.result.rep.counters.compute_failures +
                                   o.result.rep.counters.extra_failures);
  }
  out.run = aggregate_replications(base, spec.confidence_level, params);
  out.run.failures = detail::failure_accounting(groups[0].reps);
  out.run.rounds = groups[0].rounds;
  return out;
}

}  // namespace ckptsim::proactive
