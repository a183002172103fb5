// variants: the engines outside the paper sweep, each called the way its
// users call it -- NodeLevelModel replications one after another, a K = 4
// run_interference under all four PFS policies, run_proactive under the
// three proactive policies, and optimize with its default grid.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/optimizer.h"
#include "src/model/parameters.h"
#include "src/nodelevel/node_level_model.h"
#include "src/platform/interference.h"
#include "src/proactive/run.h"
#include "src/sim/rng.h"
#include "variants.h"
#include "workloads.h"

namespace perfbench {

using ckptsim::Parameters;
namespace units = ckptsim::units;

VariantInputs make_variant_inputs(std::uint64_t seed, std::size_t cpus) {
  VariantInputs in;
  in.seed = seed;
  for (const std::uint64_t procs : {8192ULL, 32768ULL}) {  // bench_ablation_aggregation
    Parameters p;
    p.num_processors = procs;
    p.mttf_node = 0.5 * units::kYear;
    p.validate();
    in.node_level.push_back(p);
  }

  Parameters base;
  const struct {
    const char* name;
    std::uint64_t procs;
    double interval_min;
  } jobs[] = {{"big", 65536, 30}, {"mid", 16384, 20}, {"small", 8192, 15}, {"tiny", 4096, 15}};
  for (const auto& j : jobs) {
    ckptsim::platform::JobSpec spec{j.name, base};
    spec.params.num_processors = j.procs;
    spec.params.checkpoint_interval = j.interval_min * units::kMinute;
    in.mix.jobs.push_back(spec);
  }
  in.mix.validate();
  in.interference_spec.seed = seed;
  in.interference_spec.replications = kInterferenceReps;
  in.interference_spec.exec.jobs = cpus;

  in.proactive_base.predictor_enabled = true;
  in.proactive_base.predictor_precision = 0.8;
  in.proactive_base.predictor_recall = 0.7;
  in.proactive_base.predictor_lead_time = 5.0 * units::kMinute;
  in.proactive_spec.seed = seed;
  in.proactive_spec.replications = kProactiveReps;
  in.proactive_spec.exec.jobs = cpus;

  in.optimizer_spec.seed = seed;
  in.optimizer_spec.replications = kOptimizerReps;
  in.optimizer_spec.exec.jobs = cpus;
  return in;
}

VariantInputs shortened(VariantInputs in) {
  // Three warm-up windows: at one, the whole warm-up is over in ~0.1 s.
  const double horizon = 3.0 * kWarmUpHorizon;
  in.seed = kWarmUpSeed;
  in.node_level_transient = kWarmUpTransient;
  in.node_level_horizon = horizon;
  for (ckptsim::RunSpec* spec : {&in.interference_spec, &in.proactive_spec, &in.optimizer_spec}) {
    *spec = warm_up_spec(*spec, horizon);
  }
  return in;
}

VariantPass run_variant_pass(const VariantInputs& in, ckptsim::obs::Metrics* metrics) {
  VariantPass pass;
  auto fired = [metrics] { return metrics == nullptr ? 0 : metrics->snapshot().queue.fired; };
  auto timed = [&](const char* layer, const char* name, std::string variant, auto&& call) {
    Tracer::begin_op();
    const std::uint64_t events_before = fired();
    const Clock::time_point t0 = Clock::now();
    {
      const Scope span(layer, name);
      call();
    }
    pass.ops.push_back({layer, std::move(variant), seconds_since(t0), fired() - events_before});
  };

  for (std::size_t i = 0; i < in.node_level.size(); ++i) {
    std::uint64_t events = 0;
    timed("nodelevel", "NodeLevelModel::run", std::to_string(in.node_level[i].num_processors),
          [&] {
            ckptsim::NodeLevelModel model(in.node_level[i],
                                          ckptsim::sim::replication_seed(in.seed, i));
            pass.node_level_fraction.push_back(
                model.run(in.node_level_transient, in.node_level_horizon).useful_fraction);
            events = model.queue_stats().fired;
          });
    pass.ops.back().events = events;
    pass.replications += 1;
  }

  ckptsim::platform::JobMix mix = in.mix;
  ckptsim::RunSpec interference_spec = in.interference_spec;
  interference_spec.metrics = metrics;
  for (const ckptsim::platform::PfsPolicy policy : kPfsPolicies) {
    mix.pfs.policy = policy;
    timed("platform", "run_interference", ckptsim::platform::to_string(policy), [&] {
      const ckptsim::platform::InterferenceResult r =
          ckptsim::platform::run_interference(mix, interference_spec);
      std::vector<std::uint64_t> failures;
      for (const auto& job : r.jobs) failures.push_back(job.failures);
      pass.interference_failures.push_back(failures);
      pass.failed += interference_spec.replications - r.replications;
    });
    pass.replications += interference_spec.replications;
  }

  ckptsim::RunSpec proactive_spec = in.proactive_spec;
  proactive_spec.metrics = metrics;
  for (const ckptsim::ProactivePolicy policy : kProactivePolicies) {
    Parameters p = in.proactive_base;
    p.proactive_policy = policy;
    timed("proactive", "run_proactive", ckptsim::to_string(policy), [&] {
      const ckptsim::proactive::ProactiveResult r =
          ckptsim::proactive::run_proactive(p, proactive_spec);
      pass.proactive_checksums.push_back(r.failures_checksum());
      pass.proactive_fraction.push_back(r.run.useful_fraction.mean);
      pass.failed += proactive_spec.replications - r.run.replications;
    });
    pass.replications += proactive_spec.replications;
  }

  timed("core", "optimize", "default grid", [&] {
    const ckptsim::OptimumPolicy best =
        ckptsim::optimize(Parameters{}, in.optimizer_spec, ckptsim::OptimizeSpec{});
    pass.optimizer_candidates = best.evaluated.size();
    pass.optimum_interval = best.best.interval;
  });
  pass.replications += pass.optimizer_candidates * in.optimizer_spec.replications;
  return pass;
}

void check_variant_pass(const VariantPass& pass, Outcome& out) {
  for (const double f : pass.node_level_fraction) {
    if (!(f > 0.0 && f < 1.0)) out.fail("NodeLevelModel useful fraction " + std::to_string(f));
  }
  for (const auto& failures : pass.interference_failures) {
    if (failures != pass.interference_failures.front()) {
      out.fail("run_interference: per-job failure counts differ across PFS policies (CRN)");
    }
  }
  for (const std::uint64_t c : pass.proactive_checksums) {
    if (c != pass.proactive_checksums.front()) {
      out.fail("run_proactive: failures_checksum differs across policies (CRN)");
    }
  }
  for (const double f : pass.proactive_fraction) {
    if (!(f > 0.0 && f < 1.0)) out.fail("run_proactive useful fraction " + std::to_string(f));
  }
  const ckptsim::OptimizeSpec grid;
  if (pass.optimizer_candidates < grid.grid ||
      !(pass.optimum_interval >= grid.interval_lo && pass.optimum_interval <= grid.interval_hi)) {
    out.fail("optimize: " + std::to_string(pass.optimizer_candidates) +
             " candidates, optimum interval " + std::to_string(pass.optimum_interval) + " s");
  }
}

Outcome run_variants(const Options& o) {
  Outcome out;
  VariantInputs in;
  const auto setup = [&] {
    in = make_variant_inputs(o.seed, cpu_count());
    (void)run_variant_pass(shortened(in));
  };

  std::vector<double> op_seconds;
  VariantPass last;
  const Passes passes = run_passes(o, setup, [&](bool traced) {
    last = run_variant_pass(in);
    out.attempted += last.replications;
    out.failed += last.failed;
    check_variant_pass(last, out);
    if (traced) return;
    for (const VariantOp& op : last.ops) op_seconds.push_back(op.seconds);
  });

  // Share of the pass each part took, to show none is below a fifth.
  for (const char* layer : {"nodelevel", "platform", "proactive", "core"}) {
    double s = 0.0;
    double total = 0.0;
    for (const VariantOp& op : last.ops) {
      total += op.seconds;
      if (op.layer == layer) s += op.seconds;
    }
    std::printf("variants part %-10s %.3f s (%.0f%% of the last pass)\n", layer, s,
                100.0 * s / total);
  }
  if (o.trace) {
    finish_traced_run(out, o, "variants", passes);
  } else {
    add_end_to_end_metrics(out, passes, sum_of_op_medians(op_seconds, last.ops.size()),
                           static_cast<double>(last.ops.size()),
                           static_cast<double>(last.replications), op_seconds);
  }
  return out;
}

}  // namespace perfbench
