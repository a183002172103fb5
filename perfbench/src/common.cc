// Set-up timing, the pass loop and the metrics every workload shares.

#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

ckptsim::RunSpec warm_up_spec(ckptsim::RunSpec spec, double horizon) {
  spec.transient = kWarmUpTransient;
  spec.horizon = horizon;
  spec.seed = kWarmUpSeed;
  spec.replications = spec.exec.resolve();
  return spec;
}

Passes run_passes(const Options& o, const std::function<void()>& setup,
                  const std::function<void(bool traced)>& pass) {
  Passes passes;
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    passes.setup.push_back(seconds_since(t0));
  }
  std::printf("set-ups (s):");
  for (const double s : passes.setup) std::printf(" %.4f", s);
  std::printf("\npasses (s):");
  bool traced = false;
  double last = 0.0;
  std::size_t done = 0;
  // A traced run needs one pass of each kind for the overhead ratio.
  while (passes.untraced.empty() || (o.trace && passes.traced.empty()) ||
         seconds_since(start) + 0.5 * last < o.seconds) {
    Tracer::global().enable(traced);
    const Clock::time_point t0 = Clock::now();
    pass(traced);
    last = seconds_since(t0);
    std::printf(" %.3f%s", last, traced ? "t" : "");
    (traced ? passes.traced : passes.untraced).push_back(last);
    if (++done <= kRssPasses) passes.peak_rss_mb = peak_rss_mb();
    Tracer::global().enable(false);
    Tracer::set_op(0);
    if (o.trace) traced = !traced;
  }
  std::printf("\n");
  return passes;
}

double sum_of_op_medians(const std::vector<double>& op_seconds, std::size_t ops_per_pass) {
  double total = 0.0;
  for (std::size_t i = 0; i < ops_per_pass; ++i) {
    std::vector<double> xs;
    for (std::size_t j = i; j < op_seconds.size(); j += ops_per_pass) xs.push_back(op_seconds[j]);
    total += median(xs);
  }
  return total;
}

void add_end_to_end_metrics(Outcome& out, const Passes& passes, double wall,
                            double ops_per_pass, double reps_per_pass,
                            const std::vector<double>& op_seconds) {
  const Quantile p50 = percentile(op_seconds, 50.0);
  const Quantile p90 = percentile(op_seconds, 90.0);
  out.add("setup_s", median(passes.setup), "s");
  out.add("wall_s", wall, "s");
  out.add("replications_per_s", reps_per_pass / wall, "1/s");
  out.add("requests_per_s", ops_per_pass / wall, "1/s");
  out.add("latency_p50_ms", p50.value * 1e3, "ms");
  out.add("latency_p90_ms", p90.value * 1e3, "ms");
  out.add("peak_rss_mb", passes.peak_rss_mb, "MiB");
  std::printf("operations: %zu latency samples\n", p50.samples);
}

void finish_traced_run(Outcome& out, const Options& o, const std::string& workload,
                       const Passes& passes) {
  out.add("obs.tracing_overhead_ratio", median(passes.traced) / median(passes.untraced), "ratio");
  Tracer& tracer = Tracer::global();
  const std::vector<Span> workload_spans = tracer.spans();
  tracer.clear();
  add_layer_metrics(out, o);

  // Self time per layer of the workload's own traced passes, for reading
  // alongside the span file.
  const std::vector<double> self = self_times(workload_spans);
  std::vector<std::pair<std::string, double>> per_layer;
  for (std::size_t i = 0; i < workload_spans.size(); ++i) {
    auto it = std::find_if(per_layer.begin(), per_layer.end(),
                           [&](const auto& e) { return e.first == workload_spans[i].layer; });
    if (it == per_layer.end()) {
      per_layer.emplace_back(workload_spans[i].layer, 0.0);
      it = per_layer.end() - 1;
    }
    it->second += self[i];
  }
  std::printf("self time of %s's traced passes by layer:\n", workload.c_str());
  for (const auto& [layer, s] : per_layer) std::printf("  %-10s %.3f s\n", layer.c_str(), s);

  if (!o.out_dir.empty()) {
    const std::vector<Span> suite = tracer.spans();
    tracer.clear();
    // One file: the workload's spans first, then the layer suite's, with
    // the suite's parent indices shifted past the workload's.
    std::vector<Span> all = workload_spans;
    const auto shift = static_cast<std::int64_t>(all.size());
    for (Span s : suite) {
      if (s.parent >= 0) s.parent += shift;
      all.push_back(std::move(s));
    }
    const std::string path = o.out_dir + "/spans_" + workload + ".jsonl";
    write_spans_jsonl(all, path);
    std::printf("wrote %zu spans to %s\n", all.size(), path.c_str());
  }
}

}  // namespace perfbench
