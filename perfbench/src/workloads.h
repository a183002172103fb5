#pragma once

// The four perfbench workloads and the per-layer suite.  Each workload
// builds its inputs from the seed (set-up, timed on its own), repeats its
// pass -- the fixed set of operations it measures -- until the run's
// seconds are used, then checks every output.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/core/results.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;      ///< traced run: per-layer metrics instead of end-to-end
  std::string out_dir;     ///< where the traced run writes its spans
};

/// Set-up runs this many times, back to back before the first pass, and
/// setup_s is the median: a burst of machine noise then moves one sample,
/// not the metric.  The passes use the state the last set-up left.
inline constexpr int kSetupSamples = 5;

/// Set-up ends with a warm-up: the workload's calls once at this short
/// observation window, so thread pools, code and allocator pools are warm
/// before timing starts.  The warm-up uses its own fixed seed, so set-up
/// does the same work whatever the workload seed.
inline constexpr double kWarmUpTransient = 10.0 * 3600.0;
inline constexpr double kWarmUpHorizon = 100.0 * 3600.0;
inline constexpr std::uint64_t kWarmUpSeed = 1;

/// `spec` with the warm-up window and seed, and one replication per
/// worker: even a single run_model call spreads over every CPU, as the
/// passes do, so one slow CPU does not decide setup_s.  A workload whose
/// warm-up would be over in a few tens of milliseconds passes a longer
/// `horizon`, so setup_s is not a measurement of scheduler noise.
ckptsim::RunSpec warm_up_spec(ckptsim::RunSpec spec, double horizon = kWarmUpHorizon);

/// peak_rss_mb is read after this many passes (or after the last, if
/// fewer run).  Not at the end: the service cache grows with every pass,
/// and the number of passes in a run depends on the machine's speed.
inline constexpr std::size_t kRssPasses = 2;

/// Wall seconds of every set-up and pass.  With tracing, passes alternate
/// untraced / traced so both see the same machine state.
struct Passes {
  std::vector<double> setup;
  std::vector<double> untraced;
  std::vector<double> traced;
  /// Peak resident memory of the workload, from its start to the end of
  /// pass kRssPasses.
  double peak_rss_mb = 0.0;
};

/// Run `setup` kSetupSamples times, then repeat `pass` until about
/// `o.seconds` have elapsed since the first set-up began: passes stop once
/// the next one would end further past the deadline than before it (at
/// least one pass; two in a traced run, one of each kind).  `pass` gets
/// whether it is traced.
Passes run_passes(const Options& o, const std::function<void()>& setup,
                  const std::function<void(bool traced)>& pass);

/// Wall time of one pass of a workload whose pass is a fixed sequence of
/// `ops_per_pass` operations: the sum over operations of each one's
/// median latency across passes (`op_seconds` is pass-major).  A burst of
/// machine noise then spoils one operation of one pass, not the estimate.
[[nodiscard]] double sum_of_op_medians(const std::vector<double>& op_seconds,
                                       std::size_t ops_per_pass);

/// The end-to-end metrics every workload reports; setup_s is the median
/// set-up.  An operation is one
/// call a user of the workload's surface makes (a sweep, a run, a
/// request); `op_seconds` holds the latency of each operation of the
/// untraced passes, and one pass of `wall_s` seconds runs `ops_per_pass`
/// operations that complete `reps_per_pass` replications.
void add_end_to_end_metrics(Outcome& out, const Passes& passes, double wall_s,
                            double ops_per_pass, double reps_per_pass,
                            const std::vector<double>& op_seconds);

/// In a traced run: obs.tracing_overhead_ratio, the span file, and the
/// per-layer suite.
void finish_traced_run(Outcome& out, const Options& o, const std::string& workload,
                       const Passes& passes);

Outcome run_paper_figures(const Options& o);
Outcome run_san_engine(const Options& o);
Outcome run_service_mixed(const Options& o);
Outcome run_variants(const Options& o);

/// Per-layer metrics of every module (sim, model, san, core, svc,
/// nodelevel, platform, proactive), measured by calling each module's
/// public functions under spans.  Same inputs in every traced run.
void add_layer_metrics(Outcome& out, const Options& o);

}  // namespace perfbench
