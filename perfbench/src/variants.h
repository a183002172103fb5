#pragma once

// The variants workload's inputs and one pass over its engines, shared
// with the per-layer suite (which attaches an obs::Metrics registry to
// count each call's events).

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/core/results.h"
#include "src/model/parameters.h"
#include "src/obs/metrics.h"
#include "src/platform/job_mix.h"
#include "src/platform/pfs.h"

namespace perfbench {

// Sizes chosen so that each of the four parts takes at least a fifth of a
// pass (see perfbench/README.md for the measured shares).
inline constexpr std::size_t kInterferenceReps = 28;
inline constexpr std::size_t kProactiveReps = 32;
inline constexpr std::size_t kOptimizerReps = 6;

inline constexpr ckptsim::platform::PfsPolicy kPfsPolicies[] = {
    ckptsim::platform::PfsPolicy::kFairShare, ckptsim::platform::PfsPolicy::kFcfs,
    ckptsim::platform::PfsPolicy::kBlockingCooperative, ckptsim::platform::PfsPolicy::kStaggered};
inline constexpr ckptsim::ProactivePolicy kProactivePolicies[] = {
    ckptsim::ProactivePolicy::kProactiveCheckpoint, ckptsim::ProactivePolicy::kMigrate,
    ckptsim::ProactivePolicy::kMalleable};

struct VariantInputs {
  std::uint64_t seed = 0;
  std::vector<ckptsim::Parameters> node_level;  ///< 8K and 32K processors
  double node_level_transient = 20.0 * ckptsim::units::kHour;
  double node_level_horizon = 1500.0 * ckptsim::units::kHour;
  ckptsim::platform::JobMix mix;                ///< K = 4 jobs, one shared PFS
  ckptsim::RunSpec interference_spec;
  ckptsim::Parameters proactive_base;           ///< predictor on
  ckptsim::RunSpec proactive_spec;
  ckptsim::RunSpec optimizer_spec;
};

/// One call of the pass.
struct VariantOp {
  std::string layer;    ///< nodelevel, platform, proactive, core
  std::string variant;  ///< processors, PFS policy or proactive policy
  double seconds = 0.0;
  std::uint64_t events = 0;  ///< fired DES events (0 when not counted)
};

struct VariantPass {
  std::vector<VariantOp> ops;
  std::vector<double> node_level_fraction;
  std::vector<std::vector<std::uint64_t>> interference_failures;  ///< per policy, per job
  std::vector<std::uint64_t> proactive_checksums;                 ///< per policy
  std::vector<double> proactive_fraction;
  std::size_t optimizer_candidates = 0;
  double optimum_interval = 0.0;
  std::uint64_t replications = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] VariantInputs make_variant_inputs(std::uint64_t seed, std::size_t cpus);

/// The same calls at a short horizon, for warming up before timing.
[[nodiscard]] VariantInputs shortened(VariantInputs in);

/// Runs every engine once.  With `metrics`, run_interference and
/// run_proactive report into it and each op records its fired events.
[[nodiscard]] VariantPass run_variant_pass(const VariantInputs& in,
                                           ckptsim::obs::Metrics* metrics = nullptr);

/// The workload's output checks: the CRN contracts across policies and
/// sane rewards.
void check_variant_pass(const VariantPass& pass, Outcome& out);

}  // namespace perfbench
