#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/results.h"
#include "src/model/io_timing.h"
#include "src/model/parameters.h"
#include "src/model/workload.h"
#include "src/san/model.h"
#include "src/san/reward.h"

namespace ckptsim::obs {
struct ReplicationProbe;
}  // namespace ckptsim::obs

namespace ckptsim {

/// One entry of the paper's Table 1 (submodel list).
struct SubmodelInfo {
  std::string module;    ///< "computing & checkpointing", "failure & recovery", ...
  std::string name;      ///< e.g. "compute_nodes"
  std::string comment;   ///< the Table 1 description
  std::vector<std::string> places;
  std::vector<std::string> activities;
};

/// The paper's model expressed as a composed Stochastic Activity Network on
/// the generic `san::` framework — the faithful rebuild of the Möbius model
/// (Table 1 / Figures 1-2).
///
/// The twelve submodels are built as separate functions that share state by
/// place name (the arrows of Figure 1).  Non-random events are deterministic
/// activities, random events exponential, and the coordination latency is
/// the max-of-n-exponentials distribution of Section 5 — exactly as in the
/// paper.  Complex transition logic lives in gate functions, mirroring how
/// Möbius gates carry C++ code.
///
/// The hand-coded `DesModel` implements the same semantics; the cross-engine
/// tests keep them statistically aligned.
class SanCheckpointModel {
 public:
  /// Shared-place ids of the composed model; public so the gate helper
  /// functions in the implementation file (and white-box tests) can address
  /// places directly.  Defined in san_model.cc.
  struct Places;

  explicit SanCheckpointModel(const Parameters& params);

  /// The composed SAN (immutable after construction).
  [[nodiscard]] const san::Model& model() const noexcept { return model_; }

  /// Reward variables matching the useful_work submodel: rate reward
  /// "useful" (+1 while executing) plus failure impulses (- lost work), and
  /// rate reward "executing" (gross execution time).
  [[nodiscard]] std::vector<san::RateRewardSpec> rate_rewards() const;
  [[nodiscard]] std::vector<san::ImpulseRewardSpec> impulse_rewards() const;

  /// One replication: warm up, observe, report windowed metrics
  /// (same contract as DesModel::run).  A non-null `probe` additionally
  /// receives the replication's activity firing/abort totals and
  /// event-queue statistics (obs metrics registry).  `max_events` caps the
  /// replication's fired events (watchdog; 0 = unlimited) — past the cap
  /// the run throws sim::EventBudgetExceeded.  A non-null enabled
  /// `snapshot` enables event-granular crash-resume (same contract as
  /// run_replication in the core runner): the executor state plus the
  /// warm-up firing baselines are captured every `snapshot->every` events,
  /// and an existing snapshot at `snapshot->path` is resumed from
  /// bit-identically.
  [[nodiscard]] ReplicationResult run_replication(
      std::uint64_t seed, double transient, double horizon,
      obs::ReplicationProbe* probe = nullptr, std::uint64_t max_events = 0,
      const SnapshotSpec* snapshot = nullptr) const;

  /// Table 1 inventory of this build.
  [[nodiscard]] const std::vector<SubmodelInfo>& submodels() const noexcept { return submodels_; }

 private:
  void build();
  void build_app_workload(const Places& pl);
  void build_master(const Places& pl);
  void build_coordination(const Places& pl);
  void build_compute_nodes(const Places& pl);
  void build_io_nodes(const Places& pl);
  void build_comp_node_failure(const Places& pl);
  void build_comp_node_recovery(const Places& pl);
  void build_io_node_failure(const Places& pl);
  void build_io_node_recovery(const Places& pl);
  void build_system_reboot(const Places& pl);
  void build_correlated_failures(const Places& pl);
  void build_useful_work(const Places& pl);

  SubmodelInfo& submodel(std::string module, std::string name, std::string comment);

  Parameters p_;
  IoTiming io_timing_;
  WorkloadProfile workload_;
  san::Model model_;
  std::vector<SubmodelInfo> submodels_;
};

}  // namespace ckptsim
