#include "src/nodelevel/node_level_model.h"

#include <algorithm>
#include <stdexcept>

namespace ckptsim {

NodeLevelModel::NodeLevelModel(const Parameters& params, const SpatialCorrelation& spatial,
                               std::uint64_t seed)
    : DesModel(params, seed, kNumNodeSlots),
      spatial_(spatial),
      rng_victim_(pool_.stream("node_victim")),
      rng_quiesce_(pool_.stream("node_quiesce")),
      rng_spatial_(pool_.stream("node_spatial")),
      node_failures_(params.nodes(), 0),
      spatial_failures_(params.nodes(), 0),
      straggler_counts_(params.nodes(), 0) {
  if (spatial_.probability < 0.0 || spatial_.probability > 1.0) {
    throw std::invalid_argument("SpatialCorrelation: probability must be in [0, 1]");
  }
  if (spatial_.enabled() && !(spatial_.window > 0.0)) {
    throw std::invalid_argument("SpatialCorrelation: window must be > 0");
  }
}

void NodeLevelModel::fire_extension(std::uint32_t slot) {
  switch (slot) {
    case kSlotSpatialEnd: return on_spatial_window_end();
    case kSlotSpatialFail: return on_spatial_failure();
    default: return DesModel::fire_extension(slot);
  }
}

std::uint64_t NodeLevelModel::group_of(std::uint64_t node) const noexcept {
  return node / p_.compute_nodes_per_io_node;
}

QuiesceMax sample_quiesce_max(sim::Rng& rng, std::uint64_t nodes,
                              const sim::MaxOfExponentials& per_node) {
  // The per-node inverse CDF is increasing, so the node with the largest
  // unit draw is the node with the largest quiesce time: take the argmax
  // over the raw draws and transform only the winner.  The stream still
  // advances by exactly `nodes` draws.
  double best = -1.0;
  std::uint64_t straggler = 0;
  for (std::uint64_t node = 0; node < nodes; ++node) {
    const double u = rng.uniform();
    if (u > best) {
      best = u;
      straggler = node;
    }
  }
  return {per_node.sample_from_unit(best), straggler};
}

double NodeLevelModel::sample_coordination_time() {
  if (p_.coordination != CoordinationMode::kMaxOfExponentials) {
    return DesModel::sample_coordination_time();
  }
  // Explicit maximum over every node's quiesce time; a node's quiesce time
  // is the maximum over its processors' i.i.d. exponential times, sampled
  // directly from the closed-form per-node distribution.
  const QuiesceMax q = sample_quiesce_max(
      rng_quiesce_, p_.nodes(), sim::MaxOfExponentials(p_.processors_per_node, p_.mttq));
  ++straggler_counts_[q.straggler];
  coordination_latency_.add(q.latency);
  return q.latency;
}

void NodeLevelModel::record_victim(std::uint64_t node, bool spatial) {
  if (spatial) {
    ++spatial_failures_[node];
  } else {
    ++node_failures_[node];
  }
  const std::uint64_t group = group_of(node);
  if (last_failure_group_ != UINT64_MAX) {
    ++pair_count_;
    if (group == last_failure_group_) ++same_group_pairs_;
  }
  last_failure_group_ = group;
}

double NodeLevelModel::same_group_fraction() const noexcept {
  if (pair_count_ == 0) return 0.0;
  return static_cast<double>(same_group_pairs_) / static_cast<double>(pair_count_);
}

void NodeLevelModel::on_independent_failure() {
  const std::uint64_t victim = rng_victim_.below(p_.nodes());
  record_victim(victim, /*spatial=*/false);
  if (spatial_.enabled() && !spatial_window_active_ &&
      rng_spatial_.bernoulli(spatial_.probability)) {
    open_spatial_window(group_of(victim));
  }
}

void NodeLevelModel::open_spatial_window(std::uint64_t group) {
  ++spatial_windows_;
  spatial_window_active_ = true;
  spatial_group_ = group;
  schedule_in(kSlotSpatialEnd, spatial_.window);
  // Elevated rate for the *other* nodes of the group.
  const std::uint64_t first = group * p_.compute_nodes_per_io_node;
  const std::uint64_t size =
      std::min<std::uint64_t>(p_.compute_nodes_per_io_node, p_.nodes() - first);
  const double rate =
      spatial_.factor * static_cast<double>(size > 0 ? size - 1 : 0) / p_.mttf_node;
  if (rate > 0.0) {
    schedule_in(kSlotSpatialFail, rng_spatial_.exponential_rate(rate));
  }
}

void NodeLevelModel::on_spatial_window_end() {
  spatial_window_active_ = false;
  cancel(kSlotSpatialFail);
}

void NodeLevelModel::on_spatial_failure() {
  // Re-arm within the window.
  const std::uint64_t first = spatial_group_ * p_.compute_nodes_per_io_node;
  const std::uint64_t size =
      std::min<std::uint64_t>(p_.compute_nodes_per_io_node, p_.nodes() - first);
  const double rate =
      spatial_.factor * static_cast<double>(size > 0 ? size - 1 : 0) / p_.mttf_node;
  schedule_in(kSlotSpatialFail, rng_spatial_.exponential_rate(rate));
  const std::uint64_t victim = first + rng_spatial_.below(size);
  record_victim(victim, /*spatial=*/true);
  // Inject into the shared failure machinery as a correlated (non-
  // independent) failure: rollback / recovery-restart semantics included.
  on_compute_failure(/*independent=*/false);
}

}  // namespace ckptsim
