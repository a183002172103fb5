#pragma once

#include <optional>

#include "src/model/parameters.h"
#include "src/sim/rng.h"

namespace ckptsim::proactive {

/// Failure predictor with tunable precision / recall and an exponential
/// lead-time distribution, driven by the *true* injected failure stream.
///
/// The predictor observes every armed independent compute failure (via
/// DesModel::on_independent_failure_armed) and decides — per failure — if
/// it is predicted (a Bernoulli(recall) trial) and how far in advance the
/// warning arrives (an exponential lead clamped so the warning never lands
/// before "now").  False alarms come from an independent Poisson process
/// whose rate is derived from precision:
///
///   rate_false = recall * rate_fail * (1 - precision) / precision
///
/// so that among all warnings issued, the expected fraction that precede a
/// genuine failure equals `precision` (precision 1 => no false alarms).
///
/// CRN contract: all three stochastic decisions draw from dedicated named
/// engine substreams ("proactive/tp", "proactive/lead", "proactive/false")
/// that no other process touches, and exactly two draws happen per armed
/// failure regardless of outcome — so prediction quality NEVER perturbs
/// the failure seed streams, and the warning sequence itself is identical
/// across every proactive policy for a fixed seed.
class FailurePredictor {
 public:
  /// `base_failure_rate` is the independent compute-failure rate used to
  /// size the false-alarm process (for trace-driven runs this is still the
  /// parametric rate implied by the MTTF — documented in DESIGN.md).
  FailurePredictor(const Parameters& params, const sim::RngPool& pool,
                   double base_failure_rate);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Called once per armed failure with the current clock and the absolute
  /// fire time.  Returns the absolute warning time when the failure is
  /// predicted (>= now, <= fire_time), or nullopt for a miss.  Always
  /// advances both streams by exactly one draw.
  [[nodiscard]] std::optional<double> predict(double now, double fire_time);

  /// Rate of the independent false-alarm Poisson process (0 when the
  /// predictor is disabled or precision == 1).
  [[nodiscard]] double false_alarm_rate() const noexcept { return false_rate_; }

  /// Next false-alarm inter-arrival draw (call only when
  /// false_alarm_rate() > 0).
  [[nodiscard]] double sample_false_alarm_gap();

 private:
  bool enabled_ = false;
  double recall_ = 0.0;
  double lead_mean_ = 0.0;
  double false_rate_ = 0.0;
  sim::Rng tp_;     ///< Bernoulli(recall) per armed failure
  sim::Rng lead_;   ///< exponential lead time per armed failure
  sim::Rng false_;  ///< false-alarm inter-arrivals
};

}  // namespace ckptsim::proactive
