#pragma once

namespace ckptsim::snapshot {
class StateReader;
class StateWriter;
}  // namespace ckptsim::snapshot

namespace ckptsim::sim {

/// Piecewise-constant-rate integrator with impulses.
///
/// Tracks the time integral of a reward rate that changes at discrete
/// instants, plus instantaneous (possibly negative) impulse contributions —
/// exactly the accumulated-reward structure of the paper's useful_work
/// submodel.  `reset()` discards history at the end of a transient
/// warm-up period without losing the current rate.
class RateIntegral {
 public:
  /// Change the reward rate effective at time `now` (absolute sim time,
  /// must be non-decreasing across calls).
  void set_rate(double now, double rate);

  /// Add an instantaneous contribution (may be negative).
  void impulse(double amount) noexcept { integral_ += amount; }

  /// Integral value up to time `now` (flushes the running segment).
  [[nodiscard]] double value(double now) const;

  /// Current rate.
  [[nodiscard]] double rate() const noexcept { return rate_; }

  /// Forget everything accumulated before `now`; the current rate persists.
  void reset(double now);

  /// Exact accumulator state for the snapshot layer: restoring (rate,
  /// since, integral) and replaying the same rate changes reproduces
  /// value() bit-for-bit.
  void save_state(snapshot::StateWriter& w) const;
  void restore_state(snapshot::StateReader& r);

 private:
  double rate_ = 0.0;
  double since_ = 0.0;    // time the current rate became effective
  double integral_ = 0.0; // closed segments + impulses
};

}  // namespace ckptsim::sim
