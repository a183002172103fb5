#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/rng.h"

namespace ckptsim::sim {

/// Abstract sampling distribution for activity/event latencies.
///
/// Implementations must be immutable after construction so a single instance
/// can be shared across activities and threads (sampling state lives in the
/// caller-provided Rng).
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draw one sample (>= 0 for all distributions in this library).
  [[nodiscard]] virtual double sample(Rng& rng) const = 0;

  /// Exact mean of the distribution.
  [[nodiscard]] virtual double mean() const = 0;

  /// Human-readable description for logs and model dumps.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Point mass at `value` — used for deterministic latencies (broadcast
/// overhead, bandwidth-determined dump/write times).
class Deterministic final : public Distribution {
 public:
  explicit Deterministic(double value);
  [[nodiscard]] double sample(Rng&) const override { return value_; }
  [[nodiscard]] double mean() const override { return value_; }
  [[nodiscard]] std::string describe() const override;

 private:
  double value_;
};

/// Exponential distribution parameterised by its mean.
class Exponential final : public Distribution {
 public:
  explicit Exponential(double mean);
  [[nodiscard]] double sample(Rng& rng) const override { return rng.exponential_mean(mean_); }
  /// Inverse-CDF transform of one unit-interval draw (the exact arithmetic
  /// sample() applies).
  [[nodiscard]] double sample_from_unit(double unit) const noexcept {
    return exponential_from_unit(unit, mean_);
  }
  [[nodiscard]] double mean() const override { return mean_; }
  [[nodiscard]] std::string describe() const override;

  /// CDF value F(x) = 1 - exp(-x/mean), 0 for x < 0.
  [[nodiscard]] double cdf(double x) const noexcept;

 private:
  double mean_;
};

/// Maximum of `n` i.i.d. exponential variables with per-variable mean
/// `per_item_mean`.  This is the paper's coordination-latency model
/// (Section 5): Y = max{X_1..X_n},  F_Y(y) = (1 - e^{-y/m})^n, sampled by
/// inversion  Y = -m * ln(1 - U^{1/n}).
///
/// Its exact mean is m * H_n (harmonic number), i.e. ~ m * ln(n) growth —
/// the logarithmic coordination cost the paper reports in Figure 5.
class MaxOfExponentials final : public Distribution {
 public:
  MaxOfExponentials(std::uint64_t n, double per_item_mean);
  [[nodiscard]] double sample(Rng& rng) const override;
  /// Inverse-CDF transform of one unit-interval draw (the exact arithmetic
  /// sample() applies to rng.uniform()).
  [[nodiscard]] double sample_from_unit(double unit) const noexcept;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] std::string describe() const override;

  /// CDF F(y) = (1 - e^{-y/m})^n, 0 for y < 0.
  [[nodiscard]] double cdf(double y) const noexcept;
  /// Quantile (inverse CDF) for p in [0, 1).
  [[nodiscard]] double quantile(double p) const;
  /// Exact harmonic-number mean m * H_n (H_n computed exactly for small n,
  /// via the asymptotic expansion for large n).
  [[nodiscard]] static double harmonic(std::uint64_t n) noexcept;

 private:
  std::uint64_t n_;
  double per_item_mean_;
};

/// Two-phase hyper-exponential: with probability `p1` sample mean `m1`,
/// otherwise mean `m2`.  Used for generic correlated-failure inter-arrival
/// semantics (Section 6: the system alternates an independent and a
/// correlated failure rate).
class HyperExponential final : public Distribution {
 public:
  HyperExponential(double p1, double mean1, double mean2);
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  double p1_, mean1_, mean2_;
};

/// Weibull distribution (shape k, scale lambda) — provided for sensitivity
/// studies on the exponential-failure assumption (ablation benches).
class Weibull final : public Distribution {
 public:
  Weibull(double shape, double scale);
  [[nodiscard]] double sample(Rng& rng) const override;
  /// Inverse-CDF transform of one unit-interval draw (the exact arithmetic
  /// sample() applies to rng.uniform()).
  [[nodiscard]] double sample_from_unit(double unit) const noexcept;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  double shape_, scale_;
};

/// Uniform distribution on [lo, hi).
class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);
  [[nodiscard]] double sample(Rng& rng) const override { return rng.uniform(lo_, hi_); }
  [[nodiscard]] double mean() const override { return 0.5 * (lo_ + hi_); }
  [[nodiscard]] std::string describe() const override;

 private:
  double lo_, hi_;
};

}  // namespace ckptsim::sim
