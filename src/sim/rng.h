#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace ckptsim::snapshot {
class StateReader;
class StateWriter;
}  // namespace ckptsim::snapshot

namespace ckptsim::sim {

/// Deterministic pseudo-random stream (wraps a 64-bit Mersenne twister).
///
/// Streams are created from a `RngPool` so that each stochastic process in a
/// model (failures, quiesce times, recovery, ...) draws from its own
/// substream.  Two runs with the same pool seed and the same stream names
/// produce identical samples regardless of the interleaving of draws across
/// streams — the property that makes regression tests and paired
/// (common-random-number) comparisons reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Clamp a raw uniform draw strictly below 1.0.  libstdc++'s
  /// generate_canonical (and hence uniform_real_distribution) can round up
  /// to exactly 1.0 (LWG 2524); a 1.0 reaching the inverse-CDF samplers
  /// produces log(0) in Weibull::sample and inf/NaN latencies in
  /// MaxOfExponentials/HyperExponential.  Clamping the *result* (rather
  /// than redrawing) consumes the same engine state, so every
  /// non-pathological stream stays bit-identical.
  [[nodiscard]] static double clamp_unit(double u) noexcept {
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  /// Uniform double in [0, 1).
  double uniform() { return clamp_unit(unit_(engine_)); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Exponential sample with the given mean (NOT rate). mean must be > 0.
  double exponential_mean(double mean);

  /// Exponential sample with the given rate. rate must be > 0.
  double exponential_rate(double rate) { return exponential_mean(1.0 / rate); }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

  /// Underlying engine access for std:: distributions.
  std::mt19937_64& engine() noexcept { return engine_; }

  /// Serialize / restore the exact stream position (the mt19937_64 state
  /// via its standard textual representation, so a restored stream draws
  /// the same tail bit-for-bit).  The uniform distribution adaptor is reset
  /// on restore, making the pair portable across library implementations
  /// that cache entropy in the distribution object.
  void save_state(snapshot::StateWriter& w) const;
  void restore_state(snapshot::StateReader& r);

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Factory for named, independent `Rng` streams derived from one master seed.
///
/// `stream("failures")` always yields the same substream for a given master
/// seed; distinct names yield statistically independent substreams
/// (seed = SplitMix64(master_seed XOR FNV1a(name))).
class RngPool {
 public:
  explicit RngPool(std::uint64_t master_seed) : master_seed_(master_seed) {}

  /// Create the substream for `name` (optionally disambiguated by `index`,
  /// e.g. one stream per replication).
  [[nodiscard]] Rng stream(std::string_view name, std::uint64_t index = 0) const;

  /// Derive the substream seed without constructing the Rng.
  [[nodiscard]] std::uint64_t stream_seed(std::string_view name, std::uint64_t index = 0) const;

  [[nodiscard]] std::uint64_t master_seed() const noexcept { return master_seed_; }

 private:
  std::uint64_t master_seed_;
};

/// Exponential inverse-CDF transform of one unit-interval draw: the exact
/// arithmetic Rng::exponential_mean applies to uniform(), factored out so
/// batched samplers transforming pre-drawn uniforms stay bit-identical to
/// the draw-and-transform path.
[[nodiscard]] inline double exponential_from_unit(double unit, double mean) noexcept {
  // Inversion on (0,1]: avoid log(0) by flipping the uniform.
  const double u = 1.0 - unit;
  return -mean * std::log(u);
}

/// SplitMix64 finalizer — good avalanche properties, used for seed derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// The per-replication seed every multi-replication driver must use.
/// Shared by the DES and SAN engines (and the parallel dispatch) so the two
/// engines can never silently diverge on seeding, and so replication r's
/// stream depends only on (master, r) — not on scheduling or thread count.
[[nodiscard]] inline std::uint64_t replication_seed(std::uint64_t master,
                                                    std::uint64_t rep) noexcept {
  return splitmix64(master ^ splitmix64(0xC4E1ULL + rep));
}

/// Extension of the replication stream for retry attempts: attempt 0 is
/// exactly `replication_seed(master, rep)` (the canonical stream every
/// driver uses), and attempt a > 0 derives a fresh, statistically
/// independent substream from (master, rep, a).  The retry policy reseeds
/// only failures that are deterministic in (params, seed) — see
/// ckptsim::error_is_deterministic — so transient failures retried with
/// attempt 0's seed reproduce a clean run bit-identically.
[[nodiscard]] inline std::uint64_t replication_attempt_seed(std::uint64_t master,
                                                            std::uint64_t rep,
                                                            std::uint64_t attempt) noexcept {
  const std::uint64_t base = replication_seed(master, rep);
  if (attempt == 0) return base;
  return splitmix64(base ^ splitmix64(0x7E7BULL + attempt));
}

/// FNV-1a 64-bit hash of a string.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

}  // namespace ckptsim::sim
