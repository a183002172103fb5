#include "src/sim/rate_integral.h"

#include <stdexcept>

#include "src/snapshot/state_io.h"

namespace ckptsim::sim {

void RateIntegral::set_rate(double now, double rate) {
  if (now < since_) throw std::invalid_argument("RateIntegral::set_rate: time went backwards");
  integral_ += rate_ * (now - since_);
  since_ = now;
  rate_ = rate;
}

double RateIntegral::value(double now) const {
  if (now < since_) throw std::invalid_argument("RateIntegral::value: time went backwards");
  return integral_ + rate_ * (now - since_);
}

void RateIntegral::reset(double now) {
  if (now < since_) throw std::invalid_argument("RateIntegral::reset: time went backwards");
  integral_ = 0.0;
  since_ = now;
}

void RateIntegral::save_state(snapshot::StateWriter& w) const {
  w.f64(rate_);
  w.f64(since_);
  w.f64(integral_);
}

void RateIntegral::restore_state(snapshot::StateReader& r) {
  rate_ = r.f64();
  since_ = r.f64();
  integral_ = r.f64();
}

}  // namespace ckptsim::sim
