#include "src/proactive/predictor.h"

namespace ckptsim::proactive {

FailurePredictor::FailurePredictor(const Parameters& params, const sim::RngPool& pool,
                                   double base_failure_rate)
    : enabled_(params.predictor_enabled),
      recall_(params.predictor_recall),
      lead_mean_(params.predictor_lead_time),
      tp_(pool.stream("proactive/tp")),
      lead_(pool.stream("proactive/lead")),
      false_(pool.stream("proactive/false")) {
  if (enabled_ && params.predictor_precision < 1.0 && base_failure_rate > 0.0) {
    false_rate_ = recall_ * base_failure_rate * (1.0 - params.predictor_precision) /
                  params.predictor_precision;
  }
}

std::optional<double> FailurePredictor::predict(double now, double fire_time) {
  if (!enabled_) return std::nullopt;
  // Both draws happen unconditionally: the stream positions after k armed
  // failures depend only on k, never on hit/miss outcomes, so prediction
  // trajectories are a pure function of the (policy-invariant) failure
  // arming sequence.
  const bool hit = tp_.bernoulli(recall_);
  const double lead = lead_mean_ > 0.0 ? lead_.exponential_mean(lead_mean_) : 0.0;
  if (!hit) return std::nullopt;
  const double warn = fire_time - lead;
  return warn > now ? warn : now;
}

double FailurePredictor::sample_false_alarm_gap() {
  return false_.exponential_rate(false_rate_);
}

}  // namespace ckptsim::proactive
