// san_engine: the paper model on the SAN executor (EngineKind::kSan) at
// full fidelity -- the six configurations of tests/test_cross_engine.cc and
// the Fig. 4a MTTF = 1 yr processor axis -- checked against the DES engine.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ckptsim::CoordinationMode;
using ckptsim::Parameters;
namespace units = ckptsim::units;

constexpr double kCiFactor = 1.5;

struct Point {
  std::string label;
  Parameters params;
  double tolerance = 0.0;  ///< |SAN - DES| bound on the useful-work fraction
};

/// Tolerances are tests/test_cross_engine.cc's.  Those were set for one
/// seed; at other seeds a noisy point (the timeout one: fraction ~0.21,
/// CI half-width up to 0.037 at 5 replications) also passes when the two
/// engines agree within kCiFactor combined CI half-widths.
std::vector<Point> san_points() {
  std::vector<Point> pts;
  {
    Parameters p;
    p.compute_failures_enabled = false;
    p.io_failures_enabled = false;
    p.master_failures_enabled = false;
    pts.push_back({"coordination-only", p, 0.005});
  }
  {
    Parameters p;
    p.num_processors = 131072;
    p.coordination = CoordinationMode::kFixedQuiesce;
    p.io_failures_enabled = false;
    p.master_failures_enabled = false;
    pts.push_back({"base model 128K", p, 0.03});
  }
  pts.push_back({"full defaults 64K", Parameters{}, 0.03});
  {
    Parameters p;
    p.num_processors = 65536;
    p.mttf_node = 3.0 * units::kYear;
    p.timeout = 100.0;
    pts.push_back({"timeout 100s", p, 0.03});
  }
  {
    Parameters p;
    p.num_processors = 131072;
    p.mttf_node = 3.0 * units::kYear;
    p.generic_correlated_coefficient = 0.0025;
    p.correlated_factor = 400.0;
    p.io_failures_enabled = false;
    p.master_failures_enabled = false;
    pts.push_back({"generic correlated", p, 0.04});
  }
  {
    Parameters p;
    p.num_processors = 262144;
    p.mttf_node = 3.0 * units::kYear;
    p.prob_correlated = 0.2;
    p.correlated_factor = 800.0;
    p.io_failures_enabled = false;
    p.master_failures_enabled = false;
    pts.push_back({"propagation windows", p, 0.03});
  }
  for (const double n : ckptsim::figure4_processor_axis()) {  // Fig. 4a, MTTF = 1 yr
    Parameters p;
    p.coordination = CoordinationMode::kFixedQuiesce;
    p.mttf_node = 1.0 * units::kYear;
    p.num_processors = static_cast<std::uint64_t>(n);
    pts.push_back({"fig4a MTTF=1 procs=" + std::to_string(p.num_processors), p, 0.03});
  }
  return pts;
}

}  // namespace

Outcome run_san_engine(const Options& o) {
  Outcome out;
  std::vector<Point> points;
  ckptsim::RunSpec spec;
  const auto setup = [&] {
    points = san_points();
    for (const Point& pt : points) pt.params.validate();
    spec = ckptsim::RunSpec{};
    spec.seed = o.seed;
    spec.exec.jobs = cpu_count();
    const ckptsim::RunSpec warm = warm_up_spec(spec, 4.0 * kWarmUpHorizon);
    for (const Point& pt : points) (void)ckptsim::run_model(pt.params, warm, ckptsim::EngineKind::kSan);
  };

  // The first pass's results; every later pass must reproduce them
  // exactly (same seed, same inputs), so the DES comparison below covers
  // every pass.
  std::vector<ckptsim::stats::ConfidenceInterval> fractions;
  std::vector<double> op_seconds;
  const Passes passes = run_passes(o, setup, [&](bool traced) {
    const bool first = fractions.empty();
    for (std::size_t i = 0; i < points.size(); ++i) {
      Tracer::begin_op();
      out.attempted += spec.replications;
      const Clock::time_point t0 = Clock::now();
      ckptsim::RunResult r;
      {
        const Scope span("core", "run_model");
        r = ckptsim::run_model(points[i].params, spec, ckptsim::EngineKind::kSan);
      }
      if (!traced) op_seconds.push_back(seconds_since(t0));
      out.failed += spec.replications - r.replications;
      if (first) {
        fractions.push_back(r.useful_fraction);
      } else if (r.useful_fraction.mean != fractions[i].mean ||
                 r.useful_fraction.half_width != fractions[i].half_width) {
        out.fail(points[i].label + ": SAN result differs between passes");
      }
    }
  });

  // The DES comparison runs once, after the timed phase.
  double worst = 0.0;  // largest |SAN - DES| as a share of its tolerance
  std::string worst_label;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ckptsim::stats::ConfidenceInterval des =
        ckptsim::run_model(points[i].params, spec).useful_fraction;
    const ckptsim::stats::ConfidenceInterval& san = fractions[i];
    const double diff = std::abs(des.mean - san.mean);
    const double tol = std::max(points[i].tolerance,
                                kCiFactor * std::hypot(des.half_width, san.half_width));
    if (diff / tol >= worst) {
      worst = diff / tol;
      worst_label = points[i].label;
    }
    if (!(diff <= tol)) {
      out.fail(points[i].label + ": SAN " + std::to_string(san.mean) + " vs DES " +
               std::to_string(des.mean) + " differ by more than " + std::to_string(tol));
    }
  }

  std::printf("san_engine: worst point (%s) uses %.2f of its DES tolerance\n", worst_label.c_str(),
              worst);
  if (o.trace) {
    finish_traced_run(out, o, "san_engine", passes);
  } else {
    add_end_to_end_metrics(out, passes, sum_of_op_medians(op_seconds, points.size()),
                           static_cast<double>(points.size()),
                           static_cast<double>(points.size() * spec.replications), op_seconds);
  }
  return out;
}

}  // namespace perfbench
