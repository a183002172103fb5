// paper_figures: regenerate the sweeps behind the 12 committed paper CSVs
// (fig4a-fig4h, fig5-fig8) in process, with the series, axes and
// full-fidelity RunSpec of bench/bench_fig*.cc.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "src/report/table.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ckptsim::CoordinationMode;
using ckptsim::Parameters;
using ckptsim::report::Table;
namespace units = ckptsim::units;

/// The seed the committed CSVs were generated with.
constexpr std::uint64_t kCommittedSeed = 42;

/// A point of another seed agrees with the committed one when the means
/// differ by at most kTolSigma combined CI half-widths plus kTolAbs.
constexpr double kTolSigma = 4.0;
constexpr double kTolAbs = 0.005;

struct Series {
  std::string label;
  Parameters params;
};

struct Figure {
  std::string id;
  std::vector<double> xs;
  std::vector<Series> series;
  std::function<Parameters(Parameters, double)> apply;
  std::function<std::string(double)> format_x;
};

Parameters set_processors(Parameters p, double procs) {
  p.num_processors = static_cast<std::uint64_t>(procs);
  return p;
}
Parameters set_interval(Parameters p, double interval) {
  p.checkpoint_interval = interval;
  return p;
}
Parameters set_nodes(Parameters p, double nodes) {
  p.num_processors = static_cast<std::uint64_t>(nodes) * p.processors_per_node;
  return p;
}
std::string integer_x(double x) { return Table::integer(x); }
std::string minutes_x(double x) { return Table::integer(x / 60.0); }

std::vector<double> interval_axis() {
  std::vector<double> xs;
  for (const double m : ckptsim::figure4_interval_axis_minutes()) xs.push_back(m * units::kMinute);
  return xs;
}

/// The 12 figures, exactly as bench/bench_fig*.cc declare them.
std::vector<Figure> paper_figures() {
  std::vector<Figure> figs;
  Parameters fixed;
  fixed.coordination = CoordinationMode::kFixedQuiesce;

  {  // fig4a: processors x MTTF
    Figure f{"fig4a", ckptsim::figure4_processor_axis(), {}, set_processors, integer_x};
    for (const double y : {0.125, 0.25, 0.5, 1.0, 2.0}) {
      Parameters p = fixed;
      p.mttf_node = y * units::kYear;
      f.series.push_back({"MTTF(yrs)=" + Table::num(y, 3), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig4b: interval x processors
    Figure f{"fig4b", interval_axis(), {}, set_interval, minutes_x};
    for (const double n : ckptsim::figure4_processor_axis()) {
      Parameters p = fixed;
      p.num_processors = static_cast<std::uint64_t>(n);
      f.series.push_back({"procs=" + Table::integer(n), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig4c: processors x MTTR
    Figure f{"fig4c", ckptsim::figure4_processor_axis(), {}, set_processors, integer_x};
    for (const double m : {10.0, 20.0, 40.0, 80.0}) {
      Parameters p = fixed;
      p.mttr_compute = m * units::kMinute;
      f.series.push_back({"MTTR(min)=" + Table::integer(m), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig4d: interval x MTTR at 64K
    Figure f{"fig4d", interval_axis(), {}, set_interval, minutes_x};
    for (const double m : {10.0, 20.0, 40.0, 80.0}) {
      Parameters p = fixed;
      p.num_processors = 65536;
      p.mttr_compute = m * units::kMinute;
      f.series.push_back({"MTTR(min)=" + Table::integer(m), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig4e: processors x interval
    Figure f{"fig4e", ckptsim::figure4_processor_axis(), {}, set_processors, integer_x};
    for (const double m : ckptsim::figure4_interval_axis_minutes()) {
      Parameters p = fixed;
      p.checkpoint_interval = m * units::kMinute;
      f.series.push_back({"interval(min)=" + Table::integer(m), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig4f: interval x MTTF at 64K
    Figure f{"fig4f", interval_axis(), {}, set_interval, minutes_x};
    for (const double y : {1.0, 2.0, 4.0, 8.0, 16.0}) {
      Parameters p = fixed;
      p.num_processors = 65536;
      p.mttf_node = y * units::kYear;
      f.series.push_back({"MTTF(yrs)=" + Table::integer(y), p});
    }
    figs.push_back(std::move(f));
  }
  for (const auto& [id, ppn, nodes] :
       {std::tuple<const char*, std::uint64_t, std::vector<double>>{
            "fig4g", 32, {8192, 16384, 32768}},
        {"fig4h", 16, {8192, 16384, 32768, 65536}}}) {  // fig4g/h: nodes x MTTF
    Figure f{id, nodes, {}, set_nodes, integer_x};
    for (const double y : {1.0, 2.0}) {
      Parameters p = fixed;
      p.processors_per_node = ppn;
      p.mttf_node = y * units::kYear;
      f.series.push_back({"MTTF(yrs)=" + Table::integer(y), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig5: coordination only, processors to 2^30
    Figure f{"fig5", ckptsim::figure5_processor_axis(), {}, set_processors, integer_x};
    Parameters base;
    base.coordination = CoordinationMode::kMaxOfExponentials;
    base.compute_failures_enabled = false;
    base.io_failures_enabled = false;
    base.master_failures_enabled = false;
    base.processors_per_node = 1;
    for (const double q : {10.0, 2.0, 0.5}) {
      Parameters p = base;
      p.mttq = q;
      f.series.push_back({"MTTQ=" + Table::num(q, 1) + "s", p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig6: coordination + timeout
    Figure f{"fig6", ckptsim::figure4_processor_axis(), {}, set_processors, integer_x};
    Parameters base;
    base.mttf_node = 3.0 * units::kYear;
    base.mttq = 10.0;
    Parameters none = base;
    none.coordination = CoordinationMode::kSystemExponential;
    f.series.push_back({"no coordination", none});
    Parameters no_timeout = base;
    no_timeout.coordination = CoordinationMode::kMaxOfExponentials;
    no_timeout.timeout = 0.0;
    f.series.push_back({"no timeout", no_timeout});
    for (const double t : {120.0, 100.0, 80.0, 60.0, 40.0, 20.0}) {
      Parameters p = base;
      p.coordination = CoordinationMode::kMaxOfExponentials;
      p.timeout = t;
      f.series.push_back({"timeout=" + Table::integer(t) + "s", p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig7: correlated-failure probability at 256K
    Figure f{"fig7",
             {0.0, 0.05, 0.10, 0.15, 0.20},
             {},
             [](Parameters p, double prob) {
               p.prob_correlated = prob;
               return p;
             },
             [](double x) { return Table::num(x, 3); }};
    for (const double r : {400.0, 800.0, 1600.0}) {
      Parameters p;
      p.num_processors = 262144;
      p.mttf_node = 3.0 * units::kYear;
      p.correlated_factor = r;
      f.series.push_back({"frate_correlated_factor=" + Table::integer(r), p});
    }
    figs.push_back(std::move(f));
  }
  {  // fig8: generic correlated failures
    Figure f{"fig8", ckptsim::figure4_processor_axis(), {}, set_processors, integer_x};
    Parameters base;
    base.mttf_node = 3.0 * units::kYear;
    f.series.push_back({"without correlated failure", base});
    Parameters corr = base;
    corr.generic_correlated_coefficient = 0.0025;
    corr.correlated_factor = 400.0;
    f.series.push_back({"with correlated failure", corr});
    figs.push_back(std::move(f));
  }
  return figs;
}

/// One CSV row as bench/fig_common.h writes it.
std::string csv_row(const Figure& f, const std::string& label, double x,
                    const ckptsim::RunResult& r) {
  return f.id + "," + label + "," + f.format_x(x) + "," + Table::num(r.useful_fraction.mean, 6) +
         "," + Table::num(r.useful_fraction.half_width, 6) + "," +
         Table::num(r.total_useful_work, 1);
}

/// Data lines of the committed CSV `<id>.csv`, in order.
std::vector<std::string> load_reference(const std::string& id) {
  std::ifstream in(id + ".csv");
  if (!in) throw std::runtime_error("cannot read committed " + id + ".csv");
  std::vector<std::string> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

/// Columns 4 and 5 (useful_fraction, ci_half_width) of a CSV row.
std::pair<double, double> mean_and_half_width(const std::string& row) {
  std::vector<std::string> cols;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= row.size(); ++i) {
    if (i == row.size() || row[i] == ',') {
      cols.push_back(row.substr(start, i - start));
      start = i + 1;
    }
  }
  if (cols.size() != 6) throw std::runtime_error("malformed CSV row: " + row);
  return {std::stod(cols[3]), std::stod(cols[4])};
}

struct Inputs {
  std::vector<Figure> figures;
  std::vector<std::vector<std::string>> refs;  ///< committed rows per figure
  ckptsim::RunSpec spec;
  std::size_t points = 0;
};

}  // namespace

Outcome run_paper_figures(const Options& o) {
  Outcome out;
  Inputs in;
  const auto setup = [&] {
    in = Inputs{};
    in.figures = paper_figures();
    for (const Figure& f : in.figures) {
      in.refs.push_back(load_reference(f.id));
      in.points += f.xs.size() * f.series.size();
    }
    in.spec.seed = o.seed;  // full fidelity: RunSpec defaults, as bench_spec gives them
    in.spec.exec.jobs = cpu_count();
    const ckptsim::RunSpec warm = warm_up_spec(in.spec);
    for (const Figure& f : in.figures) {
      for (const Series& s : f.series) (void)ckptsim::sweep(s.label, s.params, f.xs, f.apply, warm);
    }
  };

  // Every pass's rows are checked against the committed CSVs: at the
  // committed seed byte for byte, at any other within the tolerance.
  double worst = 0.0;  // largest |mean - committed| as a share of its tolerance
  std::string worst_row;
  const auto check = [&](std::size_t fi, const std::vector<std::string>& rows) {
    const std::vector<std::string>& ref = in.refs[fi];
    const std::string& id = in.figures[fi].id;
    if (rows.size() != ref.size()) {
      out.fail(id + ": " + std::to_string(rows.size()) + " rows, committed CSV has " +
               std::to_string(ref.size()));
      return;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (o.seed == kCommittedSeed) {
        if (rows[i] != ref[i]) out.fail(id + ": row differs: " + rows[i] + " vs " + ref[i]);
        continue;
      }
      const auto [m, hw] = mean_and_half_width(rows[i]);
      const auto [rm, rhw] = mean_and_half_width(ref[i]);
      const double tol = kTolSigma * std::sqrt(hw * hw + rhw * rhw) + kTolAbs;
      if (std::abs(m - rm) / tol >= worst) {
        worst = std::abs(m - rm) / tol;
        worst_row = rows[i];
      }
      if (!(std::abs(m - rm) <= tol)) {
        out.fail(id + ": " + rows[i] + " is outside " + std::to_string(tol) +
                 " of the committed mean " + ref[i]);
      }
    }
  };

  std::vector<double> op_seconds;
  const Passes passes = run_passes(o, setup, [&](bool traced) {
    for (std::size_t fi = 0; fi < in.figures.size(); ++fi) {
      const Figure& f = in.figures[fi];
      std::vector<ckptsim::SweepSeries> results;
      for (const Series& s : f.series) {
        Tracer::begin_op();
        out.attempted += f.xs.size() * in.spec.replications;
        const Clock::time_point t0 = Clock::now();
        {
          const Scope span("core", "sweep");
          results.push_back(ckptsim::sweep(s.label, s.params, f.xs, f.apply, in.spec));
        }
        if (!traced) op_seconds.push_back(seconds_since(t0));
      }
      // In CSV order: x outer, series inner.
      std::vector<std::string> rows;
      for (std::size_t i = 0; i < f.xs.size(); ++i) {
        for (const auto& r : results) {
          const ckptsim::RunResult& res = r.points[i].result;
          out.failed += in.spec.replications - res.replications;
          rows.push_back(csv_row(f, r.label, f.xs[i], res));
        }
      }
      check(fi, rows);
    }
  });

  if (o.seed == kCommittedSeed) {
    std::printf("paper_figures: every row compared byte for byte with the committed CSVs\n");
  } else {
    std::printf("paper_figures: worst point uses %.2f of its tolerance (%s)\n", worst,
                worst_row.c_str());
  }
  std::size_t series = 0;
  for (const Figure& f : in.figures) series += f.series.size();
  if (o.trace) {
    finish_traced_run(out, o, "paper_figures", passes);
  } else {
    add_end_to_end_metrics(out, passes, sum_of_op_medians(op_seconds, series),
                           static_cast<double>(series),
                           static_cast<double>(in.points * in.spec.replications), op_seconds);
  }
  return out;
}

}  // namespace perfbench
