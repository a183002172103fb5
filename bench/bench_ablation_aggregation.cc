// Ablation: the paper's all-nodes-as-one-unit aggregation (Sec. 4) against
// the disaggregated per-node engine, plus the spatial-correlation extension
// the paper names as future work ("We consider temporal correlations in our
// model, but not spatial").
//
// Every replication of both tables is one task on the parallel driver
// (`--jobs N`, default CKPTSIM_JOBS or the hardware thread count); results
// aggregate in replication order, so the value columns are identical for
// any job count.  The ms columns sum the per-replication wall times.
//
//   $ bench_ablation_aggregation [--quick] [--jobs N]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "src/core/thread_pool.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/nodelevel/node_level_model.h"
#include "src/report/cli.h"
#include "src/report/table.h"
#include "src/stats/summary.h"

namespace {

using namespace ckptsim;

/// One replication's output: its useful fraction, wall time and, for the
/// per-node engine, its diagnostics.
struct Replication {
  double fraction = 0.0;
  double ms = 0.0;
  stats::Summary coordination;
  std::uint64_t windows = 0;
  std::uint64_t spatial_failures = 0;
  double same_group = 0.0;
};

/// One replication to run: the engine, the machine and the seed.
struct Task {
  bool per_node = false;
  Parameters p;
  SpatialCorrelation spatial;
  std::uint64_t seed = 0;
};

Replication run_task(const Task& t, double transient, double horizon) {
  Replication r;
  const auto t0 = std::chrono::steady_clock::now();
  if (!t.per_node) {
    DesModel model(t.p, t.seed);
    r.fraction = model.run(transient, horizon).useful_fraction;
  } else {
    NodeLevelModel model(t.p, t.spatial, t.seed);
    r.fraction = model.run(transient, horizon).useful_fraction;
    r.coordination = model.coordination_latency();
    r.windows = model.spatial_windows();
    for (const auto f : model.spatial_failures_per_node()) r.spatial_failures += f;
    r.same_group = model.same_group_fraction();
  }
  r.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const report::Cli cli(argc, argv);
  const bool quick = report::quick_mode(cli);
  const std::size_t jobs = report::bench_spec(cli).exec.resolve();
  const double transient = 20.0 * units::kHour;
  const double horizon = (quick ? 400.0 : 1500.0) * units::kHour;
  const std::size_t reps = quick ? 3 : 5;
  const std::uint64_t processors[] = {2048, 8192, 32768};
  const double spatial_probabilities[] = {0.0, 0.1, 0.3, 0.5};

  // All replications of both tables, in table order: for each machine size
  // the aggregated then the per-node replications, then the spatial sweep.
  std::vector<Task> tasks;
  for (const std::uint64_t procs : processors) {
    Parameters p;
    p.num_processors = procs;
    p.mttf_node = 0.5 * units::kYear;
    for (std::size_t r = 0; r < reps; ++r) tasks.push_back({false, p, {}, 1000 + r});
    for (std::size_t r = 0; r < reps; ++r) tasks.push_back({true, p, {}, 2000 + r});
  }
  for (const double ps : spatial_probabilities) {
    Parameters p;
    p.num_processors = 8192;
    p.mttf_node = 0.5 * units::kYear;
    SpatialCorrelation spatial;
    spatial.probability = ps;
    spatial.factor = 400.0;
    spatial.window = 180.0;
    for (std::size_t r = 0; r < reps; ++r) tasks.push_back({true, p, spatial, 3000 + r});
  }
  std::vector<Replication> results(tasks.size());
  parallel_for_workers(jobs, tasks.size(), [&](std::size_t, std::size_t i) {
    results[i] = run_task(tasks[i], transient, horizon);
  });
  std::size_t next = 0;  // walks `results` in task order

  std::cout << "=== Ablation: aggregated vs per-node (disaggregated) engine ===\n"
            << "(useful-work fraction; the aggregation is valid when the columns match)\n"
            << "replications=" << reps << " horizon=" << horizon / units::kHour
            << "h jobs=" << jobs << "\n\n";

  report::Table table({"processors", "aggregated", "per-node", "|diff|",
                       "agg ms", "node ms", "mean coord (node, s)"});
  for (const std::uint64_t procs : processors) {
    stats::Summary agg, node, coord;
    double agg_ms = 0.0, node_ms = 0.0;
    for (std::size_t r = 0; r < reps; ++r, ++next) {
      agg.add(results[next].fraction);
      agg_ms += results[next].ms;
    }
    for (std::size_t r = 0; r < reps; ++r, ++next) {
      node.add(results[next].fraction);
      node_ms += results[next].ms;
      coord.merge(results[next].coordination);
    }
    table.add_row(
        {report::Table::integer(static_cast<double>(procs)),
         report::Table::num(agg.mean(), 4), report::Table::num(node.mean(), 4),
         report::Table::num(std::abs(agg.mean() - node.mean()), 4),
         report::Table::integer(agg_ms), report::Table::integer(node_ms),
         report::Table::num(coord.mean(), 1)});
  }
  std::cout << table.render() << "\n";

  Parameters spatial_machine;
  spatial_machine.num_processors = 8192;
  std::cout << "=== Extension: spatially correlated failures (per-node engine only) ===\n"
            << "(burst probability p_s, per-node factor 400, 3-min window; 8192 procs,\n"
            << " MTTF 0.5 yr — clustering fraction baseline = 1/io_nodes = "
            << report::Table::num(1.0 / static_cast<double>(spatial_machine.io_nodes()), 4)
            << ")\n\n";
  report::Table spatial_table({"p_spatial", "useful fraction", "windows", "spatial failures",
                               "same-group fraction"});
  for (const double ps : spatial_probabilities) {
    stats::Summary fraction;
    std::uint64_t windows = 0;
    std::uint64_t spatial_failures = 0;
    double cluster = 0.0;
    for (std::size_t r = 0; r < reps; ++r, ++next) {
      fraction.add(results[next].fraction);
      windows += results[next].windows;
      spatial_failures += results[next].spatial_failures;
      cluster += results[next].same_group;
    }
    spatial_table.add_row({report::Table::num(ps, 2), report::Table::num(fraction.mean(), 4),
                           report::Table::integer(static_cast<double>(windows)),
                           report::Table::integer(static_cast<double>(spatial_failures)),
                           report::Table::num(cluster / static_cast<double>(reps), 4)});
  }
  std::cout << spatial_table.render() << "\n";
  std::cout << "reading: spatial bursts cluster failures strongly (same-group fraction)\n"
               "but cost little useful work — like the paper's temporal propagation\n"
               "windows (Fig. 7), most burst failures land inside one recovery.\n";
  return 0;
}
