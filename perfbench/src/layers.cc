// The per-layer suite of the traced run: each module's public functions
// called directly under spans, with the counts taken at the same
// boundaries.  The README's layer table says which end-to-end metric each
// number should move.

#include <filesystem>
#include <string>
#include <vector>

#include "service_loop.h"
#include "src/core/journal.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/model/san_model.h"
#include "src/san/executor.h"
#include "src/sim/distributions.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/svc/cache.h"
#include "src/svc/protocol.h"
#include "variants.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ckptsim::Parameters;

/// Seconds per call of `fn`, the median of `rounds` timed batches of
/// `calls` calls each.
template <class Fn>
double per_call(std::size_t rounds, std::size_t calls, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    t.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(t);
}

volatile double g_sink = 0.0;  // keeps measured results alive

/// A hold-model event: firing schedules its successor, so the live count
/// stays where the queue was filled to.
struct Hold {
  ckptsim::sim::EventQueue* q;
  ckptsim::sim::Rng* rng;
  void operator()() const { q->schedule_in(rng->exponential_mean(1.0), Hold{q, rng}); }
};

void sim_layer(Outcome& out, std::uint64_t seed, std::size_t live_events) {
  ckptsim::sim::Rng rng(seed);
  {
    const Scope span("sim", "Rng::exponential_mean");
    out.add("sim.rng_exponential_ns",
            1e9 * per_call(5, 400000, [&](std::size_t) { g_sink = g_sink + rng.exponential_mean(3.0); }),
            "ns");
  }
  {
    const Parameters p;  // 256K processors, the paper's largest axis point
    const ckptsim::sim::MaxOfExponentials max_of_n(262144, p.mttq);
    const Scope span("sim", "MaxOfExponentials::sample");
    out.add("sim.max_of_n_sample_ns",
            1e9 * per_call(5, 200000, [&](std::size_t) { g_sink = g_sink + max_of_n.sample(rng); }),
            "ns");
  }
  {
    ckptsim::sim::EventQueue q;
    for (std::size_t i = 0; i < live_events; ++i) q.schedule(rng.exponential_mean(1.0), Hold{&q, &rng});
    const Scope span("sim", "EventQueue::step");
    const double s = per_call(5, 400000, [&](std::size_t) { q.step(); });
    out.add("sim.event_queue_events_per_s", 1.0 / s, "1/s");
  }
  {
    ckptsim::sim::EventQueue q;
    for (std::size_t i = 0; i < live_events; ++i) q.schedule(rng.exponential_mean(1.0), Hold{&q, &rng});
    std::vector<ckptsim::sim::EventHandle> handles(1000);
    std::vector<double> t;
    const Scope span("sim", "EventQueue::cancel");
    for (int round = 0; round < 200; ++round) {
      for (auto& h : handles) h = q.schedule(q.now() + rng.exponential_mean(1.0), Hold{&q, &rng});
      const Clock::time_point t0 = Clock::now();
      for (auto& h : handles) q.cancel(h);
      t.push_back(seconds_since(t0) / static_cast<double>(handles.size()));
      q.step();
    }
    out.add("sim.event_queue_cancel_ns", 1e9 * median(t), "ns");
  }
}

/// Returns the DES's peak live-event count, which sizes the queue bench.
std::size_t model_layer(Outcome& out, std::uint64_t seed, const ckptsim::RunSpec& spec) {
  const Parameters p;  // the full model at its defaults
  {
    const Scope span("model", "DesModel::DesModel");
    out.add("model.des_construct_us", 1e6 * per_call(5, 200, [&](std::size_t i) {
              const ckptsim::DesModel m(p, seed + i);
              g_sink = g_sink + static_cast<double>(m.queue_stats().scheduled);
            }),
            "us");
  }
  std::vector<double> run_s;
  std::vector<double> events;
  std::vector<double> allocs;
  std::size_t peak = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    ckptsim::DesModel m(p, ckptsim::sim::replication_seed(seed, r));
    const std::uint64_t a0 = allocations();
    const Clock::time_point t0 = Clock::now();
    {
      const Scope span("model", "DesModel::run");
      g_sink = g_sink + m.run(spec.transient, spec.horizon).useful_fraction;
    }
    run_s.push_back(seconds_since(t0));
    allocs.push_back(static_cast<double>(allocations() - a0));
    events.push_back(static_cast<double>(m.queue_stats().fired));
    peak = std::max(peak, m.queue_stats().peak_size);
  }
  out.add("model.des_run_ms", 1e3 * median(run_s), "ms");
  out.add("model.des_events_per_rep", events.front(), "count");
  double total_events = 0.0;
  double total_s = 0.0;
  for (std::size_t r = 0; r < run_s.size(); ++r) {
    total_events += events[r];
    total_s += run_s[r];
  }
  out.add("model.des_events_per_s", total_events / total_s, "1/s");
  out.add("model.des_allocs_per_event", allocs.front() / events.front(), "count");
  return std::max<std::size_t>(peak, 1);
}

void san_layer(Outcome& out, std::uint64_t seed, const ckptsim::RunSpec& spec) {
  const Parameters p;
  const ckptsim::SanCheckpointModel model(p);
  std::vector<double> rep_s;
  for (std::size_t r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    const Scope span("san", "SanCheckpointModel::run_replication");
    g_sink = g_sink + model.run_replication(ckptsim::sim::replication_seed(seed, r), spec.transient,
                                            spec.horizon)
                          .useful_fraction;
    rep_s.push_back(seconds_since(t0));
  }
  out.add("san.replication_ms", 1e3 * median(rep_s), "ms");

  ckptsim::san::Executor exec(model.model(), ckptsim::sim::replication_seed(seed, 0));
  for (const auto& r : model.rate_rewards()) exec.rewards().add_rate(r);
  for (const auto& r : model.impulse_rewards()) exec.rewards().add_impulse(r);
  const Clock::time_point t0 = Clock::now();
  {
    const Scope span("san", "Executor::run_until");
    exec.run_until(spec.transient + spec.horizon);
  }
  const double s = seconds_since(t0);
  const auto events = static_cast<double>(exec.queue_stats().fired);
  out.add("san.events_per_s", events / s, "1/s");
  out.add("san.firings_per_event", static_cast<double>(exec.total_firings()) / events, "ratio");
  out.add("san.aborts_per_event", static_cast<double>(exec.total_aborts()) / events, "ratio");
  out.add("san.enabling_evals_per_event", static_cast<double>(exec.enabling_evaluations()) / events,
          "ratio");
}

void core_layer(Outcome& out, const Options& o, const ckptsim::RunSpec& spec) {
  // One Fig. 4a series (MTTF = 1 yr) through the parallel driver, then
  // every replication replayed on this thread alone.
  Parameters base;
  base.coordination = ckptsim::CoordinationMode::kFixedQuiesce;
  const std::vector<double> xs = ckptsim::figure4_processor_axis();
  const auto apply = [](Parameters p, double n) {
    p.num_processors = static_cast<std::uint64_t>(n);
    return p;
  };
  const Clock::time_point t0 = Clock::now();
  {
    const Scope span("core", "sweep");
    g_sink = g_sink + ckptsim::sweep("core layer", base, xs, apply, spec).points.size();
  }
  const double wall = seconds_since(t0);
  out.add("core.sweep_point_ms", 1e3 * wall / static_cast<double>(xs.size()), "ms");

  double serial = 0.0;
  std::vector<double> straggler;
  std::vector<ckptsim::ReplicationResult> reps;
  for (const double x : xs) {
    const Parameters p = apply(base, x);
    std::vector<double> rep_s;
    reps.clear();
    for (std::size_t r = 0; r < spec.replications; ++r) {
      const Clock::time_point r0 = Clock::now();
      const Scope span("core", "run_replication");
      reps.push_back(ckptsim::run_replication(p, ckptsim::EngineKind::kDes,
                                              ckptsim::sim::replication_seed(spec.seed, r),
                                              spec.transient, spec.horizon));
      rep_s.push_back(seconds_since(r0));
    }
    for (const double s : rep_s) serial += s;
    straggler.push_back(percentile(rep_s, 100.0).value / median(rep_s));
  }
  out.add("core.parallel_efficiency",
          serial / (wall * static_cast<double>(spec.exec.jobs)), "ratio");
  out.add("core.straggler_ratio", median(straggler), "ratio");
  {
    const Parameters p = apply(base, xs.back());
    const Scope span("core", "aggregate_replications");
    out.add("core.aggregate_us", 1e6 * per_call(5, 2000, [&](std::size_t) {
              g_sink = g_sink + ckptsim::aggregate_replications(reps, spec.confidence_level, p)
                                    .useful_fraction.mean;
            }),
            "us");
  }

  // Journal append + fsync, on a scratch file in the output directory.
  const std::string path =
      (o.out_dir.empty() ? std::string(".") : o.out_dir) + "/journal_layer.jsonl";
  std::filesystem::remove(path);
  {
    ckptsim::SweepJournal journal(path);
    const ckptsim::RunResult r = ckptsim::aggregate_replications(reps, spec.confidence_level, base);
    std::vector<double> t;
    const Scope span("core", "SweepJournal::record");
    for (std::uint64_t i = 0; i < 40; ++i) {
      const Clock::time_point r0 = Clock::now();
      journal.record(0x9e3779b97f4a7c15ULL * (i + 1), static_cast<double>(i), r);
      t.push_back(seconds_since(r0));
    }
    out.add("core.journal_record_us_p50", 1e6 * percentile(t, 50.0).value, "us");
    out.add("core.journal_record_us_p90", 1e6 * percentile(t, 90.0).value, "us");
  }
  std::filesystem::remove(path);
}

void svc_layer(Outcome& out, std::uint64_t seed) {
  ServiceFixture fixture(seed);
  std::vector<double> hit_call;
  for (long k = 0; k < static_cast<long>(kPrefilledKeys); ++k) {
    hit_call.push_back(send_and_wait(fixture.server(), fixture.request(k, 0)).done);
  }
  out.add("svc.handle_line_hit_us", 1e6 * median(hit_call), "us");

  const std::string line = fixture.request(0, 0);
  ckptsim::svc::Request req;
  std::string error;
  {
    const Scope span("svc", "parse_request");
    out.add("svc.parse_request_us", 1e6 * per_call(5, 400, [&](std::size_t) {
              if (!ckptsim::svc::parse_request(line, &req, &error)) {
                out.fail("parse_request rejected a benchmark line: " + error);
              }
            }),
            "us");
  }
  const Parameters point = ckptsim::svc::apply_axis(req.axis, req.params, req.values.front());
  {
    const Scope span("core", "journal_fingerprint");
    out.add("svc.fingerprint_us", 1e6 * per_call(5, 400, [&](std::size_t i) {
              g_sink = g_sink + static_cast<double>(ckptsim::journal_fingerprint(
                                    req.label, point, req.spec, req.engine,
                                    req.values.front() + static_cast<double>(i)));
            }),
            "us");
  }
  const ckptsim::RunResult result = ckptsim::run_model(point, req.spec);
  {
    ckptsim::svc::ResultCache cache("");
    std::uint64_t next_key = 1;
    {
      const Scope span("svc", "ResultCache::insert");
      out.add("svc.cache_insert_us", 1e6 * per_call(5, 1000, [&](std::size_t) {
                cache.insert(0x9e3779b97f4a7c15ULL * next_key++, 1.0, result);
              }),
              "us");
    }
    ckptsim::RunResult found;
    const Scope span("svc", "ResultCache::lookup");
    out.add("svc.cache_lookup_us", 1e6 * per_call(5, 1000, [&](std::size_t i) {
              if (!cache.lookup(0x9e3779b97f4a7c15ULL * (1 + i), &found)) {
                out.fail("ResultCache lost an inserted key");
              }
            }),
            "us");
  }
  {
    const Scope span("svc", "response_point");
    out.add("svc.encode_point_us", 1e6 * per_call(5, 1000, [&](std::size_t) {
              g_sink = g_sink + static_cast<double>(
                                    ckptsim::svc::response_point("r1", 15.0, true, result).size());
            }),
            "us");
  }

  // The service_mixed traffic itself.
  const std::vector<RequestRecord> loop = fixture.run(1000);
  std::vector<double> hit;
  std::vector<double> miss;
  std::vector<double> accept;
  std::vector<double> first_point;
  std::vector<double> tail;
  for (const RequestRecord& r : loop) {
    if (!r.clean) out.fail("svc layer: unclean response stream");
    if (r.expect_hit) {
      hit.push_back(r.done);
      continue;
    }
    miss.push_back(r.done);
    accept.push_back(r.accepted);
    first_point.push_back(r.first_point);
    tail.push_back(r.done - r.last_point);
  }
  out.add("svc.accept_us", 1e6 * median(accept), "us");
  out.add("svc.miss_first_point_ms", 1e3 * median(first_point), "ms");
  out.add("svc.miss_last_point_to_done_us", 1e6 * median(tail), "us");
  const auto counters = fixture.server().metrics().service().snapshot();
  out.add("svc.cache_hit_ratio",
          static_cast<double>(counters.cache_hits) /
              static_cast<double>(counters.cache_hits + counters.cache_misses),
          "ratio");
  for (const double p : {50.0, 90.0, 99.0}) {
    const Quantile h = percentile(hit, p);
    const Quantile m = percentile(miss, p);
    const std::string suffix = "_p" + std::to_string(static_cast<int>(p));
    out.add("svc.hit_latency" + suffix + "_us", 1e6 * h.value, "us");
    out.add("svc.miss_latency" + suffix + "_ms", 1e3 * m.value, "ms");
  }
  out.add("svc.hit_latency_samples", static_cast<double>(hit.size()), "count");
  out.add("svc.miss_latency_samples", static_cast<double>(miss.size()), "count");
}

void variant_layers(Outcome& out, std::uint64_t seed) {
  const VariantInputs in = make_variant_inputs(seed, cpu_count());
  ckptsim::obs::Metrics metrics(cpu_count());
  const VariantPass pass = run_variant_pass(in, &metrics);
  check_variant_pass(pass, out);
  double node_ns_per_event[2] = {0.0, 0.0};
  double sums[3][2] = {};  // nodelevel / platform / proactive: seconds, events
  std::size_t node = 0;
  for (const VariantOp& op : pass.ops) {
    const double ms = 1e3 * op.seconds;
    if (op.layer == "nodelevel") {
      out.add(node == 0 ? "nodelevel.run_ms_8k" : "nodelevel.run_ms_32k", ms, "ms");
      node_ns_per_event[node++] = 1e9 * op.seconds / static_cast<double>(op.events);
      sums[0][0] += op.seconds;
      sums[0][1] += static_cast<double>(op.events);
    } else if (op.layer == "platform") {
      out.add("platform.interference_run_ms." + op.variant, ms, "ms");
      sums[1][0] += op.seconds;
      sums[1][1] += static_cast<double>(op.events);
    } else if (op.layer == "proactive") {
      out.add("proactive.run_ms." + op.variant, ms, "ms");
      sums[2][0] += op.seconds;
      sums[2][1] += static_cast<double>(op.events);
    } else {
      out.add("core.optimizer_candidate_ms",
              ms / static_cast<double>(pass.optimizer_candidates), "ms");
      out.add("core.optimizer_candidates", static_cast<double>(pass.optimizer_candidates),
              "count");
    }
  }
  out.add("nodelevel.events_per_s", sums[0][1] / sums[0][0], "1/s");
  out.add("nodelevel.event_cost_ratio_32k_8k", node_ns_per_event[1] / node_ns_per_event[0],
          "ratio");
  out.add("platform.events_per_s", sums[1][1] / sums[1][0], "1/s");
  out.add("proactive.events_per_s", sums[2][1] / sums[2][0], "1/s");
}

}  // namespace

void add_layer_metrics(Outcome& out, const Options& o) {
  Tracer::global().enable(true);
  Tracer::begin_op();
  ckptsim::RunSpec spec;  // full fidelity
  spec.seed = o.seed;
  spec.exec.jobs = cpu_count();
  const std::size_t live = model_layer(out, o.seed, spec);
  sim_layer(out, o.seed, live);
  san_layer(out, o.seed, spec);
  core_layer(out, o, spec);
  svc_layer(out, o.seed);
  variant_layers(out, o.seed);
  Tracer::global().enable(false);
  Tracer::set_op(0);
}

}  // namespace perfbench
