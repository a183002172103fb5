// google-benchmark microbenchmarks of the simulation substrates: event
// queue throughput, RNG streams, coordination-latency sampling, and
// events/second of both model engines.
//
// Invoked with --engine-json=PATH the binary instead runs a fixed engine
// harness and writes BENCH_engine.json: events/sec and firings/sec of the
// event queue, the SAN executor (incremental vs forced full-rescan
// refresh), the DES and its two variant engines (a K = 4 interference mix
// and the 32K-processor per-node model), plus heap allocations per event —
// the CI smoke step asserts them zero in steady state and amortized-small
// where construction is timed — and the DES speedup over the SAN at equal
// work (wall seconds per simulated hour of the same replications).  Every
// section repeats until it has at least 5 samples and 0.5 s of measured
// time and reports the median, minimum and IQR of its timings; rates are
// taken at the median.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/model/san_model.h"
#include "src/nodelevel/node_level_model.h"
#include "src/obs/json.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/san/executor.h"
#include "src/sim/distributions.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

// --- global allocation counter ----------------------------------------------
// Counts every heap allocation in the process so the engine harness can
// prove the hot loop is allocation-free in steady state.  Counting is a
// relaxed atomic increment; the bench is effectively single-threaded.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using ckptsim::Parameters;
using ckptsim::units::kHour;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  ckptsim::sim::EventQueue q;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    q.schedule_in(1.0, [&counter] { ++counter; });
    q.step();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  ckptsim::sim::EventQueue q;
  for (auto _ : state) {
    auto h = q.schedule_in(1.0, [] {});
    q.cancel(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleCancel);

void BM_RngExponential(benchmark::State& state) {
  ckptsim::sim::Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += rng.exponential_mean(10.0);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngExponential);

void BM_MaxOfExponentialsSample(benchmark::State& state) {
  const ckptsim::sim::MaxOfExponentials dist(
      static_cast<std::uint64_t>(state.range(0)), 10.0);
  ckptsim::sim::Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MaxOfExponentialsSample)->Arg(1024)->Arg(65536)->Arg(1 << 30);

void BM_DesModelSimYear(benchmark::State& state) {
  // Simulated hours per wall second for the default 64K-processor system.
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ckptsim::DesModel model(Parameters{}, seed++);
    const auto r = model.run(0.0, 100.0 * kHour);
    benchmark::DoNotOptimize(r.useful_fraction);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  state.SetLabel("items = simulated hours");
}
BENCHMARK(BM_DesModelSimYear);

void BM_SanModelSimYear(benchmark::State& state) {
  const ckptsim::SanCheckpointModel model{Parameters{}};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = model.run_replication(seed++, 0.0, 100.0 * kHour);
    benchmark::DoNotOptimize(r.useful_fraction);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  state.SetLabel("items = simulated hours");
}
BENCHMARK(BM_SanModelSimYear);

void BM_SanExecutorMM1(benchmark::State& state) {
  // Raw SAN executor throughput on the M/M/1 toy net.
  ckptsim::san::Model m;
  const auto queue = m.add_place("queue", 0);
  ckptsim::san::ActivitySpec arrive;
  arrive.name = "arrive";
  arrive.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
    return r.exponential_rate(0.5);
  };
  arrive.output_arcs = {ckptsim::san::OutputArc{queue, 1}};
  m.add_activity(std::move(arrive));
  ckptsim::san::ActivitySpec serve;
  serve.name = "serve";
  serve.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
    return r.exponential_rate(1.0);
  };
  serve.input_arcs = {ckptsim::san::InputArc{queue, 1}};
  m.add_activity(std::move(serve));

  std::uint64_t fired = 0;
  for (auto _ : state) {
    ckptsim::san::Executor exec(m, 42);
    exec.run_until(10000.0);
    fired += exec.total_firings();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.SetLabel("items = activity firings");
}
BENCHMARK(BM_SanExecutorMM1);

/// A "wide" SAN: `stations` independent M/M/1 nets sharing one executor.
/// Models the scaling regime the dependency index targets — per-event work
/// must stay O(affected activities), not O(all activities).
ckptsim::san::Model make_wide_model(std::uint32_t stations) {
  ckptsim::san::Model m;
  for (std::uint32_t i = 0; i < stations; ++i) {
    const auto queue = m.add_place("queue" + std::to_string(i), 0);
    ckptsim::san::ActivitySpec arrive;
    arrive.name = "arrive" + std::to_string(i);
    arrive.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
      return r.exponential_rate(0.5);
    };
    arrive.output_arcs = {ckptsim::san::OutputArc{queue, 1}};
    m.add_activity(std::move(arrive));
    ckptsim::san::ActivitySpec serve;
    serve.name = "serve" + std::to_string(i);
    serve.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
      return r.exponential_rate(1.0);
    };
    serve.input_arcs = {ckptsim::san::InputArc{queue, 1}};
    m.add_activity(std::move(serve));
  }
  return m;
}

void BM_SanExecutorWide(benchmark::State& state) {
  const auto m = make_wide_model(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    ckptsim::san::Executor exec(m, 42);
    exec.run_until(500.0);
    fired += exec.total_firings();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.SetLabel("items = activity firings");
}
BENCHMARK(BM_SanExecutorWide)->Arg(16)->Arg(128);

// --- BENCH_engine.json harness ----------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct EngineSample {
  std::uint64_t events = 0;      ///< timed completions fired
  std::uint64_t firings = 0;     ///< activity firings (incl. instantaneous)
  std::uint64_t allocs = 0;      ///< heap allocations during the window
  std::uint64_t enabling_evals = 0;
  double seconds = 0.0;
};

/// Median, minimum and interquartile range of repeated timings.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double iqr = 0.0;
};

Spread spread_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto quantile = [&xs](double q) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  return {quantile(0.5), xs.front(), quantile(0.75) - quantile(0.25)};
}

/// Run a section until it has at least 5 samples and 0.5 s of measured
/// time, so every reported number is a median of repeated runs.
template <typename Section>
std::vector<EngineSample> repeat_section(Section&& section) {
  std::vector<EngineSample> samples;
  double total = 0.0;
  while (samples.size() < 5 || total < 0.5) {
    samples.push_back(section());
    total += samples.back().seconds;
  }
  return samples;
}

/// Median seconds of one sample of a section.
double median_seconds(const std::vector<EngineSample>& samples) {
  std::vector<double> secs;
  for (const EngineSample& s : samples) secs.push_back(s.seconds);
  return spread_of(std::move(secs)).median;
}

/// One section: per-sample counts (every sample runs the same seeds, so
/// they repeat exactly), the median, minimum and IQR of its seconds, the
/// rates at the median, and allocations/evaluations over all samples.
void write_sample(ckptsim::obs::JsonWriter& w, const char* name,
                  const std::vector<EngineSample>& samples) {
  std::vector<double> secs;
  double total = 0.0;
  std::uint64_t events = 0, allocs = 0, evals = 0;
  for (const EngineSample& s : samples) {
    secs.push_back(s.seconds);
    total += s.seconds;
    events += s.events;
    allocs += s.allocs;
    evals += s.enabling_evals;
  }
  const Spread t = spread_of(std::move(secs));
  const EngineSample& one = samples.front();
  const auto per_sec = [&t](std::uint64_t n) {
    return t.median > 0.0 ? static_cast<double>(n) / t.median : 0.0;
  };
  const auto per_event = [events](std::uint64_t n) {
    return events > 0 ? static_cast<double>(n) / static_cast<double>(events) : 0.0;
  };
  w.key(name);
  w.begin_object();
  w.kv("samples", static_cast<std::uint64_t>(samples.size()));
  w.kv("events", one.events);
  w.kv("firings", one.firings);
  w.kv("seconds_total", total);
  w.kv("seconds_median", t.median);
  w.kv("seconds_min", t.min);
  w.kv("seconds_iqr", t.iqr);
  w.kv("events_per_sec", per_sec(one.events));
  w.kv("firings_per_sec", per_sec(one.firings));
  w.kv("allocs_per_event", per_event(allocs));
  w.kv("enabling_evals_per_event", per_event(evals));
  w.end_object();
}

/// Warm the executor past `warmup`, then measure the steady-state window up
/// to `horizon`.  Allocations are sampled across the measured window only:
/// all vector capacities (heap, candidate lists, scratch) settle during
/// warm-up, so steady state must be allocation-free.
EngineSample run_executor_window(const ckptsim::san::Model& m, bool full_rescan, double warmup,
                                 double horizon) {
  ckptsim::san::Executor exec(m, 42);
  exec.set_full_rescan(full_rescan);
  exec.run_until(warmup);
  EngineSample s;
  const auto fired0 = exec.queue_stats().fired;
  const auto firings0 = exec.total_firings();
  const auto evals0 = exec.enabling_evaluations();
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  exec.run_until(horizon);
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.events = exec.queue_stats().fired - fired0;
  s.firings = exec.total_firings() - firings0;
  s.enabling_evals = exec.enabling_evaluations() - evals0;
  return s;
}

EngineSample run_queue_window(std::uint64_t events) {
  ckptsim::sim::EventQueue q;
  std::uint64_t counter = 0;
  // Self-rescheduling payload with an inline capture; warm-up settles the
  // heap capacity and the id table.
  const auto pump = [&q, &counter](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      q.schedule_in(1.0, [&counter] { ++counter; });
      q.step();
    }
  };
  pump(10'000);
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  pump(events);
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.events = events;
  s.firings = events;
  return s;
}

/// One DES replication per seed, the per-replication driver's cost model
/// (construct + run); events aggregate over the replications.
EngineSample run_des(const Parameters& p, std::size_t reps, double horizon) {
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    ckptsim::DesModel model(p, ckptsim::sim::replication_seed(20260808, r));
    const auto result = model.run(0.0, horizon);
    benchmark::DoNotOptimize(result.useful_fraction);
    s.events += model.queue_stats().fired;
  }
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.firings = s.events;
  return s;
}

/// K = 4 interference replications, one per PFS policy, construct + run;
/// the mix is perfbench's variants mix.
EngineSample run_interference_k4(double horizon) {
  namespace platform = ckptsim::platform;
  const Parameters base;
  platform::JobMix mix = platform::parse_job_mix(
      "big:procs=65536,interval_min=30;mid:procs=16384,interval_min=20;"
      "small:procs=8192,interval_min=15;tiny:procs=4096,interval_min=15",
      base);
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  std::uint64_t r = 0;
  for (const platform::PfsPolicy policy :
       {platform::PfsPolicy::kFairShare, platform::PfsPolicy::kFcfs,
        platform::PfsPolicy::kBlockingCooperative, platform::PfsPolicy::kStaggered}) {
    mix.pfs.policy = policy;
    platform::InterferenceModel model(mix, ckptsim::sim::replication_seed(20260808, r++));
    const auto result = model.run(10.0 * kHour, horizon);
    benchmark::DoNotOptimize(result.pfs_utilization);
    s.events += model.queue_stats().fired;
  }
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.firings = s.events;
  return s;
}

/// Per-node replications at 32K processors (4096 nodes), construct + run,
/// as bench_ablation_aggregation runs them.
EngineSample run_nodelevel_32k(std::size_t reps, double horizon) {
  Parameters p;
  p.num_processors = 32768;
  p.mttf_node = 0.5 * ckptsim::units::kYear;
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    ckptsim::NodeLevelModel model(p, ckptsim::sim::replication_seed(20260808, r));
    const auto result = model.run(20.0 * kHour, horizon);
    benchmark::DoNotOptimize(result.useful_fraction);
    s.events += model.queue_stats().fired;
  }
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.firings = s.events;
  return s;
}

/// One engine's cost at equal work: wall seconds per simulated hour of
/// kEqualReps paper-model replications (Parameters{}, kEqualWarm warm-up +
/// kEqualHorizon observed, construct + run), repeated like every section.
constexpr std::size_t kEqualReps = 8;
constexpr double kEqualWarm = 100.0 * kHour;
constexpr double kEqualHorizon = 2000.0 * kHour;

template <typename RunReplication>
Spread time_equal_work(ckptsim::obs::JsonWriter& w, const char* name,
                       RunReplication&& run_replication) {
  const auto samples = repeat_section([&run_replication] {
    EngineSample s;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < kEqualReps; ++r) {
      run_replication(ckptsim::sim::replication_seed(20260808, r));
    }
    s.seconds = seconds_since(t0);
    return s;
  });
  const double sim_hours =
      static_cast<double>(kEqualReps) * (kEqualWarm + kEqualHorizon) / kHour;
  std::vector<double> per_hour;
  double total = 0.0;
  for (const EngineSample& s : samples) {
    per_hour.push_back(s.seconds / sim_hours);
    total += s.seconds;
  }
  const Spread spread = spread_of(std::move(per_hour));
  w.key(name);
  w.begin_object();
  w.kv("samples", static_cast<std::uint64_t>(samples.size()));
  w.kv("seconds_total", total);
  w.kv("s_per_sim_hour_median", spread.median);
  w.kv("s_per_sim_hour_min", spread.min);
  w.kv("s_per_sim_hour_iqr", spread.iqr);
  w.end_object();
  return spread;
}

int run_engine_report(const std::string& path) {
  ckptsim::obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "ckptsim/bench-engine/v4");

  write_sample(w, "event_queue", repeat_section([] { return run_queue_window(2'000'000); }));

  // The paper's 12-submodel checkpoint model: the real hot path.
  const ckptsim::SanCheckpointModel model{Parameters{}};
  const double warm = 100.0 * kHour, horizon = 2100.0 * kHour;
  const auto ckpt_inc = repeat_section(
      [&] { return run_executor_window(model.model(), false, warm, horizon); });
  const auto ckpt_full = repeat_section(
      [&] { return run_executor_window(model.model(), true, warm, horizon); });
  write_sample(w, "san_checkpoint", ckpt_inc);
  write_sample(w, "san_checkpoint_full_rescan", ckpt_full);
  w.kv("san_checkpoint_speedup_vs_full_rescan",
       median_seconds(ckpt_full) / median_seconds(ckpt_inc));

  // The wide net: per-event refresh work must not scale with model size.
  // The scheduler's argmin does, since it visits every armed slot and
  // every arrival process (half the net's activities) is always armed.
  const auto wide = make_wide_model(128);
  const auto wide_inc =
      repeat_section([&] { return run_executor_window(wide, false, 50.0, 1050.0); });
  const auto wide_full =
      repeat_section([&] { return run_executor_window(wide, true, 50.0, 1050.0); });
  write_sample(w, "san_wide_128", wide_inc);
  write_sample(w, "san_wide_128_full_rescan", wide_full);
  w.kv("san_wide_128_speedup_vs_full_rescan",
       median_seconds(wide_full) / median_seconds(wide_inc));

  // The DES engine at the paper's largest machine (256K processors).  The
  // window includes model construction, the cost the replication drivers
  // actually pay, so allocs_per_event is amortized-small instead of zero.
  Parameters big;
  big.num_processors = 262144;
  write_sample(w, "des_256k",
               repeat_section([&big] { return run_des(big, /*reps=*/8, 600.0 * kHour); }));

  // The DES exists to be the fast engine.  The ratio CI gates on compares
  // the two engines at equal work — the same replications of the paper
  // model — not per event: the engines count different events (the DES
  // replays its application cycle without firing events), so an
  // events/sec ratio can fall while the DES gets faster.
  const Parameters paper;
  const ckptsim::SanCheckpointModel san_paper{paper};
  w.key("equal_work");
  w.begin_object();
  w.kv("replications", static_cast<std::uint64_t>(kEqualReps));
  w.kv("warmup_h", kEqualWarm / kHour);
  w.kv("horizon_h", kEqualHorizon / kHour);
  const Spread des_equal = time_equal_work(w, "des", [&paper](std::uint64_t seed) {
    ckptsim::DesModel des(paper, seed);
    benchmark::DoNotOptimize(des.run(kEqualWarm, kEqualHorizon).useful_fraction);
  });
  const Spread san_equal = time_equal_work(w, "san", [&san_paper](std::uint64_t seed) {
    benchmark::DoNotOptimize(
        san_paper.run_replication(seed, kEqualWarm, kEqualHorizon).useful_fraction);
  });
  w.end_object();
  w.kv("des_speedup_vs_san", san_equal.median / des_equal.median);

  // The variant engines on the same footing (construct + run, so their
  // allocs/event are amortized-small rather than zero).
  write_sample(w, "interference_k4",
               repeat_section([] { return run_interference_k4(1000.0 * kHour); }));
  write_sample(w, "nodelevel_32k",
               repeat_section([] { return run_nodelevel_32k(/*reps=*/2, 300.0 * kHour); }));

  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_engine: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--engine-json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_path = argv[i] + std::strlen(kFlag);
    }
  }
  if (json_path != nullptr) return run_engine_report(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
