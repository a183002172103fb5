#pragma once

// Helpers shared by every perfbench workload: wall clocks, order
// statistics with their sample counts, the in-memory span tracer, and the
// metric record each workload returns.  Nothing here calls into ckptsim.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// An order statistic together with the number of samples it came from,
/// so a reported percentile always states its base.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Linear-interpolated percentile (`p` in [0, 100]) of `xs`, the same
/// definition as numpy's default.  Empty input gives {0, 0}.
[[nodiscard]] Quantile percentile(std::vector<double> xs, double p);

[[nodiscard]] inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0).value;
}

/// One timed call from the benchmark into a ckptsim module.
struct Span {
  std::string layer;        ///< module called: sim, model, san, core, svc, ...
  std::string name;         ///< the public function called
  double start = 0.0;       ///< seconds since the tracer's origin
  double end = 0.0;
  std::int64_t parent = -1; ///< index of the enclosing span, -1 at top level
  std::uint64_t op = 0;     ///< workload operation the span belongs to
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// children are clipped to the parent's interval).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// In-memory span recorder.  Disabled tracers record nothing; spans nest
/// per thread, and an operation id set on a thread tags every span that
/// thread opens until it is changed.
class Tracer {
 public:
  static Tracer& global();

  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_op(std::uint64_t op) noexcept;
  /// Starts a workload operation on the calling thread: its next spans get
  /// a fresh operation id (0 while tracing is off).
  static void begin_op();

  [[nodiscard]] std::int64_t open(const char* layer, const char* name);
  void close(std::int64_t index);

  /// Spans recorded so far (call once no traced work is in flight).
  [[nodiscard]] std::vector<Span> spans() const;
  void clear();

 private:
  [[nodiscard]] std::uint64_t new_op();

  Clock::time_point origin_ = Clock::now();
  std::atomic<bool> enabled_{false};
  std::uint64_t next_op_ = 1;
  mutable std::mutex mu_;  // guards spans_ and next_op_
  std::vector<Span> spans_;
};

/// Write `spans` with their self times as JSON lines.
void write_spans_jsonl(const std::vector<Span>& spans, const std::string& path);

/// RAII span around one call into a ckptsim module; a no-op while the
/// global tracer is disabled.
class Scope {
 public:
  Scope(const char* layer, const char* name)
      : index_(Tracer::global().enabled() ? Tracer::global().open(layer, name) : -1) {}
  ~Scope() {
    if (index_ >= 0) Tracer::global().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t index_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< replications + requests attempted
  std::uint64_t failed = 0;     ///< failed replications + error/rejected/cancelled lines
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Peak resident set size of this process since start or the last
/// reset_peak_rss(), MiB.
[[nodiscard]] double peak_rss_mb();

/// Restarts the peak peak_rss_mb() reports from the current resident size.
void reset_peak_rss();

/// Worker count the sweeps use: the CPUs this process may run on.
[[nodiscard]] std::size_t cpu_count();

/// Heap allocations made so far by the calling thread (counted by the
/// benchmark's replacement operator new).
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench
