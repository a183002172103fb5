#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/slot_table.h"
#include "src/trace/event_log.h"

namespace ckptsim::obs {

/// One finalized sweep/study point as the drivers report it: how many
/// replications its result aggregates and, for precision-driven runs, the
/// sequential-stopping round sizes that got there (empty in fixed mode).
struct PointRecord {
  std::string label;              ///< series label
  double x = 0.0;                 ///< swept value
  std::uint64_t replications = 0; ///< successes aggregated into the result
  std::vector<std::uint32_t> rounds;  ///< scheduled round sizes, in order
};

/// What one replication reports into the metrics registry: per-kind trace
/// event tallies (DES engine), activity firing/abort totals (SAN engine),
/// and the replication's event-queue statistics.  Filled by
/// run_replication / Study::run when a Metrics registry is attached.
struct ReplicationProbe {
  trace::EventCounts events;
  std::uint64_t activity_firings = 0;
  std::uint64_t activity_aborts = 0;
  sim::QueueStats queue;
};

/// Plain-value copy of the service counters at one instant.
struct ServiceSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t points_completed = 0;
  std::uint64_t replications_run = 0;
  std::int64_t queue_depth = 0;
  double uptime_seconds = 0.0;
  double points_per_sec = 0.0;  ///< points_completed / uptime

  /// True once the registry has seen any service traffic; the JSON snapshot
  /// omits the "service" block otherwise, so non-service runs keep their
  /// exact pre-service output.
  [[nodiscard]] bool active() const noexcept { return requests != 0; }
};

/// Service-level counters for the ckptsimd campaign server.  All lock-free
/// atomics: unlike the per-worker shards (which may only be read outside a
/// parallel region), these are safe to bump from any connection or worker
/// thread and to read at any instant — the live `stats` request depends on
/// that.
struct ServiceCounters {
  std::atomic<std::uint64_t> requests{0};          ///< request lines received
  std::atomic<std::uint64_t> accepted{0};          ///< campaigns admitted
  std::atomic<std::uint64_t> rejected{0};          ///< admission-control rejections
  std::atomic<std::uint64_t> errors{0};            ///< malformed / failed requests
  std::atomic<std::uint64_t> cancelled{0};         ///< campaigns cancelled
  std::atomic<std::uint64_t> cache_hits{0};        ///< points served from the result cache
  std::atomic<std::uint64_t> cache_misses{0};      ///< points that had to simulate
  std::atomic<std::uint64_t> points_completed{0};  ///< points finalized (hit or cold)
  std::atomic<std::uint64_t> replications_run{0};  ///< replications actually simulated
  std::atomic<std::int64_t> queue_depth{0};        ///< campaigns queued + running (gauge)

  [[nodiscard]] ServiceSnapshot snapshot() const noexcept;

 private:
  friend class Metrics;
  std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
};

/// Merged view of a Metrics registry at one instant.
struct MetricsSnapshot {
  trace::EventCounts events;            ///< per-EventKind totals
  std::uint64_t replications = 0;       ///< replications completed
  std::uint64_t activity_firings = 0;   ///< SAN activity completions
  std::uint64_t activity_aborts = 0;    ///< SAN in-flight completions aborted
  sim::QueueStats queue;                ///< counts summed, peaks maxed
  std::vector<double> worker_busy_seconds;  ///< one entry per worker shard
  double wall_seconds = 0.0;            ///< wall clock inside parallel regions
  std::vector<PointRecord> points;      ///< finalized points, (label, x) order
  ServiceSnapshot service;              ///< campaign-server counters (may be inactive)

  /// Serialize as a JSON object (schema "ckptsim.metrics.v1").
  [[nodiscard]] std::string to_json() const;

  /// Write to_json() to `path`; throws std::runtime_error on I/O failure.
  void write_json(const std::string& path) const;
};

/// Run-telemetry registry with one accumulation shard per worker thread.
///
/// Hot-path contract: a worker only ever touches its own shard (plain,
/// non-atomic increments — no locks, no contended cache lines; shards are
/// cache-line aligned to avoid false sharing).  The parallel drivers
/// establish the necessary happens-before edges (ThreadPool::wait joins the
/// batch before any shard is read), so `snapshot()` must only be called
/// outside a parallel region.  Collection never touches the simulation
/// RNGs or orderings, so results stay bit-identical with metrics on.
class Metrics {
 public:
  /// `workers` shards (>= 1 enforced).  Pass the resolved job count of the
  /// spec that will run (ExecSpec::resolve()); the drivers clamp their
  /// thread count to the shard count, never the other way around.
  explicit Metrics(std::size_t workers);

  [[nodiscard]] std::size_t workers() const noexcept { return shards_.size(); }

  struct alignas(64) Shard {
    trace::EventCounts events;
    std::uint64_t replications = 0;
    std::uint64_t activity_firings = 0;
    std::uint64_t activity_aborts = 0;
    sim::QueueStats queue;
    double busy_seconds = 0.0;

    /// Fold one replication's probe into this shard (counts add, queue
    /// peaks max across replications).
    void absorb(const ReplicationProbe& p) noexcept;
  };

  /// The accumulation cell owned by worker slot `worker` (< workers()).
  [[nodiscard]] Shard& shard(std::size_t worker) { return shards_.at(worker).cell; }

  /// Credit wall-clock seconds spent inside a parallel region (called once
  /// per run/sweep/study from the driver thread, not from workers).
  void add_wall_seconds(double s) noexcept { wall_seconds_ += s; }

  /// Record a finalized sweep point (replication count and, when adaptive,
  /// its round sizes).  Mutex-protected — point finalization is rare, so
  /// this is deliberately off the per-replication hot path.
  void record_point(PointRecord record);

  /// Campaign-server counters (requests, cache hits/misses, queue depth).
  /// Safe to touch from any thread at any time.
  [[nodiscard]] ServiceCounters& service() noexcept { return service_; }
  [[nodiscard]] const ServiceCounters& service() const noexcept { return service_; }

  /// Merge all shards.  Call only while no parallel region is running.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  ServiceCounters service_;
  struct Padded {
    Shard cell;
  };
  std::vector<Padded> shards_;
  double wall_seconds_ = 0.0;
  mutable std::mutex points_mu_;
  std::vector<PointRecord> points_;
};

/// RAII busy-time timer for one worker's slice of a parallel region; a null
/// registry makes it a no-op so the disabled path costs two branches.
class WorkerTimer {
 public:
  WorkerTimer(Metrics* metrics, std::size_t worker) : metrics_(metrics), worker_(worker) {
    if (metrics_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~WorkerTimer() {
    if (metrics_ != nullptr) {
      const auto dt = std::chrono::steady_clock::now() - start_;
      metrics_->shard(worker_).busy_seconds +=
          std::chrono::duration_cast<std::chrono::duration<double>>(dt).count();
    }
  }
  WorkerTimer(const WorkerTimer&) = delete;
  WorkerTimer& operator=(const WorkerTimer&) = delete;

 private:
  Metrics* metrics_;
  std::size_t worker_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ckptsim::obs
