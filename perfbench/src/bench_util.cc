#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<std::int64_t> t_open_spans;
thread_local std::uint64_t t_op = 0;

}  // namespace

// Per thread, so counting costs the allocating threads no shared cache line.
// Outside the anonymous namespace: the global operator new below uses it.
thread_local std::uint64_t t_allocations = 0;

Quantile percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return {xs[lo] + (xs[hi] - xs[lo]) * frac, xs.size()};
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::invalid_argument("self_times: parent index out of range");
    const double lo = std::max(s.start, spans[p].start);
    const double hi = std::min(s.end, spans[p].end);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::new_op() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

void Tracer::set_op(std::uint64_t op) noexcept { t_op = op; }

void Tracer::begin_op() { t_op = global().enabled() ? global().new_op() : 0; }

std::int64_t Tracer::open(const char* layer, const char* name) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.op = t_op;
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    spans_.back().start = seconds_since(origin_);
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = seconds_since(origin_);
  if (!t_open_spans.empty() && t_open_spans.back() == index) t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

void write_spans_jsonl(const std::vector<Span>& all, const std::string& path) {
  const std::vector<double> self = self_times(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"op\":%llu,\"layer\":\"%s\",\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n",
                 i, static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op),
                 s.layer.c_str(), s.name.c_str(), s.start, s.end, self[i]);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current resident size (proc(5), clear_refs).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent that exec'd it (Linux keeps it across execve).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t allocations() { return t_allocations; }

}  // namespace perfbench

// Counting replacement of the global allocation functions: model.des_allocs_per_event
// divides the count taken around one DesModel replication, on the calling
// thread, by its events.  The nothrow forms are replaced too, so every plain
// and nothrow new is paired with the free() below (the aligned forms keep the
// library's own pair).
void* operator new(std::size_t size) {
  ++perfbench::t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++perfbench::t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
