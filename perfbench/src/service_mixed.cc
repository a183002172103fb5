// service_mixed: closed-loop campaign traffic through an in-process
// CampaignServer, about 4 in 5 requests all-hit on prefilled keys and the
// rest fresh keys that simulate.

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "service_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

// splitmix64 finalizer.  The benchmark keeps its own copy so its inputs do
// not change when the library's seeding changes.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kProcessors[] = {8192, 16384, 32768};
constexpr int kIntervalsMin[] = {15, 20, 30, 45, 60, 90, 120, 180};

/// Response-line type, e.g. "done" for {"type": "done", ...}.
std::string line_type(const std::string& line) {
  const std::string tag = "\"type\": \"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t from = at + tag.size();
  return line.substr(from, line.find('"', from) - from);
}

std::uint64_t uint_field(const std::string& line, const char* name) {
  const std::string tag = std::string("\"") + name + "\": ";
  const std::size_t at = line.find(tag);
  return at == std::string::npos ? 0 : std::stoull(line.substr(at + tag.size()));
}

struct Stream {
  std::mutex mu;
  std::condition_variable cv;
  Clock::time_point t0;
  RequestRecord rec;
  bool accepted = false;
  bool terminal = false;
  std::size_t points = 0;
};

}  // namespace

RequestRecord send_and_wait(ckptsim::svc::CampaignServer& server, const std::string& line) {
  auto stream = std::make_shared<Stream>();
  stream->rec.clean = true;
  const ckptsim::svc::CampaignServer::Sink sink = [stream](const std::string& out) {
    const double t = seconds_since(stream->t0);
    const std::string type = line_type(out);
    const std::lock_guard<std::mutex> lock(stream->mu);
    RequestRecord& r = stream->rec;
    if (type == "accepted") {
      stream->accepted = true;
      r.accepted = t;
    } else if (type == "point") {
      if (stream->points++ == 0) r.first_point = t;
      r.last_point = t;
    } else if (type == "done") {
      r.done = t;
      r.hit = uint_field(out, "points") > 0 && uint_field(out, "cached") == uint_field(out, "points");
      r.clean = r.clean && stream->accepted && uint_field(out, "failed") == 0 &&
                stream->points == uint_field(out, "points");
      stream->terminal = true;
    } else {  // error / rejected / cancelled / draining
      r.clean = false;
      r.done = t;
      // A point error inside an admitted campaign is followed by "done".
      if (!(type == "error" && stream->accepted)) stream->terminal = true;
    }
    if (stream->terminal) stream->cv.notify_all();
  };
  stream->t0 = Clock::now();
  {
    const Scope span("svc", "handle_line");
    server.handle_line(line, sink);
  }
  std::unique_lock<std::mutex> lock(stream->mu);
  stream->cv.wait(lock, [&] { return stream->terminal; });
  return stream->rec;
}

ServiceFixture::ServiceFixture(std::uint64_t seed) : seed_(seed) {
  ckptsim::svc::ServerConfig config;
  config.workers = kServiceWorkers;
  server_ = std::make_unique<ckptsim::svc::CampaignServer>(config);
  for (std::size_t k = 0; k < kPrefilledKeys; ++k) {
    const RequestRecord r = send_and_wait(*server_, request(static_cast<long>(k), 0));
    if (!r.clean) throw std::runtime_error("service prefill: key " + std::to_string(k) + " failed");
  }
}

std::string ServiceFixture::request(long k, std::uint64_t draw) {
  const std::uint64_t id = next_id_.fetch_add(1);
  // A prefilled key's parameters depend only on (seed, k); a fresh key
  // draws its own and is made unique by its label.  Processor counts take
  // turns, so every seed simulates the same mix of sizes.
  const std::uint64_t n = k >= 0 ? static_cast<std::uint64_t>(k) : draw;
  const std::uint64_t h = mix(seed_ ^ mix(k >= 0 ? n : n + 0x5151));
  const std::uint64_t procs = kProcessors[n % 3];
  const std::size_t a = (h >> 8) % std::size(kIntervalsMin);
  const std::size_t b = (a + 1 + (h >> 16) % (std::size(kIntervalsMin) - 1)) % std::size(kIntervalsMin);
  const std::string label = k >= 0 ? "key " + std::to_string(k) : "fresh " + std::to_string(id);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"sweep\",\"id\":\"r%llu\",\"label\":\"%s\",\"axis\":\"interval\","
                "\"values\":[%d,%d],\"params\":{\"processors\":%llu},"
                "\"spec\":{\"reps\":2,\"horizon_hours\":100,\"seed\":%llu}}",
                static_cast<unsigned long long>(id), label.c_str(), kIntervalsMin[a],
                kIntervalsMin[b], static_cast<unsigned long long>(procs),
                static_cast<unsigned long long>(seed_));
  return buf;
}

std::vector<RequestRecord> ServiceFixture::run(std::size_t per_client) {
  std::vector<std::vector<RequestRecord>> per(kServiceClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    clients.emplace_back([this, c, per_client, &per] {
      for (std::size_t j = 0; j < per_client; ++j) {
        const std::uint64_t n = sent_[c]++;
        const std::uint64_t draw = mix(seed_ ^ mix((c << 40) + n));
        // One miss in every block of kMissPeriod requests, at a drawn
        // position, so how often the clients' misses coincide does not
        // depend on the seed.
        const bool expect_hit =
            n % kMissPeriod != mix(seed_ ^ mix((c << 40) + (n / kMissPeriod) + 0xB10C)) % kMissPeriod;
        const long key = expect_hit ? static_cast<long>(draw % kPrefilledKeys) : -1;
        // A fresh key's draw counts the client's misses, interleaved
        // across clients.
        const std::uint64_t miss = (n / kMissPeriod) * kServiceClients + c;
        Tracer::begin_op();
        RequestRecord r = send_and_wait(*server_, request(key, expect_hit ? draw : miss));
        r.expect_hit = expect_hit;
        per[c].push_back(r);
      }
    });
  }
  for (auto& t : clients) t.join();
  std::vector<RequestRecord> out;
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::uint64_t ServiceFixture::replay_prefilled(bool* clean) {
  const auto before = server_->metrics().service().snapshot().replications_run;
  *clean = true;
  for (std::size_t k = 0; k < kPrefilledKeys; ++k) {
    const RequestRecord r = send_and_wait(*server_, request(static_cast<long>(k), 0));
    *clean = *clean && r.clean && r.hit;
  }
  return server_->metrics().service().snapshot().replications_run - before;
}

namespace {

/// Requests each client sends in one pass.
constexpr std::size_t kPassPerClient = 250;

}  // namespace

Outcome run_service_mixed(const Options& o) {
  Outcome out;
  std::unique_ptr<ServiceFixture> fixture;
  const auto setup = [&] {
    fixture.reset();
    fixture = std::make_unique<ServiceFixture>(o.seed);
  };

  std::vector<double> op_seconds;
  std::vector<double> hit_s;
  std::vector<double> miss_s;
  std::uint64_t misses_per_pass = 0;
  const Passes passes = run_passes(o, setup, [&](bool traced) {
    misses_per_pass = 0;
    for (const RequestRecord& q : fixture->run(kPassPerClient)) {
      ++out.attempted;
      if (!q.clean) {
        ++out.failed;
        out.fail("unclean response stream");
      } else if (q.hit != q.expect_hit) {
        out.fail(q.expect_hit ? "a prefilled key was not served from the cache"
                              : "a fresh key was served from the cache");
      }
      misses_per_pass += q.expect_hit ? 0 : 1;
      if (traced) continue;
      op_seconds.push_back(q.done);
      (q.expect_hit ? hit_s : miss_s).push_back(q.done);
    }
  });

  // bench_service_throughput's warm gate: the prefilled keys replay with
  // zero replications.
  bool replay_clean = false;
  const std::uint64_t replayed = fixture->replay_prefilled(&replay_clean);
  if (replayed != 0 || !replay_clean) {
    out.fail("replaying the prefilled keys ran " + std::to_string(replayed) +
             " replications or returned an uncached stream");
  }
  fixture.reset();

  if (o.trace) {
    finish_traced_run(out, o, "service_mixed", passes);
    return out;
  }
  const std::size_t ops = kPassPerClient * kServiceClients;
  add_end_to_end_metrics(out, passes, median(passes.untraced), static_cast<double>(ops),
                         static_cast<double>(misses_per_pass * 2 * 2), op_seconds);
  // The split by class, printed with sample counts beside the gated metrics.
  for (const auto& [name, xs, scale, unit] :
       {std::tuple<const char*, const std::vector<double>&, double, const char*>{
            "hit_latency", hit_s, 1e6, "us"},
        {"miss_latency", miss_s, 1e3, "ms"}}) {
    for (const double p : {50.0, 90.0, 99.0}) {
      const Quantile q = percentile(xs, p);
      std::printf("service_mixed    %s_p%.0f_%s%*s %.6g %s (%zu samples)\n", name, p, unit,
                  static_cast<int>(40 - std::string(name).size() - 6), "", q.value * scale, unit,
                  q.samples);
    }
  }
  return out;
}

}  // namespace perfbench
