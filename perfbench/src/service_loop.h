#pragma once

// The closed-loop campaign traffic of service_mixed, shared with the
// per-layer suite: an in-process svc::CampaignServer (2 workers,
// memory-only cache) prefilled with a fixed key set, driven through
// handle_line by 2 client threads that each wait for "done" before
// sending the next request.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/svc/server.h"

namespace perfbench {

inline constexpr std::size_t kServiceWorkers = 2;
inline constexpr std::size_t kServiceClients = 2;
inline constexpr std::size_t kPrefilledKeys = 48;
/// One request in kMissPeriod asks for a fresh key; the rest repeat a
/// prefilled one.
inline constexpr std::size_t kMissPeriod = 5;

/// Timings of one campaign, seconds from its handle_line call.
struct RequestRecord {
  bool expect_hit = false;
  bool hit = false;     ///< the "done" line reported every point cached
  bool clean = false;   ///< accepted, points, done -- nothing else
  double done = 0.0;
  double accepted = 0.0;
  double first_point = 0.0;
  double last_point = 0.0;
};

class ServiceFixture {
 public:
  /// Builds the server and prefills its cache with the seed's key set.
  explicit ServiceFixture(std::uint64_t seed);

  /// Each of the clients sends `per_client` requests, closed loop; returns
  /// every request's record.
  std::vector<RequestRecord> run(std::size_t per_client);

  /// Replays every prefilled key once from one client; returns the
  /// replications the server ran meanwhile (0 when all were cache hits)
  /// and sets `*clean` to whether every replay was an all-cached stream.
  std::uint64_t replay_prefilled(bool* clean);

  [[nodiscard]] ckptsim::svc::CampaignServer& server() { return *server_; }
  /// A request line for prefilled key `k`, or, when k < 0, a fresh key
  /// made from `draw`.
  [[nodiscard]] std::string request(long k, std::uint64_t draw);

 private:
  std::uint64_t seed_;
  std::unique_ptr<ckptsim::svc::CampaignServer> server_;
  std::atomic<std::uint64_t> next_id_{0};  ///< request ids and fresh-key labels
  std::uint64_t sent_[kServiceClients] = {};  ///< requests each client has sent
};

/// Sends `line` and blocks until its terminal line; fills the timings.
RequestRecord send_and_wait(ckptsim::svc::CampaignServer& server, const std::string& line);

}  // namespace perfbench
