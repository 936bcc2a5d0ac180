// Transport and router layers, measured on a workload's own requests: an
// in-process router::Router over two SolveService shards, each behind a
// real SocketServer on a loopback TCP port.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "router/router.h"
#include "server/client.h"
#include "server/service.h"
#include "server/transport.h"
#include "server/wire.h"

namespace perfbench {

namespace {

namespace server = krsp::server;
namespace wire = krsp::server::wire;

constexpr int kShards = 2;
constexpr int kProbeRepeats = 5;

/// Shards behind a Router; torn down in dependency order, also when the
/// constructor fails half way.
class Fleet {
 public:
  Fleet(const krsp::store::TopologyCatalog* catalog,
        const api::ServerOptions& shard_options) {
    try {
      std::vector<server::Endpoint> endpoints;
      for (int s = 0; s < kShards; ++s) {
        shards_.push_back(std::make_unique<Shard>());
        Shard& shard = *shards_.back();
        shard.service.emplace(shard_options);
        if (catalog != nullptr) {
          shard.server.emplace(*shard.service, std::uint16_t{0}, catalog);
        } else {
          shard.server.emplace(*shard.service, std::uint16_t{0});
        }
        std::string error;
        if (!shard.server->start(&error))
          throw std::runtime_error("shard listen: " + error);
        shard.accept_thread =
            std::thread([srv = &*shard.server] { srv->serve_forever(); });
        shard.endpoint =
            server::Endpoint::tcp("127.0.0.1", shard.server->bound_port());
        endpoints.push_back(shard.endpoint);
      }
      krsp::router::RouterOptions options;
      options.probe_interval_ms = 0;  // membership is static
      router_.emplace(endpoints, catalog, options);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] krsp::router::Router& router() { return *router_; }
  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  [[nodiscard]] double received(std::size_t i) const {
    return static_cast<double>(shards_[i]->service->stats().received);
  }
  [[nodiscard]] const server::Endpoint& endpoint(std::size_t i) const {
    return shards_[i]->endpoint;
  }

 private:
  struct Shard {
    std::optional<server::SolveService> service;
    std::optional<server::SocketServer> server;
    server::Endpoint endpoint;
    std::thread accept_thread;
  };

  void stop() {
    router_.reset();  // drop forward connections before their servers
    for (auto& shard : shards_) {
      if (shard->accept_thread.joinable()) {
        shard->server->request_stop();
        shard->accept_thread.join();
      }
      shard->service->drain();
    }
    shards_.clear();
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<krsp::router::Router> router_;
};

}  // namespace

FleetLayers measure_fleet_layers(const std::vector<std::string>& lines,
                                 const std::vector<Reference>& refs,
                                 const krsp::store::TopologyCatalog* catalog,
                                 const api::ServerOptions& options,
                                 double handle_us, std::size_t max_lines,
                                 std::size_t probes) {
  api::ServerOptions shard_options = options;
  shard_options.num_threads = 1;
  Fleet fleet(catalog, shard_options);
  FleetLayers out;

  // Route every request once: the ring's split of the distinct requests,
  // and each routed answer checked against its reference.
  const std::size_t n = std::min(lines.size(), max_lines);
  std::vector<std::size_t> owner(n, fleet.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string response = fleet.router().handle_line(lines[i]);
    ++out.attempted;
    if (!response_matches(response, refs[i])) ++out.failed;
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      std::string needle = "\"served_by\":";
      needle += wire::quoted(fleet.router().shard(s).name());
      if (response.find(needle) != std::string::npos) owner[i] = s;
    }
    if (owner[i] == fleet.size()) ++out.failed;  // no served_by
  }
  std::vector<double> received;
  for (std::size_t s = 0; s < fleet.size(); ++s)
    received.push_back(fleet.received(s));
  out.shard_imbalance =
      *std::max_element(received.begin(), received.end()) /
      std::max(1.0, mean(received));

  // The same cache-hit request direct to its shard and through the router;
  // the most recently routed requests are the ones still cached.
  std::vector<std::unique_ptr<server::ResilientClient>> direct;
  for (std::size_t s = 0; s < fleet.size(); ++s)
    direct.push_back(
        std::make_unique<server::ResilientClient>(fleet.endpoint(s)));
  CallTimer direct_t, routed_t;
  for (std::size_t i = n - std::min(n, probes); i < n; ++i) {
    if (owner[i] == fleet.size()) continue;
    const std::string id = wire::parse(lines[i])->get_string("id");
    for (int r = 0; r < kProbeRepeats; ++r) {
      const std::string routed =
          routed_t.time([&] { return fleet.router().handle_line(lines[i]); });
      std::string direct_response, error;
      const bool delivered = direct_t.time([&] {
        return direct[owner[i]]->request(lines[i], id, true, &direct_response,
                                         &error);
      });
      out.attempted += 2;
      if (!response_matches(routed, refs[i])) ++out.failed;
      if (!delivered || !response_matches(direct_response, refs[i]))
        ++out.failed;
    }
  }
  out.transport_us = direct_t.median_us() - handle_us;
  out.hop_us = routed_t.median_us() - direct_t.median_us();
  return out;
}

}  // namespace perfbench
