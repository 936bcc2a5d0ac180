// Shared pieces of the end-to-end / per-layer benchmark: command-line
// arguments, the report every workload fills, latency summaries, the
// direct-solve reference check, and the closed-loop runner.
//
// Every workload follows one shape:
//   1. generate its inputs from --seed (the program sees nothing else);
//   2. take a direct api::Solver::solve reference for each distinct
//      request — every measured response must match it bit for bit;
//   3. set the program up several times (catalog, service or fleet, and
//      a fixed, seed-independent warm-up pass) and report the median as
//      setup_s;
//   4. measure, checking every response against its reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "api/krsp.h"
#include "store/catalog.h"
#include "util/rng.h"

namespace perfbench {

namespace api = krsp::api;
namespace graph = krsp::graph;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `prefix` followed by `n` in decimal: request ids and messages.
[[nodiscard]] inline std::string numbered(const char* prefix, std::size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory of the committed .krspb topologies.
  std::string corpus = "data/corpus";
  /// Seconds-long configuration: small pools, one set-up repetition.
  bool smoke = false;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces. `metrics` holds the end-to-end metrics
/// for an untraced run and the per-layer metrics for a traced one;
/// `details` are extra JSON lines (host shape, tail percentile, layer
/// shares) printed before the result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> details;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// The reference a measured response must reproduce exactly.
struct Reference {
  api::SolveStatus status = api::SolveStatus::kFailed;
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  std::vector<std::vector<graph::EdgeId>> paths;
  /// telemetry.cost_lower_bound of the reference solve (Lemma 5 bound).
  double lower_bound = 0.0;
  api::SolveTelemetry telemetry;
};

/// Solves every request directly (api::Solver::solve, one workspace per
/// thread, `threads` threads) and checks each answer: it must have paths,
/// pass PathSet::is_valid and the mode's delay bound. Throws on a request
/// that fails those checks — the workload itself would be broken.
[[nodiscard]] std::vector<Reference> solve_references(
    const std::vector<api::SolveRequest>& requests, int threads);

/// Times single calls of a layer sweep; one sample per call, in µs.
struct CallTimer {
  std::vector<double> us;
  template <typename F>
  auto time(F&& f) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    } else {
      auto r = f();
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      return r;
    }
  }
  [[nodiscard]] double median_us() const { return median(us); }
};

/// One catalog query: a (s, t, k, D) override of a stored topology.
struct Query {
  std::string topology;
  graph::VertexId s = 0;
  graph::VertexId t = 0;
  int k = 2;
  graph::Delay delay_bound = 0;
};

/// Draws `count` distinct queries on `ref` whose delay bound lies strictly
/// between the delays of the min-delay and the min-cost k-flows
/// (flow::min_weight_disjoint_paths), so every one runs phase 1's
/// Lagrangian lambda search.
[[nodiscard]] std::vector<Query> draw_lagrange_queries(
    const api::TopologyRef& ref, std::size_t count, krsp::util::Rng& rng);

/// The protocol-v2 wire line of a query (`mode` as on the wire).
[[nodiscard]] std::string query_line(const Query& q, const std::string& id,
                                     const char* mode);

/// The response fields a correct answer carries byte for byte: status,
/// cost, delay and the edge ids of every path, as a wire response spells
/// them.
[[nodiscard]] std::string expected_fragment(const Reference& ref);

/// True when a wire response was served and carries `ref`'s answer.
[[nodiscard]] bool response_matches(const std::string& response,
                                    const Reference& ref);

/// Lowers wire lines exactly as a shard does (server::parse_solve_request).
[[nodiscard]] std::vector<api::SolveRequest> parse_lines(
    const std::vector<std::string>& lines,
    const krsp::store::TopologyCatalog* catalog);

/// An in-process workload: a closed loop of clients calling
/// server::SolveService::serve on a pool of distinct requests.
struct ServiceWorkload {
  api::ServerOptions options;
  int clients = 1;
  double limit_ms = 0.0;
  /// Set-up loads the catalog from Args::corpus (v2 requests).
  bool uses_catalog = false;
  /// Distinct requests in wire form, in the order the loop walks them.
  std::vector<std::string> lines;
  /// Completions per window of throughput_rps and latency_p50_ms, and the
  /// unit the loop stops on (0: one whole pass over `lines`).
  std::size_t window = 0;
  std::vector<Reference> refs;
  /// Fixed, seed-independent warm-up pass of the set-up.
  std::vector<std::string> warmup_lines;
  /// The run fails its check unless every reference solve ran at least
  /// one cancellation iteration.
  bool require_cancellation = false;
  /// Workload shape for the host detail line (JSON object).
  std::string config_json;
};

[[nodiscard]] Report run_service_workload(const Args& args,
                                          const ServiceWorkload& workload);

/// Transport and router layers of a two-shard fleet serving a workload's
/// own requests (router::Router in process, shards behind TCP sockets).
struct FleetLayers {
  /// Cache-hit round trip direct to the owning shard minus the in-process
  /// Protocol::handle_line time of a hit.
  double transport_us = 0.0;
  /// The same request through the router minus the direct round trip.
  double hop_us = 0.0;
  /// Requests on the busiest shard over the mean per shard.
  double shard_imbalance = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Routes up to `max_lines` requests once, then times the last `probes`
/// of them again as cache hits, direct and routed. Every response, the
/// timed ones too, is checked against its reference.
[[nodiscard]] FleetLayers measure_fleet_layers(
    const std::vector<std::string>& lines, const std::vector<Reference>& refs,
    const krsp::store::TopologyCatalog* catalog,
    const api::ServerOptions& options, double handle_us, std::size_t max_lines,
    std::size_t probes);

}  // namespace perfbench
