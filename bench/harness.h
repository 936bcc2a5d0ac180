// Shared pieces of the gated benchmarks (E13-E18), whose --out JSON CI
// compares against the committed BENCH_*.json with scripts/check_bench.py:
// the served-result and response-line identities, the ER request pool,
// the round-robin client fan-out of a load phase, and the gate JSON
// writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "server/wire.h"
#include "util/stats.h"

namespace krsp::bench {

/// A served result equals its direct-solve reference: status, cost,
/// delay, paths and the cost cap Ĉ the search settled on.
[[nodiscard]] bool same_result(const api::SolveResult& a,
                               const api::SolveResult& b);

/// `line` (one wire response) without its "key":value members for `keys`,
/// scalar-valued and never first: response lines that differ only in
/// timing or routing fields then compare with ==.
[[nodiscard]] std::string drop_fields(
    std::string line, std::initializer_list<std::string_view> keys);

/// `size` seeded Erdős–Rényi requests on `n` vertices (edge probability
/// 0.35, delay slack 0.25), alternating k = 2, 3 and exact, scaled mode,
/// tagged pool-<i>.
[[nodiscard]] std::vector<api::SolveRequest> er_request_pool(
    int size, int n, std::uint64_t seed);

/// What one client of a load phase saw.
struct Tally {
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;    // structured sheds: admission said no
  std::uint64_t failed = 0;      // no usable response at all
  std::uint64_t mismatches = 0;  // served, but not the reference answer
  std::vector<double> latency_ms;
};

/// A load phase: every client's tally merged, and its wall time.
struct LoadReport {
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  util::Stats latency_ms;
  double wall_seconds = 0.0;

  [[nodiscard]] std::uint64_t total() const {
    return served + rejected + failed;
  }
  /// served / total, and rejected / total; 0 for an empty phase.
  [[nodiscard]] double served_frac() const;
  [[nodiscard]] double rejection_rate() const;
};

/// Runs requests 0..requests-1 round-robin on `clients` threads: client c
/// calls body(c, r, tally) for r = c, c + clients, ... with its own
/// Tally. Joins the threads, then merges the tallies in client order;
/// wall_seconds counts from `start`. A client whose body throws stops,
/// and the first such exception is rethrown after the join.
template <typename Body>
LoadReport fan_out(int clients, int requests, Body&& body,
                   std::chrono::steady_clock::time_point start =
                       std::chrono::steady_clock::now()) {
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::exception_ptr> errors(tallies.size());
  std::vector<std::thread> threads;
  threads.reserve(tallies.size());
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const auto i = static_cast<std::size_t>(c);
      try {
        for (int r = c; r < requests; r += clients) body(c, r, tallies[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);

  LoadReport total;
  total.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  for (const Tally& t : tallies) {
    total.served += t.served;
    total.rejected += t.rejected;
    total.failed += t.failed;
    total.mismatches += t.mismatches;
    for (const double x : t.latency_ms) total.latency_ms.add(x);
  }
  return total;
}

/// The JSON a gated bench writes with --out, as one object: experiment,
/// host (nproc and build type), config, identical, the bench's context
/// sections in the order added, then the gate metrics check_bench.py
/// compares. Non-finite numbers are written as null.
class GateReport {
 public:
  /// `config` is a pre-serialized JSON object (an ObjectWriter's output).
  GateReport(std::string_view experiment, std::string_view config,
             bool identical);

  /// Ungated context: pre-serialized JSON, or a number.
  GateReport& section(std::string_view key, std::string_view json);
  GateReport& section(std::string_view key, double value);

  /// One gate metric that must stay at or above `min` (direction
  /// "higher"); check_bench.py also holds it within its tolerance of the
  /// committed baseline.
  GateReport& gate(std::string_view name, double value, double min);

  /// Writes the report to `path` and says so on stdout; an empty path (no
  /// --out) writes nothing. False, with a message on stderr, when the file
  /// cannot be written. The report is spent afterwards.
  [[nodiscard]] bool write(const std::string& path);

 private:
  server::wire::ObjectWriter doc_;
  server::wire::ObjectWriter gate_;
};

}  // namespace krsp::bench
