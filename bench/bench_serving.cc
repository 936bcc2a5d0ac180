// Experiment E14 — serving-layer behavior of the krsp::server stack:
// throughput and tail latency under nominal open-loop load, admission
// rejection under overload, and result-cache hit speedup. Every served
// deadline-free result is checked bit-identical to a direct
// api::Solver::solve of the same request, so the serving numbers cannot
// come from cut corners.
//
// Phases:
//   calibrate — direct solves of the request pool measure the mean cold
//               solve time; capacity := threads / mean_service_time.
//   nominal   — open-loop arrivals at 0.5× capacity with an effectively
//               unbounded admission queue: every request must be served
//               (zero rejections, structurally) and bit-identical.
//   overload  — open-loop arrivals at 4× capacity against a tiny
//               admission queue (threads + 2): the controller must shed
//               load by rejecting queue-full instead of queueing without
//               bound. Serve latency of admitted requests stays bounded.
//   cache     — a cache-enabled service sees the same pool twice; second
//               pass must hit, return bit-identical results, and be at
//               least 5× faster per request than the miss pass.
//
// --smoke shrinks everything for CI; gate metrics (rejection rate, cache
// speedup, served fraction) are host-independent ratios checked by
// scripts/check_bench.py against the committed BENCH_serving.json.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "harness.h"
#include "server/service.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace krsp;
using Clock = std::chrono::steady_clock;

/// Open-loop load: `requests` arrivals at `rate`/s spread round-robin
/// over `clients` threads; request r uses pool[r % pool] and, when it is
/// served, is compared against oracle[r % pool].
bench::LoadReport run_open_loop(server::SolveService& service,
                                const std::vector<api::SolveRequest>& pool,
                                const std::vector<api::SolveResult>& oracle,
                                int requests, int clients, double rate) {
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  return bench::fan_out(
      clients, requests,
      [&](int, int r, bench::Tally& tally) {
        const auto arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(r) / rate));
        std::this_thread::sleep_until(arrival);
        const std::size_t i = static_cast<std::size_t>(r) % pool.size();
        const server::ServeResponse resp = service.serve(pool[i]);
        // Latency from the scheduled arrival: a backed-up service is
        // charged for the wait, as a real client would experience it.
        tally.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                       Clock::now() - arrival)
                                       .count());
        if (!resp.served()) {
          ++tally.rejected;
          return;
        }
        ++tally.served;
        if (!bench::same_result(resp.result, oracle[i])) ++tally.mismatches;
      },
      start);
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_serving [--requests=96] [--pool=8] [--n=14] "
    "[--seed=21] [--threads=0] [--clients=6] [--out=BENCH_serving.json] "
    "[--smoke]\n";

int run(const krsp::util::Cli& cli) {
  const bool smoke = cli.get_bool("smoke", false);
  const int requests =
      static_cast<int>(cli.get_int("requests", smoke ? 32 : 96));
  const int pool_size = static_cast<int>(cli.get_int("pool", smoke ? 4 : 8));
  const int n = static_cast<int>(cli.get_int("n", smoke ? 10 : 14));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 21));
  const int threads = static_cast<int>(cli.get_int("threads", 0));
  const int clients = static_cast<int>(cli.get_int("clients", smoke ? 4 : 6));
  const std::string out_path = cli.get_string("out", "");
  cli.reject_unknown();

  const auto pool = bench::er_request_pool(pool_size, n, seed);
  std::cout << "E14: serving layer on a pool of " << pool.size()
            << " ER n=" << n << " instances, " << requests
            << " requests per load phase (hardware "
            << std::thread::hardware_concurrency() << " core(s))\n\n";

  // --- calibrate: the oracle is also the service-time measurement.
  api::SolveWorkspace ws;
  std::vector<api::SolveResult> oracle;
  oracle.reserve(pool.size());
  util::Stats direct_ms;
  for (const auto& req : pool) {
    const auto t0 = Clock::now();
    oracle.push_back(api::Solver::solve(req, ws));
    direct_ms.add(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  const double mean_service_seconds = direct_ms.mean() / 1e3;

  api::ServerOptions base;
  base.num_threads = threads;
  base.cache_capacity = 0;  // load phases measure solves, not lookups
  const int worker_threads = [&] {
    const server::SolveService probe(base);
    return probe.num_threads();
  }();
  const double capacity =
      static_cast<double>(worker_threads) / mean_service_seconds;
  std::cout << "calibration: mean direct solve "
            << direct_ms.mean() << " ms -> capacity ~" << capacity
            << " solves/sec on " << worker_threads << " worker thread(s)\n";

  bool all_identical = true;

  // --- nominal: 0.5x capacity, queue deep enough that nothing is shed.
  bench::LoadReport nominal;
  {
    api::ServerOptions opt = base;
    opt.max_pending = static_cast<std::size_t>(requests) + 1;
    server::SolveService service(opt);
    nominal = run_open_loop(service, pool, oracle, requests, clients,
                            0.5 * capacity);
    service.drain();
  }
  all_identical = all_identical && nominal.mismatches == 0;

  // --- overload: 4x capacity into a tiny queue; admission must shed.
  bench::LoadReport overload;
  {
    api::ServerOptions opt = base;
    opt.max_pending = static_cast<std::size_t>(worker_threads) + 2;
    server::SolveService service(opt);
    // More clients than queue slots, so arrivals can actually pile up.
    const int overload_clients =
        std::max(clients, static_cast<int>(opt.max_pending) + 4);
    overload = run_open_loop(service, pool, oracle, requests,
                             overload_clients, 4.0 * capacity);
    service.drain();
  }
  all_identical = all_identical && overload.mismatches == 0;

  // --- cache: same pool twice through a cache-enabled service.
  double cache_speedup = 0.0;
  double hit_rate = 0.0;
  std::uint64_t cache_mismatches = 0;
  {
    api::ServerOptions opt = base;
    opt.cache_capacity = 2 * pool.size();
    // This phase is sequential, so concurrency sharding buys nothing and
    // a single shard makes the LRU budget exact: capacity splits evenly
    // across shards, and 2*pool/8 entries per shard can evict pass-0
    // results before pass 1 reads them.
    opt.cache_shards = 1;
    opt.max_pending = static_cast<std::size_t>(requests) + 1;
    server::SolveService service(opt);
    util::Stats miss_ms;
    util::Stats hit_ms;
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const server::ServeResponse resp = service.serve(pool[i]);
        if (!resp.served() || !bench::same_result(resp.result, oracle[i]))
          ++cache_mismatches;
        if (resp.cache_hit != (pass == 1)) ++cache_mismatches;
        (resp.cache_hit ? hit_ms : miss_ms).add(resp.total_seconds * 1e3);
      }
    const api::ServeStats s = service.stats();
    hit_rate = static_cast<double>(s.cache_hits) /
               static_cast<double>(s.cache_hits + s.cache_misses);
    cache_speedup = hit_ms.count() == 0 || hit_ms.mean() <= 0.0
                        ? 0.0
                        : miss_ms.mean() / hit_ms.mean();
    service.drain();
  }
  all_identical = all_identical && cache_mismatches == 0;

  util::Table table({"phase", "served", "rejected", "p50 ms", "p95 ms",
                     "p99 ms", "reject rate"});
  const auto phase_row = [&](const char* name,
                             const bench::LoadReport& rep) {
    table.row()
        .cell(name)
        .cell(static_cast<std::int64_t>(rep.served))
        .cell(static_cast<std::int64_t>(rep.rejected))
        .cell_fp(rep.latency_ms.percentile(50.0), 2)
        .cell_fp(rep.latency_ms.percentile(95.0), 2)
        .cell_fp(rep.latency_ms.percentile(99.0), 2)
        .cell_fp(rep.rejection_rate(), 3);
  };
  phase_row("nominal (0.5x)", nominal);
  phase_row("overload (4x)", overload);
  table.print();
  std::cout << "\ncache: hit rate " << hit_rate << ", hit speedup "
            << cache_speedup << "x vs miss\n";
  std::cout << "Note: on a single-core host capacity is one worker's "
               "solve rate; ratios (rejection rate, cache speedup, served "
               "fraction) remain meaningful while absolute throughput "
               "does not.\n";

  bench::GateReport report(
      "E14",
      server::wire::ObjectWriter()
          .field("requests", std::int64_t{requests})
          .field("pool", std::int64_t{pool_size})
          .field("n", std::int64_t{n})
          .field("threads", std::int64_t{worker_threads})
          .done(),
      all_identical);
  report
      .section("latency_ms",
               server::wire::ObjectWriter()
                   .field("nominal_p50", nominal.latency_ms.percentile(50.0))
                   .field("nominal_p95", nominal.latency_ms.percentile(95.0))
                   .field("nominal_p99", nominal.latency_ms.percentile(99.0))
                   .done())
      .section("throughput_per_sec",
               server::wire::ObjectWriter()
                   .field("nominal", static_cast<double>(nominal.served) /
                                         nominal.wall_seconds)
                   .done())
      .section("cache_hit_rate", hit_rate)
      .gate("nominal_served_frac", nominal.served_frac(), 1.0)
      .gate("overload_rejection_rate", overload.rejection_rate(), 0.02)
      // Saturate the recorded speedup: a cache hit is a pure lookup, so
      // past ~20x the ratio only measures miss-side cost noise (observed
      // 34x-251x run to run on the same host). Saturation keeps the drift
      // comparison against the committed baseline meaningful; the 5x
      // floor is the bar.
      .gate("cache_speedup", std::min(cache_speedup, 20.0), 5.0);
  if (!report.write(out_path)) return 1;

  if (!all_identical) {
    std::cerr << "FAIL: served results diverged from direct solves ("
              << nominal.mismatches << " nominal, " << overload.mismatches
              << " overload, " << cache_mismatches << " cache)\n";
    return 1;
  }
  if (overload.rejected == 0) {
    std::cerr << "FAIL: overload phase shed no load — admission control "
                 "is not engaging\n";
    return 1;
  }
  if (nominal.rejected != 0) {
    std::cerr << "FAIL: nominal phase rejected " << nominal.rejected
              << " request(s) despite an unbounded queue\n";
    return 1;
  }
  std::cout << "all served results bit-identical to direct solves\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
