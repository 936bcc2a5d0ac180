// corpus-lagrange: per-topology (s, t, k, D) overrides of the three
// committed corpus topologies, served in phase-1 mode (Lemma 5).
//
// Why: every D lies strictly between the delays of the min-delay and the
// min-cost k-flows, so every request runs phase 1's Lagrangian lambda
// search — MCMF calls do nearly all the work (road-grid64 and ba4000 are
// 4k-vertex graphs). One closed-loop client per engine worker keeps the
// queue empty, and the pool is larger than the result cache and walked
// cyclically, so the LRU never hits: cache, queue and cancellation carry
// almost nothing. This is the workload a faster phase 1 must move.
#include <algorithm>

#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

Report run_corpus_lagrange(const Args& args) {
  constexpr int kWorkers = 2;
  constexpr int kClients = kWorkers;
  constexpr int kReferenceThreads = 4;
  constexpr double kLimitMs = 30.0;
  constexpr std::size_t kBlock = 16;
  const std::size_t per_topology = args.smoke ? 3 : 64;

  const auto catalog = krsp::store::TopologyCatalog::load(args.corpus);
  krsp::util::Rng rng(args.seed);
  std::vector<std::vector<Query>> queries;
  for (const auto& info : catalog.list())
    queries.push_back(
        draw_lagrange_queries(*catalog.find(info.id), per_topology, rng));

  ServiceWorkload w;
  // Blocks of kBlock queries per topology, the topologies taking turns:
  // a worker then solves several requests in a row on one topology's
  // network, which stays in its core's own cache, so a neighbour
  // thrashing the shared cache moves the figures less. Any kBlock * 3
  // consecutive lines (the layer sweep's sample, say) hold every
  // topology equally.
  for (std::size_t j0 = 0; j0 < per_topology; j0 += kBlock)
    for (const auto& topo : queries)
      for (std::size_t j = j0; j < std::min(per_topology, j0 + kBlock); ++j)
        w.lines.push_back(query_line(topo[j], numbered("q", w.lines.size()),
                                     "phase1"));
  w.refs = solve_references(parse_lines(w.lines, &catalog), kReferenceThreads);
  for (const auto& info : catalog.list())
    w.warmup_lines.push_back(krsp::server::wire::ObjectWriter()
                                 .field("op", "solve")
                                 .field("id", "warm-" + info.id)
                                 .field("topology", info.id)
                                 .field("mode", "phase1")
                                 .done());

  w.options.num_threads = kWorkers;
  w.options.cache_capacity = per_topology;  // < pool: cyclic walk never hits
  w.options.cache_shards = 1;
  w.clients = kClients;
  w.limit_ms = kLimitMs;
  w.uses_catalog = true;
  w.config_json = krsp::server::wire::ObjectWriter()
                      .field("loop", "closed")
                      .field("engine_workers", std::int64_t{kWorkers})
                      .field("clients", std::int64_t{kClients})
                      .field("shards", std::int64_t{0})
                      .field("mode", "phase1")
                      .field("topologies",
                             static_cast<std::uint64_t>(queries.size()))
                      .field("distinct_requests",
                             static_cast<std::uint64_t>(w.lines.size()))
                      .field("cache_capacity",
                             static_cast<std::uint64_t>(w.options.cache_capacity))
                      .field("latency_limit_ms", kLimitMs)
                      .field("reference_threads", std::int64_t{kReferenceThreads})
                      .done();
  return run_service_workload(args, w);
}

}  // namespace perfbench
