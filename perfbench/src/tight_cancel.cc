// tight-cancel: seeded Erdos-Renyi instances in exact mode (Lemma 3),
// kept only when phase 1's answer misses the delay bound.
//
// Why: that filter is a property of the instance, not of timing — every
// kept draw must run bicameral cycle cancellation (the anchor DP) to
// reach a delay-feasible answer, so cancellation carries the work and
// phase 1 is a small share. Every kept draw stays in the pool, slow ones
// included. More closed-loop clients than engine workers keep requests
// waiting in the engine queue, so queue wait shows in the tail. Exact
// mode, because scaled mode's guess search adds a much longer tail.
#include <sstream>

#include "core/phase1.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kVertices = 32;
constexpr double kEdgeProbability = 0.15;
constexpr double kDelaySlack = 0.15;
/// Warm-up instances come from this fixed seed, so set-up does the same
/// work whatever the workload seed.
constexpr std::uint64_t kWarmupSeed = 0x5e7u;

/// Draws `count` ER instances whose phase-1 answer has delay > D.
std::vector<api::Instance> draw_tight(krsp::util::Rng& rng, std::size_t count) {
  krsp::core::RandomInstanceOptions options;
  options.k = 2;
  options.delay_slack = kDelaySlack;
  std::vector<api::Instance> out;
  while (out.size() < count) {
    auto inst = api::random_er_instance(rng, kVertices, kEdgeProbability,
                                        options);
    if (!inst) continue;
    const auto p1 = krsp::core::phase1_lagrangian(*inst);
    if (p1.status == krsp::core::Phase1Status::kApprox &&
        p1.delay > inst->delay_bound)
      out.push_back(std::move(*inst));
  }
  return out;
}

std::string inline_line(const api::Instance& inst, const std::string& id) {
  std::ostringstream text;
  api::write_instance(text, inst);
  return krsp::server::wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("instance", text.str())
      .field("mode", "exact")
      .done();
}

}  // namespace

Report run_tight_cancel(const Args& args) {
  constexpr int kWorkers = 1;
  constexpr int kClients = 3;  // more outstanding requests than workers
  constexpr int kReferenceThreads = 4;
  constexpr double kLimitMs = 100.0;
  // A pass takes about 20 s, so the loop stops on a window of 200
  // requests, not a pass, and its medians get over 30 windows per run.
  constexpr std::size_t kWindow = 200;
  const std::size_t pool_size = args.smoke ? 6 : 3200;

  ServiceWorkload w;
  krsp::util::Rng rng(args.seed);
  for (const api::Instance& inst : draw_tight(rng, pool_size))
    w.lines.push_back(inline_line(inst, numbered("q", w.lines.size())));
  w.refs = solve_references(parse_lines(w.lines, nullptr), kReferenceThreads);
  krsp::util::Rng warm_rng(kWarmupSeed);
  for (const api::Instance& inst : draw_tight(warm_rng, 4))
    w.warmup_lines.push_back(
        inline_line(inst, numbered("warm", w.warmup_lines.size())));

  w.options.num_threads = kWorkers;
  w.options.cache_capacity = args.smoke ? 2 : 256;  // < pool: never hits
  w.options.cache_shards = 1;
  w.clients = kClients;
  w.window = kWindow;
  w.limit_ms = kLimitMs;
  w.require_cancellation = true;
  w.config_json = krsp::server::wire::ObjectWriter()
                      .field("loop", "closed")
                      .field("engine_workers", std::int64_t{kWorkers})
                      .field("clients", std::int64_t{kClients})
                      .field("shards", std::int64_t{0})
                      .field("mode", "exact")
                      .field("vertices", std::int64_t{kVertices})
                      .field("edge_probability", kEdgeProbability)
                      .field("delay_slack", kDelaySlack)
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
