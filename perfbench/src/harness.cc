#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "api/fingerprint.h"
#include "core/phase1.h"
#include "flow/disjoint.h"
#include "server/admission.h"
#include "server/request_parse.h"
#include "server/result_cache.h"
#include "server/service.h"
#include "server/transport.h"
#include "server/wire.h"

namespace perfbench {

namespace core = krsp::core;
namespace server = krsp::server;
namespace wire = krsp::server::wire;

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {

/// Full-size runs: set-ups before and after the measured loop (the median
/// of all of them is setup_s) and the fewest requests a closed loop
/// completes before it may stop. Set-ups on both sides of the loop sample
/// the host at two moments some seconds apart, not one.
constexpr int kSetupRepsBefore = 5;
constexpr int kSetupRepsAfter = 4;
constexpr std::size_t kMinRequests = 1000;

/// Median and tail of a latency sample. The tail is the highest of
/// p99.9 / p99 / p90 / p50 that still has at least ten samples beyond it.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};

/// Result of one closed-loop phase.
struct LoopResult {
  std::vector<double> latency_ms;  // per completed request
  std::vector<std::uint32_t> request_index;  // pool index of each sample
  std::vector<double> done_s;  // completion time of each sample, s from start
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Requests that were ok *and* finished within the latency limit.
  std::uint64_t ontime = 0;
  double wall_seconds = 0.0;
};

/// Per-layer metrics from sweeping the workload's distinct requests
/// through each module's public functions, in the order SolveService
/// calls them: wire parse, fingerprint, cache lookup, admission, phase 1,
/// solve, cache insert — then Protocol::handle_line on a cache hit.
/// Solver-internal counts come from the references' SolveTelemetry.
struct LayerSweep {
  double parse_us = 0.0;
  double fingerprint_us = 0.0;
  double cache_lookup_us = 0.0;
  double cache_insert_us = 0.0;
  double admission_us = 0.0;
  double handle_us = 0.0;
  double phase1_ms = 0.0;
  double phase1_mcmf_calls = 0.0;
  double mcmf_ms_per_call = 0.0;
  double solve_ms = 0.0;
  double cancel_ms = 0.0;
  double cancel_iterations = 0.0;
  double guess_attempts = 0.0;
  double anchors_scanned = 0.0;
  double anchors_pruned_frac = 0.0;
  double peak_dp_bytes = 0.0;
  /// Protocol::handle_line responses checked against their references.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Per-request breakdown a traced in-process load phase records from each
/// ServeResponse (fields the service always measures).
struct ServeTrace {
  std::vector<double> total_ms;
  std::vector<double> lookup_ms;     // fingerprint + cache probe
  std::vector<double> admission_ms;
  std::vector<double> queue_wait_ms;  // engine queue (0 on a cache hit)
  std::vector<double> solve_ms;       // solver wall (0 on a cache hit)

  void record(double total, double lookup, double admission, double queue,
              double solve);
  void append(const ServeTrace& other);
};

/// One layer's mean time per request in a traced phase.
struct LayerPart {
  const char* name;
  double ms;
};

/// The tail percentile is chosen for `basis` samples (at most the sample
/// count; 0 means the sample count), so runs that only differ in length
/// can be held to the same percentile.
LatencySummary summarize(const std::vector<double>& samples,
                         std::size_t basis = 0) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  basis = basis == 0 ? s.count : std::min(basis, s.count);
  s.p50 = percentile(samples, 50.0);
  s.tail_percentile = 50.0;
  for (const double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(basis) * (100.0 - p) / 100.0 >= 10.0) {
      s.tail_percentile = p;
      break;
    }
  }
  s.tail = percentile(samples, s.tail_percentile);
  return s;
}

/// Starts the window peak_rss_mb() reports: returns freed heap to the
/// kernel, then resets this process's peak-RSS mark to its current RSS
/// (Linux /proc/self/clear_refs). Reference solves and earlier set-ups
/// then no longer set the peak. Returns false when the mark could not be
/// reset; the peak then covers the whole process.
bool start_peak_rss_window() {
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident set size of this process since the last reset, MiB:
/// VmHWM from /proc/self/status, else getrusage's lifetime peak.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The delay bound each mode guarantees: (1, 2) exact, (1+eps1, 2+eps2)
/// scaled, and Lemma 5's delay/D + cost/C_LP <= 2 (so delay <= 2D) for
/// phase 1 alone.
bool within_delay_bound(const api::SolveRequest& request, graph::Delay delay,
                        graph::Delay bound) {
  switch (request.mode) {
    case api::Mode::kExactWeights:
      return delay <= bound;
    case api::Mode::kScaled:
      return static_cast<double>(delay) <=
             (1.0 + request.eps1) * static_cast<double>(bound) + 1e-9;
    case api::Mode::kPhase1Only:
      return delay <= 2 * bound;
  }
  return false;
}

/// True when (status, cost, delay, paths) equal the reference.
bool matches(const Reference& ref, api::SolveStatus status, graph::Cost cost,
             graph::Delay delay,
             const std::vector<std::vector<graph::EdgeId>>& paths) {
  return status == ref.status && cost == ref.cost && delay == ref.delay &&
         paths == ref.paths;
}

/// cost / lower bound of an answered reference.
double cost_ratio(const Reference& ref) {
  if (ref.lower_bound <= 0.0) return ref.cost == 0 ? 1.0 : 0.0;
  return static_cast<double>(ref.cost) / ref.lower_bound;
}

/// Closed loop: `clients` threads each send their next request only after
/// the previous one completes, walking the pool in order. Once both
/// `seconds` have passed and at least `min_requests` completed, the loop
/// stops at the next multiple of `unit` requests sent — a whole number of
/// passes when `unit` is the pool size, so such runs measure whole copies
/// of the same multiset. `serve(client, index)` performs one request,
/// returns true when its response passed every check.
LoopResult run_closed_loop(
    int clients, std::size_t pool_size, std::size_t unit, double seconds,
    std::size_t min_requests, double limit_ms,
    const std::function<bool(int client, std::size_t index)>& serve) {
  constexpr std::size_t kNoStop = ~std::size_t{0};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> stop_at{kNoStop};
  std::atomic<std::size_t> completed{0};
  struct ClientLog {
    std::vector<double> latency_ms;
    std::vector<std::uint32_t> index;
    std::vector<double> done_s;
    std::uint64_t failed = 0;
    std::uint64_t ontime = 0;
  };
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  // Hard cap so a pathological slowdown still ends the run in time.
  const double cap_seconds = std::max(seconds * 4.0, seconds + 60.0);

  const auto client = [&](int c) {
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= stop_at.load()) break;
      const auto t0 = Clock::now();
      const bool ok = serve(c, i % pool_size);
      const auto t1 = Clock::now();
      const double ms = seconds_between(t0, t1) * 1e3;
      log.latency_ms.push_back(ms);
      log.index.push_back(static_cast<std::uint32_t>(i % pool_size));
      log.done_s.push_back(seconds_between(start, t1));
      if (!ok) ++log.failed;
      if (ok && ms <= limit_ms) ++log.ontime;
      const std::size_t done = completed.fetch_add(1) + 1;
      const double elapsed = seconds_between(start, t1);
      if ((elapsed >= seconds && done >= min_requests) ||
          elapsed >= cap_seconds) {
        // Finish the current unit: whole passes or whole windows.
        std::size_t expected = kNoStop;
        const std::size_t last = std::max(i, next.load() - 1);
        const std::size_t boundary =
            elapsed >= cap_seconds ? last + 1 : (last / unit + 1) * unit;
        stop_at.compare_exchange_strong(expected, boundary);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& th : threads) th.join();

  LoopResult out;
  out.wall_seconds = seconds_between(start, Clock::now());
  for (const ClientLog& log : logs) {
    out.latency_ms.insert(out.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    out.request_index.insert(out.request_index.end(), log.index.begin(),
                             log.index.end());
    out.done_s.insert(out.done_s.end(), log.done_s.begin(), log.done_s.end());
    out.failed += log.failed;
    out.ontime += log.ontime;
  }
  out.attempted = out.latency_ms.size();
  return out;
}

/// Runs `setup` `reps` times, destroying the previous instance first, and
/// appends each wall time (seconds) to `times`. The last instance stays
/// alive.
void time_setups(int reps, const std::function<void()>& teardown,
                 const std::function<void()>& setup,
                 std::vector<double>& times) {
  for (int r = 0; r < reps; ++r) {
    teardown();
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
}

/// JSON line with the number and median (ms) of the set-ups timed before
/// and after the measured loop.
std::string setup_detail(const std::vector<double>& times,
                         std::size_t before) {
  const std::vector<double> first(times.begin(), times.begin() + before);
  const std::vector<double> second(times.begin() + before, times.end());
  return wire::ObjectWriter()
      .field("detail", "setup")
      .field("reps_before_loop", static_cast<std::uint64_t>(first.size()))
      .field("median_before_ms", median(first) * 1e3)
      .field("reps_after_loop", static_cast<std::uint64_t>(second.size()))
      .field("median_after_ms", median(second) * 1e3)
      .done();
}

/// JSON line naming the tail percentile and the sample count.
std::string tail_detail(const std::string& phase, const LatencySummary& s) {
  return wire::ObjectWriter()
      .field("detail", "latency")
      .field("phase", phase)
      .field("samples", static_cast<std::uint64_t>(s.count))
      .field("p50_ms", s.p50)
      .field("tail_percentile", s.tail_percentile)
      .field("tail_ms", s.tail)
      .field("samples_beyond_tail",
             static_cast<std::uint64_t>(
                 static_cast<double>(s.count) *
                 (100.0 - s.tail_percentile) / 100.0))
      .done();
}

/// Throughput and median latency of each window of `size` consecutive
/// completions; a window runs from the previous window's last completion
/// (the loop start for the first) to its own last completion.
struct Windows {
  std::vector<double> rps;
  std::vector<double> p50_ms;
};

Windows split_windows(const LoopResult& loop, std::size_t size) {
  std::vector<std::size_t> order(loop.done_s.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return loop.done_s[a] < loop.done_s[b];
  });
  Windows out;
  double from = 0.0;
  for (std::size_t end = size; size > 0 && end <= order.size(); end += size) {
    std::vector<double> latency;
    for (std::size_t j = end - size; j < end; ++j)
      latency.push_back(loop.latency_ms[order[j]]);
    const double to = loop.done_s[order[end - 1]];
    out.rps.push_back(static_cast<double>(size) / (to - from));
    out.p50_ms.push_back(median(std::move(latency)));
    from = to;
  }
  return out;
}

/// JSON line with the window count and size and the quartiles of the
/// per-window throughput.
std::string windows_detail(const Windows& w, std::size_t size) {
  wire::ObjectWriter out;
  out.field("detail", "windows")
      .field("windows", static_cast<std::uint64_t>(w.rps.size()))
      .field("requests_per_window", static_cast<std::uint64_t>(size));
  if (!w.rps.empty())
    out.field("rps_q1", percentile(w.rps, 25.0))
        .field("rps_median", median(w.rps))
        .field("rps_q3", percentile(w.rps, 75.0));
  return out.done();
}

/// The end-to-end metrics shared by the closed-loop workloads.
/// throughput_rps and latency_p50_ms are medians over windows of
/// `window` consecutive completions, so a host slowdown that covers less
/// than half of the loop does not move them; the tail and the shares
/// pool every sample. The tail percentile is the one `min_requests`
/// samples allow, whatever the loop's length.
void add_closed_loop_metrics(Report& report, const LoopResult& loop,
                             std::size_t window, std::size_t min_requests,
                             const std::vector<Reference>& refs,
                             double setup_s, double peak_rss) {
  const LatencySummary lat = summarize(loop.latency_ms, min_requests);
  const Windows windows = split_windows(loop, window);
  // Every reference has paths, so every request in the loop is answered.
  std::vector<double> ratios;
  for (const std::uint32_t i : loop.request_index)
    ratios.push_back(cost_ratio(refs[i]));
  report.attempted += loop.attempted;
  report.failed += loop.failed;
  report.add("setup_s", setup_s, "s");
  // A loop too short for one window (--smoke) falls back to the whole loop.
  report.add("throughput_rps",
             windows.rps.empty()
                 ? static_cast<double>(loop.attempted - loop.failed) /
                       loop.wall_seconds
                 : median(windows.rps),
             "1/s");
  report.add("latency_p50_ms",
             windows.p50_ms.empty() ? lat.p50 : median(windows.p50_ms), "ms");
  report.add("latency_tail_ms", lat.tail, "ms");
  report.add("ontime_frac",
             loop.attempted == 0 ? 0.0
                                 : static_cast<double>(loop.ontime) /
                                       static_cast<double>(loop.attempted),
             "frac");
  report.add("cost_ratio_mean", mean(ratios), "ratio");
  report.add("peak_rss_mb", peak_rss, "MiB");
  report.details.push_back(tail_detail("closed_loop", lat));
  report.details.push_back(windows_detail(windows, window));
}

void ServeTrace::record(double total, double lookup, double admission,
                        double queue, double solve) {
  total_ms.push_back(total);
  lookup_ms.push_back(lookup);
  admission_ms.push_back(admission);
  queue_wait_ms.push_back(queue);
  solve_ms.push_back(solve);
}

void ServeTrace::append(const ServeTrace& other) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(total_ms, other.total_ms);
  cat(lookup_ms, other.lookup_ms);
  cat(admission_ms, other.admission_ms);
  cat(queue_wait_ms, other.queue_wait_ms);
  cat(solve_ms, other.solve_ms);
}

/// Engine, cache and admission metrics of a traced load phase:
/// engine.queue_wait_ms_p50/_tail, engine.busy_frac, cache.hit_frac,
/// cache.evictions_per_req, admission.rejected_frac. The counters come
/// from the difference of the service stats taken before and after it.
void add_serving_metrics(Report& report, const ServeTrace& trace,
                         const api::ServeStats& before,
                         const api::ServeStats& after, int workers,
                         double wall_seconds) {
  std::vector<double> waits;
  double busy_ms = 0.0;
  for (std::size_t j = 0; j < trace.solve_ms.size(); ++j) {
    if (trace.solve_ms[j] <= 0.0) continue;  // cache hit: no engine visit
    waits.push_back(trace.queue_wait_ms[j]);
    busy_ms += trace.solve_ms[j];
  }
  const LatencySummary wait = summarize(waits);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double received = std::max(1.0, delta(before.received, after.received));
  const double lookups = delta(before.cache_hits, after.cache_hits) +
                         delta(before.cache_misses, after.cache_misses);
  report.add("engine.queue_wait_ms_p50", wait.p50, "ms");
  report.add("engine.queue_wait_ms_tail", wait.tail, "ms");
  report.add("engine.busy_frac",
             busy_ms / 1e3 / (static_cast<double>(workers) * wall_seconds),
             "frac");
  report.add("cache.hit_frac",
             lookups == 0.0
                 ? 0.0
                 : delta(before.cache_hits, after.cache_hits) / lookups,
             "frac");
  report.add("cache.evictions_per_req",
             delta(before.cache_evictions, after.cache_evictions) / received,
             "count");
  report.add("admission.rejected_frac",
             (delta(before.rejected_queue_full, after.rejected_queue_full) +
              delta(before.rejected_deadline, after.rejected_deadline)) /
                 received,
             "frac");
  report.details.push_back(tail_detail("engine_queue_wait", wait));
}

/// Each layer's share of the mean request time and the unaccounted
/// remainder: a details line plus the layer.unaccounted_frac metric.
void add_layer_shares(Report& report, double request_ms,
                      const std::vector<LayerPart>& parts) {
  wire::ObjectWriter w;
  w.field("detail", "layer_shares");
  w.field("mean_request_ms", request_ms);
  double accounted = 0.0;
  for (const LayerPart& part : parts) {
    const double frac = request_ms > 0.0 ? part.ms / request_ms : 0.0;
    accounted += frac;
    w.field(part.name, frac);
  }
  w.field("unaccounted", 1.0 - accounted);
  report.details.push_back(w.done());
  report.add("layer.unaccounted_frac", 1.0 - accounted, "frac");
}

/// The phase-1 part of a mean solve time, split by the sweep's ratio of
/// phase-1 time to solve time on the same requests.
double phase1_part_ms(double solve_ms, const LayerSweep& sweep) {
  return sweep.solve_ms > 0.0
             ? solve_ms * std::min(1.0, sweep.phase1_ms / sweep.solve_ms)
             : 0.0;
}

/// Sweeps up to `max_lines` of `lines` (one wire line per distinct
/// request, in workload order; telemetry counts use every reference).
/// `options` configures the replica cache and admission controller and
/// the side service behind Protocol::handle_line.
LayerSweep sweep_layers(const std::vector<std::string>& lines,
                        const std::vector<Reference>& refs,
                        const krsp::store::TopologyCatalog* catalog,
                        const api::ServerOptions& options,
                        std::size_t max_lines) {
  constexpr int kMicroReps = 5;
  LayerSweep out;
  CallTimer parse_t, fp_t, lookup_t, insert_t, admit_t, handle_t;
  std::vector<double> phase1_ms, solve_ms, mcmf_calls;

  server::ResultCache cache(options.cache_capacity, options.cache_shards);
  server::AdmissionOptions admission_options;
  admission_options.max_pending = options.max_pending;
  admission_options.max_pending_batch = options.max_pending_batch;
  admission_options.deadline_aware = options.deadline_aware_admission;
  admission_options.service_time_prior_seconds =
      options.service_time_prior_seconds;
  admission_options.degrade_wait_seconds = options.degrade_wait_seconds;
  server::AdmissionController admission(admission_options,
                                        std::max(1, options.num_threads));
  api::ServerOptions side_options = options;
  side_options.num_threads = 1;
  server::SolveService side(side_options);
  server::Protocol protocol(side, catalog);
  api::SolveWorkspace ws;

  const std::size_t n = std::min(lines.size(), max_lines);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& line = lines[i];
    api::SolveRequest req;
    for (int r = 0; r < kMicroReps; ++r) {
      parse_t.time([&] {
        std::string error;
        const auto value = wire::parse(line, &error);
        if (!value || !server::parse_solve_request(*value, catalog, &req,
                                                   nullptr, &error))
          throw std::runtime_error("sweep parse: " + error);
      });
    }
    api::FingerprintPair fp;
    for (int r = 0; r < kMicroReps; ++r)
      fp = fp_t.time([&] { return api::request_fingerprints(req); });
    (void)lookup_t.time([&] { return cache.lookup(fp.key, fp.verify); });
    for (int r = 0; r < kMicroReps; ++r) {
      admit_t.time([&] {
        (void)admission.admit(req.deadline_seconds, req.sla);
        admission.on_complete(0.0, req.sla);
      });
    }

    const api::Instance inst = req.query_override
                                   ? req.materialized_instance()
                                   : req.instance_view();
    // One untimed pass first: the workspace caches the MCMF network per
    // topology, and phase 1 and the solve should both find it warm.
    (void)core::phase1_lagrangian(inst, {}, &ws.mcmf);
    const auto p0 = Clock::now();
    const core::Phase1Result p1 = core::phase1_lagrangian(inst, {}, &ws.mcmf);
    phase1_ms.push_back(seconds_between(p0, Clock::now()) * 1e3);
    mcmf_calls.push_back(p1.mcmf_calls);
    const auto s0 = Clock::now();
    api::SolveResult result = api::Solver::solve(req, ws);
    solve_ms.push_back(seconds_between(s0, Clock::now()) * 1e3);
    result.tag.clear();
    insert_t.time([&] { cache.insert(fp.key, fp.verify, result); });
    for (int r = 0; r < kMicroReps; ++r)
      (void)lookup_t.time([&] { return cache.lookup(fp.key, fp.verify); });

    // The first call misses (solves and caches); the timed repeats hit.
    ++out.attempted;
    if (!response_matches(protocol.handle_line(line), refs[i])) ++out.failed;
    for (int r = 0; r < kMicroReps; ++r) {
      const std::string resp =
          handle_t.time([&] { return protocol.handle_line(line); });
      ++out.attempted;
      if (resp.find("\"cache_hit\":true") == std::string::npos ||
          !response_matches(resp, refs[i]))
        ++out.failed;
    }
  }
  side.drain();

  out.parse_us = parse_t.median_us();
  out.fingerprint_us = fp_t.median_us();
  out.cache_lookup_us = lookup_t.median_us();
  out.cache_insert_us = insert_t.median_us();
  out.admission_us = admit_t.median_us();
  out.handle_us = handle_t.median_us();
  out.phase1_ms = mean(phase1_ms);
  out.phase1_mcmf_calls = mean(mcmf_calls);
  out.mcmf_ms_per_call =
      out.phase1_mcmf_calls > 0.0 ? out.phase1_ms / out.phase1_mcmf_calls
                                  : 0.0;
  out.solve_ms = mean(solve_ms);
  out.cancel_ms = out.solve_ms - out.phase1_ms;

  // Solver-internal counts over every distinct request (deterministic).
  double iterations = 0.0, guesses = 0.0, scanned = 0.0, pruned = 0.0,
         peak = 0.0;
  for (const Reference& ref : refs) {
    const auto& cancel = ref.telemetry.cancel;
    iterations += static_cast<double>(cancel.iterations);
    guesses += ref.telemetry.guess_attempts;
    scanned += static_cast<double>(cancel.finder_stats.anchors_scanned);
    pruned += static_cast<double>(cancel.finder_stats.anchors_pruned);
    peak = std::max(peak,
                    static_cast<double>(cancel.finder_stats.peak_dp_bytes));
  }
  const double count = std::max<double>(1.0, static_cast<double>(refs.size()));
  out.cancel_iterations = iterations / count;
  out.guess_attempts = guesses / count;
  out.anchors_scanned = scanned / count;
  out.anchors_pruned_frac =
      scanned + pruned > 0.0 ? pruned / (scanned + pruned) : 0.0;
  out.peak_dp_bytes = peak;
  return out;
}

/// Adds the sweep's metrics under their per-layer names.
void add_sweep_metrics(Report& report, const LayerSweep& s) {
  report.add("wire.parse_us", s.parse_us, "us");
  report.add("wire.handle_us", s.handle_us, "us");
  report.add("fingerprint.us", s.fingerprint_us, "us");
  report.add("cache.lookup_us", s.cache_lookup_us, "us");
  report.add("cache.insert_us", s.cache_insert_us, "us");
  report.add("admission.us", s.admission_us, "us");
  report.add("phase1.ms", s.phase1_ms, "ms");
  report.add("phase1.mcmf_calls", s.phase1_mcmf_calls, "count");
  report.add("mcmf.ms_per_call", s.mcmf_ms_per_call, "ms");
  report.add("cancel.ms", s.cancel_ms, "ms");
  report.add("cancel.iterations", s.cancel_iterations, "count");
  report.add("solve.guess_attempts", s.guess_attempts, "count");
  report.add("bicameral.anchors_scanned", s.anchors_scanned, "count");
  report.add("bicameral.anchors_pruned_frac", s.anchors_pruned_frac, "frac");
  report.add("bicameral.peak_dp_bytes", s.peak_dp_bytes, "bytes");
}

/// Host shape: nproc, build type, compiler, OMP_NUM_THREADS, seed.
std::string host_detail(const Args& args, const std::string& workload_fields) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return wire::ObjectWriter()
      .field("detail", "host")
      .field("workload", args.workload)
      .field("seed", args.seed)
      .field("seconds", args.seconds)
      .field("trace", args.trace)
      .field("smoke", args.smoke)
      .field("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", KRSP_PERFBENCH_BUILD_TYPE)
      .field("compiler", KRSP_PERFBENCH_COMPILER)
      .field("omp_num_threads", omp == nullptr ? "unset" : omp)
      .raw("config", workload_fields)
      .done();
}

/// Median wall time of TopologyCatalog::load over `reps` loads, ms.
double catalog_load_ms(const std::string& dir, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const auto catalog = krsp::store::TopologyCatalog::load(dir);
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (catalog.empty()) throw std::runtime_error("empty catalog: " + dir);
  }
  return median(ms);
}

}  // namespace

std::vector<Reference> solve_references(
    const std::vector<api::SolveRequest>& requests, int threads) {
  std::vector<Reference> refs(requests.size());
  std::vector<std::string> errors(requests.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    api::SolveWorkspace ws;
    for (std::size_t i = next++; i < requests.size(); i = next++) {
      const api::SolveRequest& req = requests[i];
      const api::SolveResult r = api::Solver::solve(req, ws);
      const api::Instance inst = req.query_override
                                     ? req.materialized_instance()
                                     : req.instance_view();
      std::string why;
      if (!r.has_paths()) {
        errors[i] = std::string("no paths: ") + api::status_name(r.status) +
                    " " + r.error;
      } else if (!r.paths.is_valid(inst, &why)) {
        errors[i] = "invalid path set: " + why;
      } else if (!within_delay_bound(req, r.delay, inst.delay_bound)) {
        errors[i] = "delay bound violated";
      }
      Reference& ref = refs[i];
      ref.status = r.status;
      ref.cost = r.cost;
      ref.delay = r.delay;
      ref.paths = r.paths.paths();
      ref.lower_bound = r.telemetry.cost_lower_bound.to_double();
      ref.telemetry = r.telemetry;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  for (std::size_t i = 0; i < errors.size(); ++i)
    if (!errors[i].empty())
      throw std::runtime_error(numbered("reference ", i) + ": " +
                               errors[i]);
  return refs;
}

std::vector<Query> draw_lagrange_queries(const api::TopologyRef& ref,
                                         std::size_t count,
                                         krsp::util::Rng& rng) {
  const graph::Digraph& g = ref.instance->graph;
  const int k = ref.instance->k;
  // The same lexicographic weights phase 1 brackets lambda with.
  const std::int64_t cost_heavy = g.total_delay() + 1;
  const std::int64_t delay_heavy = g.total_cost() + 1;
  std::vector<Query> out;
  std::set<std::tuple<graph::VertexId, graph::VertexId, graph::Delay>> seen;
  for (std::size_t attempt = 0; out.size() < count && attempt < count * 400;
       ++attempt) {
    const auto s =
        static_cast<graph::VertexId>(rng.uniform_int(0, g.num_vertices() - 1));
    const auto t =
        static_cast<graph::VertexId>(rng.uniform_int(0, g.num_vertices() - 1));
    if (s == t) continue;
    const auto min_delay =
        krsp::flow::min_weight_disjoint_paths(g, s, t, k, 1, delay_heavy);
    const auto min_cost =
        krsp::flow::min_weight_disjoint_paths(g, s, t, k, cost_heavy, 1);
    if (!min_delay || !min_cost ||
        min_cost->total_delay - min_delay->total_delay < 2)
      continue;
    const graph::Delay bound = rng.uniform_int(min_delay->total_delay + 1,
                                               min_cost->total_delay - 1);
    if (!seen.emplace(s, t, bound).second) continue;
    out.push_back({ref.id, s, t, k, bound});
  }
  if (out.size() < count)
    throw std::runtime_error("too few lambda-search queries on " + ref.id);
  return out;
}

std::string query_line(const Query& q, const std::string& id,
                       const char* mode) {
  return wire::ObjectWriter()
      .field("op", "solve")
      .field("id", id)
      .field("topology", q.topology)
      .field("s", static_cast<std::int64_t>(q.s))
      .field("t", static_cast<std::int64_t>(q.t))
      .field("k", static_cast<std::int64_t>(q.k))
      .field("delay_bound", static_cast<std::int64_t>(q.delay_bound))
      .field("mode", mode)
      .done();
}

std::string expected_fragment(const Reference& ref) {
  std::string paths = "[";
  for (std::size_t p = 0; p < ref.paths.size(); ++p) {
    if (p > 0) paths += ',';
    paths += '[';
    for (std::size_t e = 0; e < ref.paths[p].size(); ++e) {
      if (e > 0) paths += ',';
      paths += std::to_string(ref.paths[p][e]);
    }
    paths += ']';
  }
  paths += ']';
  const std::string object =
      wire::ObjectWriter()
          .field("status", api::status_name(ref.status))
          .field("cost", static_cast<std::int64_t>(ref.cost))
          .field("delay", static_cast<std::int64_t>(ref.delay))
          .raw("paths", paths)
          .done();
  return object.substr(1, object.size() - 2);  // drop the braces
}

bool response_matches(const std::string& response, const Reference& ref) {
  return response.find("\"served\":true") != std::string::npos &&
         response.find(expected_fragment(ref)) != std::string::npos;
}

std::vector<api::SolveRequest> parse_lines(
    const std::vector<std::string>& lines,
    const krsp::store::TopologyCatalog* catalog) {
  std::vector<api::SolveRequest> out(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    const auto value = wire::parse(lines[i], &error);
    if (!value || !server::parse_solve_request(*value, catalog, &out[i],
                                               nullptr, &error))
      throw std::runtime_error(numbered("request line ", i) + ": " +
                               error);
  }
  return out;
}

Report run_service_workload(const Args& args, const ServiceWorkload& w) {
  Report report;
  report.details.push_back(host_detail(args, w.config_json));
  std::optional<krsp::store::TopologyCatalog> catalog;
  std::optional<server::SolveService> service;
  const auto live_catalog = [&]() -> const krsp::store::TopologyCatalog* {
    return catalog ? &*catalog : nullptr;
  };
  const auto teardown = [&] {
    service.reset();
    catalog.reset();
  };
  const auto setup = [&] {
    if (w.uses_catalog)
      catalog.emplace(krsp::store::TopologyCatalog::load(args.corpus));
    service.emplace(w.options);
    for (const api::SolveRequest& req :
         parse_lines(w.warmup_lines, live_catalog())) {
      const server::ServeResponse r = service->serve(req);
      if (!r.served() || !r.result.has_paths())
        throw std::runtime_error("warm-up request failed");
    }
  };
  std::vector<double> setup_times;
  time_setups(args.smoke ? 1 : kSetupRepsBefore, teardown, setup,
              setup_times);
  const std::size_t min_requests = args.smoke ? 6 : kMinRequests;
  const std::vector<api::SolveRequest> pool =
      parse_lines(w.lines, live_catalog());
  const std::size_t window =
      w.window == 0 ? pool.size() : std::min(w.window, pool.size());

  const auto check = [&](std::size_t i, const server::ServeResponse& r) {
    return r.served() &&
           matches(w.refs[i], r.result.status, r.result.cost, r.result.delay,
                   r.result.paths.paths());
  };

  if (!args.trace) {
    // peak_rss_mb covers the serving phase only: the live set-up plus what
    // the loop adds, not the reference solves or the other set-ups.
    const bool rss_window = start_peak_rss_window();
    const LoopResult loop = run_closed_loop(
        w.clients, pool.size(), window, args.seconds, min_requests,
        w.limit_ms,
        [&](int, std::size_t i) { return check(i, service->serve(pool[i])); });
    const double peak_rss = peak_rss_mb();
    const std::size_t setups_before = setup_times.size();
    time_setups(args.smoke ? 0 : kSetupRepsAfter, teardown, setup,
                setup_times);
    add_closed_loop_metrics(report, loop, window, min_requests, w.refs,
                            median(setup_times), peak_rss);
    report.details.push_back(setup_detail(setup_times, setups_before));
    report.details.push_back(wire::ObjectWriter()
                                 .field("detail", "peak_rss")
                                 .field("window", rss_window ? "serving"
                                                             : "process")
                                 .done());
  } else {
    // Untraced half, then the traced half recording each response's
    // breakdown; the p50 difference is the tracing overhead.
    const LoopResult plain = run_closed_loop(
        w.clients, pool.size(), window, args.seconds / 2, min_requests / 2,
        w.limit_ms,
        [&](int, std::size_t i) { return check(i, service->serve(pool[i])); });
    std::vector<ServeTrace> traces(static_cast<std::size_t>(w.clients));
    const api::ServeStats before = service->stats();
    const LoopResult traced = run_closed_loop(
        w.clients, pool.size(), window, args.seconds / 2, min_requests / 2,
        w.limit_ms, [&](int c, std::size_t i) {
          const auto t0 = Clock::now();
          const server::ServeResponse r = service->serve(pool[i]);
          traces[static_cast<std::size_t>(c)].record(
              seconds_between(t0, Clock::now()) * 1e3,
              r.cache_lookup_seconds * 1e3, r.admission_seconds * 1e3,
              // A hit returns the cached result's own queue wait and
              // solve wall; this request visited neither.
              r.cache_hit ? 0.0 : r.result.queue_wait_seconds * 1e3,
              r.cache_hit ? 0.0 : r.result.telemetry.wall_seconds * 1e3);
          return check(i, r);
        });
    const api::ServeStats after = service->stats();
    ServeTrace trace;
    for (const ServeTrace& t : traces) trace.append(t);
    report.attempted = plain.attempted + traced.attempted;
    report.failed = plain.failed + traced.failed;

    add_serving_metrics(report, trace, before, after, w.options.num_threads,
                        traced.wall_seconds);
    const LayerSweep sweep = sweep_layers(w.lines, w.refs, live_catalog(),
                                          w.options, args.smoke ? 4 : 48);
    add_sweep_metrics(report, sweep);
    report.attempted += sweep.attempted;
    report.failed += sweep.failed;
    const double solve = mean(trace.solve_ms);
    const double phase1 = phase1_part_ms(solve, sweep);
    std::size_t solved = 0;
    for (const double ms : trace.solve_ms) solved += ms > 0.0 ? 1 : 0;
    const double solved_frac = static_cast<double>(solved) /
                               static_cast<double>(trace.solve_ms.size());
    add_layer_shares(
        report, mean(trace.total_ms),
        {{"cache_lookup", mean(trace.lookup_ms)},  // fingerprint + probe
         {"cache_insert", sweep.cache_insert_us / 1e3 * solved_frac},
         {"admission", mean(trace.admission_ms)},
         {"queue_wait", mean(trace.queue_wait_ms)},
         {"phase1", phase1},
         {"cancel", solve - phase1}});
    report.add("store.catalog_load_ms",
               w.uses_catalog ? catalog_load_ms(args.corpus, 5) : 0.0, "ms");
    const FleetLayers fleet = measure_fleet_layers(
        w.lines, w.refs, live_catalog(), w.options, sweep.handle_us,
        args.smoke ? 4 : 192, args.smoke ? 4 : 48);
    report.attempted += fleet.attempted;
    report.failed += fleet.failed;
    report.add("transport.rtt_overhead_us", fleet.transport_us, "us");
    report.add("router.hop_overhead_us", fleet.hop_us, "us");
    report.add("router.shard_imbalance", fleet.shard_imbalance, "ratio");
    const double plain_p50 = median(plain.latency_ms);
    report.add("trace.overhead_frac",
               (median(traced.latency_ms) - plain_p50) / plain_p50, "frac");
  }
  teardown();
  if (w.require_cancellation)
    for (const Reference& ref : w.refs)
      if (ref.telemetry.cancel.iterations <= 0) report.correct = false;
  report.correct = report.correct && report.failed == 0;
  return report;
}

}  // namespace perfbench
