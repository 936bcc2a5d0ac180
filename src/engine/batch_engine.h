// Streaming solve dispatcher (implementation behind api::Engine).
//
// A fixed-size pool of worker threads drains a bounded MPMC work queue of
// submitted requests. Each worker owns one core::SolveWorkspace for its
// whole lifetime, so consecutive solves on a worker reuse the MCMF network,
// the bicameral DP tables, and the residual-graph storage instead of
// reallocating them (the workspace-reuse ablation of experiment E12 flips
// EngineOptions::reuse_workspaces off to measure exactly this effect).
//
// submit() enqueues one request and returns a promise-backed api::Ticket;
// solve_batch() is the one-shot convenience built on top (submit all, get
// all, results in request order). Both are safe to call from any number of
// threads concurrently — the serving layer's per-connection threads stream
// straight into the same queue.
//
// Scheduling never affects results: a request is solved by exactly one
// worker running the same serial algorithm any worker would run, and
// workspaces rebuild themselves on topology changes, so which worker picks
// which request is unobservable in the output (engine_test asserts
// bit-identical batches at 1/2/8 threads, and submit() against
// solve_batch()). Each solve is single-threaded, so the pool's
// parallelism is strictly across requests.
//
// Backpressure and shutdown: queue_capacity bounds the waiting jobs —
// submit() blocks (never drops) while the queue is full. close() stops
// admissions; already-queued work still runs and fulfills its tickets.
// The destructor closes, drains, and joins, so no ticket is ever left
// dangling.
//
// Synchronization: one mutex guards the deque and the counters; promises
// are fulfilled outside the lock (the future handshake publishes the
// result — TSan-clean by construction; CI runs the engine and server
// tests under -fsanitize=thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "api/krsp.h"
#include "core/workspace.h"
#include "util/deadline.h"

namespace krsp::engine {

class BatchEngine {
 public:
  explicit BatchEngine(api::EngineOptions options);
  ~BatchEngine();  // close + drain + join: queued tickets all complete
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues one request (blocking while the bounded queue is full) and
  /// returns its ticket. After close(): an already-fulfilled kFailed
  /// ticket.
  [[nodiscard]] api::Ticket submit(api::SolveRequest request);

  /// Same, but the solve's wall-clock budget is the given absolute
  /// deadline instead of request.deadline_seconds anchored at execution
  /// start (end-to-end accounting for the serving layer).
  [[nodiscard]] api::Ticket submit(api::SolveRequest request,
                                   const util::Deadline& deadline);

  /// Runs one batch to completion; results in request order. Reentrant:
  /// concurrent batches interleave on the shared queue.
  [[nodiscard]] std::vector<api::SolveResult> solve_batch(
      const std::vector<api::SolveRequest>& requests);

  void close();
  void drain();

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t completed() const;

 private:
  struct Job {
    api::SolveRequest request;
    util::Deadline deadline;  // meaningful only when deadline_override
    bool deadline_override = false;
    std::promise<api::SolveResult> promise;
    /// Stamped at enqueue; the worker charges [enqueued, claim) to
    /// SolveResult::queue_wait_seconds and the "queue_wait" span.
    std::chrono::steady_clock::time_point enqueued;
  };

  api::Ticket enqueue(api::SolveRequest request, const util::Deadline* dl);
  void worker_loop(int worker_index);

  const api::EngineOptions options_;
  std::vector<core::SolveWorkspace> workspaces_;  // one per worker, stable
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs / shutdown
  std::condition_variable space_cv_;  // submitters wait for queue space
  std::condition_variable idle_cv_;   // drain() waits for completion
  std::deque<Job> queue_;
  std::size_t executing_ = 0;       // jobs claimed but not finished
  std::uint64_t submitted_ = 0;     // also the next ticket id
  std::uint64_t completed_ = 0;
  bool closed_ = false;    // no new submissions
  bool shutdown_ = false;  // workers exit once the queue is empty
};

}  // namespace krsp::engine
