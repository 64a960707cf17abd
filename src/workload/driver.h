#ifndef SPITFIRE_WORKLOAD_DRIVER_H_
#define SPITFIRE_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "workload/txn_machine.h"

namespace spitfire {

// Result of one timed workload run.
struct DriverResult {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  // Latency of every transaction finished in the measurement window,
  // committed or aborted.
  Histogram latency_ns;
  // Committed txns per second per slice of the measurement window, when
  // the run was invoked with slice_seconds > 0 (throughput over time).
  std::vector<double> slice_ops_per_sec;

  // Committed transactions per second.
  double Throughput() const {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0.0;
  }
  double AbortRate() const {
    const double total = static_cast<double>(committed + aborted);
    return total > 0 ? static_cast<double>(aborted) / total : 0.0;
  }
  std::string ToString() const;
};

// One page access for the asynchronous driver path below.
struct PageOp {
  page_id_t pid = 0;
  AccessIntent intent = AccessIntent::kRead;
};

// Multi-threaded closed-loop workload drivers. All three share one worker
// skeleton: each spawns its workers, lets them run for `warmup_seconds`
// without recording, measures for `seconds`, then stops them, joins them,
// and merges their tallies. They differ only in the step a worker repeats.
// A finished transaction (or page op) counts as committed when its status
// is OK and as aborted otherwise; errors other than Aborted and Busy are
// also reported on stderr. With slice_seconds > 0 the measurement window
// is additionally binned into throughput-over-time slices
// (DriverResult::slice_ops_per_sec).
class WorkloadDriver {
 public:
  using TxnFn = std::function<Status(Xoshiro256&)>;
  using PageOpFn = std::function<PageOp(Xoshiro256&)>;

  // Blocking closed loop: each worker calls `txn_fn` (one transaction per
  // call, OK for commit, Aborted for a rolled-back conflict) back to back.
  static DriverResult Run(int num_threads, double seconds, const TxnFn& txn_fn,
                          double warmup_seconds = 0.0,
                          double slice_seconds = 0.0);

  // Async-aware page-op driver: each worker keeps up to `ring_depth` fetch
  // tickets in flight through BufferManager::SubmitFetch instead of
  // blocking one miss at a time, harvesting completions from its ring and
  // sleeping in PumpIo only when the ring is full with nothing ready.
  // This is the path that converts device queue depth into throughput: a
  // worker's misses overlap in the SSD's queues while it keeps submitting.
  // Each harvested op counts as one committed "transaction"; latency is
  // submit → completion. Busy completions are resubmitted a few times,
  // then counted as aborted. `ring_depth` ≤ 1 degenerates to the blocking
  // behavior of FetchPage (submit, then drain that one ticket).
  static DriverResult RunAsyncPageOps(BufferManager* bm, int num_threads,
                                      double seconds, int ring_depth,
                                      const PageOpFn& op_fn,
                                      double warmup_seconds = 0.0);

  // Interleaved transaction executor (the tentpole of the interleaved-
  // execution issue): each worker drives a ring of `ring_depth` TxnMachine
  // continuations over the async miss path. A machine that parks on a
  // buffer miss (WouldBlock) yields its worker to a sibling; the worker
  // harvests fired FetchContexts each pass and resumes the parked
  // machines, converting per-transaction miss stalls into device queue
  // depth exactly as RunAsyncPageOps does for raw page ops. `factory` is
  // invoked ring_depth times per worker. ring_depth <= 1 still runs
  // through the machinery (one machine, parking and resuming serially) —
  // use Run() with the blocking procedure (the same machine stepped
  // without a context) for the true K=1 baseline.
  // Latency is begin → commit/abort, parked time included. At the end of
  // the run, in-flight transactions are stepped to completion (drained),
  // not cancelled.
  static DriverResult RunInterleaved(BufferManager* bm, int num_threads,
                                     double seconds, int ring_depth,
                                     const TxnMachineFactory& factory,
                                     double warmup_seconds = 0.0,
                                     double slice_seconds = 0.0);
};

}  // namespace spitfire

#endif  // SPITFIRE_WORKLOAD_DRIVER_H_
