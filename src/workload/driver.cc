#include "workload/driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace spitfire {

std::string DriverResult::ToString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%.0f txn/s (committed=%llu aborted=%llu over %.2fs, "
      "p50=%.1fus p99=%.1fus p999=%.1fus)",
      Throughput(), static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(aborted), seconds,
      static_cast<double>(latency_ns.Percentile(50)) * 1e-3,
      static_cast<double>(latency_ns.Percentile(99)) * 1e-3,
      static_cast<double>(latency_ns.Percentile(99.9)) * 1e-3);
  return buf;
}

namespace {

// ---------------------------------------------------------------------------
// The worker skeleton every driver runs on
// ---------------------------------------------------------------------------

enum class Phase : int { kWarmup, kMeasure, kStop };

struct RunSpec {
  int num_threads = 1;
  double seconds = 0;
  double warmup_seconds = 0;
  double slice_seconds = 0;  // > 0: throughput-over-time bins
  uint64_t seed = 0;         // worker t seeds its RNG with seed + t * 7919
};

// State the workers of one run share.
struct RunState {
  explicit RunState(const RunSpec& spec)
      : slice_ns(spec.slice_seconds > 0
                     ? static_cast<uint64_t>(spec.slice_seconds * 1e9)
                     : 0),
        bins(slice_ns > 0 ? static_cast<size_t>(
                                spec.seconds / spec.slice_seconds + 0.5) +
                                1
                          : 0) {}

  std::atomic<Phase> phase{Phase::kWarmup};
  std::atomic<uint64_t> measure_start_ns{0};
  const uint64_t slice_ns;
  std::vector<std::atomic<uint64_t>> bins;
};

// One worker thread: its RNG and tallies. Commits are batched locally and
// flushed into the shared throughput bins on slice change, so the atomics
// see one RMW per worker per slice, not per transaction.
class Worker {
 public:
  Worker(RunState* run, uint64_t seed) : rng(seed), run_(run) {}

  // Counts one transaction that began in phase `ph` and finished with
  // `st` after `latency_ns`; only the measurement window is recorded.
  void Record(Phase ph, const Status& st, uint64_t latency_ns) {
    if (ph != Phase::kMeasure) return;
    latency.Add(latency_ns);
    if (!st.ok()) {
      if (!st.IsAborted() && !st.IsBusy()) {
        std::fprintf(stderr, "driver: txn failed: %s\n",
                     st.ToString().c_str());
      }
      ++aborted;
      return;
    }
    ++committed;
    if (run_->bins.empty()) return;
    const uint64_t start =
        run_->measure_start_ns.load(std::memory_order_relaxed);
    const uint64_t now = NowNanos();
    const size_t slice =
        now > start ? static_cast<size_t>((now - start) / run_->slice_ns) : 0;
    if (slice != cur_slice_) {
      Flush();
      cur_slice_ = slice;
    }
    ++pending_;
  }

  void Flush() {
    if (pending_ == 0) return;
    run_->bins[std::min(cur_slice_, run_->bins.size() - 1)].fetch_add(
        pending_, std::memory_order_relaxed);
    pending_ = 0;
  }

  Xoshiro256 rng;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  Histogram latency;

 private:
  RunState* run_;
  size_t cur_slice_ = 0;
  uint64_t pending_ = 0;
};

// Spawns the workers, each of which builds its step with make_step(worker)
// on its own thread and calls step(phase) until it returns false; sleeps
// through the warm-up and the measurement window, stops the workers, and
// merges their tallies.
template <typename MakeStep>
DriverResult RunWorkers(const RunSpec& spec, const MakeStep& make_step) {
  RunState run(spec);
  std::vector<Worker> workers;
  workers.reserve(static_cast<size_t>(spec.num_threads));
  for (int t = 0; t < spec.num_threads; ++t) {
    workers.emplace_back(&run, spec.seed + static_cast<uint64_t>(t) * 7919);
  }
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (Worker& w : workers) {
    threads.emplace_back([&run, &make_step, &w] {
      auto step = make_step(w);
      while (step(run.phase.load(std::memory_order_acquire))) {
      }
      w.Flush();
    });
  }

  if (spec.warmup_seconds > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(spec.warmup_seconds));
  }
  Timer run_timer;
  run.measure_start_ns.store(NowNanos(), std::memory_order_relaxed);
  run.phase.store(Phase::kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.seconds));
  run.phase.store(Phase::kStop, std::memory_order_release);
  const double elapsed = run_timer.ElapsedSeconds();
  for (auto& th : threads) th.join();

  DriverResult result;
  result.seconds = elapsed;
  for (const Worker& w : workers) {
    result.committed += w.committed;
    result.aborted += w.aborted;
    result.latency_ns.Merge(w.latency);
  }
  result.slice_ops_per_sec.reserve(run.bins.size());
  for (const auto& b : run.bins) {
    result.slice_ops_per_sec.push_back(
        static_cast<double>(b.load(std::memory_order_relaxed)) /
        spec.slice_seconds);
  }
  return result;
}

}  // namespace

DriverResult WorkloadDriver::Run(int num_threads, double seconds,
                                 const TxnFn& txn_fn, double warmup_seconds,
                                 double slice_seconds) {
  return RunWorkers(
      {num_threads, seconds, warmup_seconds, slice_seconds, 0x5EED0000ULL},
      [&txn_fn](Worker& w) {
        return [&txn_fn, &w](Phase ph) {
          if (ph == Phase::kStop) return false;
          const uint64_t start = NowNanos();
          const Status st = txn_fn(w.rng);
          w.Record(ph, st, NowNanos() - start);
          return true;
        };
      });
}

DriverResult WorkloadDriver::RunAsyncPageOps(BufferManager* bm,
                                             int num_threads, double seconds,
                                             int ring_depth,
                                             const PageOpFn& op_fn,
                                             double warmup_seconds) {
  // A Busy completion means transient pool/install contention (or miss
  // admission rejecting an over-committed ring); a slot resubmits its op
  // this many times before counting it aborted. Retries are paced by
  // completion arrival — an instantly-rejected resubmission does not count
  // as progress, so the worker falls through to PumpIo below instead of
  // spinning on resubmits — which makes a generous budget cheap.
  constexpr int kOpMaxRetries = 32;

  struct Slot {
    FetchTicket ticket;
    PageOp op;
    uint64_t start_ns = 0;
    int retries = 0;
    bool busy = false;
  };
  const size_t depth = static_cast<size_t>(std::max(1, ring_depth));

  return RunWorkers(
      {num_threads, seconds, warmup_seconds, 0.0, 0xA51D0000ULL},
      [bm, depth, &op_fn](Worker& w) {
        // Tickets are written by the completer: the slots need stable
        // addresses for the whole run.
        auto ring = std::make_unique<Slot[]>(depth);
        return [bm, depth, &op_fn, &w, ring = std::move(ring)](Phase ph) {
          bool progressed = false;
          bool any_busy = false;
          int harvested = 0;
          // Once one submission this pass is rejected outright (miss
          // admission: the ring overcommits the pool), every further miss
          // this pass would be rejected too — stop submitting and let the
          // pass fall through to PumpIo. Without this, each completion
          // wakes every worker to re-try its whole ring, and the rejected
          // churn monopolizes the CPU that completions need.
          bool saturated = false;
          // Submits a slot's op; an instantly-Busy submission is NOT
          // progress: counting it would keep the pass "productive" forever
          // and starve the completion pump — the classic 1-core livelock.
          const auto submit = [&](Slot& s) {
            s.ticket.Reset();
            if (bm->SubmitFetch(s.op.pid, s.op.intent, &s.ticket) !=
                    FetchSubmit::kCompleted ||
                s.ticket.status.ok()) {
              progressed = true;
            } else {
              saturated = true;
            }
          };

          for (size_t i = 0; i < depth; ++i) {
            Slot& s = ring[i];
            // Harvest.
            if (s.busy && s.ticket.ready.load(std::memory_order_acquire)) {
              const Status& st = s.ticket.status;
              if (st.IsBusy() && s.retries < kOpMaxRetries) {
                // Saturated: the slot stays parked (ready, Busy) and is
                // retried on a later pass; retries only count actual
                // submissions.
                if (!saturated) {
                  ++s.retries;
                  submit(s);
                }
              } else {
                s.ticket.guard.Release();
                w.Record(ph, st, NowNanos() - s.start_ns);
                s.busy = false;
                progressed = true;
                ++harvested;
              }
            }
            // Refill.
            if (!s.busy && ph != Phase::kStop && !saturated) {
              s.op = op_fn(w.rng);
              s.retries = 0;
              s.start_ns = NowNanos();
              submit(s);
              s.busy = true;
            }
            any_busy |= s.busy;
          }

          if (ph == Phase::kStop && !any_busy) return false;  // drained
          if (harvested == 0) {
            // Nothing in the ring completed this pass, so the worker reaps
            // completions itself (submit-and-reap, io_uring style) rather
            // than relying on the background completion thread — on a
            // small core count, N submitters spinning on instant hits
            // would starve it. Sleep only if the pass also submitted
            // nothing: the next event that can change the ring's state is
            // a completion.
            (void)bm->PumpIo(/*may_sleep=*/!progressed);
          }
          return true;
        };
      });
}

DriverResult WorkloadDriver::RunInterleaved(BufferManager* bm,
                                            int num_threads, double seconds,
                                            int ring_depth,
                                            const TxnMachineFactory& factory,
                                            double warmup_seconds,
                                            double slice_seconds) {
  // Slots hold the FetchContext the buffer manager's completer writes
  // into, so they must have stable addresses for the whole run.
  struct Slot {
    FetchContext ctx;
    std::unique_ptr<TxnMachine> machine;
    uint64_t start_ns = 0;
  };
  const size_t depth = static_cast<size_t>(std::max(1, ring_depth));

  return RunWorkers(
      {num_threads, seconds, warmup_seconds, slice_seconds, 0x17E40000ULL},
      [bm, depth, &factory](Worker& w) {
        auto ring = std::make_unique<Slot[]>(depth);
        for (size_t i = 0; i < depth; ++i) ring[i].machine = factory();
        return [bm, depth, &w, ring = std::move(ring)](Phase ph) {
          bool progressed = false;  // any real forward motion this pass
          bool any_active = false;  // some machine still parked or running
          int resumed = 0;          // parked machines resumed this pass
          int finished = 0;         // transactions completed this pass

          for (size_t i = 0; i < depth; ++i) {
            Slot& s = ring[i];
            if (s.ctx.pending()) {
              if (!s.ctx.ready()) {
                any_active = true;
                continue;  // still waiting on the device
              }
              // Harvesting a real completion is progress; harvesting an
              // instantly-rejected (Busy) park is not — counting it would
              // spin the pass loop against a saturated admission gate and
              // starve the completion pump (the RunAsyncPageOps livelock).
              const bool was_busy = s.ctx.parked_busy();
              (void)s.ctx.Harvest();
              if (!was_busy) {
                progressed = true;
                ++resumed;
              }
            } else if (!s.machine->in_flight()) {
              if (ph == Phase::kStop) continue;  // draining: nothing new
              s.start_ns = NowNanos();
            }
            const Status st = s.machine->Step(w.rng, &s.ctx);
            if (st.IsWouldBlock()) {
              any_active = true;
              continue;
            }
            progressed = true;
            ++finished;
            w.Record(ph, st, NowNanos() - s.start_ns);
          }

          if (ph == Phase::kStop && !any_active) return false;  // drained
          if (resumed == 0 && finished == 0) {
            // Nothing moved: reap completions ourselves (submit-and-reap);
            // sleep only if the pass also made no other progress, since the
            // next state change can then only be a completion firing.
            (void)bm->PumpIo(/*may_sleep=*/!progressed);
          }
          return true;
        };
      });
}

}  // namespace spitfire
