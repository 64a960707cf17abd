#ifndef SPITFIRE_STORAGE_IO_SCHEDULER_H_
#define SPITFIRE_STORAGE_IO_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "storage/ssd_device.h"

namespace spitfire {

// Monotonic counters; all relaxed, reporting only.
struct IoSchedulerStats {
  std::atomic<uint64_t> read_ops{0};          // device read requests issued
  std::atomic<uint64_t> reads_deduped{0};     // misses that joined a page's
                                              // in-flight read (counted by
                                              // the buffer manager)
  std::atomic<uint64_t> writes_staged{0};     // pages accepted by WritePage
  std::atomic<uint64_t> write_ops{0};         // device write requests issued
  std::atomic<uint64_t> completions_run{0};   // deferred completions executed
};

// Owner of all SSD-tier page traffic (an io_uring-style submission model
// over the simulated device):
//
//  - SubmitRead reads a run of contiguous pages with one device op and
//    fires its callback at the op's completion deadline. It does not
//    de-duplicate: the buffer manager never reads a page twice at once
//    (a page's in-flight read lives on its descriptor, where concurrent
//    misses wait).
//  - WritePage submits one page to the device on the caller's thread and
//    returns without waiting for the op's completion deadline. The device
//    copies the bytes at submission, so callers may reuse the source
//    buffer at once; Drain() waits for the latest write deadline.
//  - Every offset carries a WRITE SEQUENCE number, bumped by WritePage in
//    the same locked step that copies the page to the device. A read
//    callback receives the sequence each page's bytes correspond to; a
//    caller installing the page into a buffer re-validates the sequence
//    under its own latches (WriteSeq) and retries on mismatch, which makes
//    reads safe to run without holding any page latch.
//
// Offsets must be kPageSize-aligned; every transfer is a whole number of
// pages. One background thread, the completion worker.
class IoScheduler {
 public:
  explicit IoScheduler(SsdDevice* ssd);
  ~IoScheduler();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(IoScheduler);

  // --- Asynchronous submission/completion interface -----------------------
  //
  // Fired exactly once per SubmitRead call, with the run's bytes (page i at
  // data + i * kPageSize) and each page's write sequence (seqs[i]). Both
  // are only valid for the duration of the call — copy out what you need.
  // The callback may run inline inside SubmitRead (scale-0 completions),
  // from a thread pumping completions, or from the scheduler's completion
  // worker. It runs without any scheduler lock held, must not block on
  // this scheduler's own completions, and wakes its own waiters
  // (SignalCompletions).
  using ReadCallback = std::function<void(const Status&, const std::byte* data,
                                          const uint64_t* seqs)>;

  // Reads the `n` pages at [offset, offset + n * kPageSize) with one device
  // op. Each page's write sequence is sampled under the page's shard lock
  // before the device copy. Never blocks on device latency: the
  // completion is deferred to the op's deadline.
  void SubmitRead(uint64_t offset, size_t n, ReadCallback cb);

  // Runs, on the calling thread, every completion whose deadline has
  // passed. With `may_sleep`, blocks briefly (bounded, ~200 us) until the
  // next deadline or a notification when nothing is runnable — the async
  // workload driver's idle wait. Returns whether anything ran.
  bool PumpCompletions(bool may_sleep);

  // Completion broadcast, for continuation waiters (e.g. a fetch that
  // joined an in-flight read). A waiter samples the epoch, re-checks its
  // own ready flag, then sleeps in WaitForCompletion — which returns
  // immediately if the epoch moved in between, so no wakeup is lost. The
  // layer that completes waiters bumps the epoch (SignalCompletions).
  uint64_t completion_epoch() const {
    return comp_epoch_.load(std::memory_order_acquire);
  }
  void WaitForCompletion(uint64_t observed_epoch, uint64_t max_wait_ns);
  void SignalCompletions();

  // Bumps the page's write sequence and copies `src` to the device, one
  // step under the page's shard lock, then returns without waiting for
  // the write's deadline. A device error surfaces at the next Drain().
  // Refused after Shutdown().
  Status WritePage(uint64_t offset, const std::byte* src);

  // Current write sequence of `offset` (0 = never written through the
  // scheduler). Compare against a read callback's `seqs[i]` before
  // installing page i.
  uint64_t WriteSeq(uint64_t offset);

  // Blocks until the latest write deadline has passed; returns (and
  // clears) the first write error since the previous Drain.
  Status Drain();

  // Refuses further writes, fires every pending read completion early and
  // joins the completion worker. Idempotent; called by the destructor.
  void Shutdown();

  IoSchedulerStats& stats() { return stats_; }

 private:
  static constexpr size_t kNumShards = 16;

  // Write sequences of the written offsets. Entries are created by the
  // first write and never erased, so sequence numbers stay monotonic for
  // the device's lifetime (the table is bounded by the page count).
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, uint64_t> write_seq;
  };

  Shard& ShardFor(uint64_t offset) {
    return shards_[(offset / kPageSize) % kNumShards];
  }

  // --- Completion engine -------------------------------------------------
  // Deferred read completions, ordered by their device-model deadline.
  struct Completion {
    uint64_t deadline = 0;
    uint64_t seqno = 0;  // FIFO tie-break for equal deadlines
    std::function<void()> fn;
  };
  struct CompletionLater {
    bool operator()(const Completion& a, const Completion& b) const {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.seqno > b.seqno;
    }
  };
  using CompletionHeap =
      std::priority_queue<Completion, std::vector<Completion>, CompletionLater>;

  // Enqueues `fn` to run at `deadline_ns` (NowNanos clock); runs it inline
  // when the deadline has already passed (scale 0). Callers must not hold
  // shard locks.
  void ScheduleAt(uint64_t deadline_ns, std::function<void()> fn);
  // Run every completion whose deadline has passed. Exclusive-pop under
  // comp_mu_, so each completion runs exactly once. Return: anything ran.
  bool PumpDue();
  // Dedicated thread that sleeps to the earliest deadline and runs whatever
  // nobody pumped — the backstop that makes completions a guarantee rather
  // than a cooperative convention.
  void CompletionWorkerLoop();

  SsdDevice* ssd_;
  IoSchedulerStats stats_;

  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  CompletionHeap comps_;
  uint64_t comp_seq_ = 0;
  std::atomic<uint64_t> comp_epoch_{0};   // completion-broadcast stamp
  std::atomic<int> comp_sleepers_{0};     // threads parked on comp_cv_ for
                                          // completion signals; lets
                                          // SignalCompletions skip the
                                          // mutex when nobody sleeps
  bool comp_stop_ = false;
  std::thread completion_worker_;

  Shard shards_[kNumShards];

  std::mutex write_mu_;
  uint64_t write_deadline_ = 0;  // latest deadline of a submitted write
  Status first_write_error_;     // since the previous Drain
  std::atomic<bool> write_stop_{false};  // set by Shutdown
};

}  // namespace spitfire

#endif  // SPITFIRE_STORAGE_IO_SCHEDULER_H_
