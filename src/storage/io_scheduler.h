#ifndef SPITFIRE_STORAGE_IO_SCHEDULER_H_
#define SPITFIRE_STORAGE_IO_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "storage/ssd_device.h"

namespace spitfire {

// Tuning knobs for the SSD I/O scheduler.
struct IoSchedulerOptions {
  // Background I/O workers draining the write queue. Reads are executed
  // inline by the requesting thread.
  size_t num_workers = 1;
  // Maximum pages merged into one device write. Adjacent staged writes
  // within one batch become a single larger request, which the device
  // latency model rewards: the per-op fixed cost is paid once instead of
  // per page.
  size_t max_coalesce_pages = 8;
  // After picking up a pending write, a worker lingers this long for more
  // writes to arrive before issuing, so eviction bursts coalesce. Drain()
  // requests cut the window short.
  uint64_t coalesce_window_us = 50;
};

// Monotonic counters; all relaxed, reporting only.
struct IoSchedulerStats {
  std::atomic<uint64_t> read_ops{0};          // device read requests issued
  std::atomic<uint64_t> reads_deduped{0};     // misses that joined a page's
                                              // in-flight read (counted by
                                              // the buffer manager)
  std::atomic<uint64_t> reads_from_staged{0};  // served from a queued write
  std::atomic<uint64_t> writes_staged{0};
  std::atomic<uint64_t> write_ops{0};         // device write requests issued
  std::atomic<uint64_t> writes_coalesced{0};  // pages merged into a larger op
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
//  - WritePage is ASYNCHRONOUS: the page image is staged in a heap buffer
//    and queued; worker threads drain the queue, merging adjacent-page
//    writes into one larger device op. Reads of a staged page are served
//    from the staged image (write-through), so callers may free the source
//    frame immediately.
//  - Every offset carries a WRITE SEQUENCE number, bumped when a write is
//    staged. A read callback receives the sequence each page's bytes
//    correspond to; a caller installing the page into a buffer re-validates
//    the sequence under its own latches (WriteSeq) and retries on
//    mismatch, which makes reads safe to run without holding any page
//    latch.
//
// Offsets must be kPageSize-aligned; every transfer is a whole number of
// pages.
class IoScheduler {
 public:
  explicit IoScheduler(SsdDevice* ssd, const IoSchedulerOptions& opts = {});
  ~IoScheduler();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(IoScheduler);

  // --- Asynchronous submission/completion interface -----------------------
  //
  // Fired exactly once per SubmitRead call, with the run's bytes (page i at
  // data + i * kPageSize) and each page's write sequence (seqs[i]). Both
  // are only valid for the duration of the call — copy out what you need.
  // The callback may run inline inside SubmitRead (a run served wholly
  // from staged images, scale-0 completions), from a thread pumping
  // completions, or from the scheduler's completion worker. It runs
  // without any scheduler lock held, must not block on this scheduler's
  // own completions, and wakes its own waiters (SignalCompletions).
  using ReadCallback = std::function<void(const Status&, const std::byte* data,
                                          const uint64_t* seqs)>;

  // Reads the `n` pages at [offset, offset + n * kPageSize). Each page's
  // write sequence and staged state are sampled together, under the
  // page's shard lock, before any device copy: a page with a staged write
  // is served from its staged image, and every contiguous run of the
  // others is one device read. Never blocks on device latency: the
  // completion is deferred to the last read's deadline.
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

  // Stages one page write and returns immediately; the device write
  // happens on a worker. A newer write of the same page before the queue
  // drains overwrites the staged image in place (last writer wins).
  // Errors surface at the next Drain().
  Status WritePage(uint64_t offset, const std::byte* src);

  // Current write sequence of `offset` (0 = never written through the
  // scheduler). Compare against a read callback's `seqs[i]` before
  // installing page i.
  uint64_t WriteSeq(uint64_t offset);

  // Blocks until every staged write has reached the device; returns (and
  // clears) the first asynchronous write error since the previous Drain.
  Status Drain();

  // Drains outstanding writes and joins the workers. Idempotent; called by
  // the destructor.
  void Shutdown();

  IoSchedulerStats& stats() { return stats_; }

 private:
  static constexpr size_t kNumShards = 16;

  // One staged write. The image may be overwritten (under the shard
  // mutex) only while `issuing` is false; a worker sets `issuing` under
  // the mutex before copying the image out, so the copy needs no lock.
  struct StagedWrite {
    std::unique_ptr<std::byte[]> buf;
    bool issuing = false;
  };

  // What the scheduler knows about one written offset: the staged write,
  // if any, and the write sequence. Entries are created by the first
  // write and never erased, so sequence numbers stay monotonic for the
  // device's lifetime (the table is bounded by the page count).
  struct Entry {
    std::shared_ptr<StagedWrite> write;
    uint64_t write_seq = 0;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, Entry> table;
  };

  struct QueueItem {
    uint64_t offset = 0;
    std::shared_ptr<StagedWrite> w;
  };

  Shard& ShardFor(uint64_t offset) {
    return shards_[(offset / kPageSize) % kNumShards];
  }
  void WorkerLoop();
  Status ProcessBatch(std::vector<QueueItem>* batch, std::byte* scratch);
  // Clears the staged entries of a completed write run and releases its
  // backpressure slots; runs as the run's deadline completion.
  void RetireWrites(const std::vector<QueueItem>& items, const Status& st);

  // --- Completion engine -------------------------------------------------
  // Deferred completions ordered by their device-model deadline. Two heaps
  // under one lock: read completions re-enter buffer-manager code through
  // their callbacks (install pages, evict victims, stage writes), while
  // write completions only clear scheduler state — so code that must make
  // progress *inside* a read completion (WritePage backpressure, Drain)
  // pumps the write heap alone and cannot recurse.
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
  // shard or queue locks.
  void ScheduleAt(uint64_t deadline_ns, std::function<void()> fn,
                  bool is_write);
  // Run every completion whose deadline has passed. Exclusive-pop under
  // comp_mu_, so each completion runs exactly once. Return: anything ran.
  bool PumpDue();
  bool PumpDueWrites();  // write heap only; safe inside read completions
  // Dedicated thread that sleeps to the earliest deadline and runs whatever
  // nobody pumped — the backstop that makes completions a guarantee rather
  // than a cooperative convention.
  void CompletionWorkerLoop();

  SsdDevice* ssd_;
  IoSchedulerOptions opts_;
  IoSchedulerStats stats_;

  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  CompletionHeap comps_;   // read completions
  CompletionHeap wcomps_;  // write completions
  uint64_t comp_seq_ = 0;
  std::atomic<uint64_t> comp_epoch_{0};   // completion-broadcast stamp
  std::atomic<int> comp_sleepers_{0};     // threads parked on comp_cv_ for
                                          // completion signals; lets
                                          // SignalCompletions skip the
                                          // mutex when nobody sleeps
  bool comp_stop_ = false;
  std::thread completion_worker_;

  Shard shards_[kNumShards];

  std::mutex q_mu_;
  std::condition_variable q_cv_;
  std::deque<QueueItem> write_queue_;
  size_t pending_writes_ = 0;  // staged, not yet on the device
  size_t drain_waiters_ = 0;
  Status first_write_error_;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace spitfire

#endif  // SPITFIRE_STORAGE_IO_SCHEDULER_H_
