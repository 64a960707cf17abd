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
  // Background I/O workers draining the write queue (and running
  // prefetch tasks). Reads are executed inline by the requesting thread.
  size_t num_workers = 1;
  // Maximum pages merged into one device op. Adjacent staged writes (and
  // prefetch reads) within one batch become a single larger request,
  // which the device latency model rewards: the per-op fixed cost is paid
  // once instead of per page.
  size_t max_coalesce_pages = 8;
  // After picking up a pending write, a worker lingers this long for more
  // writes to arrive before issuing, so eviction bursts coalesce. Drain()
  // requests cut the window short.
  uint64_t coalesce_window_us = 50;
  // Pages prefetched ahead of a detected sequential miss run; 0 disables
  // read-ahead. (The trigger lives in the buffer manager; this is the
  // window size it requests.) 32 pages = 512 KB: on the simulated device
  // a 32-page sequential read costs ~1/3 of 32 single-page reads, and a
  // wider window also means fewer chain handoffs per scanned megabyte.
  size_t read_ahead_pages = 32;
};

// Monotonic counters; all relaxed, reporting only.
struct IoSchedulerStats {
  std::atomic<uint64_t> read_ops{0};          // device read requests issued
  std::atomic<uint64_t> reads_deduped{0};     // joined an in-flight read
  std::atomic<uint64_t> reads_from_staged{0};  // served from a queued write
  std::atomic<uint64_t> stale_read_retries{0};
  std::atomic<uint64_t> writes_staged{0};
  std::atomic<uint64_t> write_ops{0};         // device write requests issued
  std::atomic<uint64_t> writes_coalesced{0};  // pages merged into a larger op
  std::atomic<uint64_t> async_submits{0};     // SubmitRead leader submissions
  std::atomic<uint64_t> completions_run{0};   // deferred completions executed
};

// Owner of all SSD-tier page traffic (an io_uring-style submission model
// over the simulated device):
//
//  - SubmitRead is SINGLE-FLIGHT: concurrent reads of one page register
//    their callbacks on a shared in-flight request; the leader's device
//    read fires every callback with the same bytes, so a miss storm on a
//    hot page costs one device op instead of N.
//  - WritePage is ASYNCHRONOUS: the page image is staged in a heap buffer
//    and queued; worker threads drain the queue, merging adjacent-page
//    writes into one larger device op. Reads of a staged page are served
//    from the staged image (write-through), so callers may free the source
//    frame immediately.
//  - Every offset carries a WRITE SEQUENCE number, bumped when a write is
//    staged. A read callback receives the sequence its bytes correspond
//    to; a caller installing the page into a buffer re-validates the
//    sequence under its own latches (WriteSeq) and retries on mismatch,
//    which makes reads safe to run without holding any page latch.
//
// Offsets must be kPageSize-aligned; every transfer is kPageSize bytes
// (prefetch claims: a multiple).
class IoScheduler {
 public:
  explicit IoScheduler(SsdDevice* ssd, const IoSchedulerOptions& opts = {});
  ~IoScheduler();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(IoScheduler);

  // --- Asynchronous submission/completion interface -----------------------
  //
  // Fired exactly once per SubmitRead call, with the page bytes and the
  // write sequence they correspond to. `data` is only valid for the
  // duration of the call — copy out what you need. A Busy status means a
  // concurrent write superseded the bytes mid-flight (the old stale-retry
  // path); resubmit to read the fresh image. The callback may run inline
  // inside SubmitRead (staged-write hits, scale-0 completions), from a
  // thread pumping completions, or from the scheduler's completion worker.
  // It runs without any scheduler lock held, but must not block on this
  // scheduler's own completions.
  using ReadCallback =
      std::function<void(const Status&, const std::byte* data, uint64_t seq)>;

  // How a SubmitRead resolved: served inline (callback already fired),
  // admitted as the leader of a new device read, or joined an in-flight
  // read (dedup — callback fires when the leader's request completes).
  enum class SubmitKind { kInline, kLeader, kJoined };

  // Single-flight asynchronous read. Never blocks on device latency: a
  // leader submission returns as soon as the request is admitted to the
  // device's queue model, with the completion deferred to the deadline.
  SubmitKind SubmitRead(uint64_t offset, ReadCallback cb);

  // Runs pending work on the calling thread: queued prefetch tasks and any
  // completions whose deadline has passed. With `may_sleep`, blocks briefly
  // (bounded, ~200 us) until the next deadline or a notification when
  // nothing is runnable — the async workload driver's idle wait. Marks the
  // calling thread as async-aware: prefetch waits it executes sleep out
  // their deadlines instead of busy-spinning. Returns whether anything ran.
  bool PumpCompletions(bool may_sleep);

  // Completion broadcast, for continuation waiters (e.g. a fetch that
  // joined an in-flight read). Every batch of fired read completions bumps
  // the epoch and notifies; a waiter samples the epoch, re-checks its own
  // ready flag, then sleeps in WaitForCompletion — which returns
  // immediately if the epoch moved in between, so no wakeup is lost.
  // Continuation layers that complete waiters outside a scheduler
  // callback may call SignalCompletions themselves.
  uint64_t completion_epoch() const {
    return comp_epoch_.load(std::memory_order_acquire);
  }
  void WaitForCompletion(uint64_t observed_epoch, uint64_t max_wait_ns);
  void SignalCompletions();

  // Read-ahead, split in two so a trigger can claim its window inline
  // (cheap, no device work) before handing the reads to a worker:
  // concurrent SubmitRead callers then join the claimed flights instead of
  // issuing duplicate single-page reads that would fragment the window.
  //
  // ClaimPrefetch registers read flights for up to `n` contiguous pages
  // (pages already staged or in flight are left to their owner) and
  // returns an opaque claim — nullptr when nothing was claimed.
  std::shared_ptr<void> ClaimPrefetch(uint64_t offset, size_t n);
  // Performs the device reads for a claim (one op per contiguous claimed
  // run) and completes its flights; MUST be called exactly once per
  // non-null claim or joined callbacks never fire. dst must hold n pages;
  // covered[i] is set true iff dst + i*kPageSize now holds page i's bytes
  // (with seqs[i] its write sequence). For each covered page, `ready(i)`
  // runs after the device read but BEFORE the page's flight completes, so
  // the caller can install the page while its single-flight entry still
  // absorbs concurrent misses; waking joiners first would open a gap
  // where a fresh miss finds neither a flight nor a resident page and
  // duplicates the read.
  //
  // `installed()` runs once, after the first run's pages are installed
  // but before any flight completes. It exists so the caller can claim
  // the NEXT window at the earliest safe moment: threads that found their
  // page installed are already running ahead, and on one core their
  // busy-wait reads can starve this thread's completion pass for many
  // milliseconds — any follow-up claim deferred to after ExecutePrefetch
  // would arrive far too late to keep the stream fed.
  Status ExecutePrefetch(const std::shared_ptr<void>& claim, std::byte* dst,
                         uint64_t* seqs, bool* covered,
                         const std::function<void(size_t)>& ready = {},
                         const std::function<void()>& installed = {});

  // Stages one page write and returns immediately; the device write
  // happens on a worker. A newer write of the same page before the queue
  // drains overwrites the staged image in place (last writer wins).
  // Errors surface at the next Drain().
  Status WritePage(uint64_t offset, const std::byte* src);

  // Current write sequence of `offset` (0 = never written through the
  // scheduler). Compare against a read callback's `seq` before installing.
  uint64_t WriteSeq(uint64_t offset);

  // Blocks until every staged write has reached the device; returns (and
  // clears) the first asynchronous write error since the previous Drain.
  Status Drain();

  // Queues `task` for a worker thread (read-ahead prefetch). Returns
  // false — task NOT queued — when the scheduler is shutting down, in
  // which case the caller must run it itself if it has side effects that
  // cannot be dropped (e.g. completing a prefetch claim).
  bool Submit(std::function<void()> task);

  // Runs one queued task inline on the calling thread, if any is pending.
  // The simulated device is synchronous (a busy-wait), so a miss leader
  // that just submitted a prefetch window steals it rather than racing the
  // worker for the core; with a genuinely asynchronous device the worker
  // dequeues first and this is a no-op. Returns whether a task ran.
  bool TryRunPendingTask();

  // Drains outstanding writes and joins the workers. Idempotent; called by
  // the destructor.
  void Shutdown();

  IoSchedulerStats& stats() { return stats_; }

 private:
  static constexpr size_t kNumShards = 16;

  // One single-flight read. SubmitRead leaders read into `buf` directly;
  // a prefetch claim copies a page into it only when callbacks joined.
  // Fields are guarded by the shard mutex until the flight is unlinked
  // from its entry; its callbacks then fire with `buf`.
  struct ReadFlight {
    Status status;
    uint64_t seq = 0;    // write sequence sampled at registration
    bool stale = false;  // a write superseded the bytes mid-flight
    std::vector<ReadCallback> callbacks;  // fired once, at completion
    std::byte buf[kPageSize];
  };

  // One staged write. The image may be overwritten (under the shard
  // mutex) only while `issuing` is false; a worker sets `issuing` under
  // the mutex before copying the image out, so the copy needs no lock.
  struct StagedWrite {
    std::unique_ptr<std::byte[]> buf;
    bool issuing = false;
  };

  struct Entry {
    std::shared_ptr<ReadFlight> read;
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

  // A claimed read-ahead window: flights[i] is non-null iff this claim
  // owns page i's flight (ClaimPrefetch skipped the others).
  struct PrefetchClaimRec {
    uint64_t offset = 0;
    size_t n = 0;
    std::vector<std::shared_ptr<ReadFlight>> flights;
  };

  Shard& ShardFor(uint64_t offset) {
    return shards_[(offset / kPageSize) % kNumShards];
  }
  // Entries that never saw a write (seq 0) are erased once idle; written
  // entries are kept so sequence numbers stay monotonic for the device's
  // lifetime (bounded by the page count).
  void MaybeEraseLocked(Shard& s, uint64_t offset);

  void WorkerLoop();
  Status ProcessBatch(std::vector<QueueItem>* batch, std::byte* scratch);
  // Clears the staged entries of a completed write run and releases its
  // backpressure slots; runs as the run's deadline completion.
  void RetireWrites(const std::vector<QueueItem>& items, const Status& st);

  // --- Completion engine -------------------------------------------------
  // Deferred completions ordered by their device-model deadline. Two heaps
  // under one lock: read-flight completions re-enter buffer-manager code
  // through their callbacks (install pages, evict victims, stage writes),
  // while write completions only clear scheduler state — so code that must
  // make progress *inside* a flight completion (WritePage backpressure,
  // Drain) pumps the write heap alone and cannot recurse.
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
  bool PumpDueWrites();  // write heap only; safe inside flight completions
  // Waits until `deadline_ns`, pumping due completions meanwhile. Async-
  // aware threads (see PumpCompletions) sleep; others spin, preserving the
  // blocking path's CPU accounting.
  void WaitUntilDeadline(uint64_t deadline_ns);
  // Finishes a SubmitRead leader flight: marks it stale under the shard
  // lock if a write superseded it, unlinks the entry, then fires its
  // callbacks.
  void CompleteFlight(uint64_t offset, std::shared_ptr<ReadFlight> f,
                      Status st);
  // Dedicated thread that sleeps to the earliest deadline and runs whatever
  // nobody pumped — the backstop that makes completions a guarantee rather
  // than a cooperative convention.
  void CompletionWorkerLoop();

  SsdDevice* ssd_;
  IoSchedulerOptions opts_;
  IoSchedulerStats stats_;

  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  CompletionHeap comps_;   // read-flight completions
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
  std::deque<std::function<void()>> tasks_;
  size_t pending_writes_ = 0;  // staged, not yet on the device
  size_t drain_waiters_ = 0;
  Status first_write_error_;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace spitfire

#endif  // SPITFIRE_STORAGE_IO_SCHEDULER_H_
