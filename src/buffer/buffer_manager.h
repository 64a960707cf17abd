#ifndef SPITFIRE_BUFFER_BUFFER_MANAGER_H_
#define SPITFIRE_BUFFER_BUFFER_MANAGER_H_

#include <memory>
#include <vector>

#include "buffer/buffer_shard.h"

namespace spitfire {

// Merged view over the per-shard BufferStats instances. Snapshot() sums
// the shards field-wise, so every existing `bm.stats().Snapshot()` call
// site keeps working against the sharded engine; Reset() clears all
// shards.
class BufferStatsAggregate {
 public:
  BufferStatsAggregate() = default;
  explicit BufferStatsAggregate(std::vector<BufferStats*> parts)
      : parts_(std::move(parts)) {}

  BufferStatsSnapshot Snapshot() const {
    BufferStatsSnapshot sum;
    for (BufferStats* s : parts_) sum.Accumulate(s->Snapshot());
    return sum;
  }

  void Reset() {
    for (BufferStats* s : parts_) s->Reset();
  }

  std::string ToString() const { return Snapshot().ToString(); }

 private:
  std::vector<BufferStats*> parts_;
};

// The Spitfire three-tier buffer manager: N self-contained BufferShards
// routed by page-id hash (ShardOfPage), LeanStore-style. Each shard owns
// its page table, its DRAM/NVM pools (frames, free list, replacer), and
// its miss-admission counter, so the only state every core still shares
// is genuinely global: the SSD I/O scheduler (device queues are a
// physical resource), the page-id allocator, and — outside this class —
// the WAL and MVTO timestamps.
//
// The facade carves each tier device into per-shard frame-region slices
// whose on-device layout (data region, NVM persistent frame table) is
// computed from the TOTAL frame count, so the device image is identical
// for every num_shards; with num_shards == 1 the whole engine reproduces
// the pre-sharding behavior bit-for-bit.
class BufferManager {
 public:
  explicit BufferManager(const BufferManagerOptions& options);
  ~BufferManager();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(BufferManager);

  // --- data plane (routed to the owning shard) ---

  // Pins the page on some tier and returns a guard for it. Thread-safe.
  // A thread must not fetch a page it already holds a guard on.
  Result<PageGuard> FetchPage(page_id_t pid, AccessIntent intent) {
    return ShardFor(pid)->FetchPage(pid, intent);
  }

  // Submission half of the asynchronous miss path (see BufferShard).
  FetchSubmit SubmitFetch(page_id_t pid, AccessIntent intent,
                          FetchTicket* t) {
    return ShardFor(pid)->SubmitFetch(pid, intent, t);
  }

  // Runs due I/O completions on the calling thread (shared scheduler).
  bool PumpIo(bool may_sleep) {
    return io_->PumpCompletions(may_sleep);
  }

  // Allocates a fresh page id from the global counter and materializes a
  // zeroed, dirty page in the owning shard's top available buffer.
  Result<PageGuard> NewPage(uint32_t page_type = 0) {
    const page_id_t pid =
        next_page_id_.fetch_add(1, std::memory_order_relaxed);
    return ShardFor(pid)->NewPageWithId(pid, page_type);
  }

  // Writes the freshest copy of `pid` down to SSD and marks copies clean.
  Status FlushPage(page_id_t pid) { return ShardFor(pid)->FlushPage(pid); }

  // Flushes every dirty page (all shards) to SSD. When `include_nvm` is
  // false, dirty NVM-resident pages are left in place (they are
  // persistent — the paper's recovery-overhead advantage) and dirty
  // cache-line-grained or mini DRAM copies are written into them.
  // `*skipped` (optional) sums the dirty pages every shard had to leave
  // behind because they were actively referenced; a nonzero count means
  // the sweep was incomplete and must not advance the durable redo
  // horizon.
  Status FlushAll(bool include_nvm = false, size_t* skipped = nullptr);

  // Blocks until every asynchronously staged SSD write has reached the
  // device; returns (and clears) the first async write error.
  Status DrainIo() { return io_->Drain(); }

  // Rebuilds every shard's page table from the NVM device's persistent
  // frame table after a restart (Section 5.2, Recovery). Requires the
  // same num_shards and SSD size the device was populated under (each
  // shard validates that recovered pages route back to it and fit on the
  // SSD) and an externally supplied options.nvm device.
  Status RecoverNvmResidentPages();

  // --- policy & introspection ---

  // All shards run the same policy; reads report shard 0's copy.
  MigrationPolicy policy() const { return shards_[0]->policy(); }
  // Broadcasts the live migration policy to every shard (used by the
  // adaptive tuner, §4). Lock-free; shards apply it mid-run.
  void SetPolicy(const MigrationPolicy& p) {
    for (auto& s : shards_) s->SetPolicy(p);
  }

  // Merged per-shard counters; Snapshot() sums across shards.
  BufferStatsAggregate& stats() { return stats_; }

  IoScheduler* io_scheduler() { return io_.get(); }

  // Engine-wide miss admission: sums of the per-shard in-flight counters
  // and caps. Each shard bounds itself at the lesser of half its frame
  // budget and its slice of the SSD's queue slots with 2x oversubscription
  // — min(max(8, shard_frames/2), max(8, 2*device_depth/num_shards)).
  uint32_t inflight_misses() const {
    uint32_t n = 0;
    for (const auto& s : shards_) n += s->inflight_misses();
    return n;
  }
  uint32_t miss_admission_cap() const {
    uint32_t n = 0;
    for (const auto& s : shards_) n += s->miss_admission_cap();
    return n;
  }

  using FrameCensus = BufferShard::FrameCensus;
  // Racy debug census of all shards' DRAM pools combined.
  FrameCensus DebugDramCensus() const;

  // Fraction of buffered pages resident in both DRAM and NVM, merged
  // across shards (Section 3.3).
  double InclusivityRatio() const;
  size_t DramResidentPages() const;
  size_t NvmResidentPages() const;
  bool IsDramResident(page_id_t pid) const {
    return ShardFor(pid)->IsDramResident(pid);
  }
  bool IsNvmResident(page_id_t pid) const {
    return ShardFor(pid)->IsNvmResident(pid);
  }

  page_id_t next_page_id() const {
    return next_page_id_.load(std::memory_order_relaxed);
  }
  void SetNextPageId(page_id_t pid) { next_page_id_.store(pid); }

  // Reconfigures the sequential read-ahead window on every shard (0
  // disables). Not thread-safe against concurrent fetches.
  void SetReadAheadPages(size_t n) {
    for (auto& s : shards_) s->SetReadAheadPages(n);
  }

  SsdDevice* ssd() { return ssd_; }
  NvmDevice* nvm_device() { return nvm_; }
  Device* dram_device() { return dram_backing_; }
  // Shard 0's pools: tier presence is uniform across shards, so these
  // stay valid for "does the tier exist" checks and replacer
  // introspection on the default shard.
  BufferPool* dram_pool() { return shards_[0]->dram_pool(); }
  BufferPool* nvm_pool() { return shards_[0]->nvm_pool(); }
  const BufferManagerOptions& options() const { return options_; }

  size_t num_shards() const { return shards_.size(); }
  BufferShard* shard(size_t i) { return shards_[i].get(); }
  uint32_t ShardIndexOf(page_id_t pid) const {
    return ShardOfPage(pid, static_cast<uint32_t>(shards_.size()));
  }

 private:
  BufferShard* ShardFor(page_id_t pid) const {
    return shards_[ShardOfPage(pid,
                               static_cast<uint32_t>(shards_.size()))]
        .get();
  }

  BufferManagerOptions options_;

  SsdDevice* ssd_ = nullptr;
  NvmDevice* nvm_ = nullptr;
  Device* dram_backing_ = nullptr;
  std::unique_ptr<NvmDevice> owned_nvm_;
  std::unique_ptr<Device> owned_dram_;

  std::unique_ptr<IoScheduler> io_;
  std::atomic<page_id_t> next_page_id_{0};

  std::vector<std::unique_ptr<BufferShard>> shards_;
  BufferStatsAggregate stats_;
};

// One transaction's (or any other resumable computation's) handle onto the
// asynchronous miss path. A FetchContext owns a single FetchTicket and
// enforces the continuation discipline the access paths rely on:
//
//  - Fetch() submits through SubmitFetch. Hits and inline completions
//    return the pinned guard directly. A queued miss parks the ticket on
//    the page's descriptor and returns WouldBlock — the caller must unwind
//    (without further Fetch() calls on this context) back to its scheduler
//    and re-run the whole step after ready() turns true. Re-running from
//    the top is the resume protocol: OLC B+Tree traversals and MVTO chain
//    walks restart cheaply, and by then the parked page is resident.
//  - An admission-rejected miss (instant Busy) also parks, with the ticket
//    already ready: the scheduler sees ready() immediately and the retry is
//    paced by scheduler passes instead of a spin loop.
//  - Harvest() consumes the completion: it drops the completion's pin (the
//    resumed step re-fetches the page, which is now a hit) and returns the
//    completion status.
//
// The context must stay alive and unmoved while pending() — the completer
// writes into the embedded ticket.
class FetchContext {
 public:
  FetchContext() = default;
  ~FetchContext() { SPITFIRE_DCHECK(!pending_); }
  SPITFIRE_DISALLOW_COPY_AND_MOVE(FetchContext);

  Result<PageGuard> Fetch(BufferManager* bm, page_id_t pid,
                          AccessIntent intent) {
    SPITFIRE_CHECK(!pending_);
    ticket_.Reset();
    (void)bm->SubmitFetch(pid, intent, &ticket_);
    if (ticket_.ready.load(std::memory_order_acquire)) {
      if (ticket_.status.ok()) return std::move(ticket_.guard);
      if (!ticket_.status.IsBusy()) return ticket_.status;
      // Saturation (miss admission) completes inline with Busy: park as an
      // already-ready continuation so the retry is scheduler-paced.
    }
    pending_ = true;
    return Status::WouldBlock("fetch parked");
  }

  bool pending() const { return pending_; }
  // Whether the parked fetch has fired (always true when not pending).
  bool ready() const {
    return !pending_ || ticket_.ready.load(std::memory_order_acquire);
  }
  // True while parked on a completion that was rejected outright (instant
  // Busy): no device work is in flight, so harvesting it is not progress.
  bool parked_busy() const {
    return pending_ && ticket_.ready.load(std::memory_order_acquire) &&
           ticket_.status.IsBusy();
  }

  // Consumes a fired completion; requires ready(). Releases the
  // completion's pin and returns its status (informational — the resumed
  // step retries regardless).
  Status Harvest() {
    SPITFIRE_CHECK(pending_ &&
                   ticket_.ready.load(std::memory_order_acquire));
    pending_ = false;
    const Status st = ticket_.status;
    ticket_.guard.Release();
    return st;
  }

  // Abort/teardown path: block (pumping completions) until the in-flight
  // ticket fires, then drop it. After this the context is reusable and no
  // pin is held. Safe to call when not pending.
  void CancelSync(BufferManager* bm) {
    if (!pending_) return;
    while (!ticket_.ready.load(std::memory_order_acquire)) {
      (void)bm->PumpIo(/*may_sleep=*/true);
    }
    (void)Harvest();
  }

 private:
  FetchTicket ticket_;
  bool pending_ = false;
};

// Fetch helper for access paths that accept an optional continuation:
// with a context, misses park and surface WouldBlock; without one, the
// blocking FetchPage shim is used (the K=1 degenerate case).
inline Result<PageGuard> FetchPageVia(BufferManager* bm, FetchContext* ctx,
                                      page_id_t pid, AccessIntent intent) {
  if (ctx == nullptr) return bm->FetchPage(pid, intent);
  return ctx->Fetch(bm, pid, intent);
}

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_BUFFER_MANAGER_H_
