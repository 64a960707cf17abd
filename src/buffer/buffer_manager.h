#ifndef SPITFIRE_BUFFER_BUFFER_MANAGER_H_
#define SPITFIRE_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/migration_policy.h"
#include "buffer/page.h"
#include "buffer/page_descriptor.h"
#include "buffer/page_table.h"
#include "buffer/stats.h"
#include "common/status.h"
#include "container/admission_queue.h"
#include "storage/device.h"
#include "storage/io_scheduler.h"
#include "storage/nvm_device.h"
#include "storage/ssd_device.h"

namespace spitfire {

class BufferManager;

// Whether a page is being fetched to be read or modified. The intent picks
// which migration probability applies: Dr for reads, Dw for writes
// (Sections 3.1, 3.2).
enum class AccessIntent { kRead, kWrite };

// Configuration of a (possibly degenerate) three-tier buffer manager.
// Setting dram_frames or nvm_frames to zero removes that tier, yielding
// the paper's NVM-SSD and DRAM-SSD hierarchies.
struct BufferManagerOptions {
  size_t dram_frames = 0;
  size_t nvm_frames = 0;

  MigrationPolicy policy = MigrationPolicy::Eager();

  // HyMem-style NVM admission (Section 6.5) instead of the probabilistic
  // Nw decision.
  NvmAdmissionMode nvm_admission = NvmAdmissionMode::kProbabilistic;
  // 0 → half the NVM buffer's page count, the size the paper found to
  // work well.
  size_t admission_queue_capacity = 0;

  // HyMem optimizations (Figure 12 ablation knobs).
  bool enable_fine_grained_loading = false;
  uint32_t load_granularity = 256;  // bytes; Figure 11 sweeps 64..512
  bool enable_mini_pages = false;
  // DRAM frames reserved to host mini pages; 0 → dram_frames / 8.
  size_t mini_host_frames = 0;

  // CLOCK reference-bit sampling on the hit path: a buffer hit records an
  // access with probability 1/k (k = replacer_sample_rate) instead of
  // touching the shared reference bitmap on every fetch. Installs,
  // promotions, and new pages always record. 1 records every hit.
  uint32_t replacer_sample_rate = 8;

  // Per-tier replacement policy (Replacer::Create). kClock is the
  // paper's CLOCK; kTwoQ adds scan resistance (probation FIFO + protected
  // CLOCK + cooling stage). The mini-page region always runs CLOCK — its
  // slots are sub-page and short-lived.
  ReplacerKind dram_replacer = ReplacerKind::kClock;
  ReplacerKind nvm_replacer = ReplacerKind::kClock;

  // Pages read ahead of a detected sequential miss run, as one multi-page
  // miss; 0 disables read-ahead. 32 pages = 512 KB: on the simulated
  // device a 32-page sequential read costs ~1/3 of 32 single-page reads,
  // and a wider window also means fewer chain handoffs per scanned
  // megabyte.
  size_t read_ahead_pages = 32;

  // Devices. `ssd` is required and owned by the caller (it holds the
  // database itself). `nvm` may be supplied by the caller so that its
  // contents survive buffer manager teardown (recovery tests); when null
  // and nvm_frames > 0 an internal NvmDevice is created. `dram_backing`
  // lets experiments substitute a MemoryModeDevice for plain DRAM.
  SsdDevice* ssd = nullptr;
  NvmDevice* nvm = nullptr;
  Device* dram_backing = nullptr;
};

// RAII pin on one tier's copy of a page. Obtained from
// BufferManager::FetchPage / NewPage; releases the pin on destruction.
//
// Data access goes through ReadAt/WriteAt, which handle all DRAM
// representations (full frame, cache-line-grained, mini page) and direct
// NVM access, including on-demand unit loading and device cost accounting.
// Like any buffer manager, page *contents* are not serialized between
// guard holders: concurrent accesses to overlapping byte ranges of one
// page must be coordinated by the caller (the table layer uses MVTO
// version locks; the B+Tree uses its optimistic version latch).
// RawData() exposes the full 16 KB frame and is only valid for guards
// whose page is fully materialized (it loads all units of a cache-line-
// grained page on first use; unsupported for mini pages).
//
// Dirty tracking: WriteAt marks exactly the bytes it writes. A caller
// that writes through RawData() says which bytes it changed with
// MarkDirty(offset, size) while it still holds the guard; RawData(true)
// and MarkDirty() mark the whole page. Bytes changed but not marked may
// never reach NVM: a DRAM copy evicted onto its NVM copy writes back only
// its marked 256 B units.
class PageGuard {
 public:
  PageGuard() = default;
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    Release();
    bm_ = o.bm_;
    desc_ = o.desc_;
    tier_ = o.tier_;
    o.bm_ = nullptr;
    o.desc_ = nullptr;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return desc_ != nullptr; }
  page_id_t pid() const { return desc_->pid; }
  // The tier this guard pinned (kDram or kNvm).
  Tier tier() const { return tier_; }
  SharedPageDescriptor* descriptor() const { return desc_; }

  // Copies `size` bytes at page offset `offset` into `dst`.
  Status ReadAt(size_t offset, size_t size, void* dst);
  // Writes `size` bytes at page offset `offset` and marks the page dirty.
  Status WriteAt(size_t offset, size_t size, const void* src);

  // Full-frame pointer (see class comment). `for_write` marks the whole
  // page dirty. Returns nullptr for mini-page guards.
  std::byte* RawData(bool for_write = false);

  // Marks the whole page, or the bytes [offset, offset + size), dirty.
  void MarkDirty();
  void MarkDirty(size_t offset, size_t size);

  // Releases the pin early.
  void Release();

 private:
  friend class BufferManager;
  PageGuard(BufferManager* bm, SharedPageDescriptor* desc, Tier tier)
      : bm_(bm), desc_(desc), tier_(tier) {}

  BufferManager* bm_ = nullptr;
  SharedPageDescriptor* desc_ = nullptr;
  Tier tier_ = Tier::kDram;
};

// One asynchronous fetch continuation. The caller owns the ticket (stack
// or slot storage both work) and submits it with BufferManager::SubmitFetch;
// the miss completion installs the page, pins it, fills in `guard`/`status`
// and flips `ready` last (release). The completer never touches the ticket
// after that store, so the owner may poll `ready` and destroy or Reset()
// the ticket as soon as it reads true (acquire).
struct FetchTicket {
  page_id_t pid = kInvalidPageId;
  AccessIntent intent = AccessIntent::kRead;

  // Outputs; valid once ready == true. On status.ok(), guard holds the pin.
  Status status;
  PageGuard guard;
  std::atomic<bool> ready{false};

  // Internals: re-dispatch budget and the io_waiters list link (both owned
  // by the buffer manager while the ticket is in flight).
  int attempts = 0;
  FetchTicket* next = nullptr;

  void Reset() {
    status = Status::OK();
    guard.Release();
    attempts = 0;
    next = nullptr;
    ready.store(false, std::memory_order_relaxed);
  }
};

// How SubmitFetch disposed of a ticket.
enum class FetchSubmit : uint8_t {
  kCompleted,     // ready already true: hit, inline completion, or error
  kQueuedLeader,  // the ticket's miss leads a newly submitted device read
  kQueuedJoined,  // the ticket joined a read another fetch already leads
};

// The Spitfire multi-threaded three-tier buffer manager (Section 5).
//
// A DRAM-resident page table maps page ids to shared page descriptors
// holding per-tier latches and residency state (Figure 4).
// FetchPage serves pages from DRAM when possible, from NVM directly (the
// CPU can operate on NVM in place), or from SSD, and migrates pages
// between tiers according to the probabilistic policy <Dr, Dw, Nr, Nw>
// (Section 3). CLOCK replacement reclaims space in both buffers.
//
// The manager owns one pool per tier (frames, free list, replacer), the
// page table, the SSD I/O scheduler, the page-id allocator, the
// miss-admission counter and the read-ahead detector, and the tier
// devices the caller does not supply. Outside this class only the WAL
// and the MVTO timestamps are shared by every core.
class BufferManager {
 public:
  explicit BufferManager(const BufferManagerOptions& options);
  ~BufferManager();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(BufferManager);

  // Pins the page on some tier and returns a guard for it. Thread-safe.
  // A thread must not fetch a page it already holds a guard on.
  // This is a blocking shim over the submission/completion split below:
  // it submits a ticket, pumps I/O completions until the ticket fires,
  // and retries transient Busy completions under a bounded exponential
  // backoff.
  Result<PageGuard> FetchPage(page_id_t pid, AccessIntent intent);

  // Submission half of the asynchronous miss path. Hits complete the
  // ticket inline (kCompleted, ready == true on return). A miss either
  // joins the page's in-flight read (kQueuedJoined) — a leading miss's or
  // a read-ahead window's — or marks the descriptor kIoInflight and
  // submits the device read (kQueuedLeader);
  // either way the ticket fires when the completion installs the page —
  // possibly inside this call when the simulated device completes
  // immediately. The caller keeps the ticket alive and unmoved until
  // `ready` reads true, and drives progress by calling PumpIo (or any
  // other FetchPage/SubmitFetch activity) between polls.
  FetchSubmit SubmitFetch(page_id_t pid, AccessIntent intent, FetchTicket* t);

  // Runs due I/O completions on the calling thread. With may_sleep, waits
  // briefly when nothing is due. Returns whether any work was done.
  bool PumpIo(bool may_sleep) { return io_->PumpCompletions(may_sleep); }

  // Allocates a fresh page id and materializes a zeroed, dirty page for it
  // in the top available buffer.
  Result<PageGuard> NewPage(uint32_t page_type = 0) {
    return NewPageWithId(next_page_id_.fetch_add(1, std::memory_order_relaxed),
                         page_type);
  }

  // Materializes a zeroed, dirty page for `pid`, an id the allocator has
  // already handed out, in the top available buffer, bypassing the SSD
  // read.
  Result<PageGuard> NewPageWithId(page_id_t pid, uint32_t page_type = 0);

  // Writes the freshest copy of `pid` down to SSD and marks copies clean.
  Status FlushPage(page_id_t pid);

  // Flushes every dirty page to SSD. When `include_nvm` is false, dirty
  // NVM-resident pages are left in place (they are persistent — the
  // paper's recovery-overhead advantage of app-direct mode), and dirty
  // cache-line-grained or mini DRAM copies are written back into them.
  // Pages whose copies are actively referenced are skipped (a later round
  // catches them); `*skipped` (optional) counts them so callers like the
  // checkpointer know whether the sweep was complete — an incomplete
  // sweep must not advance the durable redo horizon.
  Status FlushAll(bool include_nvm = false, size_t* skipped = nullptr);

  // Blocks until every SSD page write submitted so far has passed its
  // completion deadline; returns (and clears) the first write error since
  // the previous drain.
  Status DrainIo() { return io_->Drain(); }

  // Rebuilds the page table from the NVM device's persistent frame table
  // after a restart (Section 5.2, Recovery). The NvmDevice must have been
  // supplied externally via options.nvm. Fails, without freeing the frame,
  // on a persisted page that lies past the end of the SSD.
  Status RecoverNvmResidentPages();

  // --- policy & introspection ---
  MigrationPolicy policy() const {
    return {dr_.load(std::memory_order_relaxed),
            dw_.load(std::memory_order_relaxed),
            nr_.load(std::memory_order_relaxed),
            nw_.load(std::memory_order_relaxed)};
  }
  // Swaps the live migration policy (used by the adaptive tuner, §4).
  // Lock-free so the tuner can adjust it mid-run.
  void SetPolicy(const MigrationPolicy& p) {
    dr_.store(p.dr, std::memory_order_relaxed);
    dw_.store(p.dw, std::memory_order_relaxed);
    nr_.store(p.nr, std::memory_order_relaxed);
    nw_.store(p.nw, std::memory_order_relaxed);
  }

  BufferStats& stats() { return stats_; }
  IoScheduler* io_scheduler() { return io_.get(); }

  // Misses currently between submission and completion, and the admission
  // cap that bounds them (misses beyond the cap fail fast with Busy).
  uint32_t inflight_misses() const {
    return inflight_misses_.load(std::memory_order_relaxed);
  }
  uint32_t miss_admission_cap() const { return miss_admission_cap_; }

  // Racy debug census of the DRAM pool: how many frames are on the free
  // list, owned with zero pins (evictable), owned with pins, or owned by
  // a descriptor that no longer maps back to the frame (transient during
  // install/evict). Diagnostic only — takes no latches.
  struct FrameCensus {
    uint32_t free = 0, evictable = 0, pinned = 0, detached = 0;
    uint64_t total_pins = 0;
  };
  FrameCensus DebugDramCensus() const;

  // Fraction of buffered pages resident in both DRAM and NVM (Section
  // 3.3).
  double InclusivityRatio() const;
  size_t DramResidentPages() const;
  size_t NvmResidentPages() const;
  // Whether `pid` currently has a full DRAM frame (racy; tests/bench —
  // the scan-resistance property test checks hot-set retention with it).
  bool IsDramResident(page_id_t pid) const;
  // Whether `pid` currently has an NVM frame (racy; recovery uses it to
  // decide which tier sourced a page image).
  bool IsNvmResident(page_id_t pid) const;

  // Reconfigures the sequential read-ahead window (0 disables). Not
  // thread-safe against concurrent fetches; meant for tests and setup
  // code that needs deterministic miss behavior.
  void SetReadAheadPages(size_t n) { options_.read_ahead_pages = n; }

  page_id_t next_page_id() const {
    return next_page_id_.load(std::memory_order_relaxed);
  }
  void SetNextPageId(page_id_t pid) { next_page_id_.store(pid); }

  SsdDevice* ssd() { return ssd_; }
  NvmDevice* nvm_device() { return nvm_; }
  Device* dram_device() { return dram_backing_; }
  BufferPool* dram_pool() { return dram_pool_.get(); }
  BufferPool* nvm_pool() { return nvm_pool_.get(); }
  const PageTable& page_table() const { return table_; }
  const BufferManagerOptions& options() const { return options_; }

 private:
  friend class PageGuard;

  // --- mini page hosting ---
  struct MiniRegion {
    size_t per_frame = 0;
    size_t capacity = 0;
    std::vector<frame_id_t> host_frames;
    std::unique_ptr<MpmcQueue<uint32_t>> free_list;
    std::unique_ptr<Replacer> replacer;
    std::vector<std::atomic<SharedPageDescriptor*>> owners;
  };

  // Latch-free pin helpers: return true with a pin taken if resident (one
  // CAS on the tier's packed state word; see TierState).
  bool TryPinDram(SharedPageDescriptor* d);
  bool TryPinNvm(SharedPageDescriptor* d);
  void Unpin(SharedPageDescriptor* d, Tier tier);

  // 1-in-k sampling decision for hit-path replacer accounting.
  bool ShouldSampleAccess();

  // NVM → DRAM migration (path 7). Returns OK when the DRAM copy exists,
  // Busy when the caller should serve the access from NVM instead.
  Status PromoteToDram(SharedPageDescriptor* d);

  // One pass over the buffered tiers: returns 1 with a pin taken (*tier
  // set), 0 on a clean miss (no copy on any buffered tier), and -1 on a
  // transient race the caller should simply retry (promotion or eviction
  // in progress).
  int TryHitOnce(SharedPageDescriptor* d, AccessIntent intent,
                 const MigrationPolicy& pol, Tier* tier);

  // A read-ahead window in flight: the pages it covers and how many of its
  // runs have not completed yet (the last one makes the chain decision).
  struct ReadWindow {
    page_id_t start = 0;
    size_t count = 0;
    std::atomic<size_t> runs_left{0};
  };

  // One SSD read in flight: a contiguous run of pages, each
  // claimed kIoInflight on its descriptor. A lone miss is a run of one
  // page; a read-ahead window is one run per contiguous claimed range.
  struct MissRun {
    std::vector<SharedPageDescriptor*> pages;
    // Whether the run carries the leading miss's admission slot; a
    // window's other pages and a chained window hold none.
    bool holds_slot = false;
    std::shared_ptr<ReadWindow> window;  // null for a lone miss
    // Each page's ssd_writes, sampled by SubmitRun before the device read.
    std::vector<uint32_t> ssd_writes = {};
  };

  // Async miss-path internals. SubmitFetchOnDescriptor is SubmitFetch
  // minus pid validation; LeadMiss reads the page a miss just marked
  // kIoInflight, alone or as the first page of a read-ahead window;
  // SubmitRun hands one run to the scheduler; CompleteMiss is the
  // continuation every SSD read resolves through: it installs the run's
  // pages, pins each for its queued waiters and fires their tickets — or
  // re-dispatches them on transient failure.
  FetchSubmit SubmitFetchOnDescriptor(SharedPageDescriptor* d,
                                      AccessIntent intent, FetchTicket* t);
  void LeadMiss(SharedPageDescriptor* d);
  void SubmitRun(MissRun run);
  void CompleteMiss(const MissRun& run, Status st, const std::byte* data);
  static void FinishTicket(FetchTicket* t, Status st);

  // Installs the page image in `src` (already read from SSD) into NVM
  // (path 1, probability Nr) or directly into DRAM (path 8) and returns a
  // pinned guard. A page somebody waits for (`waited`) gets the foreground
  // frame budget and falls back to the other tier when the first has no
  // frame; a read-ahead page nobody waits for gets one one-round sweep of
  // the first tier, so read-ahead never waits on eviction. Caller holds
  // both descriptor latches and has verified the page is not resident on
  // any tier.
  Result<PageGuard> InstallPinned(SharedPageDescriptor* d,
                                  const std::byte* src, bool waited);

  // Read-ahead. ReadAheadTriggered runs the sequential-miss detector for a
  // leading miss on `pid` and takes the one-window gate when it fires.
  // SubmitWindow, called with the gate held, claims up to
  // read_ahead_pages pages from `start` — `leader`, when not null, is
  // start's descriptor, already claimed by the leading miss — and submits
  // one read per contiguous claimed run; it releases the gate when it
  // claims nothing, and otherwise the window's last completion passes
  // the gate on to the next window or releases it.
  bool ReadAheadTriggered(page_id_t pid);
  void SubmitWindow(page_id_t start, SharedPageDescriptor* leader);

  BufferPool* pool(Tier tier) {
    return tier == Tier::kDram ? dram_pool_.get() : nvm_pool_.get();
  }

  // Pops a free frame from `tier`'s pool, evicting replacer victims while
  // the free list is empty: at most `sweeps` victim searches of `rounds`
  // replacer rounds each. Returns kInvalidFrameId when the budget runs
  // out. Foreground installs use the default budget; a read-ahead page
  // nobody waits for passes one one-round sweep (InstallPinned).
  frame_id_t AcquireFrame(Tier tier, int sweeps = 64, int rounds = 3);
  bool TryEvictDramFrame(frame_id_t f);
  bool TryEvictNvmFrame(frame_id_t f);

  // The one way a filled pool frame becomes a resident copy (every path
  // that fills one ends here except recovery and the mini → full mode
  // switch; mini-page slots are not pool frames). The caller holds
  // `tier`'s latch on `d`, has filled frame `f` (acquired from `tier`'s
  // pool) and has checked that the tier holds no copy of `d`. In order:
  // registers the owner, stores frame and dirty mask (every unit when
  // `dirty`, none otherwise; relaxed), publishes
  // the state word in `mode` with `pins` pins granted to the caller
  // (release: a pinner that sees the copy sees the bytes), and records
  // the install with the replacer.
  void PublishFrame(Tier tier, SharedPageDescriptor* d, frame_id_t f,
                    DramMode mode, bool dirty, uint32_t pins);

  // Mini pages.
  uint32_t AcquireMiniSlot();
  bool TryEvictMini(uint32_t mini_id);
  std::byte* MiniPtr(uint32_t mini_id);
  // Promotes a mini page to a full frame after overflow. Caller holds the
  // descriptor's dram latch; mode is kMini on entry, kFull on success.
  Status PromoteMiniToFull(SharedPageDescriptor* d);

  // Writes the dirty units of a `mode` DRAM copy back into the page's
  // existing NVM frame — one device write per run of a full copy's dirty
  // 256 B units, one per dirty loading unit of a cache-line-grained or mini
  // copy — then marks the NVM copy dirty (if anything was written) and the
  // DRAM copy clean. Caller holds both latches and has retired both copies.
  void WriteBackUnitsToNvm(SharedPageDescriptor* d, DramMode mode);

  // Decides whether a dirty page evicted from DRAM is admitted into NVM
  // (probability Nw, or HyMem's admission queue).
  bool DecideNvmAdmission(page_id_t pid);

  uint64_t SsdOffset(page_id_t pid) const {
    return static_cast<uint64_t>(pid) * kPageSize;
  }

  // Writes a checksum-stamped copy of `data`, d's image, to SSD, then
  // counts the write on d->ssd_writes. Caller holds d->ssd_latch and the
  // latch of the tier `data` lives on, so a miss install (which holds
  // both tier latches) never sees a write begun but not yet counted.
  Status WriteToSsd(SharedPageDescriptor* d, const std::byte* data);

  // The one flush routine behind FlushPage and FlushAll, without the I/O
  // drain: pushes a dirty DRAM copy down (a full one to SSD, refreshing
  // any NVM copy; a cache-line-grained or mini one into its NVM copy),
  // then, if `include_nvm`, a dirty NVM copy to SSD. A clean copy is not
  // retired. `*skipped` (optional) is incremented when a dirty copy could
  // not be flushed because it was actively referenced.
  Status FlushDescriptor(SharedPageDescriptor* d, bool include_nvm,
                         size_t* skipped);

  // Loads the units covering the non-empty range [offset, offset+size) of
  // a cache-line-grained page from its NVM copy. Caller holds the dram
  // latch.
  void EnsureUnitsResident(SharedPageDescriptor* d, size_t offset,
                           size_t size);

  // Data plane behind PageGuard::ReadAt (kWrite = false: page → `buf`) and
  // WriteAt (kWrite = true: `buf` → page, marking what it changed dirty),
  // for every representation of the guard's copy. An empty range touches
  // nothing.
  template <bool kWrite>
  using GuardBuf = std::conditional_t<kWrite, const std::byte*, std::byte*>;
  template <bool kWrite>
  Status GuardAccess(SharedPageDescriptor* d, Tier tier, size_t offset,
                     size_t size, GuardBuf<kWrite> buf);
  std::byte* GuardRawData(SharedPageDescriptor* d, Tier tier, bool for_write);

  BufferManagerOptions options_;
  std::atomic<double> dr_{1.0}, dw_{1.0}, nr_{1.0}, nw_{1.0};

  // Tier devices. `ssd_` and any device passed in the options belong to
  // the caller; the manager creates the others (the owned_* pointers),
  // declared before the pools carved out of them.
  SsdDevice* ssd_ = nullptr;
  NvmDevice* nvm_ = nullptr;
  Device* dram_backing_ = nullptr;
  std::unique_ptr<NvmDevice> owned_nvm_;
  std::unique_ptr<Device> owned_dram_;
  // Every SSD read and write goes through it.
  std::unique_ptr<IoScheduler> io_;

  std::unique_ptr<BufferPool> dram_pool_;
  std::unique_ptr<BufferPool> nvm_pool_;
  std::unique_ptr<AdmissionQueue> admission_queue_;
  MiniRegion mini_;

  // Sized from the SSD's page count; owns every descriptor.
  PageTable table_;

  // The page-id allocator: NewPage hands out ids in order.
  std::atomic<page_id_t> next_page_id_{0};
  BufferStats stats_;

  // Sequential-miss run detection for read-ahead. `last_miss_pid_` is the
  // page of the latest miss, leading or joining. `ra_next_pid_` is the
  // page just past the last claimed window: a miss landing exactly there
  // means the scan consumed the whole window, so the next one is started
  // immediately instead of waiting for the run counter to rebuild.
  std::atomic<page_id_t> last_miss_pid_{kInvalidPageId};
  std::atomic<uint32_t> seq_miss_run_{0};
  std::atomic<page_id_t> ra_next_pid_{kInvalidPageId};
  // Set by the destructor before it shuts the scheduler down: completions
  // fired during tear-down fail their tickets instead of installing.
  std::atomic<bool> shutting_down_{false};
  // Miss admission control: distinct pages in kIoInflight right now and
  // the cap (half the pool). Async rings can submit far more concurrent
  // misses than there are frames; past the cap a would-be leader fails
  // fast with Busy instead of queueing a device read whose install is
  // doomed to find no free frame (and whose re-dispatch re-reads would
  // crowd the device queues into livelock).
  std::atomic<uint32_t> inflight_misses_{0};
  uint32_t miss_admission_cap_ = 0;
  // Live range [ra_live_lo_, ra_next_pid_) of the chain's recent windows
  // and the consumed flag an access inside it sets: a HIT there proves a
  // scan front is following the chain even when read-ahead runs far
  // enough ahead that the front never misses (and so never joins a
  // window's read). Without it a perfectly-overlapped chain would look
  // abandoned and die every other window.
  std::atomic<page_id_t> ra_live_lo_{kInvalidPageId};
  std::atomic<bool> ra_consumed_{false};
  std::atomic<bool> read_ahead_inflight_{false};
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
