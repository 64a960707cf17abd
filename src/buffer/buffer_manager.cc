#include "buffer/buffer_manager.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/timer.h"
#include "hymem/mini_page.h"
#include "storage/dram_device.h"

namespace spitfire {

namespace {
// How long a promotion waits to retire the NVM copy (drain optimistic
// pins, Section 5.2) before giving up and serving the access from NVM.
constexpr int kPinDrainSpins = 4096;

// Async miss path budgets. A submission spins kSubmitHitAttempts on
// transient pin races before reporting Busy; a queued ticket survives
// kTicketMaxAttempts completion-time re-dispatches (this also bounds the
// recursion depth when the simulated device completes reads inline); the
// blocking FetchPage shim resubmits a Busy ticket kFetchBusyRounds times
// under exponential backoff between kBackoffMinNanos and kBackoffMaxNanos.
constexpr int kSubmitHitAttempts = 256;
constexpr int kTicketMaxAttempts = 48;
constexpr int kFetchBusyRounds = 64;
constexpr uint64_t kBackoffMinNanos = 1'000;
constexpr uint64_t kBackoffMaxNanos = 512'000;
// Below this a backoff spins (sleeping costs more than it yields);
// above it the thread sleeps so evictors and completions get the core.
constexpr uint64_t kBackoffSpinCapNanos = 8'192;

// The SSD's page count, which sizes the page table.
page_id_t SsdPages(const SsdDevice* ssd) {
  SPITFIRE_CHECK(ssd != nullptr);
  return ssd->capacity() / kPageSize;
}

// Whether two page images agree on every 256 B unit outside `mask`: what
// a partial write-back of a full DRAM copy onto its NVM copy relies on.
[[maybe_unused]] bool AgreeOutsideUnits(const std::byte* a, const std::byte* b,
                                        uint64_t mask) {
  constexpr size_t kUnit = TierState::kDirtyUnitSize;
  for (size_t u = 0; u < 64; ++u) {
    if ((mask >> u & 1) == 0 &&
        std::memcmp(a + u * kUnit, b + u * kUnit, kUnit) != 0) {
      return false;
    }
  }
  return true;
}
}  // namespace

// ---------------------------------------------------------------------------
// PageGuard
// ---------------------------------------------------------------------------

Status PageGuard::ReadAt(size_t offset, size_t size, void* dst) {
  SPITFIRE_DCHECK(valid());
  return bm_->GuardAccess</*kWrite=*/false>(desc_, tier_, offset, size,
                                            static_cast<std::byte*>(dst));
}

Status PageGuard::WriteAt(size_t offset, size_t size, const void* src) {
  SPITFIRE_DCHECK(valid());
  return bm_->GuardAccess</*kWrite=*/true>(
      desc_, tier_, offset, size, static_cast<const std::byte*>(src));
}

std::byte* PageGuard::RawData(bool for_write) {
  SPITFIRE_DCHECK(valid());
  return bm_->GuardRawData(desc_, tier_, for_write);
}

void PageGuard::MarkDirty() { MarkDirty(0, kPageSize); }

void PageGuard::MarkDirty(size_t offset, size_t size) {
  SPITFIRE_DCHECK(valid() && offset + size <= kPageSize);
  TierState& state = tier_ == Tier::kDram ? desc_->dram : desc_->nvm;
  state.MarkDirty(TierState::UnitsOf(offset, size));
}

void PageGuard::Release() {
  if (desc_ != nullptr) {
    bm_->Unpin(desc_, tier_);
    desc_ = nullptr;
    bm_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

BufferManager::BufferManager(const BufferManagerOptions& options)
    : options_(options),
      ssd_(options.ssd),
      table_(SsdPages(options.ssd)) {
  SPITFIRE_CHECK(options_.replacer_sample_rate >= 1);
  SetPolicy(options_.policy);

  // Tier devices the caller did not supply, sized for the pool's frames.
  if (options_.nvm_frames > 0) {
    nvm_ = options_.nvm;
    if (nvm_ == nullptr) {
      owned_nvm_ = std::make_unique<NvmDevice>(BufferPool::RequiredCapacity(
          options_.nvm_frames, /*persistent_frame_table=*/true));
      nvm_ = owned_nvm_.get();
    }
  }
  if (options_.dram_frames > 0) {
    dram_backing_ = options_.dram_backing;
    if (dram_backing_ == nullptr) {
      owned_dram_ = std::make_unique<DramDevice>(BufferPool::RequiredCapacity(
          options_.dram_frames, /*persistent_frame_table=*/false));
      dram_backing_ = owned_dram_.get();
    }
  }
  io_ = std::make_unique<IoScheduler>(ssd_);

  if (options_.nvm_frames > 0) {
    nvm_pool_ = std::make_unique<BufferPool>(
        BufferPoolConfig{Tier::kNvm, nvm_, options_.nvm_frames,
                         /*persistent_frame_table=*/true,
                         options_.nvm_replacer});
    if (options_.nvm_admission == NvmAdmissionMode::kAdmissionQueue) {
      size_t cap = options_.admission_queue_capacity;
      if (cap == 0) cap = std::max<size_t>(1, options_.nvm_frames / 2);
      admission_queue_ = std::make_unique<AdmissionQueue>(cap);
    }
  }

  if (options_.dram_frames > 0) {
    dram_pool_ = std::make_unique<BufferPool>(
        BufferPoolConfig{Tier::kDram, dram_backing_, options_.dram_frames,
                         /*persistent_frame_table=*/false,
                         options_.dram_replacer});

    if (options_.enable_mini_pages && nvm_pool_ != nullptr) {
      size_t host = options_.mini_host_frames;
      if (host == 0) host = std::max<size_t>(1, options_.dram_frames / 8);
      host = std::min(host, options_.dram_frames);
      mini_.per_frame = MiniPageView::PerFrame(options_.load_granularity);
      for (size_t i = 0; i < host; ++i) {
        frame_id_t f;
        if (!dram_pool_->TryAllocateFrame(&f)) break;
        mini_.host_frames.push_back(f);
      }
      mini_.capacity = mini_.host_frames.size() * mini_.per_frame;
      if (mini_.capacity > 0) {
        mini_.free_list = std::make_unique<MpmcQueue<uint32_t>>(mini_.capacity);
        mini_.replacer =
            Replacer::Create(ReplacerKind::kClock, mini_.capacity);
        mini_.owners = std::vector<std::atomic<SharedPageDescriptor*>>(
            mini_.capacity);
        for (uint32_t m = 0; m < mini_.capacity; ++m) {
          mini_.owners[m].store(nullptr, std::memory_order_relaxed);
          SPITFIRE_CHECK(mini_.free_list->TryPush(m));
        }
      }
    }
  }
  SPITFIRE_CHECK(dram_pool_ != nullptr || nvm_pool_ != nullptr);

  // Admission control bounds the misses in flight at two ceilings: half
  // the frame budget (misses beyond that would thrash the pools on
  // install), and the device's queue slots with 2x oversubscription
  // (misses beyond the device depth only sit in the scheduler's software
  // queues adding latency, not throughput; the 2x headroom keeps the
  // hardware queues refillable the moment slots free).
  {
    const uint32_t frame_cap = std::max<uint32_t>(
        8,
        static_cast<uint32_t>(options_.dram_frames + options_.nvm_frames) / 2);
    const uint32_t device_slots = ssd_->profile().queues.TotalDepth();
    const uint32_t qd_cap = std::max<uint32_t>(8, 2 * device_slots);
    miss_admission_cap_ = std::min(frame_cap, qd_cap);
  }
}

BufferManager::~BufferManager() {
  // Two phases, both before any pool, page table or descriptor is
  // destroyed. The flag makes the read completions that the scheduler's
  // shutdown fires early fail their tickets with Busy instead of installing
  // pages and handing out guards that would outlive the descriptors they
  // pin; those completions still take descriptor latches.
  shutting_down_.store(true, std::memory_order_release);
  io_->Shutdown();
}

// ---------------------------------------------------------------------------
// Pinning (the latch-free hit path)
// ---------------------------------------------------------------------------

bool BufferManager::ShouldSampleAccess() {
  const uint32_t k = options_.replacer_sample_rate;
  if (k <= 1) return true;
  thread_local uint32_t tick = 0;
  return (++tick % k) == 0;
}

bool BufferManager::TryPinDram(SharedPageDescriptor* d) {
  const DramMode m = d->dram.TryPin();
  if (m == DramMode::kNone) return false;
  // Sampled CLOCK accounting: the reference bitmap is shared, so touching
  // it on every hit restores the very contention the latch-free pin
  // removed. Misses are recorded exactly at install time.
  if (ShouldSampleAccess()) {
    stats_.Add(BufferCounter::kReplacerSampled);
    if (m == DramMode::kMini) {
      // `mini_id` may be stale if a concurrent overflow promoted the page
      // to a full frame; a stray reference bit on a freed slot is benign.
      mini_.replacer->RecordAccess(d->mini_id.load(std::memory_order_relaxed));
    } else {
      dram_pool_->ReplacerRecordAccess(
          d->dram.frame.load(std::memory_order_relaxed));
    }
  }
  // No counter on the suppressed branch: an extra per-hit atomic here costs
  // ~10% of pure hit throughput. Snapshot() derives suppressed counts as
  // hits - sampled.
  return true;
}

bool BufferManager::TryPinNvm(SharedPageDescriptor* d) {
  if (d->nvm.TryPin() == DramMode::kNone) return false;
  if (ShouldSampleAccess()) {
    stats_.Add(BufferCounter::kReplacerSampled);
    nvm_pool_->ReplacerRecordAccess(
        d->nvm.frame.load(std::memory_order_relaxed));
  }
  return true;
}

void BufferManager::Unpin(SharedPageDescriptor* d, Tier tier) {
  if (tier == Tier::kDram) {
    d->dram.Unpin();
  } else {
    d->nvm.Unpin();
  }
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

int BufferManager::TryHitOnce(SharedPageDescriptor* d, AccessIntent intent,
                              const MigrationPolicy& pol, Tier* tier) {
  // 1. DRAM hit: one CAS on the packed state word, no latch.
  if (TryPinDram(d)) {
    stats_.Add(BufferCounter::kDramHits);
    *tier = Tier::kDram;
    return 1;
  }

  // 2. NVM hit: possibly migrate up (Dr / Dw), else serve in place.
  if (d->NvmResident()) {
    const bool promote =
        dram_pool_ != nullptr &&
        (intent == AccessIntent::kRead ? pol.MigrateNvmToDramOnRead()
                                       : pol.UseDramOnWrite());
    if (promote) {
      const Status st = PromoteToDram(d);
      if (st.ok()) return -1;  // retry: should pin DRAM now
      // Busy: fall through and serve from NVM.
    }
    if (TryPinNvm(d)) {
      if (d->DramResident()) {
        // A promotion slipped in between the DRAM miss above and this
        // pin. Once a DRAM copy exists it is authoritative — every
        // other thread pins it first and writes land there — so serving
        // (or writing) the NVM copy now would act on stale bytes.
        // Promotion cannot exclude us either: it only drains NVM pins
        // that exist while it runs. Drop the pin and retry; the pin CAS
        // (acquire) pairs with the promoter's release publishes, so
        // this residency re-read is reliable.
        Unpin(d, Tier::kNvm);
        return -1;
      }
      stats_.Add(BufferCounter::kNvmHits);
      *tier = Tier::kNvm;
      return 1;
    }
    return -1;  // raced with an NVM eviction
  }
  return 0;
}

Result<PageGuard> BufferManager::FetchPage(page_id_t pid,
                                           AccessIntent intent) {
  // Blocking shim over the submission/completion split: submit a ticket,
  // drive completions until it fires, retry transient failures with a
  // bounded exponential backoff (the old code retried with a bare pause,
  // which under pool exhaustion just hammered the evictors it was
  // waiting on).
  FetchTicket t;
  uint64_t backoff_ns = kBackoffMinNanos;
  for (int round = 0; round < kFetchBusyRounds; ++round) {
    const FetchSubmit s = SubmitFetch(pid, intent, &t);
    if (s == FetchSubmit::kQueuedLeader) {
      // Blocking fidelity: the leader pays its miss latency on this core,
      // pumping completions (its own included) while it waits.
      while (!t.ready.load(std::memory_order_acquire)) {
        if (!io_->PumpCompletions(/*may_sleep=*/false)) {
          __builtin_ia32_pause();
        }
      }
    } else if (s == FetchSubmit::kQueuedJoined) {
      // A joiner's latency is covered by the leader's spin (or by the
      // async ring, or the scheduler's completion worker); don't burn the
      // core next to it. Sleep on the scheduler's completion broadcast —
      // epoch-checked, so a completion firing between the ready check and
      // the wait returns immediately.
      while (!t.ready.load(std::memory_order_acquire)) {
        const uint64_t epoch = io_->completion_epoch();
        if (t.ready.load(std::memory_order_acquire)) break;
        io_->WaitForCompletion(epoch, 100'000);
      }
    }
    if (t.status.ok()) return std::move(t.guard);
    if (!t.status.IsBusy()) return t.status;
    if (backoff_ns <= kBackoffSpinCapNanos) {
      SpinWaitNanos(backoff_ns);
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
    }
    backoff_ns = std::min(backoff_ns * 2, kBackoffMaxNanos);
    t.Reset();
  }
  return Status::Busy("FetchPage exceeded retry budget");
}

BufferManager::FrameCensus BufferManager::DebugDramCensus() const {
  FrameCensus c;
  if (dram_pool_ == nullptr) return c;
  for (frame_id_t f = 0; f < dram_pool_->num_frames(); ++f) {
    SharedPageDescriptor* d = dram_pool_->Owner(f);
    if (d == nullptr) {
      ++c.free;
      continue;
    }
    if (d->dram.frame.load(std::memory_order_relaxed) != f ||
        !d->dram.Resident()) {
      ++c.detached;
      continue;
    }
    const uint32_t pins = d->dram.Pins();
    c.total_pins += pins;
    if (pins > 0) {
      ++c.pinned;
    } else {
      ++c.evictable;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Asynchronous miss path: submission half
// ---------------------------------------------------------------------------

void BufferManager::FinishTicket(FetchTicket* t, Status st) {
  t->status = std::move(st);
  t->ready.store(true, std::memory_order_release);
}

FetchSubmit BufferManager::SubmitFetch(page_id_t pid, AccessIntent intent,
                                       FetchTicket* t) {
  t->pid = pid;
  t->intent = intent;
  // Write-intent share of the fetch stream; the online tuner reads this
  // (with the hit/migration counters) as its workload-mix signature.
  if (intent == AccessIntent::kWrite) {
    stats_.Add(BufferCounter::kWriteFetches);
  }
  // A pid past the SSD's end is unallocated too: NewPage refused it.
  SharedPageDescriptor* d =
      pid < next_page_id_.load(std::memory_order_relaxed)
          ? table_.GetOrCreate(pid)
          : nullptr;
  if (d == nullptr) {
    FinishTicket(t, Status::InvalidArgument("fetch of unallocated page"));
    return FetchSubmit::kCompleted;
  }

  // Read-ahead keepalive: two relaxed loads on the hot path; matches only
  // inside the live range of the active read-ahead chain.
  if (pid >= ra_live_lo_.load(std::memory_order_relaxed) &&
      pid < ra_next_pid_.load(std::memory_order_relaxed)) {
    ra_consumed_.store(true, std::memory_order_relaxed);
  }
  return SubmitFetchOnDescriptor(d, intent, t);
}

FetchSubmit BufferManager::SubmitFetchOnDescriptor(SharedPageDescriptor* d,
                                                   AccessIntent intent,
                                                   FetchTicket* t) {
  const MigrationPolicy pol = policy();
  for (int attempt = 0; attempt < kSubmitHitAttempts; ++attempt) {
    Tier tier;
    const int h = TryHitOnce(d, intent, pol, &tier);
    if (h > 0) {
      // Capture before firing: the owner may destroy the ticket the
      // moment ready reads true. A re-dispatched ticket (attempts > 0)
      // may have a sleeping owner, so wake the completion waiters.
      const bool redispatched = t->attempts > 0;
      t->guard = PageGuard(this, d, tier);
      FinishTicket(t, Status::OK());
      if (redispatched) io_->SignalCompletions();
      return FetchSubmit::kCompleted;
    }
    if (h < 0) {
      __builtin_ia32_pause();
      continue;
    }

    // Clean miss: join the in-flight fetch or become its leader. io_latch
    // is taken alone here — never a tier latch inside it — so it can nest
    // inside the tier latches on the completion side.
    d->io_latch.Lock();
    if (d->io_state == IoState::kIoInflight) {
      t->next = d->io_waiters;
      d->io_waiters = t;
      d->io_latch.Unlock();
      // A join is a miss too: a scan front that catches up with a
      // read-ahead window joins its pages, and the chain decision reads
      // the front's position from here. (Load first: a miss storm's
      // joiners all name the same page.)
      if (last_miss_pid_.load(std::memory_order_relaxed) != d->pid) {
        last_miss_pid_.store(d->pid, std::memory_order_relaxed);
      }
      // Count every miss that rides another's device read, so "N threads,
      // one device read" stays observable.
      io_->stats().reads_deduped.fetch_add(1, std::memory_order_relaxed);
      stats_.Add(BufferCounter::kMissJoins);
      return FetchSubmit::kQueuedJoined;
    }
    if (d->DramResident() || d->NvmResident()) {
      // Residency appeared between the pin probe and the latch; loop and
      // pin it.
      d->io_latch.Unlock();
      continue;
    }
    // Admission control: refuse to lead a new miss once half the pool's
    // worth of pages is already in flight — the install would find no
    // frame and the re-dispatch re-reads would crowd the device queues.
    // Fail fast with Busy so the submitter backs off or works elsewhere.
    if (inflight_misses_.fetch_add(1, std::memory_order_acq_rel) >=
        miss_admission_cap_) {
      inflight_misses_.fetch_sub(1, std::memory_order_acq_rel);
      d->io_latch.Unlock();
      const bool redispatched = t->attempts > 0;
      FinishTicket(t, Status::Busy("miss admission: buffer saturated"));
      if (redispatched) io_->SignalCompletions();
      return FetchSubmit::kCompleted;
    }
    d->io_state = IoState::kIoInflight;
    t->next = nullptr;
    d->io_waiters = t;
    d->io_latch.Unlock();
    stats_.Add(BufferCounter::kMissSubmits);
    LeadMiss(d);
    return FetchSubmit::kQueuedLeader;
  }
  {
    const bool redispatched = t->attempts > 0;
    FinishTicket(t, Status::Busy("fetch submission starved by races"));
    if (redispatched) io_->SignalCompletions();
  }
  return FetchSubmit::kCompleted;
}

void BufferManager::LeadMiss(SharedPageDescriptor* d) {
  // A sequential miss run makes this page the first of a read-ahead
  // window; otherwise it is read alone.
  if (ReadAheadTriggered(d->pid)) {
    SubmitWindow(d->pid, d);
  } else {
    SubmitRun(MissRun{{d}, /*holds_slot=*/true, nullptr});
  }
}

void BufferManager::SubmitRun(MissRun run) {
  const uint64_t offset = SsdOffset(run.pages.front()->pid);
  const size_t n = run.pages.size();
  io_->SubmitRead(offset, n,
                  [this, run = std::move(run)](const Status& st,
                                               const std::byte* data,
                                               const uint64_t* seqs) {
                    CompleteMiss(run, st, data, seqs);
                  });
}

// ---------------------------------------------------------------------------
// Asynchronous miss path: completion half
// ---------------------------------------------------------------------------

void BufferManager::CompleteMiss(const MissRun& run, Status st,
                               const std::byte* data, const uint64_t* seqs) {
  // Releases the admission slot the leading miss took when its descriptor
  // entered kIoInflight (re-dispatched waiters that lead a new miss take a
  // fresh slot).
  if (run.holds_slot) inflight_misses_.fetch_sub(1, std::memory_order_acq_rel);
  const bool shutdown = shutting_down_.load(std::memory_order_acquire);

  // A window's last run makes the chain decision, before any waiter wakes,
  // so the next window is on the device while the front consumes this
  // one. A hit inside the live range means a scan front is consuming the
  // chain; the last miss (leading or joining) must also be within one
  // window of this one, or the front has moved elsewhere and chaining
  // would start a stale chase whose installs evict the frames the front
  // just filled. No signal = nobody follows: release the gate and let the
  // run detector start a fresh chain. Shutdown never chains: nobody will
  // consume the window.
  if (run.window != nullptr &&
      run.window->runs_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const ReadWindow& w = *run.window;
    const bool consumed =
        ra_consumed_.exchange(false, std::memory_order_relaxed);
    const page_id_t lm = last_miss_pid_.load(std::memory_order_relaxed);
    const page_id_t next = w.start + w.count;
    const size_t ra = options_.read_ahead_pages;
    const bool near =
        lm != kInvalidPageId && lm + ra >= w.start && lm < next + ra;
    if (consumed && near && !shutdown) {
      SubmitWindow(next, /*leader=*/nullptr);
    } else {
      read_ahead_inflight_.store(false);
    }
  }

  if (shutdown) {
    // Tear-down drain: the scheduler fires leftover reads early. Fail
    // every waiter without installing — tickets stay guard-free, so they
    // can safely outlive the buffer manager. (Installing would also
    // evict, and the stopping scheduler refuses a dirty victim's
    // write-back, so every frame search would sweep the pools again.)
    for (SharedPageDescriptor* d : run.pages) {
      d->io_latch.Lock();
      FetchTicket* w = d->io_waiters;
      d->io_waiters = nullptr;
      d->io_state = IoState::kIdle;
      d->io_latch.Unlock();
      while (w != nullptr) {
        FetchTicket* next = w->next;
        w->next = nullptr;
        FinishTicket(w, Status::Busy("buffer manager shutting down"));
        w = next;
      }
    }
    return;
  }

  // Install every page of the run first and wake its waiters together
  // afterwards: waking per page would let early joiners outrun the
  // installs and sleep again on the next page. `woken` collects the pinned
  // waiters of installed pages; `failed` the pages whose waiters must be
  // re-dispatched or failed.
  FetchTicket* woken = nullptr;
  struct Failed {
    SharedPageDescriptor* d;
    FetchTicket* waiters;
    Status st;
  };
  std::vector<Failed> failed;
  for (size_t i = 0; i < run.pages.size(); ++i) {
    SharedPageDescriptor* d = run.pages[i];
    Status page_st = st;
    FetchTicket* waiters = nullptr;
    bool installed = false;
    {
      SpinLatchGuard gd(d->dram_latch);
      SpinLatchGuard gn(d->nvm_latch);
      PageGuard first;
      if (page_st.ok()) {
        if (d->DramResident() || d->NvmResident()) {
          page_st = Status::Busy("page appeared while installing");
        } else if (io_->WriteSeq(SsdOffset(d->pid)) != seqs[i]) {
          // A write-back landed while the read was in flight; the
          // re-dispatch below reads the new bytes.
          page_st = Status::Busy("page written during miss read");
        } else {
          d->io_latch.Lock();
          const bool waited = d->io_waiters != nullptr;
          d->io_latch.Unlock();
          Result<PageGuard> r =
              InstallPinned(d, data + i * kPageSize, waited);
          if (r.ok()) {
            first = r.MoveValue();
            installed = true;
            if (run.window != nullptr) {
              stats_.Add(BufferCounter::kReadAheadInstalls);
            }
          } else {
            page_st = r.status();
          }
        }
      }

      // Detach the waiter list and clear the in-flight mark. io_latch
      // nests inside the tier latches only here (submitters take it
      // alone), so install → detach → pin is one atomic step with respect
      // to evictors: nothing can retire the fresh copy before every waiter
      // holds a pin.
      d->io_latch.Lock();
      waiters = d->io_waiters;
      d->io_waiters = nullptr;
      d->io_state = IoState::kIdle;
      d->io_latch.Unlock();

      if (installed) {
        const Tier tier = first.tier();
        for (FetchTicket* t = waiters; t != nullptr;) {
          FetchTicket* next = t->next;
          if (first.valid()) {
            t->guard = std::move(first);  // the install's own pin
          } else {
            // Cannot fail: the copy was published above and both tier
            // latches are held, so no evictor can retire it.
            const DramMode m =
                tier == Tier::kDram ? d->dram.TryPin() : d->nvm.TryPin();
            SPITFIRE_DCHECK(m != DramMode::kNone);
            (void)m;
            t->guard = PageGuard(this, d, tier);
          }
          // Each served waiter is one fetch served from SSD — TotalFetches
          // counts exactly one counter per success.
          stats_.Add(BufferCounter::kSsdFetches);
          t->status = Status::OK();
          t->next = woken;
          woken = t;
          t = next;
        }
        // With no waiters (a read-ahead page) `first` drops its pin on
        // scope exit and the page simply stays resident.
      }
    }  // tier latches released
    if (!installed && waiters != nullptr) {
      failed.push_back(Failed{d, waiters, std::move(page_st)});
    }
  }

  // Fire outside the latches, then signal once. Read `next` before the
  // release store: the owner may destroy (or Reset and relink) the ticket
  // the moment it observes ready == true.
  bool signal = woken != nullptr;
  for (FetchTicket* t = woken; t != nullptr;) {
    FetchTicket* next = t->next;
    t->next = nullptr;
    t->ready.store(true, std::memory_order_release);
    t = next;
  }

  // Failure. Hard errors complete every waiter; Busy re-dispatches them
  // (the page may have appeared, or been written and need a fresh read)
  // under a per-ticket attempt budget that also bounds the recursion when
  // the simulated device completes re-reads inline.
  // Resubmission runs outside all latches for the same reason.
  for (const Failed& f : failed) {
    for (FetchTicket* t = f.waiters; t != nullptr;) {
      FetchTicket* next = t->next;
      t->next = nullptr;
      if (!f.st.IsBusy()) {
        FinishTicket(t, f.st);
        signal = true;
      } else if (++t->attempts >= kTicketMaxAttempts) {
        FinishTicket(t, Status::Busy("fetch re-dispatch budget exhausted"));
        signal = true;
      } else {
        (void)SubmitFetchOnDescriptor(f.d, t->intent, t);
      }
      t = next;
    }
  }
  if (signal) io_->SignalCompletions();
}

Result<PageGuard> BufferManager::NewPageWithId(page_id_t pid,
                                             uint32_t page_type) {
  SharedPageDescriptor* d = table_.GetOrCreate(pid);
  if (d == nullptr) return Status::OutOfMemory("SSD device full");
  SpinLatchGuard gd(d->dram_latch);
  SpinLatchGuard gn(d->nvm_latch);
  // A read-ahead window reads every page id below the allocator's, so it
  // can install this page's meaningless SSD image between the id's
  // allocation and this call. Nobody else knows the id yet, so nobody
  // holds that copy: format it in place.
  for (const Tier tier : {Tier::kDram, Tier::kNvm}) {
    TierState& state = tier == Tier::kDram ? d->dram : d->nvm;
    if (!state.Resident()) continue;
    const frame_id_t f = state.frame.load(std::memory_order_relaxed);
    PageView(pool(tier)->FramePtr(f)).Format(pid, page_type);
    if (tier == Tier::kNvm) {
      nvm_->OnDirectWrite(nvm_pool_->FrameOffset(f), kPageSize,
                          /*sequential=*/true);
    }
    state.MarkDirty(TierState::kAllUnits);
    const DramMode m = state.TryPin();
    SPITFIRE_DCHECK(m == DramMode::kFull);
    (void)m;
    return PageGuard(this, d, tier);
  }
  for (const Tier tier : {Tier::kDram, Tier::kNvm}) {
    if (pool(tier) == nullptr) continue;
    const frame_id_t f = AcquireFrame(tier);
    if (f == kInvalidFrameId) continue;
    PageView(pool(tier)->FramePtr(f)).Format(pid, page_type);
    if (tier == Tier::kNvm) {
      nvm_->OnDirectWrite(nvm_pool_->FrameOffset(f), kPageSize,
                          /*sequential=*/true);
    }
    PublishFrame(tier, d, f, DramMode::kFull, /*dirty=*/true, /*pins=*/1);
    return PageGuard(this, d, tier);
  }
  return Status::OutOfMemory("no frame available for new page");
}

Result<PageGuard> BufferManager::InstallPinned(SharedPageDescriptor* d,
                                             const std::byte* src,
                                             bool waited) {
  // Where does the page land? Bypassing NVM on the read path happens with
  // probability 1 - Nr (Section 3.3); without a DRAM tier everything goes
  // to NVM and vice versa. If the chosen tier has no frame (transient
  // exhaustion: every frame pinned or latched), a waited-for page lands on
  // the other tier; if neither has one, the caller retries.
  const bool to_nvm =
      dram_pool_ == nullptr ||
      (nvm_pool_ != nullptr && policy().InstallSsdToNvmOnRead());
  const Tier first = to_nvm ? Tier::kNvm : Tier::kDram;
  for (const Tier tier : {first, to_nvm ? Tier::kDram : Tier::kNvm}) {
    BufferPool* p = pool(tier);
    if (p == nullptr) continue;
    const frame_id_t f = waited ? AcquireFrame(tier)
                                : AcquireFrame(tier, /*sweeps=*/1,
                                               /*rounds=*/1);
    if (f == kInvalidFrameId) {
      if (waited) continue;
      break;
    }
    std::memcpy(p->FramePtr(f), src, kPageSize);
    p->device()->OnDirectWrite(p->FrameOffset(f), kPageSize,
                               /*sequential=*/true);
    PublishFrame(tier, d, f, DramMode::kFull, /*dirty=*/false, /*pins=*/1);
    if (tier == Tier::kNvm) stats_.Add(BufferCounter::kNvmInstalls);
    return PageGuard(this, d, tier);
  }
  return Status::Busy("buffer pools exhausted; retry");
}

// ---------------------------------------------------------------------------
// Read-ahead
// ---------------------------------------------------------------------------

bool BufferManager::ReadAheadTriggered(page_id_t pid) {
  if (options_.read_ahead_pages == 0) return false;
  const page_id_t prev = last_miss_pid_.exchange(pid);
  bool trigger = false;
  if (pid == ra_next_pid_.load(std::memory_order_relaxed)) {
    // The scan consumed the previous window and ran off its end: start the
    // next window without rebuilding a two-miss run.
    trigger = true;
  } else if (prev != kInvalidPageId && pid == prev + 1) {
    trigger = seq_miss_run_.fetch_add(1) + 1 >= 2;
  } else {
    seq_miss_run_.store(1, std::memory_order_relaxed);
  }
  // One window at a time: the gate stays held while a window (or the
  // chain it starts) is in flight.
  return trigger && !read_ahead_inflight_.exchange(true);
}

void BufferManager::SubmitWindow(page_id_t start, SharedPageDescriptor* leader) {
  const size_t ra = options_.read_ahead_pages;
  const page_id_t horizon = std::min(
      next_page_id_.load(std::memory_order_relaxed), table_.num_pages());
  // A chained window skips pages that are already resident (e.g. whole
  // windows surviving from the scan's previous pass over the database).
  // Claiming them is not just wasted transfer: the front HITS straight
  // through a resident window, so its chain decision sees no miss near it
  // and the chain dies while the front runs ahead on single-page reads.
  // The walk is bounded; a leading miss's window starts at its own page.
  size_t trim_budget = 4 * ra;
  while (leader == nullptr && start < horizon) {
    const SharedPageDescriptor* d = table_.Find(start);
    if (d == nullptr || (!d->DramResident() && !d->NvmResident())) break;
    ++start;
    if (--trim_budget == 0) break;
  }
  const size_t n = start < horizon && trim_budget > 0
                       ? std::min<size_t>(ra, horizon - start)
                       : 0;
  SPITFIRE_DCHECK(leader == nullptr || n > 0);
  if (n == 0) {
    read_ahead_inflight_.store(false);
    return;
  }
  // A miss exactly at the window's end starts the next window without
  // rebuilding a two-miss run (see ReadAheadTriggered); any access inside
  // [previous window, window end) marks the chain as consumed (see
  // SubmitFetch). The lower bound trails by one window because the front
  // may still be consuming the window behind this one when the next
  // chain decision is made.
  ra_live_lo_.store(start >= ra ? start - ra : 0, std::memory_order_relaxed);
  ra_next_pid_.store(start + n, std::memory_order_relaxed);

  // Claim each page the way a leading miss does — under io_latch, only an
  // idle page with no resident copy — so a miss on a claimed page joins
  // its waiter list. Every contiguous claimed range is one device read.
  auto window = std::make_shared<ReadWindow>();
  window->start = start;
  window->count = n;
  std::vector<MissRun> runs;
  bool in_run = false;
  for (size_t i = 0; i < n; ++i) {
    SharedPageDescriptor* d = nullptr;
    if (i == 0 && leader != nullptr) {
      d = leader;
    } else if (SharedPageDescriptor* c = table_.GetOrCreate(start + i);
               c != nullptr) {
      c->io_latch.Lock();
      if (c->io_state == IoState::kIdle && !c->DramResident() &&
          !c->NvmResident()) {
        c->io_state = IoState::kIoInflight;
        d = c;
      }
      c->io_latch.Unlock();
    }
    if (d == nullptr) {
      in_run = false;
      continue;
    }
    if (!in_run) runs.push_back(MissRun{{}, false, window});
    runs.back().pages.push_back(d);
    in_run = true;
  }
  if (runs.empty()) {
    read_ahead_inflight_.store(false);
    return;
  }
  runs.front().holds_slot = leader != nullptr;
  window->runs_left.store(runs.size(), std::memory_order_relaxed);
  for (MissRun& r : runs) SubmitRun(std::move(r));
}

// ---------------------------------------------------------------------------
// Promotion (NVM → DRAM, data flow path 7)
// ---------------------------------------------------------------------------

Status BufferManager::PromoteToDram(SharedPageDescriptor* d) {
  SPITFIRE_DCHECK(dram_pool_ != nullptr);
  SpinLatchGuard gd(d->dram_latch);
  if (d->DramResident()) return Status::OK();
  SpinLatchGuard gn(d->nvm_latch);
  const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
  if (!d->NvmResident() || nf == kInvalidFrameId) {
    return Status::Busy("NVM copy gone");
  }

  // Take the NVM copy private: retiring the state word drains in-flight
  // optimistic pins and blocks new ones, so the DRAM copy includes every
  // modification made in place on NVM (Section 5.2). Fetchers that miss
  // during the copy block on the latches we hold, then retry. Every exit
  // below must re-publish the NVM copy.
  int spins = 0;
  while (!d->nvm.TryRetire()) {
    if (++spins > kPinDrainSpins) {
      return Status::Busy("NVM readers did not drain");
    }
    __builtin_ia32_pause();
  }

  const uint64_t nvm_off = nvm_pool_->FrameOffset(nf);
  // A promotion is an access of the NVM copy. Under the eager policy it is
  // the only one (every NVM hit promotes), so without this the NVM clock
  // would see installs alone and, once the tier is full, evict in install
  // order, hot pages as readily as cold ones.
  nvm_pool_->ReplacerRecordAccess(nf);

  // HyMem-style admissions: mini page first, then cache-line-grained.
  if (options_.enable_mini_pages && mini_.capacity > 0) {
    const uint32_t m = AcquireMiniSlot();
    if (m != UINT32_MAX) {
      MiniPageView mp(MiniPtr(m));
      mp.Format(d->pid, options_.load_granularity);
      d->mini_id.store(m, std::memory_order_relaxed);
      mini_.owners[m].store(d, std::memory_order_release);
      d->dram.dirty.store(0, std::memory_order_relaxed);
      d->dram.Publish(DramMode::kMini, 0);
      d->nvm.Publish(DramMode::kFull, 0);
      mini_.replacer->RecordInstall(m);
      stats_.Add(BufferCounter::kMiniPageAdmits);
      stats_.Add(BufferCounter::kPromotions);
      return Status::OK();
    }
  }

  const frame_id_t f = AcquireFrame(Tier::kDram);
  if (f == kInvalidFrameId) {
    d->nvm.Publish(DramMode::kFull, 0);
    return Status::Busy("no DRAM frame");
  }

  DramMode mode = DramMode::kFull;
  if (options_.enable_fine_grained_loading) {
    // No bytes move yet: units are loaded on demand from the NVM copy.
    d->cl.Reset(options_.load_granularity);
    mode = DramMode::kCacheLineGrained;
  } else {
    const Status st = nvm_->Read(nvm_off, dram_pool_->FramePtr(f), kPageSize);
    if (!st.ok()) {
      dram_pool_->FreeFrame(f);
      d->nvm.Publish(DramMode::kFull, 0);
      return st;
    }
    dram_backing_->OnDirectWrite(dram_pool_->FrameOffset(f), kPageSize,
                                 /*sequential=*/true);
  }
  PublishFrame(Tier::kDram, d, f, mode, /*dirty=*/false, /*pins=*/0);
  d->nvm.Publish(DramMode::kFull, 0);
  stats_.Add(BufferCounter::kPromotions);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Frame acquisition & eviction
// ---------------------------------------------------------------------------

frame_id_t BufferManager::AcquireFrame(Tier tier, int sweeps, int rounds) {
  BufferPool* p = pool(tier);
  for (int sweep = 0;; ++sweep) {
    frame_id_t f;
    if (p->TryAllocateFrame(&f)) return f;
    if (sweep == sweeps) return kInvalidFrameId;
    p->ReplacerPickVictim(
        [this, tier](frame_id_t v) {
          return tier == Tier::kDram ? TryEvictDramFrame(v)
                                     : TryEvictNvmFrame(v);
        },
        rounds);
  }
}

void BufferManager::PublishFrame(Tier tier, SharedPageDescriptor* d,
                               frame_id_t f, DramMode mode, bool dirty,
                               uint32_t pins) {
  BufferPool* p = pool(tier);
  TierState& state = tier == Tier::kDram ? d->dram : d->nvm;
  p->SetOwner(f, d, d->pid);
  state.frame.store(f, std::memory_order_relaxed);
  state.dirty.store(dirty ? TierState::kAllUnits : 0,
                    std::memory_order_relaxed);
  state.Publish(mode, pins);
  p->ReplacerRecordInstall(f);
}

bool BufferManager::DecideNvmAdmission(page_id_t pid) {
  if (admission_queue_ != nullptr) return admission_queue_->ShouldAdmit(pid);
  return policy().AdmitToNvmOnDramEviction();
}

void BufferManager::WriteBackUnitsToNvm(SharedPageDescriptor* d,
                                      DramMode mode) {
  const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
  SPITFIRE_DCHECK(nf != kInvalidFrameId);
  const uint64_t nvm_off = nvm_pool_->FrameOffset(nf);
  bool any = false;
  if (mode == DramMode::kMini) {
    MiniPageView mp(MiniPtr(d->mini_id.load(std::memory_order_relaxed)));
    const uint32_t usize = mp.meta()->unit_size;
    for (size_t s = 0; s < mp.count(); ++s) {
      if (!mp.IsDirty(s)) continue;
      const uint64_t unit = mp.meta()->slots[s];
      (void)nvm_->Write(nvm_off + unit * usize, mp.UnitPtr(s), usize);
      any = true;
    }
    mp.meta()->dirty_mask = 0;
  } else if (mode == DramMode::kFull) {
    // The two copies differ only inside the DRAM copy's dirty units
    // (DESIGN.md, "Dirty units and write-back"): write each run of them.
    constexpr size_t kUnit = TierState::kDirtyUnitSize;
    const std::byte* dram_ptr =
        dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
    uint64_t mask = d->dram.dirty.load(std::memory_order_relaxed);
    SPITFIRE_DCHECK(AgreeOutsideUnits(dram_ptr, nvm_pool_->FramePtr(nf), mask));
    for (size_t u = 0; mask != 0;) {
      const int skip = std::countr_zero(mask);
      u += skip;
      mask >>= skip;
      const int run = std::countr_one(mask);
      (void)nvm_->Write(nvm_off + u * kUnit, dram_ptr + u * kUnit,
                        run * kUnit);
      u += run;
      mask = run == 64 ? 0 : mask >> run;
      any = true;
    }
  } else {
    SPITFIRE_DCHECK(mode == DramMode::kCacheLineGrained);
    std::byte* dram_ptr =
        dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
    const uint32_t usize = d->cl.unit_size;
    for (size_t u = 0; u < d->cl.UnitsPerPage(); ++u) {
      if (!d->cl.dirty.Test(u)) continue;
      (void)nvm_->Write(nvm_off + u * usize, dram_ptr + u * usize, usize);
      any = true;
    }
    d->cl.dirty.Reset();
  }
  if (any) d->nvm.dirty.store(TierState::kAllUnits, std::memory_order_relaxed);
  d->dram.dirty.store(0, std::memory_order_relaxed);
}

// Eviction protocol: retire the state word FIRST (fails if any pin exists
// or races in), which makes the evictor the exclusive owner of the frame
// contents; only then write back / free. A failure after the retire must
// re-publish the copy before unlocking.
//
// Retire ORDER matters. When the DRAM copy is dirty, any NVM copy is stale
// until the write-back completes. If the DRAM word were retired first, a
// reader whose optimistic DRAM pin lands in the retire window falls
// through to TryPinNvm and reads pre-write-back bytes — a lost update from
// the reader's point of view. So dirty paths retire the NVM word BEFORE
// the DRAM word; with both retired (and both latches held, which blocks
// CompleteMiss's install), readers can only spin in FetchPage until the
// write-back finishes and the copies are republished.
bool BufferManager::TryEvictDramFrame(frame_id_t f) {
  SharedPageDescriptor* d = dram_pool_->Owner(f);
  if (d == nullptr) return false;
  if (!d->dram_latch.TryLock()) return false;

  const DramMode mode = d->dram.Mode();
  const bool owns = (mode == DramMode::kFull ||
                     mode == DramMode::kCacheLineGrained) &&
                    d->dram.frame.load(std::memory_order_relaxed) == f &&
                    dram_pool_->Owner(f) == d;
  if (!owns) {
    d->dram_latch.Unlock();
    return false;
  }

  // Dirty hint, read before the retires to pick the retire order. The hint
  // can miss a writer that set dirty but has not yet unpinned; the
  // authoritative re-read after the DRAM retire catches that case.
  const bool dirty_hint = d->dram.Dirty() ||
                          (mode == DramMode::kCacheLineGrained &&
                           d->cl.dirty.Any());

  bool nvm_locked = false;
  bool nvm_retired = false;
  const bool want_nvm =
      nvm_pool_ != nullptr && (dirty_hint || admission_queue_ != nullptr);
  if (want_nvm) {
    if (!d->nvm_latch.TryLock()) {
      d->dram_latch.Unlock();
      return false;
    }
    nvm_locked = true;
    if (dirty_hint && d->nvm.Resident()) {
      if (!d->nvm.TryRetire()) {
        d->nvm_latch.Unlock();
        d->dram_latch.Unlock();
        return false;
      }
      nvm_retired = true;
    }
  }
  const auto abort_evict = [&](bool republish_dram) {
    if (republish_dram) d->dram.Publish(mode, 0);
    if (nvm_retired) d->nvm.Publish(DramMode::kFull, 0);
    if (nvm_locked) d->nvm_latch.Unlock();
    d->dram_latch.Unlock();
  };

  if (!d->dram.TryRetire()) {  // pinned or raced
    abort_evict(false);
    return false;
  }

  // Authoritative dirty read: the successful retire synchronized with every
  // unpin, so any writer's dirty store is visible now.
  const bool dirty = d->dram.Dirty() ||
                     (mode == DramMode::kCacheLineGrained &&
                      d->cl.dirty.Any());
  if (dirty && !dirty_hint) {
    // Raced with a writer after the hint was read; the NVM word was not
    // retired first, so the write-back cannot proceed safely this round.
    abort_evict(true);
    return false;
  }

  if (!dirty) {
    // HyMem's admission queue considers EVERY page evicted from DRAM, not
    // just dirty ones (Section 1): a clean page admitted on its second
    // consideration is copied into NVM so future reads skip the SSD. The
    // probabilistic (Spitfire) mode discards clean pages (Section 3.3).
    if (admission_queue_ != nullptr && nvm_locked && !nvm_retired &&
        mode == DramMode::kFull && !d->NvmResident() &&
        admission_queue_->ShouldAdmit(d->pid)) {
      const frame_id_t nf = AcquireFrame(Tier::kNvm);
      if (nf != kInvalidFrameId) {
        (void)nvm_->Write(nvm_pool_->FrameOffset(nf),
                          dram_pool_->FramePtr(f), kPageSize);
        PublishFrame(Tier::kNvm, d, nf, DramMode::kFull, /*dirty=*/false,
                     /*pins=*/0);
        stats_.Add(BufferCounter::kDemotionsToNvm);
      }
    }
    if (nvm_retired) d->nvm.Publish(DramMode::kFull, 0);
    d->dram.frame.store(kInvalidFrameId, std::memory_order_relaxed);
    dram_pool_->FreeFrame(f);
    if (nvm_locked) d->nvm_latch.Unlock();
    d->dram_latch.Unlock();
    stats_.Add(BufferCounter::kDramEvictions);
    return true;
  }

  // Dirty page: write its dirty units into the NVM copy, admit the whole
  // page into NVM (probability Nw / HyMem admission queue), or bypass NVM
  // down to SSD (Section 3.4). A cache-line-grained copy always has its
  // NVM copy, retired above: its dirt is latch-protected and thus always
  // visible in the hint.
  SPITFIRE_DCHECK(mode == DramMode::kFull || nvm_retired);
  std::byte* dram_ptr = dram_pool_->FramePtr(f);
  bool wrote = false;
  if (nvm_retired) {
    WriteBackUnitsToNvm(d, mode);
    d->nvm.Publish(DramMode::kFull, 0);
    nvm_retired = false;
    stats_.Add(BufferCounter::kDemotionsToNvm);
    wrote = true;
  } else if (nvm_pool_ != nullptr && DecideNvmAdmission(d->pid)) {
    const frame_id_t newf = AcquireFrame(Tier::kNvm);
    if (newf != kInvalidFrameId) {
      (void)nvm_->Write(nvm_pool_->FrameOffset(newf), dram_ptr, kPageSize);
      PublishFrame(Tier::kNvm, d, newf, DramMode::kFull, /*dirty=*/true,
                   /*pins=*/0);
      stats_.Add(BufferCounter::kDemotionsToNvm);
      wrote = true;
    }
  }
  if (!wrote) {
    if (!d->ssd_latch.TryLock()) {
      abort_evict(true);
      return false;
    }
    const Status st = WriteToSsd(d->pid, dram_ptr);
    d->ssd_latch.Unlock();
    if (!st.ok()) {
      abort_evict(true);
      return false;
    }
    stats_.Add(BufferCounter::kDemotionsToSsd);
  }
  d->dram.frame.store(kInvalidFrameId, std::memory_order_relaxed);
  d->dram.dirty.store(0, std::memory_order_relaxed);
  dram_pool_->FreeFrame(f);
  if (nvm_locked) d->nvm_latch.Unlock();
  d->dram_latch.Unlock();
  stats_.Add(BufferCounter::kDramEvictions);
  return true;
}

bool BufferManager::TryEvictNvmFrame(frame_id_t f) {
  SharedPageDescriptor* d = nvm_pool_->Owner(f);
  if (d == nullptr) return false;
  if (!d->nvm_latch.TryLock()) return false;
  if (d->nvm.frame.load(std::memory_order_relaxed) != f ||
      nvm_pool_->Owner(f) != d) {
    d->nvm_latch.Unlock();
    return false;
  }
  // A cache-line-grained or mini DRAM copy loads its units from this NVM
  // frame; it pins the NVM copy implicitly. (The DRAM mode cannot become
  // kCacheLineGrained/kMini while we hold the nvm latch — promotion takes
  // it.)
  const DramMode dmode = d->dram.Mode();
  if (dmode == DramMode::kCacheLineGrained || dmode == DramMode::kMini) {
    d->nvm_latch.Unlock();
    return false;
  }
  if (!d->nvm.TryRetire()) {  // pinned or raced
    d->nvm_latch.Unlock();
    return false;
  }
  if (d->nvm.Dirty()) {
    if (!d->ssd_latch.TryLock()) {
      d->nvm.Publish(DramMode::kFull, 0);
      d->nvm_latch.Unlock();
      return false;
    }
    std::byte* ptr = nvm_pool_->FramePtr(f);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(f), kPageSize,
                       /*sequential=*/true);
    const Status st = WriteToSsd(d->pid, ptr);
    d->ssd_latch.Unlock();
    if (!st.ok()) {
      d->nvm.Publish(DramMode::kFull, 0);
      d->nvm_latch.Unlock();
      return false;
    }
    d->nvm.dirty.store(0, std::memory_order_relaxed);
  }
  d->nvm.frame.store(kInvalidFrameId, std::memory_order_relaxed);
  nvm_pool_->FreeFrame(f);
  d->nvm_latch.Unlock();
  stats_.Add(BufferCounter::kNvmEvictions);
  return true;
}

// ---------------------------------------------------------------------------
// Mini pages
// ---------------------------------------------------------------------------

std::byte* BufferManager::MiniPtr(uint32_t mini_id) {
  const size_t host = mini_id / mini_.per_frame;
  const size_t slot = mini_id % mini_.per_frame;
  return dram_pool_->FramePtr(mini_.host_frames[host]) +
         slot * MiniPageView::BytesRequired(options_.load_granularity);
}

uint32_t BufferManager::AcquireMiniSlot() {
  for (int attempt = 0; attempt < 16; ++attempt) {
    uint32_t m;
    if (mini_.free_list->TryPop(&m)) return m;
    mini_.replacer->PickVictim(
        [this](frame_id_t v) { return TryEvictMini(v); });
  }
  return UINT32_MAX;
}

bool BufferManager::TryEvictMini(uint32_t mini_id) {
  SharedPageDescriptor* d =
      mini_.owners[mini_id].load(std::memory_order_acquire);
  if (d == nullptr) return false;
  if (!d->dram_latch.TryLock()) return false;
  if (d->dram.Mode() != DramMode::kMini ||
      d->mini_id.load(std::memory_order_relaxed) != mini_id) {
    d->dram_latch.Unlock();
    return false;
  }
  // Mini-page dirt is written under the dram latch, so this read is
  // authoritative. Dirty units make the NVM copy stale: retire the NVM
  // word BEFORE the DRAM word (see TryEvictDramFrame) so no reader can
  // fall through to the stale NVM bytes mid-write-back.
  MiniPageView mp(MiniPtr(mini_id));
  const bool dirty = mp.AnyDirty();
  if (dirty) {
    if (!d->nvm_latch.TryLock()) {
      d->dram_latch.Unlock();
      return false;
    }
    if (!d->nvm.TryRetire()) {
      d->nvm_latch.Unlock();
      d->dram_latch.Unlock();
      return false;
    }
  }
  if (!d->dram.TryRetire()) {  // pinned or raced
    if (dirty) {
      d->nvm.Publish(DramMode::kFull, 0);
      d->nvm_latch.Unlock();
    }
    d->dram_latch.Unlock();
    return false;
  }
  if (dirty) {
    WriteBackUnitsToNvm(d, DramMode::kMini);
    d->nvm.Publish(DramMode::kFull, 0);
    d->nvm_latch.Unlock();
  }
  mini_.owners[mini_id].store(nullptr, std::memory_order_release);
  while (!mini_.free_list->TryPush(mini_id)) __builtin_ia32_pause();
  d->dram_latch.Unlock();
  stats_.Add(BufferCounter::kDramEvictions);
  return true;
}

Status BufferManager::PromoteMiniToFull(SharedPageDescriptor* d) {
  // dram latch held; mode == kMini; the caller (and possibly other guard
  // holders) keep pins on the DRAM copy throughout — SwitchMode preserves
  // them.
  const uint32_t mini_id = d->mini_id.load(std::memory_order_relaxed);
  MiniPageView mp(MiniPtr(mini_id));
  const frame_id_t f = AcquireFrame(Tier::kDram);
  if (f == kInvalidFrameId) return Status::OutOfMemory("no frame for overflow");

  const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
  SPITFIRE_DCHECK(nf != kInvalidFrameId);
  std::byte* dst = dram_pool_->FramePtr(f);
  const Status read_st = nvm_->Read(nvm_pool_->FrameOffset(nf), dst, kPageSize);
  if (!read_st.ok()) {
    dram_pool_->FreeFrame(f);
    return read_st;
  }
  // Overlay units dirtied while in the mini page: they are newer than the
  // NVM copy.
  const uint32_t usize = mp.meta()->unit_size;
  bool any_dirty = false;
  for (size_t s = 0; s < mp.count(); ++s) {
    if (!mp.IsDirty(s)) continue;
    const uint16_t unit = mp.meta()->slots[s];
    std::memcpy(dst + static_cast<size_t>(unit) * usize, mp.UnitPtr(s), usize);
    any_dirty = true;
  }
  dram_pool_->SetOwner(f, d, d->pid);
  d->dram.frame.store(f, std::memory_order_relaxed);
  // The full copy may differ from the NVM copy in any overlaid unit.
  d->dram.dirty.store(any_dirty ? TierState::kAllUnits : 0,
                      std::memory_order_relaxed);
  d->dram.SwitchMode(DramMode::kFull);
  dram_pool_->ReplacerRecordInstall(f);
  mini_.owners[mini_id].store(nullptr, std::memory_order_release);
  while (!mini_.free_list->TryPush(mini_id)) __builtin_ia32_pause();
  stats_.Add(BufferCounter::kMiniPagePromotions);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Guard data plane
// ---------------------------------------------------------------------------

void BufferManager::EnsureUnitsResident(SharedPageDescriptor* d, size_t offset,
                                        size_t size) {
  const uint32_t usize = d->cl.unit_size;
  const size_t first = offset / usize;
  const size_t last = (offset + size - 1) / usize;
  const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
  SPITFIRE_DCHECK(nf != kInvalidFrameId);
  const uint64_t nvm_off = nvm_pool_->FrameOffset(nf);
  std::byte* dram_ptr =
      dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
  for (size_t u = first; u <= last; ++u) {
    if (d->cl.resident.Test(u)) continue;
    (void)nvm_->ReadFineGrained(nvm_off + u * usize, dram_ptr + u * usize,
                                usize);
    d->cl.resident.Set(u);
    stats_.Add(BufferCounter::kFineGrainedLoads);
  }
}

namespace {

// Moves `n` bytes between page memory and the caller's buffer in the
// direction of the access.
template <bool kWrite, typename Buf>
void CopyPageBytes(std::byte* page, Buf buf, size_t n) {
  if constexpr (kWrite) {
    std::memcpy(page, buf, n);
  } else {
    std::memcpy(buf, page, n);
  }
}

// Charges the tier device for a direct CPU access of `n` bytes.
template <bool kWrite>
void ChargeDirect(Device* device, uint64_t offset, size_t n) {
  if constexpr (kWrite) {
    device->OnDirectWrite(offset, n);
  } else {
    device->OnDirectRead(offset, n);
  }
}

}  // namespace

template <bool kWrite>
Status BufferManager::GuardAccess(SharedPageDescriptor* d, Tier tier,
                                size_t offset, size_t size,
                                GuardBuf<kWrite> buf) {
  if (offset + size > kPageSize) {
    return Status::InvalidArgument("page access out of range");
  }
  // An empty range loads no unit, marks nothing dirty, and charges no
  // device (unit arithmetic on [offset, offset - 1] would wrap).
  if (size == 0) return Status::OK();
  if (tier == Tier::kNvm) {
    const frame_id_t f = d->nvm.frame.load(std::memory_order_acquire);
    SPITFIRE_DCHECK(f != kInvalidFrameId);
    CopyPageBytes<kWrite>(nvm_pool_->FramePtr(f) + offset, buf, size);
    ChargeDirect<kWrite>(nvm_, nvm_pool_->FrameOffset(f) + offset, size);
    if constexpr (kWrite) d->nvm.MarkDirty(TierState::UnitsOf(offset, size));
    return Status::OK();
  }

  // The one full-frame copy, of [pos, offset + size): the latch-free fast
  // path, a copy that became kFull after that check, a cache-line-grained
  // copy, and what a mini page's overflow leaves of the range.
  const auto full_frame_access = [&](size_t pos) {
    const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
    const size_t n = offset + size - pos;
    CopyPageBytes<kWrite>(dram_pool_->FramePtr(f) + pos, buf + (pos - offset),
                          n);
    ChargeDirect<kWrite>(dram_backing_, dram_pool_->FrameOffset(f) + pos, n);
    if constexpr (kWrite) d->dram.MarkDirty(TierState::UnitsOf(pos, n));
    return Status::OK();
  };
  if (d->dram.Mode() == DramMode::kFull) return full_frame_access(offset);

  // Cache-line-grained and mini copies change shape under the dram latch.
  // A copy may also have become kFull since the check above (another
  // holder's mini-page overflow or RawData).
  SpinLatchGuard g(d->dram_latch);
  const DramMode mode = d->dram.Mode();
  SPITFIRE_CHECK(mode != DramMode::kNone &&
                 "guard access on a non-resident page");
  size_t pos = offset;
  const size_t end = offset + size;
  if (mode == DramMode::kCacheLineGrained) {
    // A write that does not cover whole units needs the surrounding bytes
    // resident first.
    EnsureUnitsResident(d, offset, size);
    if constexpr (kWrite) {
      const uint32_t usize = d->cl.unit_size;
      for (size_t u = offset / usize; u <= (end - 1) / usize; ++u) {
        d->cl.dirty.Set(u);
      }
    }
  } else if (mode == DramMode::kMini) {
    MiniPageView mp(MiniPtr(d->mini_id.load(std::memory_order_relaxed)));
    const uint32_t usize = mp.meta()->unit_size;
    const uint64_t nvm_off =
        nvm_pool_->FrameOffset(d->nvm.frame.load(std::memory_order_relaxed));
    while (pos < end) {
      const uint16_t unit = static_cast<uint16_t>(pos / usize);
      int slot = mp.FindSlot(unit);
      if (slot < 0) {
        slot = mp.Insert(unit);
        if (slot < 0) {
          // Overflow: transparently promote to a full page and finish the
          // access there.
          SPITFIRE_RETURN_NOT_OK(PromoteMiniToFull(d));
          break;
        }
        (void)nvm_->ReadFineGrained(
            nvm_off + static_cast<uint64_t>(unit) * usize, mp.UnitPtr(slot),
            usize);
        stats_.Add(BufferCounter::kFineGrainedLoads);
      }
      const size_t in_off = pos - static_cast<size_t>(unit) * usize;
      const size_t n = std::min(end - pos, usize - in_off);
      CopyPageBytes<kWrite>(mp.UnitPtr(slot) + in_off, buf + (pos - offset),
                            n);
      if constexpr (kWrite) mp.MarkDirty(static_cast<size_t>(slot));
      pos += n;
    }
    if (pos == end) {
      if constexpr (kWrite) d->dram.MarkDirty(TierState::UnitsOf(offset, size));
      return Status::OK();
    }
  }
  return full_frame_access(pos);
}

std::byte* BufferManager::GuardRawData(SharedPageDescriptor* d, Tier tier,
                                       bool for_write) {
  if (tier == Tier::kNvm) {
    const frame_id_t f = d->nvm.frame.load(std::memory_order_acquire);
    SPITFIRE_DCHECK(f != kInvalidFrameId);
    if (for_write) d->nvm.MarkDirty(TierState::kAllUnits);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(f), 256);
    return nvm_pool_->FramePtr(f);
  }
  if (d->dram.Mode() == DramMode::kFull) {
    if (for_write) d->dram.MarkDirty(TierState::kAllUnits);
    return dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
  }
  // Materialize cache-line-grained / mini representations into a full
  // frame so callers can treat the page as one contiguous 16 KB buffer.
  SpinLatchGuard g(d->dram_latch);
  DramMode mode = d->dram.Mode();
  if (mode == DramMode::kMini) {
    if (!PromoteMiniToFull(d).ok()) return nullptr;
    mode = DramMode::kFull;
  } else if (mode == DramMode::kCacheLineGrained) {
    EnsureUnitsResident(d, 0, kPageSize);
    // Dirty loading units make the whole full copy suspect.
    if (d->cl.dirty.Any()) d->dram.MarkDirty(TierState::kAllUnits);
    d->dram.SwitchMode(DramMode::kFull);
    mode = DramMode::kFull;
  }
  if (mode != DramMode::kFull) return nullptr;
  if (for_write) d->dram.MarkDirty(TierState::kAllUnits);
  return dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Flushing, recovery, introspection
// ---------------------------------------------------------------------------

Status BufferManager::WriteToSsd(page_id_t pid, const std::byte* data) {
  // Every page image headed to SSD passes through here — the one place a
  // whole-page checksum can be stamped so recovery can detect torn or
  // short page writes. Stamp a private copy: the source is a buffered
  // frame (on NVM, a persistent one), which the stamp must not change.
  thread_local std::unique_ptr<std::byte[]> stamp_buf;
  if (stamp_buf == nullptr) stamp_buf = std::make_unique<std::byte[]>(kPageSize);
  std::memcpy(stamp_buf.get(), data, kPageSize);
  StampPageChecksum(stamp_buf.get());
  // The device copies the image at submission, so the buffer may be
  // reused the moment this returns.
  return io_->WritePage(SsdOffset(pid), stamp_buf.get());
}

Status BufferManager::FlushPage(page_id_t pid) {
  SharedPageDescriptor* d = table_.Find(pid);
  const Status st = d == nullptr  // never buffered
                        ? Status::OK()
                        : FlushDescriptor(d, /*include_nvm=*/true,
                                          /*skipped=*/nullptr);
  const Status drained = DrainIo();
  SPITFIRE_RETURN_NOT_OK(st);
  return drained;
}

Status BufferManager::FlushDescriptor(SharedPageDescriptor* d, bool include_nvm,
                                    size_t* skipped) {
  SpinLatchGuard gd(d->dram_latch);
  SpinLatchGuard gn(d->nvm_latch);
  SpinLatchGuard gs(d->ssd_latch);

  // Guard holders may be mutating page contents; flushing a pinned page
  // could persist a torn image. Each dirty copy is retired for the
  // duration of its copy-out, so optimistic pins cannot land mid-flush;
  // copies that cannot be retired (pinned) are skipped — the WAL keeps
  // them recoverable and a later flush round catches them. Clean copies
  // are left alone. The dirty reads are latch-authoritative for CLG/mini
  // (their dirt is written under the dram latch); for kFull a
  // just-unpinned writer's store may be missed, which only postpones that
  // page to a later round.
  const DramMode dmode = d->dram.Mode();
  bool dram_dirty = false;
  if (dmode == DramMode::kMini) {
    dram_dirty =
        MiniPageView(MiniPtr(d->mini_id.load(std::memory_order_relaxed)))
            .AnyDirty();
  } else if (dmode == DramMode::kCacheLineGrained) {
    dram_dirty = d->cl.dirty.Any();
  } else if (dmode == DramMode::kFull) {
    dram_dirty = d->dram.Dirty();
  }
  if (dram_dirty) {
    // Dirty DRAM state makes any NVM copy stale, so the NVM word must be
    // retired BEFORE the DRAM word: a reader that loses its optimistic
    // DRAM pin mid-flush would otherwise fall through to TryPinNvm and
    // read pre-flush bytes (see TryEvictDramFrame). CLG and mini copies
    // always have the NVM copy they load their units from.
    const bool nvm_resident = d->NvmResident();
    if (nvm_resident && !d->nvm.TryRetire()) {
      if (skipped != nullptr) ++*skipped;
      return Status::OK();  // NVM copy actively referenced; later round
    }
    if (!d->dram.TryRetire()) {  // actively referenced
      if (nvm_resident) d->nvm.Publish(DramMode::kFull, 0);
      if (skipped != nullptr) ++*skipped;
      return Status::OK();
    }
    // A cache-line-grained or mini copy is written into its NVM copy. A
    // full one goes to SSD, and then its dirty units refresh the NVM copy
    // (if any), so later direct NVM reads never observe stale bytes and
    // the NVM copy is as clean as the SSD image.
    SPITFIRE_DCHECK(dmode == DramMode::kFull || nvm_resident);
    Status st = Status::OK();
    if (dmode == DramMode::kFull) {
      st = WriteToSsd(d->pid, dram_pool_->FramePtr(d->dram.frame.load(
                                  std::memory_order_relaxed)));
    }
    if (st.ok() && nvm_resident) WriteBackUnitsToNvm(d, dmode);
    if (st.ok() && dmode == DramMode::kFull) {
      d->dram.dirty.store(0, std::memory_order_relaxed);
      if (nvm_resident) d->nvm.dirty.store(0, std::memory_order_relaxed);
    }
    if (nvm_resident) d->nvm.Publish(DramMode::kFull, 0);
    d->dram.Publish(dmode, 0);
    SPITFIRE_RETURN_NOT_OK(st);
  }

  // Dirty NVM copies are persistent already; only a full flush moves them
  // down (background checkpoints leave them in place, Section 5.2).
  if (include_nvm && d->NvmResident() && d->nvm.Dirty()) {
    if (!d->nvm.TryRetire()) {
      if (skipped != nullptr) ++*skipped;
      return Status::OK();  // actively referenced
    }
    const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
    std::byte* ptr = nvm_pool_->FramePtr(nf);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(nf), kPageSize,
                       /*sequential=*/true);
    const Status st = WriteToSsd(d->pid, ptr);
    if (st.ok()) d->nvm.dirty.store(0, std::memory_order_relaxed);
    d->nvm.Publish(DramMode::kFull, 0);
    SPITFIRE_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status BufferManager::FlushAll(bool include_nvm, size_t* skipped) {
  Status result = Status::OK();
  table_.ForEach([&](SharedPageDescriptor* d) {
    const Status st = FlushDescriptor(d, include_nvm, skipped);
    if (!st.ok()) result = st;
  });
  // Any write error (this sweep's or an earlier write-back's) surfaces
  // here.
  const Status drained = DrainIo();
  if (result.ok()) result = drained;
  return result;
}

Status BufferManager::RecoverNvmResidentPages() {
  if (nvm_pool_ == nullptr) {
    return Status::InvalidArgument("no NVM pool to recover");
  }
  // Drain the free list; re-add frames that the persistent frame table
  // marks as free, claim the rest.
  std::vector<frame_id_t> all;
  frame_id_t f;
  while (nvm_pool_->TryAllocateFrame(&f)) all.push_back(f);
  for (frame_id_t frame : all) {
    const page_id_t pid = nvm_pool_->PersistedOwner(frame);
    bool valid = pid != kInvalidPageId;
    if (valid) {
      PageView view(nvm_pool_->FramePtr(frame));
      valid = view.header()->IsValid() && view.header()->page_id == pid;
    }
    if (!valid) {
      nvm_pool_->FreeFrame(frame);
      continue;
    }
    // A page past the SSD's end is refused without freeing its frame
    // (FreeFrame would zero the persisted entry and destroy the only
    // copy); the caller must re-open the device with its original SSD.
    SharedPageDescriptor* d = table_.GetOrCreate(pid);
    if (d == nullptr) {
      return Status::InvalidArgument(
          "persisted NVM page lies past the end of the SSD; recover with "
          "the original SSD");
    }
    d->nvm.frame.store(frame, std::memory_order_relaxed);
    // NVM copies may be newer than their SSD counterparts; treat them as
    // dirty so they flow down before being dropped.
    d->nvm.dirty.store(TierState::kAllUnits, std::memory_order_relaxed);
    d->nvm.Publish(DramMode::kFull, 0);
    nvm_pool_->SetOwner(frame, d, pid);
    page_id_t expect = next_page_id_.load(std::memory_order_relaxed);
    while (pid + 1 > expect &&
           !next_page_id_.compare_exchange_weak(expect, pid + 1)) {
    }
  }
  return Status::OK();
}

double BufferManager::InclusivityRatio() const {
  size_t both = 0;
  size_t either = 0;
  table_.ForEach([&](const SharedPageDescriptor* d) {
    const bool in_dram = d->DramResident();
    const bool in_nvm = d->NvmResident();
    if (in_dram && in_nvm) ++both;
    if (in_dram || in_nvm) ++either;
  });
  return either == 0 ? 0.0
                     : static_cast<double>(both) / static_cast<double>(either);
}

size_t BufferManager::DramResidentPages() const {
  size_t n = 0;
  table_.ForEach([&](const SharedPageDescriptor* d) {
    if (d->DramResident()) ++n;
  });
  return n;
}

size_t BufferManager::NvmResidentPages() const {
  size_t n = 0;
  table_.ForEach([&](const SharedPageDescriptor* d) {
    if (d->NvmResident()) ++n;
  });
  return n;
}

bool BufferManager::IsDramResident(page_id_t pid) const {
  const SharedPageDescriptor* d = table_.Find(pid);
  return d != nullptr && d->DramResident();
}

bool BufferManager::IsNvmResident(page_id_t pid) const {
  const SharedPageDescriptor* d = table_.Find(pid);
  return d != nullptr && d->NvmResident();
}

}  // namespace spitfire
