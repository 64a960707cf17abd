#include "storage/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/timer.h"

namespace spitfire {

namespace {
// Backpressure bound on staged-but-unwritten pages (16 KB each): WritePage
// waits while this many are queued.
constexpr size_t kMaxPendingWrites = 128;

// Threads that pump completions with may_sleep=true (the async workload
// ring, the completion worker) are async-aware: device waits they execute
// sleep out their deadlines, yielding the core to useful work. Blocking
// threads keep the spin-wait so the synchronous path's CPU accounting is
// unchanged.
thread_local bool t_async_aware = false;
}  // namespace

IoScheduler::IoScheduler(SsdDevice* ssd, const IoSchedulerOptions& opts)
    : ssd_(ssd), opts_(opts) {
  SPITFIRE_CHECK(ssd_ != nullptr);
  if (opts_.num_workers == 0) opts_.num_workers = 1;
  if (opts_.max_coalesce_pages == 0) opts_.max_coalesce_pages = 1;
  workers_.reserve(opts_.num_workers);
  for (size_t i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  completion_worker_ = std::thread([this] { CompletionWorkerLoop(); });
}

IoScheduler::~IoScheduler() { Shutdown(); }

void IoScheduler::MaybeEraseLocked(Shard& s, uint64_t offset) {
  auto it = s.table.find(offset);
  if (it == s.table.end()) return;
  const Entry& e = it->second;
  if (e.read == nullptr && e.write == nullptr && e.write_seq == 0) {
    s.table.erase(it);
  }
}

void IoScheduler::ScheduleAt(uint64_t deadline_ns, std::function<void()> fn,
                             bool is_write) {
  if (deadline_ns <= NowNanos()) {
    // Already due (scale 0, or the queue model admitted instantly): run
    // inline. Callers hold no scheduler locks here.
    stats_.completions_run.fetch_add(1, std::memory_order_relaxed);
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> cl(comp_mu_);
    CompletionHeap& heap = is_write ? wcomps_ : comps_;
    heap.push(Completion{deadline_ns, comp_seq_++, std::move(fn)});
  }
  comp_cv_.notify_all();
}

bool IoScheduler::PumpDue() {
  // Entry-time semantics: run the completions due NOW, not until the heap
  // drains. A completion can submit follow-up I/O (a failed install
  // re-dispatches its waiters, which lead a fresh read) whose deadline
  // matures while earlier completions are still running; chasing a fresh
  // clock each iteration then never exits — the caller's ring (holding
  // pinned guards the very installs are waiting on) starves, and the
  // system livelocks. Batching by the entry clock keeps each pump finite.
  const uint64_t now = NowNanos();
  bool any = false;
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> cl(comp_mu_);
      CompletionHeap* heap = nullptr;
      if (!wcomps_.empty() && wcomps_.top().deadline <= now) {
        heap = &wcomps_;
      } else if (!comps_.empty() && comps_.top().deadline <= now) {
        heap = &comps_;
      }
      if (heap == nullptr) break;
      fn = std::move(const_cast<Completion&>(heap->top()).fn);
      heap->pop();
    }
    stats_.completions_run.fetch_add(1, std::memory_order_relaxed);
    fn();
    any = true;
  }
  return any;
}

bool IoScheduler::PumpDueWrites() {
  const uint64_t now = NowNanos();  // entry-time batch, see PumpDue
  bool any = false;
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> cl(comp_mu_);
      if (wcomps_.empty() || wcomps_.top().deadline > now) break;
      fn = std::move(const_cast<Completion&>(wcomps_.top()).fn);
      wcomps_.pop();
    }
    stats_.completions_run.fetch_add(1, std::memory_order_relaxed);
    fn();
    any = true;
  }
  return any;
}

void IoScheduler::WaitUntilDeadline(uint64_t deadline_ns) {
  for (;;) {
    const uint64_t now = NowNanos();
    if (now >= deadline_ns) return;
    // Keep other requests' completions flowing while this one is in
    // flight — that is what keeps N queues busy from one thread.
    if (PumpDue()) continue;
    const uint64_t remaining = deadline_ns - now;
    if (t_async_aware && remaining > 5'000) {
      std::unique_lock<std::mutex> cl(comp_mu_);
      comp_sleepers_.fetch_add(1, std::memory_order_seq_cst);
      comp_cv_.wait_for(cl, std::chrono::nanoseconds(std::min<uint64_t>(
                                remaining, 200'000)));
      comp_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      SpinWaitNanos(std::min<uint64_t>(remaining, 2'000));
    }
  }
}

void IoScheduler::CompleteFlight(uint64_t offset,
                                 std::shared_ptr<ReadFlight> f, Status st) {
  Shard& s = ShardFor(offset);
  std::vector<ReadCallback> cbs;
  {
    std::lock_guard<std::mutex> l(s.mu);
    Entry& e = s.table[offset];
    f->stale = (e.write_seq != f->seq);
    cbs.swap(f->callbacks);
    if (e.read == f) e.read.reset();
    MaybeEraseLocked(s, offset);
  }
  if (f->stale) {
    stats_.stale_read_retries.fetch_add(cbs.size(), std::memory_order_relaxed);
  }
  const Status cb_st =
      f->stale ? Status::Busy("read superseded by concurrent write") : st;
  for (ReadCallback& cb : cbs) {
    cb(cb_st, f->buf, f->seq);
  }
  SignalCompletions();
}

void IoScheduler::SignalCompletions() {
  // Dekker-style handshake with the sleepers: bump the epoch, THEN check
  // for sleepers (both seq_cst). A sleeper registers in comp_sleepers_
  // while holding comp_mu_, THEN rechecks the epoch. Either our bump is
  // visible to its recheck (it never sleeps), or its registration is
  // visible to our load (we take the mutex — serializing with its park —
  // and notify). The common case, a completion with nobody parked, stays
  // entirely lock-free.
  comp_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (comp_sleepers_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> cl(comp_mu_); }
    comp_cv_.notify_all();
  }
}

void IoScheduler::WaitForCompletion(uint64_t observed_epoch,
                                    uint64_t max_wait_ns) {
  std::unique_lock<std::mutex> cl(comp_mu_);
  comp_sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (comp_epoch_.load(std::memory_order_seq_cst) == observed_epoch) {
    comp_cv_.wait_for(cl, std::chrono::nanoseconds(max_wait_ns));
  }
  comp_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
}

void IoScheduler::CompletionWorkerLoop() {
  t_async_aware = true;
  std::unique_lock<std::mutex> cl(comp_mu_);
  for (;;) {
    if (comps_.empty() && wcomps_.empty()) {
      if (comp_stop_) return;
      comp_cv_.wait(cl);
      continue;
    }
    uint64_t next = UINT64_MAX;
    if (!comps_.empty()) next = comps_.top().deadline;
    if (!wcomps_.empty()) next = std::min(next, wcomps_.top().deadline);
    const uint64_t now = NowNanos();
    if (next > now && !comp_stop_) {
      // A pumping thread may beat us to this entry — that is fine, the
      // exclusive pop below keeps completions exactly-once.
      comp_cv_.wait_for(cl, std::chrono::nanoseconds(
                                std::min<uint64_t>(next - now, 1'000'000)));
      continue;
    }
    // Due — or shutdown, which fires everything immediately so in-flight
    // continuations resolve before the scheduler dies.
    CompletionHeap& heap =
        (!wcomps_.empty() && (comps_.empty() || wcomps_.top().deadline <= next))
            ? wcomps_
            : comps_;
    std::function<void()> fn = std::move(const_cast<Completion&>(heap.top()).fn);
    heap.pop();
    cl.unlock();
    stats_.completions_run.fetch_add(1, std::memory_order_relaxed);
    fn();
    cl.lock();
  }
}

IoScheduler::SubmitKind IoScheduler::SubmitRead(uint64_t offset,
                                                ReadCallback cb) {
  Shard& s = ShardFor(offset);
  std::unique_lock<std::mutex> l(s.mu);
  Entry& e = s.table[offset];
  if (e.write != nullptr) {
    // A staged (not yet device-durable) write holds the freshest bytes.
    // Copy to a thread-local scratch so the callback runs without the
    // shard lock (it may take buffer-manager latches).
    thread_local std::unique_ptr<std::byte[]> scratch;
    if (!scratch) scratch = std::make_unique<std::byte[]>(kPageSize);
    std::memcpy(scratch.get(), e.write->buf.get(), kPageSize);
    const uint64_t seq = e.write_seq;
    l.unlock();
    stats_.reads_from_staged.fetch_add(1, std::memory_order_relaxed);
    cb(Status::OK(), scratch.get(), seq);
    return SubmitKind::kInline;
  }
  if (e.read != nullptr) {
    // Single-flight: ride the in-flight read (a SubmitRead leader's or a
    // prefetch claim's) instead of duplicating it.
    e.read->callbacks.push_back(std::move(cb));
    stats_.reads_deduped.fetch_add(1, std::memory_order_relaxed);
    return SubmitKind::kJoined;
  }
  // Leader: register the flight, then submit without the shard lock so
  // joiners can attach (and writers can supersede) during the I/O.
  auto f = std::make_shared<ReadFlight>();
  f->seq = e.write_seq;
  f->callbacks.push_back(std::move(cb));
  e.read = f;
  l.unlock();
  stats_.async_submits.fetch_add(1, std::memory_order_relaxed);
  stats_.read_ops.fetch_add(1, std::memory_order_relaxed);
  uint64_t deadline = 0;
  const Status st = ssd_->BeginRead(offset, f->buf, kPageSize, &deadline);
  if (!st.ok()) {
    CompleteFlight(offset, std::move(f), st);
  } else {
    ScheduleAt(deadline,
               [this, offset, f] { CompleteFlight(offset, f, Status::OK()); },
               /*is_write=*/false);
  }
  return SubmitKind::kLeader;
}

bool IoScheduler::PumpCompletions(bool may_sleep) {
  if (may_sleep) t_async_aware = true;
  bool ran = TryRunPendingTask();
  if (PumpDue()) ran = true;
  if (ran || !may_sleep) return ran;
  std::unique_lock<std::mutex> cl(comp_mu_);
  uint64_t next = UINT64_MAX;
  if (!comps_.empty()) next = comps_.top().deadline;
  if (!wcomps_.empty()) next = std::min(next, wcomps_.top().deadline);
  const uint64_t now = NowNanos();
  if (next <= now) {
    cl.unlock();
    return PumpDue();
  }
  const uint64_t cap = 200'000;  // notifications cut this short
  comp_sleepers_.fetch_add(1, std::memory_order_seq_cst);
  comp_cv_.wait_for(cl, std::chrono::nanoseconds(
                            next == UINT64_MAX ? cap
                                               : std::min(next - now, cap)));
  comp_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  cl.unlock();
  return PumpDue();
}

std::shared_ptr<void> IoScheduler::ClaimPrefetch(uint64_t offset, size_t n) {
  auto rec = std::make_shared<PrefetchClaimRec>();
  rec->offset = offset;
  rec->n = n;
  rec->flights.resize(n);
  size_t owned = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t off = offset + i * kPageSize;
    Shard& s = ShardFor(off);
    std::lock_guard<std::mutex> l(s.mu);
    Entry& e = s.table[off];
    // Pages with a staged write or an in-flight read stay with their
    // current owner.
    if (e.write != nullptr || e.read != nullptr) continue;
    auto f = std::make_shared<ReadFlight>();
    f->seq = e.write_seq;
    e.read = f;
    rec->flights[i] = std::move(f);
    ++owned;
  }
  if (owned == 0) return nullptr;
  return rec;
}

Status IoScheduler::ExecutePrefetch(const std::shared_ptr<void>& claim,
                                    std::byte* dst, uint64_t* seqs,
                                    bool* covered,
                                    const std::function<void(size_t)>& ready,
                                    const std::function<void()>& installed) {
  auto* rec = static_cast<PrefetchClaimRec*>(claim.get());
  const uint64_t offset = rec->offset;
  const size_t n = rec->n;
  for (size_t i = 0; i < n; ++i) covered[i] = false;
  bool installed_fired = false;

  // One device op per maximal contiguous run of owned pages.
  Status result = Status::OK();
  size_t i = 0;
  while (i < n) {
    if (rec->flights[i] == nullptr) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && rec->flights[j] != nullptr) ++j;
    // Admit the run into the device's queue model and wait out its
    // deadline here, pumping other completions meanwhile: a second window
    // can be in flight on another queue while this one drains. Async-aware
    // threads sleep the wait; blocking threads spin (the synchronous CPU
    // accounting).
    uint64_t deadline = 0;
    const Status st =
        ssd_->BeginRead(offset + i * kPageSize, dst + i * kPageSize,
                        (j - i) * kPageSize, &deadline);
    if (st.ok()) WaitUntilDeadline(deadline);
    stats_.read_ops.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) result = st;
    // Three passes over the run, in a strict order: validate every page,
    // install every page, and only then complete the flights.
    //
    //  - Installing before completing means a window page is at every
    //    instant either resident or joinable: completing first would
    //    erase the page's single-flight entry while its bytes are still
    //    unpublished, and a miss in that gap would duplicate the read.
    //  - Completing the whole run as one batch (rather than per page)
    //    means each joiner wakes exactly once, to a fully-published run.
    //    Waking per page lets early joiners outrun the install loop and
    //    re-sleep on the next page, turning one window into dozens of
    //    context-switch round trips.
    for (size_t k = i; k < j; ++k) {
      const uint64_t off = offset + k * kPageSize;
      Shard& s = ShardFor(off);
      std::shared_ptr<ReadFlight>& f = rec->flights[k];
      std::lock_guard<std::mutex> l(s.mu);
      Entry& e = s.table[off];
      f->status = st;
      f->stale = (e.write_seq != f->seq);
      if (st.ok() && !f->stale) {
        seqs[k] = f->seq;
        covered[k] = true;
      }
    }
    if (ready) {
      for (size_t k = i; k < j; ++k) {
        // Outside the shard lock; the install re-validates WriteSeq.
        if (covered[k]) ready(k);
      }
    }
    if (installed && !installed_fired) {
      installed_fired = true;
      installed();
    }
    for (size_t k = i; k < j; ++k) {
      const uint64_t off = offset + k * kPageSize;
      Shard& s = ShardFor(off);
      std::shared_ptr<ReadFlight>& f = rec->flights[k];
      std::vector<ReadCallback> cbs;
      {
        std::lock_guard<std::mutex> l(s.mu);
        Entry& e = s.table[off];
        // A write may have staged while the installs ran: re-check, so a
        // joiner retries rather than consuming superseded bytes. (The
        // install path re-validates against WriteSeq on its own.)
        f->stale = (e.write_seq != f->seq);
        if (!f->callbacks.empty() && covered[k] && !f->stale) {
          // Callbacks that joined this flight read from its buffer.
          std::memcpy(f->buf, dst + k * kPageSize, kPageSize);
        }
        cbs.swap(f->callbacks);
        if (e.read == f) e.read.reset();
        MaybeEraseLocked(s, off);
      }
      if (!cbs.empty()) {
        // Async misses that joined this window's flights.
        const bool bad = !covered[k] || f->stale;
        if (f->stale) {
          stats_.stale_read_retries.fetch_add(cbs.size(),
                                              std::memory_order_relaxed);
        }
        const Status cb_st =
            bad ? (f->status.ok()
                       ? Status::Busy("read superseded by concurrent write")
                       : f->status)
                : Status::OK();
        for (ReadCallback& cb : cbs) cb(cb_st, f->buf, f->seq);
      }
    }
    i = j;
  }
  // Wake sleeping pumpers and waiters: installed window pages may unblock
  // their rings or complete a joined fetch.
  SignalCompletions();
  return result;
}

Status IoScheduler::WritePage(uint64_t offset, const std::byte* src) {
  {
    // Backpressure before touching the shard, so a blocked writer never
    // holds a lock a worker needs to make progress. The wait pumps due
    // write completions: this thread may itself be inside a read-flight
    // completion (install -> evict -> write), in which case nobody else is
    // guaranteed to retire the writes it is waiting on.
    std::unique_lock<std::mutex> ql(q_mu_);
    while (!(pending_writes_ < kMaxPendingWrites || stop_)) {
      ql.unlock();
      PumpDueWrites();
      ql.lock();
      if (pending_writes_ < kMaxPendingWrites || stop_) break;
      q_cv_.wait_for(ql, std::chrono::microseconds(200));
    }
    if (stop_) return Status::IoError("io scheduler stopped");
  }

  Shard& s = ShardFor(offset);
  std::shared_ptr<StagedWrite> w;
  {
    std::unique_lock<std::mutex> l(s.mu);
    Entry* e = &s.table[offset];
    while (e->write != nullptr && e->write->issuing) {
      // The previous image is being copied to the device; wait for it so
      // this (newer) image cannot be overtaken. Same pumping rationale as
      // the backpressure wait above: the clearing completion may be ours
      // to run.
      l.unlock();
      PumpDueWrites();
      l.lock();
      e = &s.table[offset];
      if (!(e->write != nullptr && e->write->issuing)) break;
      s.cv.wait_for(l, std::chrono::microseconds(200));
      e = &s.table[offset];  // the map may have rehashed while unlocked
    }
    // The sequence bump is what invalidates concurrent reads: any read
    // that sampled an older sequence fails its install-time validation.
    e->write_seq++;
    if (e->write != nullptr) {
      // Still queued: last writer wins in place, no second device op.
      std::memcpy(e->write->buf.get(), src, kPageSize);
      return Status::OK();
    }
    w = std::make_shared<StagedWrite>();
    w->buf = std::make_unique<std::byte[]>(kPageSize);
    std::memcpy(w->buf.get(), src, kPageSize);
    e->write = w;
  }
  stats_.writes_staged.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> ql(q_mu_);
    ++pending_writes_;
    write_queue_.push_back(QueueItem{offset, std::move(w)});
  }
  q_cv_.notify_all();
  return Status::OK();
}

uint64_t IoScheduler::WriteSeq(uint64_t offset) {
  Shard& s = ShardFor(offset);
  std::lock_guard<std::mutex> l(s.mu);
  auto it = s.table.find(offset);
  return it == s.table.end() ? 0 : it->second.write_seq;
}

Status IoScheduler::Drain() {
  std::unique_lock<std::mutex> ql(q_mu_);
  ++drain_waiters_;
  q_cv_.notify_all();  // cut any coalescing window short
  while (pending_writes_ != 0) {
    // Pump write completions while waiting: submitted writes only count
    // as drained once their deadline passes, and this thread may be the
    // one that has to run those completions.
    ql.unlock();
    PumpDueWrites();
    ql.lock();
    if (pending_writes_ == 0) break;
    q_cv_.wait_for(ql, std::chrono::microseconds(200));
  }
  --drain_waiters_;
  Status st = first_write_error_;
  first_write_error_ = Status::OK();
  return st;
}

bool IoScheduler::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> ql(q_mu_);
    if (stop_) return false;
    tasks_.push_back(std::move(task));
  }
  q_cv_.notify_all();
  return true;
}

bool IoScheduler::TryRunPendingTask() {
  std::function<void()> t;
  {
    std::lock_guard<std::mutex> ql(q_mu_);
    if (tasks_.empty()) return false;
    t = std::move(tasks_.front());
    tasks_.pop_front();
  }
  t();
  return true;
}

void IoScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> ql(q_mu_);
    if (stop_ && workers_.empty() && !completion_worker_.joinable()) return;
    stop_ = true;
  }
  q_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Write workers are gone (their shutdown drain may have scheduled more
  // completions); now let the completion worker fire everything still in
  // the heaps — early, but exactly once — so no flight or staged write is
  // left unresolved, then join it.
  {
    std::lock_guard<std::mutex> cl(comp_mu_);
    comp_stop_ = true;
  }
  comp_cv_.notify_all();
  if (completion_worker_.joinable()) completion_worker_.join();
}

void IoScheduler::WorkerLoop() {
  std::vector<std::byte> scratch(opts_.max_coalesce_pages * kPageSize);
  std::unique_lock<std::mutex> ql(q_mu_);
  for (;;) {
    q_cv_.wait(ql, [&] { return stop_ || !write_queue_.empty(); });
    if (write_queue_.empty()) {
      if (stop_) {
        // Queued prefetch tasks normally run on the thread that first
        // waits for one of their pages (TryRunPendingTask): waking a
        // worker for them would make its simulated device spin compete
        // with the submitter for the core. Any still pending at shutdown
        // must run here, though — their claims have flights to complete.
        while (!tasks_.empty()) {
          std::function<void()> t = std::move(tasks_.front());
          tasks_.pop_front();
          ql.unlock();
          t();
          ql.lock();
        }
        return;
      }
      continue;
    }
    if (write_queue_.size() < opts_.max_coalesce_pages && !stop_ &&
        drain_waiters_ == 0 && opts_.coalesce_window_us > 0) {
      // Linger briefly so an eviction burst coalesces into fewer ops.
      q_cv_.wait_for(ql, std::chrono::microseconds(opts_.coalesce_window_us),
                     [&] {
                       return stop_ || drain_waiters_ > 0 ||
                              write_queue_.size() >= opts_.max_coalesce_pages;
                     });
    }
    std::vector<QueueItem> batch;
    while (!write_queue_.empty() && batch.size() < opts_.max_coalesce_pages) {
      batch.push_back(std::move(write_queue_.front()));
      write_queue_.pop_front();
    }
    ql.unlock();
    // ProcessBatch defers retirement to each run's completion deadline, so
    // this loop immediately picks up the next batch, keeping further
    // queues full instead of spinning out one write at a time.
    (void)ProcessBatch(&batch, scratch.data());
    ql.lock();
  }
}

Status IoScheduler::ProcessBatch(std::vector<QueueItem>* batch,
                                 std::byte* scratch) {
  std::sort(batch->begin(), batch->end(),
            [](const QueueItem& a, const QueueItem& b) {
              return a.offset < b.offset;
            });
  // Freeze every image first: after `issuing` is set (under the shard
  // mutex) writers wait for completion instead of mutating the buffer, so
  // the copies below are safe without a lock.
  for (QueueItem& item : *batch) {
    Shard& s = ShardFor(item.offset);
    std::lock_guard<std::mutex> l(s.mu);
    item.w->issuing = true;
  }
  Status result = Status::OK();
  size_t i = 0;
  while (i < batch->size()) {
    size_t j = i + 1;
    while (j < batch->size() &&
           (*batch)[j].offset == (*batch)[j - 1].offset + kPageSize) {
      ++j;
    }
    const size_t run = j - i;
    const std::byte* data;
    if (run == 1) {
      data = (*batch)[i].w->buf.get();
    } else {
      for (size_t k = i; k < j; ++k) {
        std::memcpy(scratch + (k - i) * kPageSize, (*batch)[k].w->buf.get(),
                    kPageSize);
      }
      data = scratch;
      stats_.writes_coalesced.fetch_add(run - 1, std::memory_order_relaxed);
    }
    stats_.write_ops.fetch_add(1, std::memory_order_relaxed);
    // Submit and defer retirement to the completion deadline. BeginWrite
    // copies the bytes out eagerly, so `scratch` is reusable immediately
    // and the staged images stay frozen (issuing) until retirement.
    uint64_t deadline = 0;
    const Status st = ssd_->BeginWrite((*batch)[i].offset, data,
                                       run * kPageSize, &deadline);
    if (!st.ok()) result = st;
    auto items = std::make_shared<std::vector<QueueItem>>(
        batch->begin() + static_cast<ptrdiff_t>(i),
        batch->begin() + static_cast<ptrdiff_t>(j));
    ScheduleAt(st.ok() ? deadline : 0,
               [this, items, st] { RetireWrites(*items, st); },
               /*is_write=*/true);
    i = j;
  }
  return result;
}

void IoScheduler::RetireWrites(const std::vector<QueueItem>& items,
                               const Status& st) {
  for (const QueueItem& item : items) {
    Shard& s = ShardFor(item.offset);
    {
      std::lock_guard<std::mutex> l(s.mu);
      auto it = s.table.find(item.offset);
      if (it != s.table.end() && it->second.write == item.w) {
        it->second.write.reset();
      }
    }
    s.cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> ql(q_mu_);
    pending_writes_ -= items.size();
    if (!st.ok() && first_write_error_.ok()) first_write_error_ = st;
  }
  q_cv_.notify_all();
}

}  // namespace spitfire
