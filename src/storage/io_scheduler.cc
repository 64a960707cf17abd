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

void IoScheduler::SubmitRead(uint64_t offset, size_t n, ReadCallback cb) {
  struct Read {
    std::unique_ptr<std::byte[]> buf;
    std::vector<uint64_t> seqs;
    ReadCallback cb;
  };
  auto r = std::make_shared<Read>();
  r->buf = std::make_unique_for_overwrite<std::byte[]>(n * kPageSize);
  r->seqs.assign(n, 0);
  r->cb = std::move(cb);
  // Sample before any device copy, under the shard lock that WritePage
  // bumps the sequence under: a page staged before its sample is served
  // from the staged image (the device may still hold older bytes, and
  // the sequence cannot tell), and a page staged after it fails the
  // caller's sequence check.
  std::vector<bool> staged(n, false);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t off = offset + i * kPageSize;
    Shard& s = ShardFor(off);
    std::lock_guard<std::mutex> l(s.mu);
    auto it = s.table.find(off);
    if (it == s.table.end()) continue;
    r->seqs[i] = it->second.write_seq;
    if (it->second.write != nullptr) {
      std::memcpy(r->buf.get() + i * kPageSize, it->second.write->buf.get(),
                  kPageSize);
      staged[i] = true;
    }
  }
  Status st = Status::OK();
  uint64_t deadline = 0;
  for (size_t i = 0; i < n;) {
    if (staged[i]) {
      stats_.reads_from_staged.fetch_add(1, std::memory_order_relaxed);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && !staged[j]) ++j;
    uint64_t done = 0;
    const Status rs = ssd_->BeginRead(offset + i * kPageSize,
                                      r->buf.get() + i * kPageSize,
                                      (j - i) * kPageSize, &done);
    stats_.read_ops.fetch_add(1, std::memory_order_relaxed);
    if (!rs.ok()) st = rs;
    deadline = std::max(deadline, done);
    i = j;
  }
  ScheduleAt(
      st.ok() ? deadline : 0,
      [r, st] { r->cb(st, r->buf.get(), r->seqs.data()); },
      /*is_write=*/false);
}

bool IoScheduler::PumpCompletions(bool may_sleep) {
  const bool ran = PumpDue();
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

Status IoScheduler::WritePage(uint64_t offset, const std::byte* src) {
  {
    // Backpressure before touching the shard, so a blocked writer never
    // holds a lock a worker needs to make progress. The wait pumps due
    // write completions: this thread may itself be inside a read
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
  // the heaps — early, but exactly once — so no read or staged write is
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
      if (stop_) return;
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
