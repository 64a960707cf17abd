#include "storage/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/timer.h"

namespace spitfire {

IoScheduler::IoScheduler(SsdDevice* ssd) : ssd_(ssd) {
  SPITFIRE_CHECK(ssd_ != nullptr);
  completion_worker_ = std::thread([this] { CompletionWorkerLoop(); });
}

IoScheduler::~IoScheduler() { Shutdown(); }

void IoScheduler::ScheduleAt(uint64_t deadline_ns, std::function<void()> fn) {
  if (deadline_ns <= NowNanos()) {
    // Already due (scale 0, or the queue model admitted instantly): run
    // inline. Callers hold no scheduler locks here.
    stats_.completions_run.fetch_add(1, std::memory_order_relaxed);
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> cl(comp_mu_);
    comps_.push(Completion{deadline_ns, comp_seq_++, std::move(fn)});
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
      if (comps_.empty() || comps_.top().deadline > now) break;
      fn = std::move(const_cast<Completion&>(comps_.top()).fn);
      comps_.pop();
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
    if (comps_.empty()) {
      if (comp_stop_) return;
      comp_cv_.wait(cl);
      continue;
    }
    const uint64_t next = comps_.top().deadline;
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
    std::function<void()> fn =
        std::move(const_cast<Completion&>(comps_.top()).fn);
    comps_.pop();
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
  // Sample before the device copy, under the shard lock that WritePage
  // bumps the sequence and copies the page under: a write before the
  // sample is already on the device, and one after it fails the caller's
  // sequence check.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t off = offset + i * kPageSize;
    Shard& s = ShardFor(off);
    std::lock_guard<std::mutex> l(s.mu);
    auto it = s.write_seq.find(off);
    if (it != s.write_seq.end()) r->seqs[i] = it->second;
  }
  uint64_t deadline = 0;
  const Status st =
      ssd_->BeginRead(offset, r->buf.get(), n * kPageSize, &deadline);
  stats_.read_ops.fetch_add(1, std::memory_order_relaxed);
  ScheduleAt(st.ok() ? deadline : 0,
             [r, st] { r->cb(st, r->buf.get(), r->seqs.data()); });
}

bool IoScheduler::PumpCompletions(bool may_sleep) {
  const bool ran = PumpDue();
  if (ran || !may_sleep) return ran;
  std::unique_lock<std::mutex> cl(comp_mu_);
  const uint64_t next = comps_.empty() ? UINT64_MAX : comps_.top().deadline;
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
  if (write_stop_.load(std::memory_order_acquire)) {
    return Status::IoError("io scheduler stopped");
  }
  stats_.writes_staged.fetch_add(1, std::memory_order_relaxed);
  Shard& s = ShardFor(offset);
  uint64_t deadline = 0;
  Status st;
  {
    // The sequence bump is what invalidates concurrent reads: a read that
    // sampled an older sequence fails its install-time validation, and
    // one that samples after this step finds the bytes on the device.
    std::lock_guard<std::mutex> l(s.mu);
    s.write_seq[offset]++;
    st = ssd_->BeginWrite(offset, src, kPageSize, &deadline);
  }
  stats_.write_ops.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> wl(write_mu_);
  if (!st.ok()) {
    if (first_write_error_.ok()) first_write_error_ = st;
  } else {
    write_deadline_ = std::max(write_deadline_, deadline);
  }
  return Status::OK();
}

uint64_t IoScheduler::WriteSeq(uint64_t offset) {
  Shard& s = ShardFor(offset);
  std::lock_guard<std::mutex> l(s.mu);
  auto it = s.write_seq.find(offset);
  return it == s.write_seq.end() ? 0 : it->second;
}

Status IoScheduler::Drain() {
  uint64_t deadline = 0;
  {
    std::lock_guard<std::mutex> wl(write_mu_);
    deadline = write_deadline_;
  }
  // A write counts as on the device only once its deadline passes, as a
  // read's bytes count as arrived only at its completion.
  const uint64_t now = NowNanos();
  if (deadline > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
  std::lock_guard<std::mutex> wl(write_mu_);
  Status st = first_write_error_;
  first_write_error_ = Status::OK();
  return st;
}

void IoScheduler::Shutdown() {
  write_stop_.store(true, std::memory_order_release);
  // Let the completion worker fire everything still in the heap — early,
  // but exactly once — so no read is left unresolved, then join it.
  {
    std::lock_guard<std::mutex> cl(comp_mu_);
    comp_stop_ = true;
  }
  comp_cv_.notify_all();
  if (completion_worker_.joinable()) completion_worker_.join();
}

}  // namespace spitfire
