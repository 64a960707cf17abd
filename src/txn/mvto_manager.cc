#include "txn/mvto_manager.h"

#include <algorithm>

namespace spitfire {

TransactionManager::TransactionManager()
    : slots_(new std::atomic<timestamp_t>[kMaxActiveTxns]) {
  for (uint32_t i = 0; i < kMaxActiveTxns; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

namespace {
// The registry slot this thread last claimed or released. Begin probes
// from here, so a thread keeps reusing a few slots instead of walking
// through all of them.
thread_local uint32_t t_last_slot = 0;
}  // namespace

std::unique_ptr<Transaction> TransactionManager::Begin() {
  // Claim a slot BEFORE drawing the real timestamp, seeding it with a
  // lower bound (every timestamp the dispenser can still hand out is
  // >= its current value), and raise the high-water mark past the slot
  // before the fetch_add too. A concurrent MinActiveTs scan therefore
  // sees either this reservation (<= our eventual ts) or — if it misses
  // the slot — a dispenser value it read AFTER our fetch_add, which its
  // min() clamps against. Both keep the watermark <= our timestamp; the
  // reservation may make it temporarily too low, which only delays GC.
  // The CAS, mark raise, fetch_add and scan all use seq_cst, so
  // "reservation, then mark, then fetch_add" and "dispenser read, then
  // mark read, then slot scan" order globally: a scan whose bound is
  // above our timestamp reads a mark above our slot.
  uint32_t slot = kMaxActiveTxns;
  for (;;) {
    for (uint32_t probe = 0; probe < kMaxActiveTxns; ++probe) {
      const uint32_t i = (t_last_slot + probe) % kMaxActiveTxns;
      // Look before the CAS: a thread holding a ring of open transactions
      // must not take each occupied line in exclusive mode.
      if (slots_[i].load(std::memory_order_relaxed) != 0) continue;
      timestamp_t expected = 0;
      const timestamp_t reservation = next_ts_.load();
      if (slots_[i].compare_exchange_strong(expected, reservation)) {
        slot = i;
        break;
      }
    }
    if (slot != kMaxActiveTxns) break;
    // All kMaxActiveTxns slots busy: wait for a Finish. Unrealistic in
    // practice (it means 4096 concurrently open transactions).
    __builtin_ia32_pause();
  }
  t_last_slot = slot;
  uint32_t mark = high_water_.load();
  while (mark <= slot && !high_water_.compare_exchange_weak(mark, slot + 1)) {
  }

  const timestamp_t ts = next_ts_.fetch_add(1);
  slots_[slot].store(ts);
  active_count_.fetch_add(1, std::memory_order_relaxed);

  // Transaction ids and timestamps share the dispenser (MVTO assigns a
  // single timestamp per transaction).
  auto txn = std::make_unique<Transaction>(/*id=*/ts, /*ts=*/ts);
  txn->active_slot = slot;
  return txn;
}

void TransactionManager::Finish(Transaction* txn) {
  const uint32_t slot = txn->active_slot;
  if (slot >= kMaxActiveTxns) return;  // never registered / already finished
  txn->active_slot = UINT32_MAX;
  slots_[slot].store(0);
  t_last_slot = slot;
  active_count_.fetch_sub(1, std::memory_order_relaxed);
}

timestamp_t TransactionManager::MinActiveTs() const {
  // Read the dispenser FIRST, then the mark: any Begin whose timestamp is
  // below this bound made its slot reservation and raised the mark past
  // its slot before our reads (seq_cst total order), so the scan below
  // the mark observes it. Begins that race past the bound can only raise
  // the minimum, never lower it below `bound`.
  const timestamp_t bound = next_ts_.load();
  const uint32_t end = high_water_.load();
  timestamp_t min = bound;
  for (uint32_t i = 0; i < end; ++i) {
    const timestamp_t ts = slots_[i].load();
    if (ts != 0) min = std::min(min, ts);
  }
  return min;
}

void TransactionManager::AdvanceTo(timestamp_t ts) {
  timestamp_t cur = next_ts_.load(std::memory_order_relaxed);
  while (ts > cur && !next_ts_.compare_exchange_weak(cur, ts)) {
  }
}

}  // namespace spitfire
