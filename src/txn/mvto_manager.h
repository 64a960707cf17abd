#ifndef SPITFIRE_TXN_MVTO_MANAGER_H_
#define SPITFIRE_TXN_MVTO_MANAGER_H_

#include <atomic>
#include <memory>

#include "common/status.h"
#include "txn/transaction.h"

namespace spitfire {

// Timestamp authority and active-transaction registry for the MVTO
// protocol (Wu et al. [39]). Visibility/conflict rules are applied by the
// versioned table heap (db/table.h); this class owns timestamps and the
// garbage-collection watermark.
//
// The registry is a fixed-size slot array of atomic timestamps (0 =
// free): Begin claims a slot with one CAS and Finish releases it with one
// store, so transaction start/finish is lock-free and stops being a
// global serial point under the sharded buffer manager. MinActiveTs()
// scans the array without locking, and only below a high-water mark one
// past the highest slot ever claimed; see Begin() for why the scan can
// never overtake a transaction that is mid-Begin.
//
// Every Begin and Finish writes next_ts_ and active_count_, so the manager
// keeps a cache line to itself: embedded in its owner (Database), it would
// otherwise share a line with read-mostly fields that every operation
// loads, and where that happens depends on the owner's field sizes.
class alignas(64) TransactionManager {
 public:
  // Upper bound on concurrently active transactions. 4096 slots of 8
  // bytes is one page of memory; Begin spins (it cannot fail) in the
  // pathological case that all slots are claimed.
  static constexpr uint32_t kMaxActiveTxns = 4096;

  TransactionManager();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(TransactionManager);

  // Starts a transaction with a fresh timestamp.
  std::unique_ptr<Transaction> Begin();

  // Removes the transaction from the active set (after commit or abort
  // processing completes).
  void Finish(Transaction* txn);

  // GC watermark: versions invisible to every timestamp >= MinActiveTs()
  // can be unlinked, and unlinked slots can be recycled once the txns that
  // might still traverse them have finished. Lock-free; the result is a
  // conservative lower bound (it may trail the true minimum when Finish
  // races the scan, which only delays GC, never breaks it).
  timestamp_t MinActiveTs() const;

  timestamp_t LastAssignedTs() const {
    return next_ts_.load(std::memory_order_relaxed) - 1;
  }

  // Restores the dispenser after recovery so new timestamps exceed any
  // recovered ones.
  void AdvanceTo(timestamp_t ts);

  uint64_t active_count() const {
    return active_count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<timestamp_t> next_ts_{1};

  // One past the highest slot ever claimed; never lowers. Each thread
  // reuses the slot it last held, so the mark stays near the peak number
  // of concurrently open transactions and the scan reads a few lines, not
  // all kMaxActiveTxns slots.
  std::atomic<uint32_t> high_water_{0};

  // One cacheline per slot would burn 256 KB; timestamps are claimed
  // rarely (once per txn) relative to MinActiveTs scans, and the scan
  // wants density, so plain packed atomics win here.
  std::unique_ptr<std::atomic<timestamp_t>[]> slots_;
  std::atomic<uint64_t> active_count_{0};
};

}  // namespace spitfire

#endif  // SPITFIRE_TXN_MVTO_MANAGER_H_
