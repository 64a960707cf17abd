#ifndef SPITFIRE_DB_TABLE_H_
#define SPITFIRE_DB_TABLE_H_

#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "buffer/buffer_manager.h"
#include "index/btree.h"
#include "txn/mvto_manager.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace spitfire {

// Page type tag for heap pages: 0x48 ("H") in the top byte, table id below.
inline uint32_t HeapPageType(uint32_t table_id) {
  return 0x48000000u | table_id;
}
inline bool IsHeapPageType(uint32_t t) { return (t & 0xFF000000u) == 0x48000000u; }
inline uint32_t HeapPageTableId(uint32_t t) { return t & 0x00FFFFFFu; }

// A versioned table heap with multi-version timestamp ordering (MVTO,
// Wu et al. [39]) layered on the Spitfire buffer manager.
//
// Records are fixed-size tuples keyed by a 64-bit key. Each update
// installs a new version and links it to its predecessor; a B+Tree maps
// each key to the newest version (the chain head). Version slots live in
// heap pages, so version traffic exercises exactly the DRAM/NVM/SSD data
// paths the paper studies — including the MVTO metadata writes the paper
// notes dirty pages even under read-only workloads (Section 6.4).
//
// MVTO rules (single timestamp per transaction):
//   read(T, k): newest version V with begin_ts <= ts(T); bump
//               V.read_ts = max(V.read_ts, ts(T)).
//   write(T, k): abort if head is write-locked, newer than T, or was read
//               by a transaction younger than T; otherwise lock the head
//               and install an uncommitted successor.
// Commit stamps installed versions with ts(T); abort unlinks them.
class Table {
 public:
  struct Options {
    uint32_t table_id = 0;
    size_t tuple_size = 0;  // payload bytes per record
  };

  // In-page header preceding every version's payload.
  struct VersionHeader {
    uint64_t writer;    // txn id write-locking this version (0 = free)
    uint64_t begin_ts;  // kMaxTimestamp while uncommitted
    uint64_t read_ts;   // largest timestamp that read this version
    rid_t prev;         // next-older version
    uint64_t key;
    uint32_t flags;  // kFlagAllocated | kFlagTombstone
    uint32_t pad;
  };
  static constexpr uint32_t kFlagAllocated = 1;
  // Deletes install a tombstone version: readers whose timestamp sees the
  // tombstone get NotFound; older snapshots still see the predecessor.
  static constexpr uint32_t kFlagTombstone = 2;

  Table(const Options& opts, BufferManager* bm, TransactionManager* tm,
        BTree* index, LogManager* lm);
  SPITFIRE_DISALLOW_COPY_AND_MOVE(Table);

  uint32_t table_id() const { return opts_.table_id; }
  size_t tuple_size() const { return opts_.tuple_size; }
  BTree* index() { return index_; }

  // --- transactional operations ---
  //
  // When txn->fetch_ctx is set, buffer misses on the read-side stretches of
  // these operations (index traversal, version-chain pins, and the write
  // path up to taking the head's write lock) park on the context and the
  // operation returns WouldBlock with no effects a re-run would duplicate:
  // the caller re-invokes the same operation once the context fires.
  // Side-effecting stretches (post-lock write install, commit/abort
  // processing) always block.
  Status Insert(Transaction* txn, uint64_t key, const void* tuple);
  Status Read(Transaction* txn, uint64_t key, void* out);
  Status Update(Transaction* txn, uint64_t key, const void* tuple);
  // Deletes the key by installing a tombstone version (MVTO rules apply
  // exactly as for Update). Later snapshots see NotFound; concurrent older
  // snapshots still read the previous version.
  Status Delete(Transaction* txn, uint64_t key);
  // Visits committed versions visible to `txn` with keys in [lo, hi].
  Status Scan(Transaction* txn, uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, const void*)>& fn);

  // --- commit/abort processing (driven by Database) ---
  void FinalizeCommit(Transaction* txn, const Transaction::WriteOp& op);
  void RollbackAbort(Transaction* txn, const Transaction::WriteOp& op);

  // --- recovery ---
  // Registers a heap page discovered during the recovery scan.
  void AdoptPage(page_id_t pid);
  // Scrubs uncommitted versions, resets stale write locks, rebuilds the
  // index to point at each key's newest committed version, and rebuilds
  // the slot free list. Reports the largest committed begin_ts seen so the
  // timestamp dispenser can be advanced past it.
  Status RebuildFromHeap(timestamp_t* max_ts = nullptr);
  // Redoes one committed INSERT, UPDATE or DELETE record (its timestamp is
  // its transaction id) against the key's newest version. A newer version
  // means the record is already reflected: skip it. A version of the
  // record's own transaction is patched in place, as the live path did;
  // re-applying is idempotent. Otherwise a new version is built from the
  // newest version's bytes plus the record's range (a tombstone's payload
  // is zeroed). An update that changes only part of the tuple needs that
  // base version; without one it is Corruption.
  Status RecoveryApply(const LogRecord& rec);
  // begin_ts of the key's newest version, 0 if the key has none.
  Result<timestamp_t> RecoveryHeadTs(uint64_t key);
  // Verifies heap/index invariants on a QUIESCENT table (no active
  // transactions): every allocated version is committed and unlocked,
  // version chains are well-formed (same key, newest-first, acyclic, no
  // dangling links), and the index maps each key to its newest committed
  // version. Returns Corruption (and fills *why) on the first violation.
  Status ValidateHeap(std::string* why = nullptr);

  size_t slots_per_page() const { return slots_per_page_; }
  uint64_t allocated_pages() const {
    std::lock_guard<std::mutex> g(alloc_mu_);
    return pages_.size();
  }

 private:
  // A pinned version slot: the guard, typed pointers into the slot, and
  // where the slot lies in its page.
  struct SlotRef {
    PageGuard guard;
    VersionHeader* hdr;
    std::byte* payload;
    size_t offset;
    size_t size;

    // Marks the slot's bytes dirty; call it while still holding the pin.
    void MarkDirty() { guard.MarkDirty(offset, size); }
  };

  size_t slot_size() const {
    return (sizeof(VersionHeader) + opts_.tuple_size + 7) / 8 * 8;
  }
  uint64_t SlotOffset(uint32_t slot) const {
    return kPageHeaderSize + static_cast<uint64_t>(slot) * slot_size();
  }

  // Pins the page holding `rid` and returns typed pointers into it. With a
  // context, a miss parks on it and returns WouldBlock instead of blocking.
  Result<SlotRef> PinSlot(rid_t rid, AccessIntent intent,
                          FetchContext* ctx = nullptr);

  Result<rid_t> AllocateSlot();
  void DeferFree(rid_t rid);

  // Shared write path for Update / Delete / insert-over-tombstone.
  Status WriteInternal(Transaction* txn, uint64_t key, const void* tuple,
                       bool allow_tombstone_head);

  // Unlinks versions older than the newest one visible at the GC
  // watermark, deferring slot reuse until in-flight readers finish.
  void TruncateChain(rid_t head);

  // Appends the record of one write. `before` is the version it replaces
  // (null for an insert), `after` the new tuple (null for a delete).
  Status LogWrite(Transaction* txn, LogRecordType type, uint64_t key,
                  const std::byte* before, const std::byte* after);

  Options opts_;
  BufferManager* bm_;
  TransactionManager* tm_;
  BTree* index_;
  LogManager* lm_;  // may be null (logging disabled)

  size_t slots_per_page_;

  mutable std::mutex alloc_mu_;
  std::vector<page_id_t> pages_;
  uint32_t bump_slot_ = 0;  // next unused slot in pages_.back()
  struct DeferredFree {
    rid_t rid;
    timestamp_t freed_at;
  };
  std::deque<DeferredFree> free_list_;  // FIFO: oldest free first
};

}  // namespace spitfire

#endif  // SPITFIRE_DB_TABLE_H_
