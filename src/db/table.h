#ifndef SPITFIRE_DB_TABLE_H_
#define SPITFIRE_DB_TABLE_H_

#include <atomic>
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
  // A tombstone whose delete committed with no older transaction active
  // is reclaimed and the key leaves the index (see FinalizeCommit); its
  // slot keeps this flag, without kFlagAllocated, until the slot is reused.
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
  // `watermark` is TransactionManager::MinActiveTs() sampled during the
  // commit: no active transaction is older. A committed tombstone at or
  // below it (its delete is the oldest active transaction) is reclaimed at
  // once; any other stays indexed until the next recovery. A new head
  // committed at or below it truncates its chain at once; one committed
  // above it is queued, and a later commit whose watermark has passed it
  // truncates the chain behind it (RunDueTruncations).
  void FinalizeCommit(Transaction* txn, const Transaction::WriteOp& op,
                      timestamp_t watermark);
  void RollbackAbort(Transaction* txn, const Transaction::WriteOp& op);

  // --- recovery ---
  // Registers a heap page discovered during the recovery scan.
  void AdoptPage(page_id_t pid);
  // Scrubs uncommitted versions, resets stale write locks, rebuilds the
  // index to point at each key's newest committed version, and rebuilds
  // the slot free list. A key whose newest version is a tombstone is
  // indexed and noted for ReclaimRecoveredTombstones. Reports the largest
  // committed begin_ts seen so the timestamp dispenser can be advanced
  // past it.
  Status RebuildFromHeap(timestamp_t* max_ts = nullptr);
  // Redoes one committed INSERT, UPDATE or DELETE record (its timestamp is
  // its transaction id) against the key's newest version. A newer version
  // means the record is already reflected: skip it. A version of the
  // record's own transaction is patched in place, as the live path did;
  // re-applying is idempotent. Otherwise a new version is built from the
  // newest version's bytes plus the record's range (a tombstone's payload
  // is zeroed). An update that changes only part of the tuple needs that
  // base version; without one it is Corruption. A tombstone it leaves is
  // noted for ReclaimRecoveredTombstones.
  Status RecoveryApply(const LogRecord& rec);
  // Timestamp of the oldest tombstone noted since the heap scan
  // (kMaxTimestamp if none). Reclaiming it changes the heap with no later
  // log record of its key.
  timestamp_t oldest_recovered_tombstone() const;
  // Reclaims every noted tombstone that is still its key's head. Recovery
  // runs it after redo, which may build on a tombstone, with no
  // transaction active.
  void ReclaimRecoveredTombstones(timestamp_t watermark);
  // begin_ts of the key's newest version, 0 if the key has none.
  Result<timestamp_t> RecoveryHeadTs(uint64_t key);
  // Verifies heap/index invariants on a QUIESCENT table (no active
  // transactions): every allocated version is committed and unlocked,
  // version chains are well-formed (same key, newest-first, acyclic, no
  // dangling links) and reach every allocated version, the index maps each
  // key to its newest committed version, and the free lists hold each slot
  // at most once and no allocated one. Returns Corruption (and fills *why)
  // on the first violation.
  Status ValidateHeap(std::string* why = nullptr);

  size_t slots_per_page() const { return slots_per_page_; }
  uint64_t allocated_pages() const {
    std::lock_guard<std::mutex> g(alloc_mu_);
    return pages_.size();
  }
  // Queued truncations, and how many queued ones have truncated a chain.
  size_t queued_truncations() const {
    std::lock_guard<std::mutex> g(gc_mu_);
    return gc_queue_.size();
  }
  uint64_t deferred_truncations() const {
    return deferred_truncations_.load(std::memory_order_relaxed);
  }

  // Bound on queued truncations. When the queue is full the oldest entry
  // is dropped: its garbage stays linked behind its head, as after a
  // failed pin, until a later commit on the key truncates the chain.
  static constexpr size_t kMaxQueuedTruncations = 1024;
  // The `writer` value a queued truncation holds on its head. It is above
  // every transaction's timestamp, so a reader, which aborts only on a
  // writer older than itself, reads through it; a writer waits for its
  // release (WriteInternal).
  static constexpr uint64_t kGcClaim = kMaxTimestamp - 1;
  // Test-only hook, null outside tests. RunDueTruncations calls it with
  // the key when it has found a queued head at the key's index head,
  // before claiming it, and again when it holds the claim, before walking
  // the chain. A race test uses it to act inside both windows.
  static inline std::atomic<void (*)(uint64_t key)> gc_pause_for_testing{
      nullptr};

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

  // Returns the most recently freed slot whose grace period has passed
  // (its page is the likeliest to be resident), else a fresh one.
  Result<rid_t> AllocateSlot();
  void DeferFree(rid_t rid);

  // Shared write path for Update / Delete / insert-over-tombstone.
  Status WriteInternal(Transaction* txn, uint64_t key, const void* tuple,
                       bool allow_tombstone_head);

  // Unlinks versions older than the newest one visible at `watermark`,
  // deferring slot reuse until in-flight readers finish. The caller holds
  // the write claim of `head`, the key's index head (recovery runs alone),
  // so no other walk runs on the chain. Returns false if it stopped early
  // (a pin failed): the versions it did not free stay linked behind the
  // survivor.
  bool TruncateChain(rid_t head, timestamp_t watermark);

  // Truncates the chain behind each queued head the watermark has passed.
  void RunDueTruncations(timestamp_t watermark);

  // Reclaims the committed tombstone at `rid`, the index head of `key`,
  // whose write claim the caller holds, and releases the claim. If a step
  // fails, the key stays a committed, indexed tombstone.
  void ReclaimTombstone(uint64_t key, rid_t rid, SlotRef* ref,
                        timestamp_t watermark);

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
  std::deque<DeferredFree> free_list_;  // in its grace period, oldest first
  std::vector<rid_t> reusable_;         // past it, newest on top

  // Heads committed above their commit's watermark, in commit order.
  struct QueuedTruncation {
    rid_t rid;
    uint64_t key;
    timestamp_t ts;  // the head's begin_ts
  };
  mutable std::mutex gc_mu_;
  std::deque<QueuedTruncation> gc_queue_;
  std::atomic<uint64_t> deferred_truncations_{0};

  // Tombstones recovery found or replayed, reclaimed after redo. Touched
  // only by the single-threaded recovery.
  struct RecoveredTombstone {
    uint64_t key;
    rid_t rid;
    timestamp_t ts;  // the delete's commit timestamp
  };
  std::vector<RecoveredTombstone> recovered_tombstones_;
};

}  // namespace spitfire

#endif  // SPITFIRE_DB_TABLE_H_
