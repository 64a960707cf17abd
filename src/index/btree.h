#ifndef SPITFIRE_INDEX_BTREE_H_
#define SPITFIRE_INDEX_BTREE_H_

#include <cstdint>
#include <functional>

#include "buffer/buffer_manager.h"
#include "common/status.h"

namespace spitfire {

// Concurrent B+Tree with optimistic lock coupling (Leis et al. [24]),
// built on top of the buffer manager (Section 5.2, "Concurrent Index").
// Keys and values are 64-bit integers (values are typically record ids).
//
// The root never moves: it keeps the page id Create gives it, which is
// the tree's only handle. A full root splits in place, as in SQLite: its
// entries move into two new pages and the root becomes their parent, one
// level up. The root is therefore the only page whose kind changes (leaf
// to inner); every other page stays the kind it was created as.
//
// Locking protocol:
//  - Every operation starts with one optimistic descent from the root:
//    it samples each node's version latch (stored in the page's shared
//    descriptor, so it survives page migrations between DRAM and NVM),
//    routes, validates the parent, and moves to the child. Any
//    interference restarts the operation from the root. No latches are
//    held.
//  - Lookups and scans read the leaf and validate it. Inserts and deletes
//    upgrade the leaf's latch to a write latch. If a structural
//    modification (split) is needed, the insert restarts in pessimistic
//    mode, write-latch-coupling from the root.
//  - Deletes remove keys from leaves without rebalancing (standard
//    practice in many production trees; space is reclaimed by later
//    inserts).
//
// Node pages are pinned (via PageGuard) for the duration of each node
// visit, which keeps frames stable; versions detect logical interference.
//
// Note on ThreadSanitizer: optimistic readers race with writers on node
// bytes BY DESIGN — every optimistically-read value is discarded unless
// the subsequent version validation succeeds. TSAN flags these accesses;
// tsan.supp at the repository root suppresses them.
class BTree {
 public:
  static constexpr uint32_t kNodePageType = 0xB7EE0002;

  // Creates a new tree: allocates its root, an empty leaf.
  static Result<BTree*> Create(BufferManager* bm);
  // Opens an existing tree rooted at `root_pid`.
  static Result<BTree*> Open(BufferManager* bm, page_id_t root_pid);

  page_id_t root_pid() const { return root_pid_; }

  // All public operations take an optional FetchContext. With one, a
  // buffer miss anywhere in the traversal parks on the context and the
  // operation returns WouldBlock BEFORE any tree mutation — the caller
  // re-runs the whole call once the context fires, and the restart
  // re-traverses from the root (OLC restarts are cheap; the parked page is
  // by then resident). Without a context every fetch blocks (legacy path).
  // The exception that always blocks is the pessimistic split path (it
  // holds write latches across fetches, so parking would deadlock).

  // Inserts (key, value). Returns InvalidArgument if the key exists.
  Status Insert(uint64_t key, uint64_t value, FetchContext* ctx = nullptr);
  // Inserts or overwrites.
  Status Upsert(uint64_t key, uint64_t value, FetchContext* ctx = nullptr);
  // Point lookup.
  Status Lookup(uint64_t key, uint64_t* value,
                FetchContext* ctx = nullptr) const;
  // Removes the key. Returns NotFound if absent.
  Status Remove(uint64_t key, FetchContext* ctx = nullptr);
  // Visits entries in [lo, hi] in key order until fn returns false.
  // WouldBlock may surface after fn was invoked for earlier entries; a
  // resumed caller re-observes them (callers that need exactly-once per
  // entry must collect idempotently, as Table::Scan does).
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, uint64_t)>& fn,
              FetchContext* ctx = nullptr) const;

  // Number of entries (full scan; for tests).
  Result<uint64_t> Count() const;
  uint32_t height() const;

 private:
  // A pinned node: its guard, its frame, and the version sampled when it
  // was pinned.
  struct Pinned {
    PageGuard guard;
    std::byte* data = nullptr;
    uint64_t version = 0;
  };

  BTree(BufferManager* bm, page_id_t root_pid)
      : bm_(bm), root_pid_(root_pid) {}

  // Pins `pid` through `ctx` and samples its version latch.
  Status Pin(page_id_t pid, AccessIntent intent, FetchContext* ctx,
             Pinned* node) const;
  // The optimistic descent from the root to the leaf whose range holds
  // `key`. With kWrite the leaf comes back write-latched; with kRead the
  // caller validates its sampled version after reading. Busy means
  // interference or a transiently busy buffer (restart); any other
  // status, WouldBlock included, comes from a fetch.
  Status Descend(uint64_t key, AccessIntent intent, FetchContext* ctx,
                 Pinned* leaf) const;

  Status InsertImpl(uint64_t key, uint64_t value, bool upsert,
                    FetchContext* ctx);
  Status PessimisticInsert(uint64_t key, uint64_t value, bool upsert);

  BufferManager* const bm_;
  const page_id_t root_pid_;
};

}  // namespace spitfire

#endif  // SPITFIRE_INDEX_BTREE_H_
