#include "db/table.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "common/timer.h"

namespace spitfire {

namespace {
// Atomic views over header fields stored in page memory. Pages are pinned
// for the duration of every access, so the bytes cannot move underneath.
inline std::atomic_ref<uint64_t> AtomicField(uint64_t& f) {
  return std::atomic_ref<uint64_t>(f);
}

// The byte range [lo, hi) outside which `a` and `b` agree (lo == hi when
// they are equal), found a word at a time from both ends.
std::pair<size_t, size_t> ChangedRange(const std::byte* a, const std::byte* b,
                                       size_t n) {
  const auto word = [](const std::byte* p) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  };
  size_t lo = 0;
  while (lo + 8 <= n && word(a + lo) == word(b + lo)) lo += 8;
  while (lo < n && a[lo] == b[lo]) ++lo;
  size_t hi = n;
  while (hi - lo >= 8 && word(a + hi - 8) == word(b + hi - 8)) hi -= 8;
  while (hi > lo && a[hi - 1] == b[hi - 1]) --hi;
  return {lo, hi};
}
}  // namespace

Table::Table(const Options& opts, BufferManager* bm, TransactionManager* tm,
             BTree* index, LogManager* lm)
    : opts_(opts), bm_(bm), tm_(tm), index_(index), lm_(lm) {
  SPITFIRE_CHECK(opts_.tuple_size > 0);
  SPITFIRE_CHECK(slot_size() <= kPagePayloadSize);
  slots_per_page_ = kPagePayloadSize / slot_size();
}

// ---------------------------------------------------------------------------
// Slot management
// ---------------------------------------------------------------------------

Result<Table::SlotRef> Table::PinSlot(rid_t rid, AccessIntent intent,
                                      FetchContext* ctx) {
  // Retry transient Busy (miss-storm submission races, frame churn) a few
  // times with backoff before surfacing it — callers propagate the status
  // up to the transaction layer, which aborts, so each retry here is one
  // fewer aborted transaction. Hard errors propagate immediately, and a
  // parked miss (WouldBlock, ctx path) must reach the scheduler untouched —
  // spinning on it here would defeat the interleaving.
  constexpr int kPinRetries = 8;
  Status last = Status::OK();
  for (int attempt = 0; attempt < kPinRetries; ++attempt) {
    if (attempt > 0) {
      SpinWaitNanos(std::min<uint64_t>(uint64_t{1'000} << attempt,
                                       uint64_t{32'000}));
    }
    auto g_r = FetchPageVia(bm_, ctx, RidPage(rid), intent);
    if (!g_r.ok()) {
      last = g_r.status();
      if (!last.IsBusy()) return last;
      continue;
    }
    PageGuard guard = g_r.MoveValue();
    std::byte* raw = guard.RawData();
    if (raw == nullptr) {
      last = Status::Busy("frame not materializable");
      continue;
    }
    const size_t offset = SlotOffset(RidSlot(rid));
    std::byte* slot = raw + offset;
    SlotRef ref{std::move(guard), reinterpret_cast<VersionHeader*>(slot),
                slot + sizeof(VersionHeader), offset, slot_size()};
    return ref;
  }
  return last;
}

Result<rid_t> Table::AllocateSlot() {
  std::lock_guard<std::mutex> g(alloc_mu_);
  // Recycle deferred frees whose grace period has passed: no transaction
  // that could still traverse to the old version remains active.
  if (!free_list_.empty() &&
      free_list_.front().freed_at < tm_->MinActiveTs()) {
    const rid_t rid = free_list_.front().rid;
    free_list_.pop_front();
    return rid;
  }
  if (pages_.empty() || bump_slot_ >= slots_per_page_) {
    auto r = bm_->NewPage(HeapPageType(opts_.table_id));
    if (!r.ok()) return r.status();
    pages_.push_back(r.value().pid());
    bump_slot_ = 0;
  }
  return MakeRid(pages_.back(), bump_slot_++);
}

void Table::DeferFree(rid_t rid) {
  std::lock_guard<std::mutex> g(alloc_mu_);
  free_list_.push_back({rid, tm_->LastAssignedTs() + 1});
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

Status Table::LogWrite(Transaction* txn, LogRecordType type, uint64_t key,
                       const std::byte* before, const std::byte* after) {
  if (lm_ == nullptr) return Status::OK();
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn->id();
  rec.prev_lsn = txn->last_lsn;
  rec.table_id = opts_.table_id;
  rec.key = key;
  // An insert logs the whole new tuple and a delete the whole tuple it
  // hides; an update only the bytes it changes.
  size_t lo = 0;
  size_t hi = opts_.tuple_size;
  if (type == LogRecordType::kUpdate) {
    std::tie(lo, hi) = ChangedRange(before, after, opts_.tuple_size);
  }
  rec.offset = static_cast<uint32_t>(lo);
  if (type != LogRecordType::kInsert) {
    rec.before.assign(before + lo, before + hi);
  }
  if (type != LogRecordType::kDelete) {
    rec.after.assign(after + lo, after + hi);
  }
  Result<lsn_t> lsn = lm_->Append(rec);
  SPITFIRE_RETURN_NOT_OK(lsn.status());
  txn->last_lsn = lsn.value();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transactional operations
// ---------------------------------------------------------------------------

Status Table::Insert(Transaction* txn, uint64_t key, const void* tuple) {
  FetchContext* ctx = txn->fetch_ctx;
  SPITFIRE_ASSIGN_OR_RETURN(const rid_t rid, AllocateSlot());
  {
    // On any pin failure — including a parked miss — return the slot to
    // the free list; the resumed Insert allocates afresh.
    auto ref_r = PinSlot(rid, AccessIntent::kWrite, ctx);
    if (!ref_r.ok()) {
      DeferFree(rid);
      return ref_r.status();
    }
    SlotRef ref = ref_r.MoveValue();
    VersionHeader h{};
    h.writer = txn->id();
    h.begin_ts = kMaxTimestamp;  // uncommitted
    h.read_ts = 0;
    h.prev = kInvalidRid;
    h.key = key;
    h.flags = kFlagAllocated;
    std::memcpy(ref.hdr, &h, sizeof(h));
    std::memcpy(ref.payload, tuple, opts_.tuple_size);
    ref.MarkDirty();
  }
  const Status st = index_->Insert(key, rid, ctx);
  if (!st.ok()) {
    // The slot was written but never published: safe to re-run after a
    // parked index traversal resumes (the re-run gets a fresh slot).
    DeferFree(rid);
    if (st.IsBusy() || st.IsWouldBlock()) return st;
    // The key exists in the index — but it may be a committed tombstone,
    // in which case the insert proceeds as a successor version.
    return WriteInternal(txn, key, tuple, /*allow_tombstone_head=*/true);
  }
  // Join the write set before the append, so an Abort after a failed
  // append rolls the published version back.
  txn->write_set.push_back(Transaction::WriteOp{
      Transaction::WriteOp::Kind::kInsert, opts_.table_id, key, rid,
      kInvalidRid});
  return LogWrite(txn, LogRecordType::kInsert, key, nullptr,
                  static_cast<const std::byte*>(tuple));
}

Status Table::Read(Transaction* txn, uint64_t key, void* out) {
  // Fully WouldBlock-safe: the only side effect is the read_ts bump, which
  // is an idempotent monotonic max — a resumed re-run repeats it harmlessly.
  FetchContext* ctx = txn->fetch_ctx;
  uint64_t head = 0;
  Status st = index_->Lookup(key, &head, ctx);
  if (!st.ok()) return st;

  rid_t rid = head;
  while (rid != kInvalidRid) {
    SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref,
                              PinSlot(rid, AccessIntent::kRead, ctx));
    const uint64_t writer = AtomicField(ref.hdr->writer).load(
        std::memory_order_acquire);
    const uint64_t begin = AtomicField(ref.hdr->begin_ts).load(
        std::memory_order_acquire);
    const bool own = writer == txn->id() && begin == kMaxTimestamp;
    if (!own && writer != 0 && writer != txn->id() && writer < txn->ts()) {
      // An older transaction has a write in flight on this version (either
      // an uncommitted successor, or a lock on the committed head). If it
      // commits, its timestamp precedes ours and we would have read a
      // stale value — the classic MVTO unsafe read. No-wait policy: abort
      // instead of blocking (Wu et al. [39]).
      return Status::Aborted("older write in flight");
    }
    const bool committed_visible =
        begin != kMaxTimestamp && begin <= txn->ts();
    if (own || committed_visible) {
      if (!own) {
        // MVTO bookkeeping: advance read_ts to our timestamp. This dirties
        // the page — the metadata writes Section 6.4 mentions.
        uint64_t cur =
            AtomicField(ref.hdr->read_ts).load(std::memory_order_relaxed);
        bool bumped = false;
        while (cur < txn->ts()) {
          if (AtomicField(ref.hdr->read_ts)
                  .compare_exchange_weak(cur, txn->ts(),
                                         std::memory_order_acq_rel)) {
            bumped = true;
            break;
          }
        }
        if (bumped) {
          ref.guard.MarkDirty(ref.offset + offsetof(VersionHeader, read_ts),
                              sizeof(ref.hdr->read_ts));
        }
      }
      if (ref.hdr->flags & kFlagTombstone) {
        // The key was deleted as of this snapshot. (read_ts was still
        // advanced above so older writers correctly abort.)
        return Status::NotFound("deleted");
      }
      std::memcpy(out, ref.payload, opts_.tuple_size);
      return Status::OK();
    }
    rid = ref.hdr->prev;
  }
  return Status::NotFound("no visible version");
}

Status Table::Update(Transaction* txn, uint64_t key, const void* tuple) {
  SPITFIRE_DCHECK(tuple != nullptr);
  return WriteInternal(txn, key, tuple, /*allow_tombstone_head=*/false);
}

Status Table::Delete(Transaction* txn, uint64_t key) {
  return WriteInternal(txn, key, /*tuple=*/nullptr,
                       /*allow_tombstone_head=*/false);
}

// Shared write path for Update (tuple != nullptr), Delete (tuple ==
// nullptr: installs a tombstone), and insert-over-tombstone
// (allow_tombstone_head = true).
Status Table::WriteInternal(Transaction* txn, uint64_t key, const void* tuple,
                            bool allow_tombstone_head) {
  const bool tombstone = tuple == nullptr && !allow_tombstone_head;
  // The context covers only the stretch BEFORE the head's writer CAS: up to
  // there the operation has no effects, so a parked miss can unwind and the
  // re-run is a clean restart. Past the CAS everything blocks — unwinding
  // with the write lock held would leave it stuck until abort.
  FetchContext* ctx = txn->fetch_ctx;
  uint64_t head = 0;
  SPITFIRE_RETURN_NOT_OK(index_->Lookup(key, &head, ctx));

  SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref,
                            PinSlot(head, AccessIntent::kWrite, ctx));
  const uint64_t writer =
      AtomicField(ref.hdr->writer).load(std::memory_order_acquire);
  const uint64_t begin =
      AtomicField(ref.hdr->begin_ts).load(std::memory_order_acquire);

  const LogRecordType type =
      tuple != nullptr ? LogRecordType::kUpdate : LogRecordType::kDelete;
  const auto* after = static_cast<const std::byte*>(tuple);
  if (writer == txn->id() && begin == kMaxTimestamp) {
    // Second write by the same transaction: mutate its own uncommitted
    // version in place (already in the write set), logging it first while
    // the payload still holds the before-image.
    SPITFIRE_RETURN_NOT_OK(LogWrite(txn, type, key, ref.payload, after));
    if (tuple != nullptr) {
      std::memcpy(ref.payload, tuple, opts_.tuple_size);
      ref.hdr->flags &= ~kFlagTombstone;
    } else {
      ref.hdr->flags |= kFlagTombstone;
    }
    ref.MarkDirty();
    return Status::OK();
  }
  if (writer != 0) {
    return Status::Aborted("write-write conflict");
  }
  if (begin == kMaxTimestamp || begin > txn->ts()) {
    return Status::Aborted("newer version exists");
  }
  const bool head_is_tombstone = (ref.hdr->flags & kFlagTombstone) != 0;
  if (head_is_tombstone && !allow_tombstone_head) {
    return Status::NotFound("key deleted");
  }
  if (!head_is_tombstone && allow_tombstone_head) {
    // Insert-over-tombstone raced with a normal re-insert: duplicate.
    return Status::InvalidArgument("duplicate key");
  }
  if (AtomicField(ref.hdr->read_ts).load(std::memory_order_acquire) >
      txn->ts()) {
    return Status::Aborted("version read by younger transaction");
  }
  uint64_t expected = 0;
  if (!AtomicField(ref.hdr->writer)
           .compare_exchange_strong(expected, txn->id(),
                                    std::memory_order_acq_rel)) {
    return Status::Aborted("lost write race");
  }
  // Re-validate the head: a concurrent committer may have replaced it
  // between our index lookup and the lock.
  {
    uint64_t cur_head = 0;
    const Status hst = index_->Lookup(key, &cur_head);
    if (!hst.ok() || cur_head != head) {
      AtomicField(ref.hdr->writer).store(0, std::memory_order_release);
      return Status::Aborted("head moved");
    }
  }
  ref.MarkDirty();

  // Install the uncommitted successor version.
  auto rid_r = AllocateSlot();
  if (!rid_r.ok()) {
    AtomicField(ref.hdr->writer).store(0, std::memory_order_release);
    return rid_r.status();
  }
  const rid_t new_rid = rid_r.value();
  {
    auto nref_r = PinSlot(new_rid, AccessIntent::kWrite);
    if (!nref_r.ok()) {
      AtomicField(ref.hdr->writer).store(0, std::memory_order_release);
      DeferFree(new_rid);
      return nref_r.status();
    }
    SlotRef nref = nref_r.MoveValue();
    VersionHeader h{};
    h.writer = txn->id();
    h.begin_ts = kMaxTimestamp;
    h.read_ts = 0;
    h.prev = head;
    h.key = key;
    h.flags = kFlagAllocated | (tombstone ? kFlagTombstone : 0);
    std::memcpy(nref.hdr, &h, sizeof(h));
    if (tuple != nullptr) {
      std::memcpy(nref.payload, tuple, opts_.tuple_size);
    } else {
      std::memset(nref.payload, 0, opts_.tuple_size);
    }
    nref.MarkDirty();
  }
  const Status ist = index_->Upsert(key, new_rid);
  if (!ist.ok()) {
    AtomicField(ref.hdr->writer).store(0, std::memory_order_release);
    DeferFree(new_rid);
    return ist;
  }
  // Join the write set before the append, so an Abort after a failed
  // append rolls the published version back. The write lock keeps the old
  // head's payload stable: it is the before-image.
  txn->write_set.push_back(Transaction::WriteOp{
      tuple != nullptr ? Transaction::WriteOp::Kind::kUpdate
                       : Transaction::WriteOp::Kind::kDelete,
      opts_.table_id, key, new_rid, head});
  return LogWrite(txn, type, key, ref.payload, after);
}

Status Table::Scan(Transaction* txn, uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, const void*)>& fn) {
  // Collect matching keys first (the index scan must not re-enter the
  // buffer manager deeply while we hold its callback), then read each
  // version with full MVTO visibility.
  // With a fetch context, a parked miss (in the index scan or in any Read
  // below) surfaces WouldBlock and the resumed re-run starts over — fn may
  // re-observe entries it already consumed, so interleaved callers must
  // aggregate idempotently (recompute, don't accumulate across attempts).
  std::vector<uint64_t> keys;
  SPITFIRE_RETURN_NOT_OK(index_->Scan(
      lo, hi,
      [&](uint64_t k, uint64_t) {
        keys.push_back(k);
        return true;
      },
      txn->fetch_ctx));
  std::vector<std::byte> buf(opts_.tuple_size);
  for (uint64_t k : keys) {
    const Status st = Read(txn, k, buf.data());
    if (st.IsNotFound()) continue;  // not visible to this txn
    SPITFIRE_RETURN_NOT_OK(st);
    if (!fn(k, buf.data())) break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

void Table::FinalizeCommit(Transaction* txn, const Transaction::WriteOp& op) {
  auto ref_r = PinSlot(op.new_rid, AccessIntent::kWrite);
  if (!ref_r.ok()) return;
  SlotRef ref = ref_r.MoveValue();
  AtomicField(ref.hdr->read_ts).store(txn->ts(), std::memory_order_relaxed);
  AtomicField(ref.hdr->begin_ts).store(txn->ts(), std::memory_order_release);
  ref.MarkDirty();
  if (op.kind != Transaction::WriteOp::Kind::kInsert) {
    auto old_r = PinSlot(op.old_rid, AccessIntent::kWrite);
    if (old_r.ok()) {
      SlotRef old = old_r.MoveValue();
      AtomicField(old.hdr->writer).store(0, std::memory_order_release);
      old.MarkDirty();
    }
    TruncateChain(op.new_rid);
  }
  // Release the head's write claim only AFTER truncating. While it is
  // held no successor version can be installed, so at most one
  // TruncateChain walks a given key's chain at a time. Two concurrent
  // walks double-DeferFree the same garbage versions; a slot recycled
  // while a chain still references it turns the prev links into a cycle.
  AtomicField(ref.hdr->writer).store(0, std::memory_order_release);
}

void Table::RollbackAbort(Transaction* txn, const Transaction::WriteOp& op) {
  if (op.kind == Transaction::WriteOp::Kind::kInsert) {
    (void)index_->Remove(op.key);
    auto ref_r = PinSlot(op.new_rid, AccessIntent::kWrite);
    if (ref_r.ok()) {
      SlotRef ref = ref_r.MoveValue();
      ref.hdr->flags = 0;
      AtomicField(ref.hdr->writer).store(0, std::memory_order_release);
      ref.MarkDirty();
    }
    DeferFree(op.new_rid);
    return;
  }
  // Update: restore the old head and release its lock.
  (void)index_->Upsert(op.key, op.old_rid);
  auto ref_r = PinSlot(op.new_rid, AccessIntent::kWrite);
  if (ref_r.ok()) {
    SlotRef ref = ref_r.MoveValue();
    ref.hdr->flags = 0;
    ref.MarkDirty();
  }
  auto old_r = PinSlot(op.old_rid, AccessIntent::kWrite);
  if (old_r.ok()) {
    SlotRef old = old_r.MoveValue();
    AtomicField(old.hdr->writer).store(0, std::memory_order_release);
    old.MarkDirty();
  }
  DeferFree(op.new_rid);
}

void Table::TruncateChain(rid_t head) {
  const timestamp_t watermark = tm_->MinActiveTs();
  // Find the newest version whose begin_ts <= watermark: every active and
  // future transaction sees it or something newer, so older versions are
  // garbage.
  rid_t rid = head;
  rid_t survivor = kInvalidRid;
  int depth = 0;
  while (rid != kInvalidRid && depth++ < 64) {
    auto ref_r = PinSlot(rid, AccessIntent::kRead);
    if (!ref_r.ok()) return;
    SlotRef ref = ref_r.MoveValue();
    const uint64_t begin =
        AtomicField(ref.hdr->begin_ts).load(std::memory_order_acquire);
    if (begin != kMaxTimestamp && begin <= watermark) {
      survivor = rid;
      break;
    }
    rid = ref.hdr->prev;
  }
  if (survivor == kInvalidRid) return;
  auto sref_r = PinSlot(survivor, AccessIntent::kWrite);
  if (!sref_r.ok()) return;
  SlotRef sref = sref_r.MoveValue();
  rid_t garbage = sref.hdr->prev;
  if (garbage == kInvalidRid) return;
  sref.hdr->prev = kInvalidRid;
  sref.MarkDirty();
  // A well-formed garbage list is at most as long as the version chain.
  // Bound the walk defensively: a cycle (chain corruption) must degrade
  // into a bounded slot leak, not an unbounded free-list explosion.
  int freed = 0;
  while (garbage != kInvalidRid) {
    if (++freed > 4096) {
      SPITFIRE_DCHECK(false && "version chain cycle detected");
      return;
    }
    auto gref_r = PinSlot(garbage, AccessIntent::kWrite);
    if (!gref_r.ok()) return;
    SlotRef gref = gref_r.MoveValue();
    const rid_t next = gref.hdr->prev;
    gref.hdr->flags = 0;
    gref.MarkDirty();
    DeferFree(garbage);
    garbage = next;
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void Table::AdoptPage(page_id_t pid) {
  std::lock_guard<std::mutex> g(alloc_mu_);
  pages_.push_back(pid);
  bump_slot_ = static_cast<uint32_t>(slots_per_page_);  // force fresh page
}

Status Table::RebuildFromHeap(timestamp_t* max_ts) {
  std::vector<page_id_t> pages;
  {
    std::lock_guard<std::mutex> g(alloc_mu_);
    pages = pages_;
    free_list_.clear();
  }
  // newest committed version per key
  std::map<uint64_t, std::pair<timestamp_t, rid_t>> heads;
  // every surviving committed version: rid -> (key, begin_ts)
  std::map<rid_t, std::pair<uint64_t, timestamp_t>> live;
  std::vector<rid_t> holes;
  for (page_id_t pid : pages) {
    for (uint32_t slot = 0; slot < slots_per_page_; ++slot) {
      const rid_t rid = MakeRid(pid, slot);
      SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref,
                                PinSlot(rid, AccessIntent::kWrite));
      VersionHeader* h = ref.hdr;
      if ((h->flags & kFlagAllocated) == 0) {
        holes.push_back(rid);
        continue;
      }
      if (h->begin_ts == kMaxTimestamp) {
        // Uncommitted at crash time: scrub.
        h->flags = 0;
        h->writer = 0;
        ref.MarkDirty();
        holes.push_back(rid);
        continue;
      }
      h->writer = 0;  // stale lock from a crashed transaction
      ref.MarkDirty();
      if (max_ts != nullptr && h->begin_ts > *max_ts) *max_ts = h->begin_ts;
      live[rid] = {h->key, h->begin_ts};
      auto it = heads.find(h->key);
      if (it == heads.end() || it->second.first < h->begin_ts) {
        heads[h->key] = {h->begin_ts, rid};
      }
    }
  }

  // Sever chain links whose target no longer exists or cannot be this
  // version's predecessor: the scrub above (and page quarantine in the
  // recovery scan) removes slots that surviving versions may still point
  // at, and a dangling prev would send readers into a freed — soon
  // reused — slot.
  for (const auto& [rid, kv] : live) {
    SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(rid, AccessIntent::kWrite));
    const rid_t prev = ref.hdr->prev;
    if (prev == kInvalidRid) continue;
    auto it = live.find(prev);
    if (it == live.end() || it->second.first != kv.first ||
        it->second.second > kv.second) {
      ref.hdr->prev = kInvalidRid;
      ref.MarkDirty();
    }
  }

  // Scrub committed versions no head reaches (tails orphaned by the
  // severing above): nothing can ever read them, and leaving them
  // allocated leaks their slots.
  std::set<rid_t> reachable;
  for (const auto& [key, entry] : heads) {
    rid_t cur = entry.second;
    while (cur != kInvalidRid && reachable.insert(cur).second) {
      SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(cur, AccessIntent::kRead));
      cur = ref.hdr->prev;
    }
  }
  for (const auto& [rid, kv] : live) {
    if (reachable.count(rid) != 0) continue;
    SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(rid, AccessIntent::kWrite));
    ref.hdr->flags = 0;
    ref.hdr->writer = 0;
    ref.MarkDirty();
    holes.push_back(rid);
  }

  for (const auto& [key, entry] : heads) {
    SPITFIRE_RETURN_NOT_OK(index_->Upsert(key, entry.second));
  }
  {
    std::lock_guard<std::mutex> g(alloc_mu_);
    for (rid_t rid : holes) free_list_.push_back({rid, 0});
  }
  return Status::OK();
}

Status Table::ValidateHeap(std::string* why) {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return Status::Corruption(msg);
  };
  std::vector<page_id_t> pages;
  {
    std::lock_guard<std::mutex> g(alloc_mu_);
    pages = pages_;
  }
  std::map<rid_t, std::pair<uint64_t, timestamp_t>> live;
  for (page_id_t pid : pages) {
    for (uint32_t slot = 0; slot < slots_per_page_; ++slot) {
      const rid_t rid = MakeRid(pid, slot);
      SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(rid, AccessIntent::kRead));
      const VersionHeader* h = ref.hdr;
      if ((h->flags & kFlagAllocated) == 0) continue;
      if (h->begin_ts == kMaxTimestamp) {
        return fail("uncommitted version survived recovery");
      }
      if (h->writer != 0) {
        return fail("version still write-locked on a quiescent table");
      }
      live[rid] = {h->key, h->begin_ts};
    }
  }
  std::map<uint64_t, std::pair<timestamp_t, rid_t>> heads;
  for (const auto& [rid, kv] : live) {
    auto it = heads.find(kv.first);
    if (it == heads.end() || it->second.first < kv.second) {
      heads[kv.first] = {kv.second, rid};
    }
  }
  for (const auto& [key, entry] : heads) {
    // Chain walk: every hop must land on an allocated slot of the same
    // key with a begin_ts no newer than its successor's.
    rid_t cur = entry.second;
    timestamp_t succ_ts = kMaxTimestamp;
    size_t hops = 0;
    while (cur != kInvalidRid) {
      if (++hops > live.size() + 1) return fail("version chain cycle");
      auto it = live.find(cur);
      if (it == live.end()) return fail("chain links to a missing slot");
      if (it->second.first != key) return fail("chain crosses keys");
      if (it->second.second > succ_ts) {
        return fail("chain not ordered newest-first");
      }
      succ_ts = it->second.second;
      SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(cur, AccessIntent::kRead));
      cur = ref.hdr->prev;
    }
    uint64_t idx_head = 0;
    const Status st = index_->Lookup(key, &idx_head);
    if (!st.ok()) return fail("key present in heap but missing from index");
    if (idx_head != entry.second) {
      return fail("index head is not the newest committed version");
    }
  }
  return Status::OK();
}

Result<timestamp_t> Table::RecoveryHeadTs(uint64_t key) {
  uint64_t head = 0;
  const Status st = index_->Lookup(key, &head);
  if (st.IsNotFound()) return timestamp_t{0};
  SPITFIRE_RETURN_NOT_OK(st);
  SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(head, AccessIntent::kRead));
  return timestamp_t{ref.hdr->begin_ts};
}

Status Table::RecoveryApply(const LogRecord& rec) {
  const timestamp_t ts = rec.txn_id;
  const bool tombstone = rec.type == LogRecordType::kDelete;
  const size_t n = opts_.tuple_size;
  if (!tombstone && rec.offset + rec.after.size() > n) {
    return Status::Corruption("log record range exceeds the tuple");
  }
  std::vector<std::byte> payload(n);  // a new tombstone's payload is zeroed
  uint64_t head = 0;
  const Status st = index_->Lookup(rec.key, &head);
  if (st.ok()) {
    SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(head, AccessIntent::kWrite));
    if (ref.hdr->begin_ts > ts) return Status::OK();  // already superseded
    if (ref.hdr->begin_ts == ts) {
      // The record's own transaction installed this version: patch it in
      // place, as the live path did. Re-applying is idempotent.
      if (tombstone) {
        ref.hdr->flags |= kFlagTombstone;
      } else {
        std::copy(rec.after.begin(), rec.after.end(),
                  ref.payload + rec.offset);
        ref.hdr->flags &= ~kFlagTombstone;
      }
      ref.MarkDirty();
      return Status::OK();
    }
    if (!tombstone) std::memcpy(payload.data(), ref.payload, n);
  } else if (!st.IsNotFound()) {
    return st;
  } else if (rec.type == LogRecordType::kUpdate && rec.after.size() < n) {
    return Status::Corruption("update of a key with no base version");
  }
  if (!tombstone) {
    std::copy(rec.after.begin(), rec.after.end(),
              payload.begin() + rec.offset);
  }
  SPITFIRE_ASSIGN_OR_RETURN(const rid_t rid, AllocateSlot());
  {
    SPITFIRE_ASSIGN_OR_RETURN(SlotRef ref, PinSlot(rid, AccessIntent::kWrite));
    VersionHeader h{};
    h.writer = 0;
    h.begin_ts = ts;
    h.read_ts = ts;
    h.prev = st.ok() ? head : kInvalidRid;
    h.key = rec.key;
    h.flags = kFlagAllocated | (tombstone ? kFlagTombstone : 0);
    std::memcpy(ref.hdr, &h, sizeof(h));
    std::memcpy(ref.payload, payload.data(), n);
    ref.MarkDirty();
  }
  return index_->Upsert(rec.key, rid);
}

}  // namespace spitfire
