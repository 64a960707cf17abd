#include "index/btree.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

namespace spitfire {

namespace {

// Node layout inside the 16 KB page payload.
struct NodeHeader {
  uint16_t is_leaf;
  uint16_t level;  // 0 = leaf
  uint32_t count;
  page_id_t next_leaf;  // leaves only; kInvalidPageId terminates the chain
};
static_assert(sizeof(NodeHeader) == 16);

constexpr size_t kEntryArea = kPagePayloadSize - sizeof(NodeHeader);
// Leaf: key/value pairs. Inner: n keys + (n+1) children.
constexpr uint32_t kLeafCapacity = kEntryArea / (2 * sizeof(uint64_t));
constexpr uint32_t kInnerCapacity = (kEntryArea - sizeof(page_id_t)) /
                                    (sizeof(uint64_t) + sizeof(page_id_t));
// Where a leaf's key and value arrays start in its page.
constexpr size_t kLeafKeysOffset = kPageHeaderSize + sizeof(NodeHeader);
constexpr size_t kLeafValuesOffset =
    kLeafKeysOffset + kLeafCapacity * sizeof(uint64_t);

// Restarts before an operation gives up with Busy. With a yield every 64
// restarts, only a livelock reaches it.
constexpr int kMaxRestarts = 1'000'000;

class NodeView {
 public:
  explicit NodeView(std::byte* page) : p_(page + kPageHeaderSize) {}

  NodeHeader* hdr() const { return reinterpret_cast<NodeHeader*>(p_); }
  uint64_t* keys() const {
    return reinterpret_cast<uint64_t*>(p_ + sizeof(NodeHeader));
  }
  // Leaf values, after the key array.
  uint64_t* values() const { return keys() + kLeafCapacity; }
  // Inner children, after the key array.
  page_id_t* children() const {
    return reinterpret_cast<page_id_t*>(keys() + kInnerCapacity);
  }

  bool IsLeaf() const { return hdr()->is_leaf != 0; }
  bool IsFull() const {
    return hdr()->count >= (IsLeaf() ? kLeafCapacity : kInnerCapacity);
  }
  // Counts clamped to the capacity of the kind the caller reads the node
  // as: an optimistic reader may observe a torn node (the root may even
  // turn from leaf to inner under it) and must never index out of bounds;
  // validation rejects what it read.
  uint32_t LeafCount() const { return std::min(hdr()->count, kLeafCapacity); }
  uint32_t InnerCount() const {
    return std::min(hdr()->count, kInnerCapacity);
  }

  void InitLeaf() const { Init(/*is_leaf=*/1, /*level=*/0); }
  void InitInner(uint16_t level) const { Init(/*is_leaf=*/0, level); }

  // Routing: first child whose key range can contain `key`. Children obey
  // keys[i-1] <= k < keys[i].
  uint32_t ChildIndex(uint64_t key) const {
    const uint64_t* k = keys();
    return static_cast<uint32_t>(std::upper_bound(k, k + InnerCount(), key) -
                                 k);
  }

  // Position of `key` in a leaf, or position where it would be inserted.
  uint32_t LeafLowerBound(uint64_t key) const {
    const uint64_t* k = keys();
    return static_cast<uint32_t>(std::lower_bound(k, k + LeafCount(), key) -
                                 k);
  }

  // Inserts (key, value) at `pos` of a leaf with room for it.
  void LeafInsertAt(uint32_t pos, uint64_t key, uint64_t value) const {
    const uint32_t n = hdr()->count;
    std::memmove(keys() + pos + 1, keys() + pos, (n - pos) * sizeof(uint64_t));
    std::memmove(values() + pos + 1, values() + pos,
                 (n - pos) * sizeof(uint64_t));
    keys()[pos] = key;
    values()[pos] = value;
    hdr()->count = n + 1;
  }

  // Inserts separator `sep` and the child right of it into an inner node
  // with room for them.
  void InnerInsert(uint64_t sep, page_id_t right) const {
    const uint32_t n = hdr()->count;
    const uint32_t idx = ChildIndex(sep);
    std::memmove(keys() + idx + 1, keys() + idx, (n - idx) * sizeof(uint64_t));
    std::memmove(children() + idx + 2, children() + idx + 1,
                 (n - idx) * sizeof(page_id_t));
    keys()[idx] = sep;
    children()[idx + 1] = right;
    hdr()->count = n + 1;
  }

  // Where a full leaf splits to take the new `key`: the number of entries
  // that stay left. Ascending inserts (a sequential load, or TPC-C's
  // orders and order lines, which append at the end of each district's
  // key range) never come back to the left half of a middle split, which
  // would stay half empty for good. So when `key` extends an ascending run
  // the split goes next to it instead:
  //  - `key` is the largest key: all but the last entry stay, and `key`
  //    goes right;
  //  - the gap from `key` to its right neighbour could hold a leaf's worth
  //    of keys spaced as `key` is from its left neighbour: the entries
  //    before `key` stay and `key` joins them, so the run goes on filling
  //    the left node.
  // Any other insert splits in the middle. Random inserts pass for a run
  // about twice per thousand splits.
  uint32_t LeafSplitPoint(uint64_t key) const {
    const uint32_t n = hdr()->count;
    const uint32_t pos = LeafLowerBound(key);
    if (pos == 0) return n / 2;
    if (pos == n) return n - 1;
    const uint64_t step = key - keys()[pos - 1];
    return (keys()[pos] - key) / kLeafCapacity >= step ? pos : n / 2;
  }

  // Moves the upper part of this full node into `right`, the fresh page
  // `right_pid`, and returns the separator the parent gets for it. `key`
  // is the key the split makes room for; it picks a leaf's split point.
  uint64_t SplitInto(NodeView right, page_id_t right_pid, uint64_t key) const {
    const uint32_t n = hdr()->count;
    if (IsLeaf()) {
      const uint32_t at = LeafSplitPoint(key);
      right.InitLeaf();
      const uint32_t move = n - at;
      std::memcpy(right.keys(), keys() + at, move * sizeof(uint64_t));
      std::memcpy(right.values(), values() + at, move * sizeof(uint64_t));
      right.hdr()->count = move;
      right.hdr()->next_leaf = hdr()->next_leaf;
      hdr()->next_leaf = right_pid;
      hdr()->count = at;
      return right.keys()[0];
    }
    const uint32_t mid = n / 2;
    right.InitInner(hdr()->level);
    const uint32_t move = n - mid - 1;
    std::memcpy(right.keys(), keys() + mid + 1, move * sizeof(uint64_t));
    std::memcpy(right.children(), children() + mid + 1,
                (move + 1) * sizeof(page_id_t));
    right.hdr()->count = move;
    hdr()->count = mid;
    return keys()[mid];
  }

  void CopyFrom(NodeView other) const {
    std::memcpy(p_, other.p_, kPagePayloadSize);
  }

 private:
  void Init(uint16_t is_leaf, uint16_t level) const {
    const NodeHeader h{is_leaf, level, 0, kInvalidPageId};
    std::memcpy(p_, &h, sizeof(h));
  }

  std::byte* p_;
};

// The one restart loop: runs `attempt` again while it reports Busy
// (interference from a concurrent writer, or a transiently busy buffer).
// WouldBlock and every other status end the operation at once.
template <typename Attempt>
Status RestartOnBusy(Attempt&& attempt) {
  for (int restart = 0; restart < kMaxRestarts; ++restart) {
    if ((restart & 63) == 63) std::this_thread::yield();
    Status st = attempt();
    if (!st.IsBusy()) return st;
  }
  return Status::Busy("btree restart budget exhausted");
}

// Marks what an in-place change of a leaf wrote: its node header and its
// entries [from, to).
void MarkLeafEntriesDirty(PageGuard& leaf, uint32_t from, uint32_t to) {
  const size_t n = (to - from) * sizeof(uint64_t);
  leaf.MarkDirty(kPageHeaderSize, sizeof(NodeHeader));
  leaf.MarkDirty(kLeafKeysOffset + from * sizeof(uint64_t), n);
  leaf.MarkDirty(kLeafValuesOffset + from * sizeof(uint64_t), n);
}

// Puts (key, value) into the write-latched leaf `data` that `guard` pins,
// marks what it wrote, and releases the latch. Returns nullopt, the latch
// still held, when the key is new and the leaf is full.
std::optional<Status> PutInLeaf(PageGuard& guard, std::byte* data,
                                uint64_t key, uint64_t value, bool upsert) {
  OptimisticLatch& latch = guard.descriptor()->version_latch;
  const NodeView leaf(data);
  const uint32_t pos = leaf.LeafLowerBound(key);
  const uint32_t n = leaf.hdr()->count;
  if (pos < n && leaf.keys()[pos] == key) {
    if (!upsert) {
      latch.WriteUnlockNoBump();
      return Status::InvalidArgument("duplicate key");
    }
    leaf.values()[pos] = value;
    guard.MarkDirty(kLeafValuesOffset + pos * sizeof(uint64_t),
                    sizeof(uint64_t));
  } else if (leaf.IsFull()) {
    return std::nullopt;
  } else {
    leaf.LeafInsertAt(pos, key, value);
    MarkLeafEntriesDirty(guard, pos, n + 1);
  }
  latch.WriteUnlock();
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<BTree*> BTree::Create(BufferManager* bm) {
  auto root_r = bm->NewPage(kNodePageType);
  if (!root_r.ok()) return root_r.status();
  PageGuard root = root_r.MoveValue();
  std::byte* rp = root.RawData(/*for_write=*/true);
  if (rp == nullptr) return Status::OutOfMemory("root frame");
  NodeView(rp).InitLeaf();
  return new BTree(bm, root.pid());
}

Result<BTree*> BTree::Open(BufferManager* bm, page_id_t root_pid) {
  auto root_r = bm->FetchPage(root_pid, AccessIntent::kRead);
  if (!root_r.ok()) return root_r.status();
  PageHeader hdr;
  SPITFIRE_RETURN_NOT_OK(root_r.value().ReadAt(0, sizeof(hdr), &hdr));
  if (hdr.page_type != kNodePageType) {
    return Status::Corruption("not a btree node");
  }
  return new BTree(bm, root_pid);
}

// ---------------------------------------------------------------------------
// The optimistic descent
// ---------------------------------------------------------------------------

Status BTree::Pin(page_id_t pid, AccessIntent intent, FetchContext* ctx,
                  Pinned* node) const {
  auto g_r = FetchPageVia(bm_, ctx, pid, intent);
  if (!g_r.ok()) return g_r.status();
  node->guard = g_r.MoveValue();
  node->version = node->guard.descriptor()->version_latch.ReadLockOrRestart();
  if (node->version == OptimisticLatch::kRetry) {
    return Status::Busy("node latched");
  }
  node->data = node->guard.RawData();
  return node->data == nullptr ? Status::Busy("node frame") : Status::OK();
}

Status BTree::Descend(uint64_t key, AccessIntent intent, FetchContext* ctx,
                      Pinned* leaf) const {
  SPITFIRE_RETURN_NOT_OK(Pin(root_pid_, intent, ctx, leaf));
  for (;;) {
    const NodeView node(leaf->data);
    if (node.IsLeaf()) break;
    const page_id_t child = node.children()[node.ChildIndex(key)];
    const OptimisticLatch& parent = leaf->guard.descriptor()->version_latch;
    // Validate before the fetch, so a torn read never reaches the buffer
    // manager as a page id, and after it, so the child is still the one
    // the parent routes to.
    if (!parent.Validate(leaf->version)) return Status::Busy("node changed");
    Pinned next;
    SPITFIRE_RETURN_NOT_OK(Pin(child, intent, ctx, &next));
    if (!parent.Validate(leaf->version)) return Status::Busy("node changed");
    *leaf = std::move(next);
  }
  if (intent == AccessIntent::kWrite) {
    if (!leaf->guard.descriptor()->version_latch.UpgradeToWriteLock(
            leaf->version)) {
      return Status::Busy("leaf changed");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Status BTree::Lookup(uint64_t key, uint64_t* value,
                     FetchContext* ctx) const {
  return RestartOnBusy([&]() -> Status {
    Pinned leaf;
    SPITFIRE_RETURN_NOT_OK(Descend(key, AccessIntent::kRead, ctx, &leaf));
    const NodeView node(leaf.data);
    const uint32_t pos = node.LeafLowerBound(key);
    const bool found = pos < node.LeafCount() && node.keys()[pos] == key;
    const uint64_t v = found ? node.values()[pos] : 0;
    if (!leaf.guard.descriptor()->version_latch.Validate(leaf.version)) {
      return Status::Busy("leaf changed");
    }
    if (!found) return Status::NotFound("key");
    *value = v;
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(uint64_t key, uint64_t value, FetchContext* ctx) {
  return InsertImpl(key, value, /*upsert=*/false, ctx);
}

Status BTree::Upsert(uint64_t key, uint64_t value, FetchContext* ctx) {
  return InsertImpl(key, value, /*upsert=*/true, ctx);
}

Status BTree::InsertImpl(uint64_t key, uint64_t value, bool upsert,
                         FetchContext* ctx) {
  return RestartOnBusy([&]() -> Status {
    Pinned leaf;
    SPITFIRE_RETURN_NOT_OK(Descend(key, AccessIntent::kWrite, ctx, &leaf));
    if (std::optional<Status> st =
            PutInLeaf(leaf.guard, leaf.data, key, value, upsert)) {
      return *st;
    }
    leaf.guard.descriptor()->version_latch.WriteUnlockNoBump();
    leaf.guard.Release();
    return PessimisticInsert(key, value, upsert);
  });
}

// Write-latch coupling from the root; ancestors stay latched only while
// the child might split into them.
Status BTree::PessimisticInsert(uint64_t key, uint64_t value, bool upsert) {
  // The latched nodes a split from below can still reach, outermost
  // first. Versions are not sampled: the write latches exclude writers.
  std::vector<Pinned> path;
  // Releases the n outermost latches of nodes left unmodified.
  const auto unlatch = [&path](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      path[i].guard.descriptor()->version_latch.WriteUnlockNoBump();
    }
    path.erase(path.begin(), path.begin() + static_cast<ptrdiff_t>(n));
  };

  for (page_id_t pid = root_pid_;;) {
    auto g_r = bm_->FetchPage(pid, AccessIntent::kWrite);
    if (!g_r.ok()) {
      unlatch(path.size());
      return g_r.status();
    }
    Pinned& n = path.emplace_back();
    n.guard = g_r.MoveValue();
    n.guard.descriptor()->version_latch.WriteLock();
    n.data = n.guard.RawData(/*for_write=*/true);
    if (n.data == nullptr) {
      unlatch(path.size());
      return Status::Busy("node frame");
    }
    const NodeView node(n.data);
    // This node absorbs any split from below: its ancestors can go.
    if (!node.IsFull()) unlatch(path.size() - 1);
    if (node.IsLeaf()) break;
    pid = node.children()[node.ChildIndex(key)];
  }

  if (std::optional<Status> st = PutInLeaf(path.back().guard,
                                           path.back().data, key, value,
                                           upsert)) {
    path.pop_back();
    unlatch(path.size());
    return *st;
  }

  // The leaf is full, and so is every latched ancestor but possibly the
  // outermost. A full outermost node is the root, which splits in place
  // into two new pages. Every new page is allocated before any node
  // changes, so a failed allocation leaves no half-done split behind.
  const bool root_splits = NodeView(path.front().data).IsFull();
  SPITFIRE_DCHECK(!root_splits || path.front().guard.pid() == root_pid_);
  std::vector<PageGuard> fresh;
  const size_t num_fresh = root_splits ? path.size() + 1 : path.size() - 1;
  for (size_t i = 0; i < num_fresh; ++i) {
    auto p_r = bm_->NewPage(kNodePageType);
    if (!p_r.ok()) {
      unlatch(path.size());
      return p_r.status();
    }
    fresh.push_back(p_r.MoveValue());
  }
  size_t used = 0;

  // Split bottom-up. Each level takes one entry: the new key at the leaf,
  // and above it the separator and right sibling of the split below.
  uint64_t sep = key;
  page_id_t right_pid = kInvalidPageId;
  for (size_t i = path.size(); i-- > 0;) {
    const NodeView node(path[i].data);
    const auto put = [&](NodeView n) {
      if (n.IsLeaf()) {
        n.LeafInsertAt(n.LeafLowerBound(key), key, value);
      } else {
        n.InnerInsert(sep, right_pid);
      }
    };
    if (!node.IsFull()) {
      put(node);
    } else if (i == 0) {
      // The full outermost node is the root. Its entries move to a new
      // left page, which splits like any node, and the root becomes the
      // parent of both halves.
      PageGuard& lg = fresh[used++];
      PageGuard& rg = fresh[used++];
      const NodeView left(lg.RawData(/*for_write=*/true));
      const NodeView right(rg.RawData(/*for_write=*/true));
      left.CopyFrom(node);
      const uint64_t up = left.SplitInto(right, rg.pid(), sep);
      put(sep >= up ? right : left);
      node.InitInner(static_cast<uint16_t>(left.hdr()->level + 1));
      node.hdr()->count = 1;
      node.keys()[0] = up;
      node.children()[0] = lg.pid();
      node.children()[1] = rg.pid();
    } else {
      PageGuard& rg = fresh[used++];
      const NodeView right(rg.RawData(/*for_write=*/true));
      const uint64_t up = node.SplitInto(right, rg.pid(), sep);
      put(sep >= up ? right : node);
      sep = up;
      right_pid = rg.pid();
    }
    path[i].guard.descriptor()->version_latch.WriteUnlock();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Remove
// ---------------------------------------------------------------------------

Status BTree::Remove(uint64_t key, FetchContext* ctx) {
  return RestartOnBusy([&]() -> Status {
    Pinned leaf;
    SPITFIRE_RETURN_NOT_OK(Descend(key, AccessIntent::kWrite, ctx, &leaf));
    OptimisticLatch& latch = leaf.guard.descriptor()->version_latch;
    const NodeView node(leaf.data);
    const uint32_t n = node.hdr()->count;
    const uint32_t pos = node.LeafLowerBound(key);
    if (pos >= n || node.keys()[pos] != key) {
      latch.WriteUnlockNoBump();
      return Status::NotFound("key");
    }
    std::memmove(node.keys() + pos, node.keys() + pos + 1,
                 (n - pos - 1) * sizeof(uint64_t));
    std::memmove(node.values() + pos, node.values() + pos + 1,
                 (n - pos - 1) * sizeof(uint64_t));
    node.hdr()->count = n - 1;
    MarkLeafEntriesDirty(leaf.guard, pos, n - 1);
    latch.WriteUnlock();
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

Status BTree::Scan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, uint64_t)>& fn,
                   FetchContext* ctx) const {
  // Walk the leaf chain from lo's leaf, copying each leaf's entries under
  // optimistic validation before invoking the callback. `from` is the
  // first key not yet emitted; `pid` the next leaf, or kInvalidPageId to
  // descend to from's leaf. A restart re-reads the same leaf, or descends
  // again. Only the descent can meet the root, the one page whose kind
  // changes: no leaf links to it, so every `pid` is a leaf for good, and a
  // root that split under a descent fails the leaf's validation.
  uint64_t from = lo;
  page_id_t pid = kInvalidPageId;
  std::vector<std::pair<uint64_t, uint64_t>> batch;
  return RestartOnBusy([&]() -> Status {
    for (;;) {
      Pinned leaf;
      if (pid == kInvalidPageId) {
        SPITFIRE_RETURN_NOT_OK(Descend(from, AccessIntent::kRead, ctx, &leaf));
      } else {
        // Parking mid-chain is fine: the resumed Scan re-descends and
        // re-visits earlier entries; callers collect idempotently.
        SPITFIRE_RETURN_NOT_OK(Pin(pid, AccessIntent::kRead, ctx, &leaf));
      }
      const NodeView node(leaf.data);
      batch.clear();
      const uint32_t n = node.LeafCount();
      for (uint32_t i = node.LeafLowerBound(from); i < n; ++i) {
        const uint64_t k = node.keys()[i];
        if (k > hi) break;
        batch.emplace_back(k, node.values()[i]);
      }
      const page_id_t next = node.hdr()->next_leaf;
      // Stop once this leaf's key range passes hi; empty leaves (possible
      // after deletes) just continue the chain.
      const bool exhausted = n > 0 && node.keys()[n - 1] > hi;
      if (!leaf.guard.descriptor()->version_latch.Validate(leaf.version)) {
        return Status::Busy("leaf changed");
      }
      for (const auto& [k, v] : batch) {
        if (!fn(k, v)) return Status::OK();
      }
      if (!batch.empty()) {
        if (batch.back().first == UINT64_MAX) return Status::OK();
        from = batch.back().first + 1;
      }
      if (exhausted || next == kInvalidPageId) return Status::OK();
      pid = next;
    }
  });
}

Result<uint64_t> BTree::Count() const {
  uint64_t n = 0;
  SPITFIRE_RETURN_NOT_OK(Scan(0, UINT64_MAX, [&n](uint64_t, uint64_t) {
    ++n;
    return true;
  }));
  return n;
}

uint32_t BTree::height() const {
  uint32_t level = 0;
  const Status st = RestartOnBusy([&]() -> Status {
    Pinned root;
    SPITFIRE_RETURN_NOT_OK(Pin(root_pid_, AccessIntent::kRead, nullptr, &root));
    level = NodeView(root.data).hdr()->level;
    return root.guard.descriptor()->version_latch.Validate(root.version)
               ? Status::OK()
               : Status::Busy("root changed");
  });
  return st.ok() ? level + 1 : 0;
}

}  // namespace spitfire
