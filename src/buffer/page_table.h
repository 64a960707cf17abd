#ifndef SPITFIRE_BUFFER_PAGE_TABLE_H_
#define SPITFIRE_BUFFER_PAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <utility>

#include "buffer/page_descriptor.h"
#include "common/constants.h"
#include "common/macros.h"

namespace spitfire {

// Pages are routed to shards in blocks of 2^kShardBlockBits consecutive
// page ids (ShardOfPage), and a page table allocates descriptors in the
// same blocks, so every block of a shard's table is one the shard owns.
inline constexpr uint32_t kShardBlockBits = 5;

// The mapping table of Figure 4: page id → shared page descriptor. Page
// ids are dense (one global allocator hands them out) and never freed, so
// instead of a hash map the table is a directory with one slot per
// routing block, covering [0, num_pages) — the SSD's page count, the same
// bound NewPage enforces. A slot holds a block of 2^kShardBlockBits
// inline descriptors, allocated on first touch and published by CAS, so
// untouched blocks (and every block routed to another shard) cost one
// null pointer. Lookup is one acquire load, takes no latch, and returns
// null for a pid past the end; descriptors never move or die before the
// table does, so a walk takes no latch either.
class PageTable {
 public:
  explicit PageTable(page_id_t num_pages)
      : num_pages_(num_pages),
        num_blocks_(BlockOf(num_pages + kBlockPages - 1)),
        dir_(new std::atomic<Block*>[num_blocks_]()) {}
  ~PageTable() {
    for (page_id_t b = 0; b < num_blocks_; ++b) {
      delete dir_[b].load(std::memory_order_relaxed);
    }
  }
  SPITFIRE_DISALLOW_COPY_AND_MOVE(PageTable);

  page_id_t num_pages() const { return num_pages_; }

  // The descriptor of `pid`, or null if its block was never touched or
  // pid >= num_pages(). Never allocates.
  SharedPageDescriptor* Find(page_id_t pid) const {
    if (pid >= num_pages_) return nullptr;
    Block* b = dir_[BlockOf(pid)].load(std::memory_order_acquire);
    return b == nullptr ? nullptr : &b->descs[pid & kBlockMask];
  }

  // The descriptor of `pid`, allocating its block on first touch; null
  // only when pid >= num_pages(). Racing first touches agree on one
  // block: the CAS loser frees its own.
  SharedPageDescriptor* GetOrCreate(page_id_t pid) {
    if (pid >= num_pages_) return nullptr;
    std::atomic<Block*>& slot = dir_[BlockOf(pid)];
    Block* b = slot.load(std::memory_order_acquire);
    if (SPITFIRE_UNLIKELY(b == nullptr)) {
      auto fresh = std::make_unique<Block>(pid & ~kBlockMask);
      if (slot.compare_exchange_strong(b, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        b = fresh.release();
      }
    }
    return &b->descs[pid & kBlockMask];
  }

  // Calls fn(SharedPageDescriptor*) for every descriptor of every
  // allocated block, in pid order. Blocks published during the walk may
  // or may not be visited.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (page_id_t b = 0; b < num_blocks_; ++b) {
      Block* blk = dir_[b].load(std::memory_order_acquire);
      if (blk == nullptr) continue;
      for (SharedPageDescriptor& d : blk->descs) fn(&d);
    }
  }

 private:
  static constexpr page_id_t kBlockPages = page_id_t{1} << kShardBlockBits;
  static constexpr page_id_t kBlockMask = kBlockPages - 1;

  struct Block {
    explicit Block(page_id_t first)
        : Block(first, std::make_index_sequence<kBlockPages>{}) {}
    template <size_t... I>
    Block(page_id_t first, std::index_sequence<I...>)
        : descs{SharedPageDescriptor(first + I)...} {}

    SharedPageDescriptor descs[kBlockPages];
  };

  static page_id_t BlockOf(page_id_t pid) { return pid >> kShardBlockBits; }

  const page_id_t num_pages_;
  const page_id_t num_blocks_;
  const std::unique_ptr<std::atomic<Block*>[]> dir_;
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_PAGE_TABLE_H_
