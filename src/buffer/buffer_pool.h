#ifndef SPITFIRE_BUFFER_BUFFER_POOL_H_
#define SPITFIRE_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <memory>
#include <vector>

#include "buffer/clock_replacer.h"
#include "buffer/page_descriptor.h"
#include "buffer/replacer.h"
#include "common/constants.h"
#include "container/mpmc_queue.h"
#include "storage/device.h"

namespace spitfire {

// A buffer pool of fixed 16 KB frames carved out of one device (the DRAM
// pool out of a DramDevice, the NVM pool out of an NvmDevice). Tracks the
// free-frame list, the CLOCK reference bits, and the frame → descriptor
// back-links that eviction follows.
//
// NVM pools additionally maintain a *persistent frame table* at the start
// of the device: one page id per frame, updated and persisted whenever a
// frame's owner changes. Recovery scans this table to rebuild the mapping
// table after a crash (Section 5.2, "Recovery").
struct BufferPoolConfig {
  Tier tier = Tier::kDram;
  Device* device = nullptr;
  size_t num_frames = 0;
  bool persistent_frame_table = false;
  // Replacement policy for this tier (Replacer::Create).
  ReplacerKind replacer = ReplacerKind::kClock;
  // Sharing one device between several pools (the sharded buffer manager
  // slices each tier device across its shards): `total_frames` is the
  // frame count of the WHOLE device — it fixes the frame-table size and
  // the data-region base so the on-device layout is independent of how
  // many pools share it — and `frame_base` is this pool's first frame
  // within that region. 0 total_frames → num_frames (sole owner).
  size_t total_frames = 0;
  size_t frame_base = 0;
};

class BufferPool {
 public:
  explicit BufferPool(const BufferPoolConfig& config);
  BufferPool(Tier tier, Device* device, size_t num_frames,
             bool persistent_frame_table);
  SPITFIRE_DISALLOW_COPY_AND_MOVE(BufferPool);

  Tier tier() const { return tier_; }
  size_t num_frames() const { return num_frames_; }
  Device* device() { return device_; }

  std::byte* FramePtr(frame_id_t f) {
    return device_->DirectPointer(FrameOffset(f));
  }
  uint64_t FrameOffset(frame_id_t f) const {
    return frames_base_ +
           static_cast<uint64_t>(frame_base_ + f) * kPageSize;
  }

  // Pops a frame from the free list. Returns false if none are free (the
  // caller must evict).
  bool TryAllocateFrame(frame_id_t* f) {
    if (!free_list_.TryPop(f)) return false;
    const bool was_free = in_free_list_[*f].exchange(false);
    SPITFIRE_CHECK(was_free);
    return true;
  }
  void FreeFrame(frame_id_t f) {
    SetOwner(f, nullptr, kInvalidPageId);
    const bool was_free = in_free_list_[f].exchange(true);
    SPITFIRE_CHECK(!was_free && "double free of buffer frame");
    // TryPush can fail transiently while a lapped consumer is mid-pop;
    // the pool never holds more frames than capacity, so spin.
    while (!free_list_.TryPush(f)) {
      __builtin_ia32_pause();
    }
  }

  // Registers/clears the descriptor owning a frame. For NVM pools this
  // also persists the frame-table entry.
  void SetOwner(frame_id_t f, SharedPageDescriptor* desc, page_id_t pid);
  SharedPageDescriptor* Owner(frame_id_t f) const {
    return owners_[f].load(std::memory_order_acquire);
  }

  Replacer& replacer() { return *replacer_; }

  // Replacer forwarders with a monomorphic fast path for the default
  // CLOCK policy. Virtual dispatch here costs more than it looks: the
  // pre-interface code inlined the whole sweep loop (and the try_evict
  // callback) into the eviction sites, and on the read-ahead install
  // pipeline that inlining is worth several percent end to end. A pool
  // running CLOCK calls the final class directly (everything in
  // clock_replacer.h inlines again); any other policy pays the virtual
  // call as before.
  void ReplacerRecordAccess(frame_id_t f) {
    if (clock_ != nullptr) {
      clock_->RecordAccess(f);
    } else {
      replacer_->RecordAccess(f);
    }
  }
  void ReplacerRecordInstall(frame_id_t f) {
    if (clock_ != nullptr) {
      clock_->RecordInstall(f);
    } else {
      replacer_->RecordInstall(f);
    }
  }
  template <typename TryEvict>
  frame_id_t ReplacerPickVictim(TryEvict&& try_evict, int max_rounds = 3) {
    if (clock_ != nullptr) {
      return clock_->ClockReplacer::PickVictim(
          TryEvictRef(try_evict), max_rounds);
    }
    return replacer_->PickVictim(TryEvictRef(try_evict), max_rounds);
  }

  // Space the frame region occupies on the device, including the frame
  // table if present.
  static uint64_t RequiredCapacity(size_t num_frames,
                                   bool persistent_frame_table);

  // Reads the persistent frame table entry (NVM pools only); used by
  // recovery. Returns kInvalidPageId for free frames.
  page_id_t PersistedOwner(frame_id_t f) const;

 private:
  uint64_t FrameTableEntryOffset(frame_id_t f) const {
    return static_cast<uint64_t>(frame_base_ + f) * sizeof(page_id_t);
  }

  const Tier tier_;
  Device* const device_;
  const size_t num_frames_;
  // Device-wide frame count and this pool's first frame within it (see
  // BufferPoolConfig); total_frames_ == num_frames_, frame_base_ == 0 for
  // a pool that owns its whole device.
  const size_t total_frames_;
  const size_t frame_base_;
  const bool persistent_frame_table_;
  uint64_t frames_base_ = 0;

  MpmcQueue<frame_id_t> free_list_;
  std::unique_ptr<Replacer> replacer_;
  // Non-null iff replacer_ is a ClockReplacer (set once at construction);
  // enables the devirtualized fast path above.
  ClockReplacer* clock_ = nullptr;
  std::vector<std::atomic<SharedPageDescriptor*>> owners_;
  // Guards against frame double-free bugs (one flag per frame).
  std::vector<std::atomic<bool>> in_free_list_;
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_BUFFER_POOL_H_
