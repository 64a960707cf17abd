#include "buffer/buffer_pool.h"

#include <cstring>

namespace spitfire {

uint64_t BufferPool::RequiredCapacity(size_t num_frames,
                                      bool persistent_frame_table) {
  uint64_t table = 0;
  if (persistent_frame_table) {
    table = (num_frames * sizeof(page_id_t) + kPageSize - 1) / kPageSize *
            kPageSize;
  }
  return table + static_cast<uint64_t>(num_frames) * kPageSize;
}

BufferPool::BufferPool(Tier tier, Device* device, size_t num_frames,
                       bool persistent_frame_table)
    : BufferPool(BufferPoolConfig{tier, device, num_frames,
                                  persistent_frame_table,
                                  ReplacerKind::kClock}) {}

BufferPool::BufferPool(const BufferPoolConfig& config)
    : tier_(config.tier),
      device_(config.device),
      num_frames_(config.num_frames),
      total_frames_(config.total_frames ? config.total_frames
                                        : config.num_frames),
      frame_base_(config.frame_base),
      persistent_frame_table_(config.persistent_frame_table),
      free_list_(config.num_frames ? config.num_frames : 1),
      replacer_(Replacer::Create(config.replacer, config.num_frames)),
      owners_(config.num_frames ? config.num_frames : 1),
      in_free_list_(config.num_frames ? config.num_frames : 1) {
  if (replacer_->kind() == ReplacerKind::kClock) {
    clock_ = static_cast<ClockReplacer*>(replacer_.get());
  }
  const bool persistent_frame_table = persistent_frame_table_;
  SPITFIRE_CHECK(frame_base_ + num_frames_ <= total_frames_);
  SPITFIRE_CHECK(device_ != nullptr);
  // The device must hold the whole shared frame region, not just this
  // pool's slice: layout is computed from total_frames_.
  SPITFIRE_CHECK(device_->capacity() >=
                 RequiredCapacity(total_frames_, persistent_frame_table));
  if (persistent_frame_table_) {
    frames_base_ = (total_frames_ * sizeof(page_id_t) + kPageSize - 1) /
                   kPageSize * kPageSize;
  }
  for (size_t f = 0; f < num_frames_; ++f) {
    owners_[f].store(nullptr, std::memory_order_relaxed);
    in_free_list_[f].store(true, std::memory_order_relaxed);
    SPITFIRE_CHECK(free_list_.TryPush(static_cast<frame_id_t>(f)));
  }
}

void BufferPool::SetOwner(frame_id_t f, SharedPageDescriptor* desc,
                          page_id_t pid) {
  SPITFIRE_DCHECK(f < num_frames_);
  owners_[f].store(desc, std::memory_order_release);
  if (persistent_frame_table_) {
    std::byte* entry = device_->DirectPointer(FrameTableEntryOffset(f));
    SPITFIRE_CHECK(entry != nullptr);
    // Encode pid+1 so that a zero-initialized (fresh) device reads as
    // "free" for every frame.
    const page_id_t encoded = pid == kInvalidPageId ? 0 : pid + 1;
    std::memcpy(entry, &encoded, sizeof(encoded));
    // Frame table entries are tiny; persist models clwb+sfence.
    (void)device_->Persist(FrameTableEntryOffset(f), sizeof(encoded));
  }
}

page_id_t BufferPool::PersistedOwner(frame_id_t f) const {
  if (!persistent_frame_table_) return kInvalidPageId;
  const std::byte* entry =
      const_cast<Device*>(device_)->DirectPointer(FrameTableEntryOffset(f));
  if (entry == nullptr) return kInvalidPageId;
  page_id_t encoded;
  std::memcpy(&encoded, entry, sizeof(encoded));
  return encoded == 0 ? kInvalidPageId : encoded - 1;
}

}  // namespace spitfire
