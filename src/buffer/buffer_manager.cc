#include "buffer/buffer_manager.h"

#include <algorithm>
#include <thread>

#include "storage/dram_device.h"

namespace spitfire {

namespace {

// 0 → min(8, hardware_concurrency), clamped so every present tier keeps
// at least 64 frames per shard — tiny configurations (unit tests, the
// paper's frame-count sweeps) degenerate to one shard instead of
// splitting a 16-frame pool eight ways. Explicit values are honored.
size_t ResolveNumShards(const BufferManagerOptions& o) {
  size_t n = o.num_shards;
  if (n == 0) {
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    n = std::min<size_t>(8, hw);
    if (o.dram_frames > 0) {
      n = std::min(n, std::max<size_t>(1, o.dram_frames / 64));
    }
    if (o.nvm_frames > 0) {
      n = std::min(n, std::max<size_t>(1, o.nvm_frames / 64));
    }
  }
  SPITFIRE_CHECK(n >= 1);
  // Every shard of a present tier needs at least one frame.
  SPITFIRE_CHECK(o.dram_frames == 0 || o.dram_frames >= n);
  SPITFIRE_CHECK(o.nvm_frames == 0 || o.nvm_frames >= n);
  return n;
}

// Frame budgets split with remainder distribution: shard i of n gets
// total/n frames plus one of the first total%n leftovers.
size_t SliceSize(size_t total, size_t i, size_t n) {
  return total / n + (i < total % n ? 1 : 0);
}
size_t SliceBase(size_t total, size_t i, size_t n) {
  return i * (total / n) + std::min(i, total % n);
}

// Splits an explicitly configured capacity (admission queue, mini hosts)
// across shards without rounding any shard to zero;
// zero stays zero so each shard applies its own "default from my frame
// count" rule.
size_t SplitExplicit(size_t total, size_t i, size_t n) {
  if (total == 0) return 0;
  return std::max<size_t>(1, SliceSize(total, i, n));
}

}  // namespace

BufferManager::BufferManager(const BufferManagerOptions& options)
    : options_(options) {
  SPITFIRE_CHECK(options_.ssd != nullptr);
  ssd_ = options_.ssd;
  const size_t n = ResolveNumShards(options_);

  // Shared tier devices, sized for the WHOLE frame region. Shards slice
  // them via BufferPoolConfig::frame_base, so the on-device layout (and
  // a caller-supplied device's required capacity) is independent of n.
  if (options_.nvm_frames > 0) {
    if (options_.nvm != nullptr) {
      nvm_ = options_.nvm;
    } else {
      owned_nvm_ = std::make_unique<NvmDevice>(BufferPool::RequiredCapacity(
          options_.nvm_frames, /*persistent_frame_table=*/true));
      nvm_ = owned_nvm_.get();
    }
  }
  if (options_.dram_frames > 0) {
    if (options_.dram_backing != nullptr) {
      dram_backing_ = options_.dram_backing;
    } else {
      owned_dram_ = std::make_unique<DramDevice>(BufferPool::RequiredCapacity(
          options_.dram_frames, /*persistent_frame_table=*/false));
      dram_backing_ = owned_dram_.get();
    }
  }
  io_ = std::make_unique<IoScheduler>(ssd_, options_.io_scheduler);

  std::vector<BufferStats*> stat_parts;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BufferManagerOptions so = options_;
    so.num_shards = n;
    so.dram_frames = SliceSize(options_.dram_frames, i, n);
    so.nvm_frames = SliceSize(options_.nvm_frames, i, n);
    so.admission_queue_capacity =
        SplitExplicit(options_.admission_queue_capacity, i, n);
    so.mini_host_frames = SplitExplicit(options_.mini_host_frames, i, n);

    BufferShardContext ctx;
    ctx.shard_index = static_cast<uint32_t>(i);
    ctx.num_shards = static_cast<uint32_t>(n);
    ctx.dram_frame_base = SliceBase(options_.dram_frames, i, n);
    ctx.dram_total_frames = options_.dram_frames;
    ctx.nvm_frame_base = SliceBase(options_.nvm_frames, i, n);
    ctx.nvm_total_frames = options_.nvm_frames;
    ctx.ssd = ssd_;
    ctx.nvm = nvm_;
    ctx.dram_backing = dram_backing_;
    ctx.io = io_.get();
    ctx.next_page_id = &next_page_id_;

    shards_.push_back(std::make_unique<BufferShard>(so, ctx));
    stat_parts.push_back(&shards_.back()->stats());
  }
  stats_ = BufferStatsAggregate(std::move(stat_parts));
}

BufferManager::~BufferManager() {
  // Quiesce every shard first (flip shutting_down_ so completions fired
  // during the drain fail their tickets), then shut the shared scheduler
  // down once; shards are destroyed after the workers that could touch
  // their pools have been joined.
  for (auto& s : shards_) s->PrepareShutdown();
  io_->Shutdown();
}

Status BufferManager::FlushAll(bool include_nvm, size_t* skipped) {
  Status result = Status::OK();
  for (auto& s : shards_) {
    const Status st = s->FlushAll(include_nvm, skipped);
    if (result.ok()) result = st;
  }
  return result;
}

Status BufferManager::RecoverNvmResidentPages() {
  for (auto& s : shards_) {
    SPITFIRE_RETURN_NOT_OK(s->RecoverNvmResidentPages());
  }
  return Status::OK();
}

BufferManager::FrameCensus BufferManager::DebugDramCensus() const {
  FrameCensus c;
  for (const auto& s : shards_) {
    const FrameCensus sc = s->DebugDramCensus();
    c.free += sc.free;
    c.evictable += sc.evictable;
    c.pinned += sc.pinned;
    c.detached += sc.detached;
    c.total_pins += sc.total_pins;
  }
  return c;
}

double BufferManager::InclusivityRatio() const {
  size_t both = 0;
  size_t either = 0;
  for (const auto& s : shards_) s->InclusivityCounts(&both, &either);
  return either == 0 ? 0.0
                     : static_cast<double>(both) / static_cast<double>(either);
}

size_t BufferManager::DramResidentPages() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->DramResidentPages();
  return n;
}

size_t BufferManager::NvmResidentPages() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->NvmResidentPages();
  return n;
}

}  // namespace spitfire
