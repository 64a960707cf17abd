#ifndef SPITFIRE_BUFFER_STATS_H_
#define SPITFIRE_BUFFER_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"

namespace spitfire {

// Every buffer manager counter, spelled once: X(enum name, snapshot
// field). The enum, the snapshot fields, and every field-wise operation
// below are generated from this list.
#define SPITFIRE_BUFFER_COUNTERS(X)                                           \
  X(kDramHits, dram_hits)                                                     \
  X(kNvmHits, nvm_hits)                       /* served directly from NVM */  \
  X(kSsdFetches, ssd_fetches)                 /* misses that went to SSD */   \
  X(kPromotions, promotions)                  /* NVM → DRAM migrations */     \
  X(kDemotionsToNvm, demotions_to_nvm)        /* DRAM → NVM on eviction */    \
  X(kDemotionsToSsd, demotions_to_ssd)        /* DRAM → SSD, NVM bypassed */  \
  X(kNvmInstalls, nvm_installs)               /* SSD → NVM on read (Nr) */    \
  X(kNvmEvictions, nvm_evictions)             /* NVM → SSD / dropped */       \
  X(kDramEvictions, dram_evictions)                                           \
  X(kFineGrainedLoads, fine_grained_loads)    /* cache-line units loaded */   \
  X(kMiniPageAdmits, mini_page_admits)                                        \
  X(kMiniPagePromotions, mini_page_promotions) /* mini → full overflow */     \
  X(kReadAheadInstalls, read_ahead_installs)  /* window pages installed */    \
  X(kMissSubmits, miss_submits)               /* led a device read */         \
  X(kMissJoins, miss_joins)                   /* joined an in-flight read */  \
  X(kReplacerSampled, replacer_sampled)       /* hits sent to RecordAccess */ \
  X(kWriteFetches, write_fetches)             /* fetches with write intent */

enum class BufferCounter : uint8_t {
#define SPITFIRE_X(counter, field) counter,
  SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
  kNumCounters,
};

// Point-in-time aggregation of BufferStats; plain integers, safe to copy
// and diff.
struct BufferStatsSnapshot {
#define SPITFIRE_X(counter, field) uint64_t field = 0;
  SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
  // Derived, not counted: hits the 1-in-N sampler dropped. Counting these
  // per hit would put an atomic RMW back on the latch-free hit path.
  uint64_t replacer_suppressed = 0;

  // Every successful FetchPage increments exactly one of these three.
  uint64_t TotalFetches() const { return dram_hits + nvm_hits + ssd_fetches; }

  // Every DRAM/NVM hit either forwards to the replacer or is suppressed;
  // derive the suppressed count instead of paying for it on the hit path.
  void DeriveSuppressed() {
    const uint64_t hits = dram_hits + nvm_hits;
    replacer_suppressed = hits > replacer_sampled ? hits - replacer_sampled : 0;
  }

  // Field-wise sum; the sharded buffer manager merges its per-shard
  // snapshots through this.
  void Accumulate(const BufferStatsSnapshot& o) {
#define SPITFIRE_X(counter, field) field += o.field;
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    replacer_suppressed += o.replacer_suppressed;
  }

  // Field-wise difference from an earlier snapshot of the same counters;
  // they are monotonic, so this is the window between the two.
  BufferStatsSnapshot Since(const BufferStatsSnapshot& earlier) const {
    BufferStatsSnapshot d;
#define SPITFIRE_X(counter, field) d.field = field - earlier.field;
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    d.DeriveSuppressed();
    return d;
  }

  // "name=value" pairs, one per field.
  std::string ToString() const {
    std::string out;
    const auto add = [&out](const char* name, uint64_t v) {
      if (!out.empty()) out += ' ';
      out += name;
      out += '=';
      out += std::to_string(v);
    };
#define SPITFIRE_X(counter, field) add(#field, field);
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    add("replacer_suppressed", replacer_suppressed);
    return out;
  }
};

// Sharded buffer manager counters. The hit path increments one counter per
// fetch, so a single shared cacheline of atomics becomes a coherence
// hotspot at high thread counts; instead each thread hashes to one of
// kShards cacheline-padded slabs and Snapshot() sums them for reporting.
// All increments are relaxed — counters are for reporting only.
class BufferStats {
 public:
  static constexpr size_t kShards = 16;

  void Add(BufferCounter c, uint64_t n = 1) {
    shards_[ShardIndex()].counters[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  BufferStatsSnapshot Snapshot() const {
    uint64_t sums[static_cast<size_t>(BufferCounter::kNumCounters)] = {};
    for (const Shard& s : shards_) {
      for (size_t i = 0; i < static_cast<size_t>(BufferCounter::kNumCounters);
           ++i) {
        sums[i] += s.counters[i].load(std::memory_order_relaxed);
      }
    }
    BufferStatsSnapshot snap;
#define SPITFIRE_X(counter, field) \
  snap.field = sums[static_cast<size_t>(BufferCounter::counter)];
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    snap.DeriveSuppressed();
    return snap;
  }

  void Reset() {
    for (Shard& s : shards_) {
      for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    }
  }

  std::string ToString() const { return Snapshot().ToString(); }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::atomic<uint64_t> counters[static_cast<size_t>(
        BufferCounter::kNumCounters)] = {};
  };

  // Threads are striped over shards round-robin at first use; on machines
  // with ≤ kShards active workers every thread gets a private slab.
  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }

  Shard shards_[kShards];
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_STATS_H_
