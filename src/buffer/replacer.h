#ifndef SPITFIRE_BUFFER_REPLACER_H_
#define SPITFIRE_BUFFER_REPLACER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/constants.h"

namespace spitfire {

// Which replacement policy a BufferPool runs. Selectable per tier via
// BufferPoolConfig / BufferManagerOptions.
enum class ReplacerKind : uint8_t {
  kClock = 0,  // plain CLOCK (NB-GCLOCK ref bits) — PR 1 behavior
  kTwoQ = 1,   // scan-resistant 2Q/cooling hybrid (probation FIFO +
               // protected CLOCK + cooling grace stage)
};

const char* ReplacerKindName(ReplacerKind kind);

// Non-owning view of a `bool(frame_id_t)` callable. Eviction callbacks are
// stack lambdas that capture the calling context; a function_ref avoids the
// std::function allocation on every PickVictim call while still letting the
// policy live behind a virtual interface.
class TryEvictRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TryEvictRef>>>
  TryEvictRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, frame_id_t frame) -> bool {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(frame);
        }) {}

  bool operator()(frame_id_t f) const { return call_(obj_, f); }

 private:
  void* obj_;
  bool (*call_)(void*, frame_id_t);
};

// Abstract page-replacement policy over a pool's frames. Implementations
// must be safe under full concurrency: RecordAccess/RecordInstall run on
// the latch-free hit/install paths from many threads, PickVictim runs from
// many foreground evictors and read-ahead installs simultaneously.
//
// Protocol:
//  - RecordInstall(f): a page was installed into frame f (first touch).
//    Called while the caller still owns the frame, before other threads can
//    hit it.
//  - RecordAccess(f): a pinned hit on frame f. The hot path samples these
//    (BufferManagerOptions::replacer_sample_rate), so policies see roughly
//    one call per `rate` raw hits.
//  - PickVictim(try_evict, max_rounds): find a frame the policy is willing
//    to give up and offer it to try_evict, which performs the actual
//    latched eviction and may refuse (pinned / racing). Returns the evicted
//    frame or kInvalidFrameId after a bounded search (max_rounds scales the
//    step budget; the read-ahead install passes 1 for a cheap probe).
class Replacer {
 public:
  virtual ~Replacer() = default;

  virtual void RecordAccess(frame_id_t f) = 0;
  virtual void RecordInstall(frame_id_t f) = 0;
  virtual frame_id_t PickVictim(TryEvictRef try_evict, int max_rounds) = 0;

  frame_id_t PickVictim(TryEvictRef try_evict) {
    return PickVictim(try_evict, /*max_rounds=*/3);
  }

  virtual size_t num_frames() const = 0;
  // Frames whose reference bit is currently set (stats/tests only).
  virtual size_t ReferencedCount() const = 0;
  virtual ReplacerKind kind() const = 0;
  // One-line occupancy/counter summary for bench output and debugging.
  virtual std::string DebugString() const = 0;

  static std::unique_ptr<Replacer> Create(ReplacerKind kind,
                                          size_t num_frames);
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_REPLACER_H_
