#ifndef SPITFIRE_BUFFER_PAGE_DESCRIPTOR_H_
#define SPITFIRE_BUFFER_PAGE_DESCRIPTOR_H_

#include <atomic>

#include "common/constants.h"
#include "common/macros.h"
#include "hymem/cacheline_page.h"
#include "sync/optimistic_latch.h"
#include "sync/spin_latch.h"

namespace spitfire {

// Representation of a page's copy on a buffered tier.
//   kNone              — not resident on this tier
//   kFull              — a whole 16 KB frame
//   kCacheLineGrained  — a full frame, but only some loading units are
//                        resident (HyMem Figure 2a; DRAM only)
//   kMini              — a mini page holding at most sixteen units
//                        (HyMem Figure 2b; DRAM only)
// NVM copies only use kNone / kFull.
enum class DramMode : uint8_t {
  kNone = 0,
  kFull = 1,
  kCacheLineGrained = 2,
  kMini = 3,
};

// Residency state of a page on one buffered tier, built around one packed
// 64-bit atomic state word so that the buffer-hit path is latch-free:
//
//      63                    18 17    16 15           0
//     [ epoch                  | mode   | pin count    ]
//
// * `pins`  — reference count of outstanding PageGuards on this copy.
// * `mode`  — the DramMode of the copy; kNone means not resident.
// * `epoch` — bumped every time the copy is retired (evicted / migrated
//             away). Because a pin is a CAS on the WHOLE word, a pin taken
//             against a stale sample fails if the frame was retired (and
//             possibly reinstalled) in between: the epoch differs. This is
//             what makes TryPin safe without the tier latch (no ABA).
//
// Concurrency protocol (see DESIGN.md, "Concurrency protocol"):
// * TryPin is a lone CAS: it succeeds only if the copy is resident and the
//   word (epoch included) is unchanged since it was sampled. Success uses
//   memory_order_acquire — the pin CAS is the load that licenses reading
//   `frame` and the page bytes, so it must pair with the release in
//   Publish() that made them visible.
// * Unpin is fetch_sub(release): it publishes the holder's page writes to
//   whoever observes the count at zero next.
// * TryRetire is only called by the slow path (under the tier latch). It
//   atomically checks pins == 0 and unpublishes the copy (mode := kNone,
//   epoch++). The CAS uses acquire (pairs with the unpinners' releases, so
//   the retiring thread sees all guard-holder writes before writing the
//   page back) and fails if a concurrent TryPin sneaked in — pin-takers
//   and the evictor race on the same word, so neither can miss the other.
// * Publish / mode changes happen only under the tier latch.
//
// All remaining per-tier fields (`frame`, `dirty`) are written on the slow
// path before the word publishes the copy, and read by fast-path holders
// only while they hold a pin.
//
// `dirty` is a mask of the kDirtyUnitSize units written since the copy was
// last clean; the copy is dirty iff it is nonzero. Guard holders set bits
// while pinned (MarkDirty); it is cleared only by a thread that has retired
// the copy, or is about to publish it, so a holder never loses a bit. On a
// full DRAM copy that coexists with an NVM copy the mask is exact enough
// to write back only its units (DESIGN.md, "Dirty units and write-back");
// NVM copies only test it against zero.
struct TierState {
  static constexpr uint64_t kPinsMask = 0xFFFFull;
  static constexpr int kModeShift = 16;
  static constexpr uint64_t kModeMask = 0x3ull << kModeShift;
  static constexpr int kEpochShift = 18;

  // Optane's 256 B media block: one bit per unit of a 16 KB page.
  static constexpr size_t kDirtyUnitSize = kPageSize / 64;
  static_assert(kDirtyUnitSize == 256, "one dirty bit per 256 B media block");
  static constexpr uint64_t kAllUnits = ~uint64_t{0};

  static DramMode ModeOf(uint64_t w) {
    return static_cast<DramMode>((w >> kModeShift) & 0x3);
  }
  static uint32_t PinsOf(uint64_t w) {
    return static_cast<uint32_t>(w & kPinsMask);
  }
  static uint64_t Pack(DramMode m, uint32_t pins, uint64_t epoch) {
    return (epoch << kEpochShift) |
           (static_cast<uint64_t>(m) << kModeShift) | pins;
  }
  // The units covering [offset, offset + size) of a page; 0 when empty.
  static uint64_t UnitsOf(size_t offset, size_t size) {
    if (size == 0) return 0;
    const size_t first = offset / kDirtyUnitSize;
    const size_t last = (offset + size - 1) / kDirtyUnitSize;
    SPITFIRE_DCHECK(last < 64);
    const uint64_t upto = last >= 63 ? kAllUnits : (uint64_t{2} << last) - 1;
    return upto & (kAllUnits << first);
  }

  std::atomic<uint64_t> word{0};
  std::atomic<frame_id_t> frame{kInvalidFrameId};
  std::atomic<uint64_t> dirty{0};

  // Adds `units` to the dirty mask. A copy that already has them is only
  // loaded, so rereading a hot dirty page does not write its descriptor.
  void MarkDirty(uint64_t units) {
    if ((dirty.load(std::memory_order_relaxed) & units) != units) {
      dirty.fetch_or(units, std::memory_order_release);
    }
  }
  bool Dirty() const { return dirty.load(std::memory_order_relaxed) != 0; }

  // Latch-free pin. Returns the mode pinned, or kNone if the copy is not
  // resident (the caller must take the slow path).
  DramMode TryPin() {
    uint64_t w = word.load(std::memory_order_relaxed);
    for (;;) {
      const DramMode m = ModeOf(w);
      if (m == DramMode::kNone) return DramMode::kNone;
      if (SPITFIRE_UNLIKELY(PinsOf(w) == kPinsMask)) {
        // Pin count saturated; wait for an unpin.
        __builtin_ia32_pause();
        w = word.load(std::memory_order_relaxed);
        continue;
      }
      if (word.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        return m;
      }
    }
  }

  void Unpin() {
    const uint64_t prev = word.fetch_sub(1, std::memory_order_release);
    SPITFIRE_DCHECK(PinsOf(prev) > 0);
    (void)prev;
  }

  // Atomically unpublishes the copy iff it is resident and unpinned:
  // mode := kNone, pins stays 0, epoch++. Returns false if a pin exists
  // (or raced in) or the copy is already gone. Caller holds the tier
  // latch; on success it exclusively owns the frame contents until it
  // frees the frame or calls Publish again.
  bool TryRetire() {
    uint64_t w = word.load(std::memory_order_acquire);
    for (;;) {
      if (PinsOf(w) != 0 || ModeOf(w) == DramMode::kNone) return false;
      const uint64_t nw = Pack(DramMode::kNone, 0, (w >> kEpochShift) + 1);
      if (word.compare_exchange_weak(w, nw, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return true;
      }
    }
  }

  // Publishes a resident copy with `initial_pins` pins already granted to
  // the caller. Caller holds the tier latch and mode is currently kNone,
  // so no other thread can write the word: a plain release store races
  // only with failed TryPin CASes.
  void Publish(DramMode m, uint32_t initial_pins) {
    const uint64_t w = word.load(std::memory_order_relaxed);
    SPITFIRE_DCHECK(ModeOf(w) == DramMode::kNone && PinsOf(w) == 0);
    word.store(Pack(m, initial_pins, w >> kEpochShift),
               std::memory_order_release);
  }

  // Switches the mode of a resident copy (kMini → kFull promotion) while
  // preserving concurrent pin traffic. Caller holds the tier latch.
  void SwitchMode(DramMode to) {
    uint64_t w = word.load(std::memory_order_relaxed);
    for (;;) {
      SPITFIRE_DCHECK(ModeOf(w) != DramMode::kNone);
      const uint64_t nw = (w & ~kModeMask)
                          | (static_cast<uint64_t>(to) << kModeShift);
      if (word.compare_exchange_weak(w, nw, std::memory_order_release,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  }

  DramMode Mode() const {
    return ModeOf(word.load(std::memory_order_acquire));
  }
  uint32_t Pins() const { return PinsOf(word.load(std::memory_order_acquire)); }
  bool Resident() const { return Mode() != DramMode::kNone; }
};

// SSD-fetch state of a page (guarded by SharedPageDescriptor::io_latch).
// kIdle — no fetch in flight; a miss may become the submission leader.
// kIoInflight — a leading miss or a read-ahead window has claimed the page
// and submitted its device read; later misses enqueue a FetchTicket on
// `io_waiters` instead of duplicating the I/O, and the completion installs
// the page, pins it for every waiter, and fires their continuations.
enum class IoState : uint8_t { kIdle = 0, kIoInflight = 1 };

// Continuation of one asynchronous fetch (declared in buffer_manager.h).
struct FetchTicket;

// The shared page descriptor of Figure 4: one per logical page, stored in
// the DRAM-resident page table (page_table.h). It carries one latch per storage tier —
// a migration from tier X to tier Y takes only the X and Y latches, so
// e.g. an NVM→SSD write-back never blocks operations on the DRAM copy
// (Section 5.2, "Thread-Safe Page Migration"). Buffer hits never take a
// latch at all: they pin through the tier's packed state word (above).
struct SharedPageDescriptor {
  explicit SharedPageDescriptor(page_id_t id) : pid(id) {}
  SPITFIRE_DISALLOW_COPY_AND_MOVE(SharedPageDescriptor);

  const page_id_t pid;

  // Tier latches (latch_dram / latch_nvm / latch_ssd in Figure 4).
  // Lock order: DRAM before NVM before SSD.
  SpinLatch dram_latch;
  SpinLatch nvm_latch;
  SpinLatch ssd_latch;

  // Version latch for optimistic lock coupling by indexes built on top of
  // the buffer manager. Stable across migrations because the descriptor
  // never moves.
  OptimisticLatch version_latch;

  TierState dram;
  TierState nvm;

  // --- DRAM representation details, guarded by dram_latch ---
  // Mini-page slot id when the DRAM mode is kMini (frame is then unused).
  // Atomic only so the pin fast path may read it sloppily for replacer
  // accounting; authoritative updates happen under dram_latch.
  std::atomic<uint32_t> mini_id{0};
  // Resident/dirty unit masks when the DRAM mode is kCacheLineGrained.
  CacheLineState cl;

  // --- Asynchronous miss path, guarded by io_latch ---
  // io_latch orders strictly AFTER the tier latches: the completion takes
  // it inside dram_latch+nvm_latch (to detach waiters with no gap between
  // install and wake-up); submission takes it alone and never acquires a
  // tier latch while holding it.
  SpinLatch io_latch;
  IoState io_state = IoState::kIdle;
  // Intrusive singly-linked list of continuations waiting on the in-flight
  // fetch (LIFO; order is irrelevant — every waiter gets its own pin).
  FetchTicket* io_waiters = nullptr;

  bool DramResident() const { return dram.Resident(); }
  bool NvmResident() const { return nvm.Resident(); }
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_PAGE_DESCRIPTOR_H_
