#ifndef SPITFIRE_WAL_CHECKPOINTER_H_
#define SPITFIRE_WAL_CHECKPOINTER_H_

#include <atomic>
#include <thread>

#include "buffer/buffer_manager.h"
#include "wal/log_manager.h"

namespace spitfire {

// Background maintenance thread (Section 5.2): periodically flushes dirty
// DRAM pages down the hierarchy and drains the NVM log buffer to the SSD
// log file. Dirty NVM pages are left alone — NVM is persistent. A round
// does not move the redo horizon, so it neither shortens recovery nor
// frees log space: only Database::Checkpoint sets the horizon, and the
// log is never truncated.
class Checkpointer {
 public:
  Checkpointer(BufferManager* bm, LogManager* lm, uint64_t interval_ms)
      : bm_(bm), lm_(lm), interval_ms_(interval_ms) {}
  ~Checkpointer() { Stop(); }
  SPITFIRE_DISALLOW_COPY_AND_MOVE(Checkpointer);

  void Start();
  void Stop();

  // One synchronous checkpoint round (also used by tests).
  Status RunOnce();

  uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  BufferManager* bm_;
  LogManager* lm_;
  const uint64_t interval_ms_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> rounds_{0};
};

}  // namespace spitfire

#endif  // SPITFIRE_WAL_CHECKPOINTER_H_
