#ifndef SPITFIRE_WAL_LOG_MANAGER_H_
#define SPITFIRE_WAL_LOG_MANAGER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/ssd_device.h"
#include "wal/log_record.h"
#include "wal/nvm_log_buffer.h"

namespace spitfire {

// NVM-aware write-ahead logging (Section 5.2):
//  - records are first persisted to a shared NVM log buffer; once a
//    transaction's COMMIT record is in the buffer, it is durable;
//  - when the staged volume passes kDrainThreshold, the buffer contents
//    are appended to an on-SSD log file: a commit group's leader calls
//    MaybeDrain synchronously after persisting its group (its followers
//    are already awake), as does each background checkpointer round.
//
// The SSD log device layout: page 0 holds {magic, durable length}; record
// bytes start at kLogDataOffset.
class LogManager {
 public:
  struct Options {
    Device* nvm = nullptr;      // staging device (NVM, or DRAM when no NVM tier)
    uint64_t nvm_offset = 0;    // staging region start
    uint64_t nvm_size = 1 << 20;
    Device* log_ssd = nullptr;  // SSD device holding the log file
  };

  // Staged bytes past which MaybeDrain appends them to the SSD log file.
  static constexpr uint64_t kDrainThreshold = 512 * 1024;

  static constexpr uint64_t kLogDataOffset = 4096;
  static constexpr uint32_t kLogMagic = 0x57414C46;  // "WALF"

  // Creates a fresh log (formats both the NVM buffer and the SSD file).
  static Result<std::unique_ptr<LogManager>> Create(const Options& opts);
  // Re-attaches after a restart; surviving staged records remain readable.
  static Result<std::unique_ptr<LogManager>> Attach(const Options& opts);

  // Appends a record to the NVM log buffer; returns its LSN once the
  // record is durable. Drains to SSD first if the buffer cannot hold it.
  // Group commit: concurrent Appends batch into one NVM persist. Each
  // group has a generation; a group's leader waits until the previous
  // generation is durable, persists the whole batch with a single
  // NvmLogBuffer::Append, then advances the durability epoch and wakes
  // the group's followers.
  Result<lsn_t> Append(const LogRecord& record);

  // Appends the staged NVM bytes to the SSD log file. Crash-safe protocol:
  // file write + persist + header update all complete BEFORE the staging
  // buffer is consumed, so a crash anywhere in between leaves the records
  // in at least one durable place; the overlap (records in both) heals by
  // idempotent rewrite, since a record's LSN is its file offset.
  Status Drain();
  // Drains only if the staged volume passed kDrainThreshold.
  Status MaybeDrain();

  // Reads the entire log (SSD file followed by the staged NVM tail) into
  // records, in LSN order. Used by recovery.
  Result<std::vector<LogRecord>> ReadAll();

  // Durable redo horizon: every committed version with begin_ts <= the
  // horizon was durable in the heap (flushed by a complete checkpoint), so
  // recovery may skip re-applying records with txn_id <= horizon — except
  // for a key whose version GC has freed since (Database::RunRecovery
  // replays such a key whole). Stored in the log file header; advanced by
  // Database::Checkpoint after a clean full flush and reset to 0 when
  // recovery quarantines a page.
  Status SetDurableHorizon(timestamp_t ts);
  timestamp_t durable_horizon() const { return horizon_ts_; }

  lsn_t next_lsn() const { return staging_->next_lsn(); }
  uint64_t durable_file_bytes() const { return file_bytes_; }
  uint64_t staged_bytes() const { return staging_->StagedBytes(); }

  // Monotonic durability epoch: generation of the newest group whose
  // bytes are persisted in the NVM staging buffer.
  uint64_t durable_generation() const {
    std::lock_guard<std::mutex> g(group_mu_);
    return durable_gen_;
  }

 private:
  explicit LogManager(const Options& opts);

  // The file header lives in two alternating versioned + checksummed slots
  // in the log device's first page: a torn or short header write leaves
  // the other slot intact, so recovery always finds a consistent header
  // (it loses at most the newest length update, which the drain protocol
  // makes idempotent to reapply).
  Status WriteFileHeader();
  Status ReadFileHeader();

  // One commit group: records serialized back to back, persisted with a
  // single staging append. The creator of the group is its leader.
  struct CommitGroup {
    uint64_t gen = 0;
    std::vector<std::byte> bytes;
    size_t records = 0;
    bool done = false;
    Status status;
    lsn_t base_lsn = 0;
  };

  // One staging append for the whole group's payload (drains to SSD on
  // buffer pressure).
  Status PersistGroup(const std::vector<std::byte>& payload, lsn_t* base);

  Options opts_;
  std::unique_ptr<NvmLogBuffer> staging_;
  std::mutex drain_mu_;
  uint64_t file_bytes_ = 0;  // durable bytes in the SSD log file
  timestamp_t horizon_ts_ = 0;
  uint64_t header_version_ = 0;

  mutable std::mutex group_mu_;
  std::condition_variable group_cv_;
  std::shared_ptr<CommitGroup> open_group_;
  uint64_t next_gen_ = 1;
  uint64_t durable_gen_ = 0;
};

}  // namespace spitfire

#endif  // SPITFIRE_WAL_LOG_MANAGER_H_
