#ifndef SPITFIRE_WAL_NVM_LOG_BUFFER_H_
#define SPITFIRE_WAL_NVM_LOG_BUFFER_H_

#include <atomic>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "storage/device.h"
#include "sync/spin_latch.h"

namespace spitfire {

// Persistent log staging area on NVM (Section 5.2, Recovery): log records
// are first persisted here — a transaction is durably committed once its
// commit record lands in this buffer — and are asynchronously appended to
// the on-SSD log file when the buffer fills past a threshold.
//
// Layout within the NVM region:
//   [Header (64 B): magic, persisted size, base LSN] [record bytes ...]
// Appends serialize on a latch (the paper shares one NVM log buffer among
// workers), copy the record bytes, and Persist() them (clwb + sfence).
class NvmLogBuffer {
 public:
  // `device` must outlive the buffer. `offset`/`size` delimit the region
  // of the device used for log staging.
  NvmLogBuffer(Device* device, uint64_t offset, uint64_t size);

  // Formats a fresh buffer (destroys existing content).
  Status Format(lsn_t base_lsn);
  // Re-attaches to an existing buffer (after restart). Returns Corruption
  // if the header is invalid.
  Status Attach();

  // Appends `len` bytes; the payload becomes durable before returning.
  // Returns the starting LSN of the appended bytes, or OutOfMemory when
  // the buffer cannot hold them (caller must drain first).
  Result<lsn_t> Append(const std::byte* data, size_t len);

  // Copies the staged bytes into *out WITHOUT modifying the buffer.
  // Returns the LSN of the first staged byte. Pair with MarkDrained()
  // once the bytes are durable elsewhere.
  Result<lsn_t> Peek(std::vector<std::byte>* out);

  // Durably consumes the first `n` staged bytes (the amount a prior Peek
  // returned; appends that landed since stay staged). Only call after the
  // peeked bytes are durable on SSD: a crash between the SSD append and
  // this call leaves the records in both places, which the drain protocol
  // resolves by idempotent rewrite (LSN == file offset); calling it
  // earlier loses committed records — the exact bug the crash fuzzer
  // caught in the original drain ordering.
  Status MarkDrained(uint64_t n);

  // Bytes currently staged.
  uint64_t StagedBytes() const;
  lsn_t base_lsn() const;
  lsn_t next_lsn() const { return base_lsn() + StagedBytes(); }
  uint64_t capacity() const { return size_ - kHeaderSize; }

 private:
  static constexpr uint64_t kHeaderSize = 64;
  static constexpr uint32_t kMagic = 0x4E4C4F47;  // "NLOG"

  // The header occupies (and must keep fitting) a single cache line: the
  // simulated Persist() is line-granular, so one header persist is
  // failure-atomic in the fault model. `head` is the physical payload
  // offset of the oldest staged byte (LSN base_lsn); appends land at
  // head + used, and head returns to 0 whenever the buffer empties.
  struct Header {
    uint32_t magic;
    uint32_t pad;
    uint64_t used;  // staged byte count
    lsn_t base_lsn;
    uint64_t head;  // physical offset of the first staged byte
  };

  Header* header() {
    return reinterpret_cast<Header*>(device_->DirectPointer(offset_));
  }
  const Header* header() const {
    return reinterpret_cast<const Header*>(
        const_cast<Device*>(device_)->DirectPointer(offset_));
  }
  std::byte* payload(uint64_t at) {
    return device_->DirectPointer(offset_ + kHeaderSize + at);
  }

  Device* device_;
  uint64_t offset_;
  uint64_t size_;
  // Guards the header and payload; mutable so the read-only accessors
  // (StagedBytes, base_lsn) can take it against concurrent appends.
  mutable SpinLatch latch_;
};

}  // namespace spitfire

#endif  // SPITFIRE_WAL_NVM_LOG_BUFFER_H_
