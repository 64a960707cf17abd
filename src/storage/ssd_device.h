#ifndef SPITFIRE_STORAGE_SSD_DEVICE_H_
#define SPITFIRE_STORAGE_SSD_DEVICE_H_

#include <memory>
#include <shared_mutex>
#include <string>

#include "storage/device.h"

namespace spitfire {

// Simulated block SSD. Two backings:
//  - file-backed (pread/pwrite on a real file; default for examples and
//    recovery tests), or
//  - memory-backed (fast, for unit tests and latency-model benchmarks).
// In both cases the Optane-SSD latency/bandwidth model is applied per
// request, and requests are accounted at 16 KB media granularity.
// Not byte-addressable: DirectPointer() returns nullptr, so the buffer
// manager must always copy pages up the hierarchy — the defining contrast
// with NVM in the paper.
class SsdDevice : public Device {
 public:
  // Memory-backed.
  explicit SsdDevice(uint64_t capacity,
                     DeviceProfile profile = DeviceProfile::OptaneSsd());
  // File-backed.
  SsdDevice(const std::string& path, uint64_t capacity,
            DeviceProfile profile = DeviceProfile::OptaneSsd());
  ~SsdDevice() override;

  Status Read(uint64_t offset, void* dst, size_t size) override;
  Status Write(uint64_t offset, const void* src, size_t size) override;
  Status Persist(uint64_t offset, size_t size) override;

  // Asynchronous submission, the I/O scheduler's interface. The copy
  // happens eagerly (there is no DMA engine to defer it to) but no latency
  // is charged inline: the request is admitted into the multi-queue model,
  // which reports via `*complete_at_ns` the NowNanos() deadline at which it
  // completes. Callers must not observe the data as arrived (install
  // pages, acknowledge writes) before that deadline.
  Status BeginRead(uint64_t offset, void* dst, size_t size,
                   uint64_t* complete_at_ns);
  Status BeginWrite(uint64_t offset, const void* src, size_t size,
                    uint64_t* complete_at_ns);

  bool file_backed() const { return fd_ >= 0; }

 private:
  // Shared data-movement halves of the sync and async paths.
  Status TransferIn(uint64_t offset, void* dst, size_t size);
  Status TransferOut(uint64_t offset, const void* src, size_t size);
  // The I/O scheduler may issue a read concurrent with a write of an
  // overlapping range (the reader re-validates its write sequence and
  // discards superseded bytes — a torn transfer is acceptable there, as
  // it would be on real hardware). The kernel makes the file-backed
  // pread/pwrite pair safe; the memory-backed memcpy pair needs its own
  // synchronization. Page-striped rwlocks, held only around the copy
  // (never across the latency simulation), keep reads concurrent with
  // reads while excluding overlapping writes. Multi-page requests lock
  // their stripes in ascending order, so crossing requests cannot
  // deadlock.
  static constexpr size_t kCopyLockStripes = 64;
  void LockRange(uint64_t offset, size_t size, bool exclusive);
  void UnlockRange(uint64_t offset, size_t size, bool exclusive);

  int fd_ = -1;
  std::unique_ptr<std::byte[]> mem_;
  std::shared_mutex copy_locks_[kCopyLockStripes];
  DeviceQueueSim queue_sim_;
};

}  // namespace spitfire

#endif  // SPITFIRE_STORAGE_SSD_DEVICE_H_
