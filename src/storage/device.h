#ifndef SPITFIRE_STORAGE_DEVICE_H_
#define SPITFIRE_STORAGE_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"
#include "common/status.h"
#include "storage/perf_model.h"

namespace spitfire {

// Cumulative traffic counters for a device. `media_bytes_written` rounds
// each write up to the device's media granularity — this is the
// write-amplified figure behind the NVM-lifetime results (Figures 8, 13).
struct DeviceStats {
  std::atomic<uint64_t> num_reads{0};
  std::atomic<uint64_t> num_writes{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> media_bytes_written{0};

  void Reset() {
    num_reads = 0;
    num_writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    media_bytes_written = 0;
  }
};

// Abstract storage device of the simulated hierarchy. Offsets address a
// flat byte space of `capacity` bytes. Implementations apply the profile's
// latency model on every access so higher layers observe realistic relative
// DRAM/NVM/SSD costs.
class Device {
 public:
  explicit Device(DeviceProfile profile, uint64_t capacity)
      : profile_(std::move(profile)), capacity_(capacity) {}
  virtual ~Device() = default;
  SPITFIRE_DISALLOW_COPY_AND_MOVE(Device);

  // Copies `size` bytes at `offset` into `dst`.
  virtual Status Read(uint64_t offset, void* dst, size_t size) = 0;

  // Copies `size` bytes from `src` to `offset`.
  virtual Status Write(uint64_t offset, const void* src, size_t size) = 0;

  // For byte-addressable devices, a pointer through which the CPU can
  // operate on device-resident data in place (the paper's data flow paths
  // 3/8 that bypass DRAM). Returns nullptr for block devices.
  virtual std::byte* DirectPointer(uint64_t offset) { return nullptr; }

  // Ensures durability of the byte range (models clwb + sfence on NVM,
  // fsync on SSD). No-op on volatile devices.
  virtual Status Persist(uint64_t offset, size_t size) { return Status::OK(); }

  // Accounts for and delays an in-place access made through DirectPointer().
  // The buffer manager calls these when the CPU reads or writes
  // device-resident data without a device-mediated copy. `offset` lets
  // implementations with location-dependent cost (the memory-mode DRAM
  // cache) model hits and misses.
  virtual void OnDirectRead(uint64_t offset, size_t bytes,
                            bool sequential = false) {
    AccountRead(bytes, sequential);
  }
  virtual void OnDirectWrite(uint64_t offset, size_t bytes,
                             bool sequential = false) {
    AccountWrite(bytes, sequential);
  }

  const DeviceProfile& profile() const { return profile_; }
  uint64_t capacity() const { return capacity_; }
  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }

  double PriceDollars() const {
    return static_cast<double>(capacity_) / 1e9 * profile_.price_per_gb;
  }

 protected:
  Status CheckRange(uint64_t offset, size_t size) const {
    if (offset + size > capacity_) {
      return Status::InvalidArgument("device access out of range");
    }
    return Status::OK();
  }

  void AccountRead(size_t bytes, bool sequential) {
    AccountReadStats(bytes);
    LatencySimulator::Delay(profile_.ReadLatencyNanos(bytes, sequential));
  }
  void AccountWrite(size_t bytes, bool sequential) {
    AccountWriteStats(bytes);
    LatencySimulator::Delay(profile_.WriteLatencyNanos(bytes, sequential));
  }

  // Stats-only halves, for the async path where the latency is charged as
  // a completion deadline instead of an inline delay.
  void AccountReadStats(size_t bytes) {
    stats_.num_reads.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  }
  void AccountWriteStats(size_t bytes) {
    stats_.num_writes.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
    stats_.media_bytes_written.fetch_add(profile_.MediaBytes(bytes),
                                         std::memory_order_relaxed);
  }

  DeviceProfile profile_;
  uint64_t capacity_;
  DeviceStats stats_;
};

}  // namespace spitfire

#endif  // SPITFIRE_STORAGE_DEVICE_H_
