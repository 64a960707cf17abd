#include "storage/ssd_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/constants.h"
#include "storage/fault_injector.h"

namespace spitfire {

SsdDevice::SsdDevice(uint64_t capacity, DeviceProfile profile)
    : Device(std::move(profile), capacity), queue_sim_(profile_) {
  mem_ = std::make_unique<std::byte[]>(capacity);
  std::memset(mem_.get(), 0, capacity);
}

SsdDevice::SsdDevice(const std::string& path, uint64_t capacity,
                     DeviceProfile profile)
    : Device(std::move(profile), capacity), queue_sim_(profile_) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  SPITFIRE_CHECK(fd_ >= 0);
  SPITFIRE_CHECK(::ftruncate(fd_, static_cast<off_t>(capacity)) == 0);
}

SsdDevice::~SsdDevice() {
  if (fd_ >= 0) ::close(fd_);
}

void SsdDevice::LockRange(uint64_t offset, size_t size, bool exclusive) {
  const uint64_t first = offset / kPageSize;
  const uint64_t count = (size + kPageSize - 1) / kPageSize;
  bool used[kCopyLockStripes] = {};
  for (uint64_t p = 0; p < count && p < kCopyLockStripes; ++p) {
    used[(first + p) % kCopyLockStripes] = true;
  }
  for (size_t i = 0; i < kCopyLockStripes; ++i) {
    if (!used[i]) continue;
    if (exclusive) {
      copy_locks_[i].lock();
    } else {
      copy_locks_[i].lock_shared();
    }
  }
}

void SsdDevice::UnlockRange(uint64_t offset, size_t size, bool exclusive) {
  const uint64_t first = offset / kPageSize;
  const uint64_t count = (size + kPageSize - 1) / kPageSize;
  bool used[kCopyLockStripes] = {};
  for (uint64_t p = 0; p < count && p < kCopyLockStripes; ++p) {
    used[(first + p) % kCopyLockStripes] = true;
  }
  for (size_t i = 0; i < kCopyLockStripes; ++i) {
    if (!used[i]) continue;
    if (exclusive) {
      copy_locks_[i].unlock();
    } else {
      copy_locks_[i].unlock_shared();
    }
  }
}

Status SsdDevice::TransferIn(uint64_t offset, void* dst, size_t size) {
  SPITFIRE_RETURN_NOT_OK(CheckRange(offset, size));
  if (fd_ >= 0) {
    // pread may legitimately transfer fewer bytes than requested (or be
    // interrupted by a signal); loop until the full range arrives.
    auto* p = static_cast<std::byte*>(dst);
    size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd_, p + done, size - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pread");
      }
      if (n == 0) return Status::IoError("pread: unexpected EOF");
      done += static_cast<size_t>(n);
    }
  } else {
    LockRange(offset, size, /*exclusive=*/false);
    std::memcpy(dst, mem_.get() + offset, size);
    UnlockRange(offset, size, /*exclusive=*/false);
  }
  return Status::OK();
}

Status SsdDevice::TransferOut(uint64_t offset, const void* src, size_t size) {
  SPITFIRE_RETURN_NOT_OK(CheckRange(offset, size));
  Status inj_status = Status::OK();
  if (FaultInjector* fi = FaultInjector::Get()) {
    size_t allowed = size;
    inj_status = fi->OnSsdWrite(offset, size, &allowed);
    // The surviving prefix still reaches the medium (a torn/short write);
    // the caller sees the failure status below.
    size = allowed;
    if (size == 0) return inj_status;
  }
  if (fd_ >= 0) {
    const auto* p = static_cast<const std::byte*>(src);
    size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pwrite(fd_, p + done, size - done,
                                 static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pwrite");
      }
      if (n == 0) return Status::IoError("pwrite: no progress");
      done += static_cast<size_t>(n);
    }
  } else {
    LockRange(offset, size, /*exclusive=*/true);
    std::memcpy(mem_.get() + offset, src, size);
    UnlockRange(offset, size, /*exclusive=*/true);
  }
  return inj_status;
}

Status SsdDevice::Read(uint64_t offset, void* dst, size_t size) {
  SPITFIRE_RETURN_NOT_OK(TransferIn(offset, dst, size));
  // Multi-page requests stream from consecutive blocks, so they earn the
  // sequential rate.
  AccountRead(size, /*sequential=*/size > kPageSize);
  return Status::OK();
}

Status SsdDevice::Write(uint64_t offset, const void* src, size_t size) {
  SPITFIRE_RETURN_NOT_OK(TransferOut(offset, src, size));
  AccountWrite(size, /*sequential=*/size > kPageSize);
  return Status::OK();
}

Status SsdDevice::BeginRead(uint64_t offset, void* dst, size_t size,
                            uint64_t* complete_at_ns) {
  SPITFIRE_RETURN_NOT_OK(TransferIn(offset, dst, size));
  AccountReadStats(size);
  *complete_at_ns =
      queue_sim_.Submit(size, /*sequential=*/size > kPageSize,
                        /*is_write=*/false);
  return Status::OK();
}

Status SsdDevice::BeginWrite(uint64_t offset, const void* src, size_t size,
                             uint64_t* complete_at_ns) {
  SPITFIRE_RETURN_NOT_OK(TransferOut(offset, src, size));
  AccountWriteStats(size);
  *complete_at_ns =
      queue_sim_.Submit(size, /*sequential=*/size > kPageSize,
                        /*is_write=*/true);
  return Status::OK();
}

Status SsdDevice::Persist(uint64_t offset, size_t size) {
  if (FaultInjector* fi = FaultInjector::Get()) {
    SPITFIRE_RETURN_NOT_OK(fi->OnSsdPersist());
  }
  if (fd_ >= 0 && ::fdatasync(fd_) != 0) {
    return Status::IoError("fdatasync");
  }
  return Status::OK();
}

}  // namespace spitfire
