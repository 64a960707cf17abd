#include "wal/nvm_log_buffer.h"

#include <cstring>

namespace spitfire {

NvmLogBuffer::NvmLogBuffer(Device* device, uint64_t offset, uint64_t size)
    : device_(device), offset_(offset), size_(size) {
  SPITFIRE_CHECK(device != nullptr);
  SPITFIRE_CHECK(size > kHeaderSize);
  SPITFIRE_CHECK(offset + size <= device->capacity());
}

Status NvmLogBuffer::Format(lsn_t base_lsn) {
  Header h{kMagic, 0, 0, base_lsn, 0};
  std::memcpy(header(), &h, sizeof(h));
  return device_->Persist(offset_, sizeof(Header));
}

Status NvmLogBuffer::Attach() {
  Header h;
  std::memcpy(&h, header(), sizeof(h));
  if (h.magic != kMagic || h.used > capacity() ||
      h.head > capacity() - h.used) {
    return Status::Corruption("NVM log buffer header invalid");
  }
  return Status::OK();
}

Result<lsn_t> NvmLogBuffer::Append(const std::byte* data, size_t len) {
  SpinLatchGuard g(latch_);
  Header* h = header();
  if (h->head + h->used + len > capacity()) {
    return Status::OutOfMemory("NVM log buffer full");
  }
  const lsn_t at = h->base_lsn + h->used;
  const uint64_t pos = h->head + h->used;
  std::memcpy(payload(pos), data, len);
  // Persist payload first, then the header's used count: a torn update
  // can only lose the tail record, never expose garbage as valid.
  device_->OnDirectWrite(offset_ + kHeaderSize + pos, len,
                         /*sequential=*/true);
  SPITFIRE_RETURN_NOT_OK(device_->Persist(offset_ + kHeaderSize + pos, len));
  h->used += len;
  SPITFIRE_RETURN_NOT_OK(device_->Persist(offset_, sizeof(Header)));
  return at;
}

Result<lsn_t> NvmLogBuffer::Peek(std::vector<std::byte>* out) {
  SpinLatchGuard g(latch_);
  const Header* h = header();
  const lsn_t first = h->base_lsn;
  out->resize(h->used);
  if (h->used > 0) {
    std::memcpy(out->data(), payload(h->head), h->used);
    device_->OnDirectRead(offset_ + kHeaderSize + h->head, h->used,
                          /*sequential=*/true);
  }
  return first;
}

Status NvmLogBuffer::MarkDrained(uint64_t n) {
  SpinLatchGuard g(latch_);
  Header* h = header();
  SPITFIRE_CHECK(n <= h->used);
  h->base_lsn += n;
  h->used -= n;
  // One single-line header persist makes the consume atomic; the payload
  // bytes themselves are untouched, so a crash before this persist just
  // leaves them staged (re-drained idempotently at LSN == file offset).
  h->head = h->used == 0 ? 0 : h->head + n;
  return device_->Persist(offset_, sizeof(Header));
}

uint64_t NvmLogBuffer::StagedBytes() const {
  SpinLatchGuard g(latch_);
  return header()->used;
}

lsn_t NvmLogBuffer::base_lsn() const {
  SpinLatchGuard g(latch_);
  return header()->base_lsn;
}

}  // namespace spitfire
