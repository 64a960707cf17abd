#ifndef SPITFIRE_BUFFER_PAGE_H_
#define SPITFIRE_BUFFER_PAGE_H_

#include <cstdint>
#include <cstring>

#include "common/checksum.h"
#include "common/constants.h"
#include "common/macros.h"

namespace spitfire {

// On-page header occupying the first cache line of every 16 KB page. The
// page id and LSN in the header are what the recovery path reads back when
// it scans the (persistent) NVM buffer to rebuild the mapping table.
struct PageHeader {
  static constexpr uint32_t kMagic = 0x5F17F14E;  // "SPITFIRE"

  uint32_t magic = kMagic;
  uint32_t page_type = 0;  // interpreted by upper layers (heap, btree, meta)
  page_id_t page_id = kInvalidPageId;
  lsn_t page_lsn = 0;
  // checksum over the full page image, stamped on every SSD write
  // (BufferManager::WriteToSsd); 0 = unstamped. Recovery refuses to trust
  // an SSD page whose stored checksum does not match — the signature of a
  // torn or short page write.
  uint64_t checksum = 0;
  uint64_t reserved[4] = {};

  bool IsValid() const { return magic == kMagic; }
};
static_assert(sizeof(PageHeader) == 64, "header must fit one cache line");

inline constexpr size_t kPageHeaderSize = sizeof(PageHeader);
inline constexpr size_t kPagePayloadSize = kPageSize - kPageHeaderSize;

// Computes the whole-page checksum with the checksum field itself zeroed.
// `frame` must point at a full kPageSize image.
inline uint64_t ComputePageChecksum(const std::byte* frame) {
  PageHeader hdr;
  std::memcpy(&hdr, frame, sizeof(hdr));
  hdr.checksum = 0;
  uint64_t h = Checksum64(&hdr, sizeof(hdr));
  // Chain the payload into the header hash (order-sensitive mix).
  h ^= Checksum64(frame + kPageHeaderSize, kPageSize - kPageHeaderSize);
  return h == 0 ? 1 : h;
}

// Stamps the checksum into a page image about to be written to SSD.
inline void StampPageChecksum(std::byte* frame) {
  const uint64_t sum = ComputePageChecksum(frame);
  std::memcpy(frame + offsetof(PageHeader, checksum), &sum, sizeof(sum));
}

// True when the stored checksum matches the image (or when the page was
// never stamped — pre-checksum images are trusted as before).
inline bool VerifyPageChecksum(const std::byte* frame) {
  uint64_t stored;
  std::memcpy(&stored, frame + offsetof(PageHeader, checksum),
              sizeof(stored));
  if (stored == 0) return true;
  return stored == ComputePageChecksum(frame);
}

// Typed view over a raw 16 KB frame.
class PageView {
 public:
  explicit PageView(std::byte* frame) : frame_(frame) {}

  PageHeader* header() { return reinterpret_cast<PageHeader*>(frame_); }
  const PageHeader* header() const {
    return reinterpret_cast<const PageHeader*>(frame_);
  }
  std::byte* payload() { return frame_ + kPageHeaderSize; }
  const std::byte* payload() const { return frame_ + kPageHeaderSize; }
  std::byte* raw() { return frame_; }

  void Format(page_id_t pid, uint32_t page_type) {
    std::memset(frame_, 0, kPageSize);
    PageHeader h;
    h.page_id = pid;
    h.page_type = page_type;
    std::memcpy(frame_, &h, sizeof(h));
  }

 private:
  std::byte* frame_;
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_PAGE_H_
