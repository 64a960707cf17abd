#ifndef SPITFIRE_COMMON_CHECKSUM_H_
#define SPITFIRE_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace spitfire {

// 64-bit word-parallel checksum over a byte range. Used to detect torn/short
// device writes on structures recovery trusts (page images, catalog slots,
// log file header). Not cryptographic; collision resistance against random
// corruption is all that's needed.
//
// Word i feeds lane i % 4. The lanes are four independent dependency
// chains, so a 16 KB page costs 512 chained multiplies per lane rather than
// the 16,384 of a byte-serial hash. They are named scalars, not an array:
// an array invites the compiler to vectorize them, and without a native
// 64-bit vector multiply that runs twice as slow. A final partial block is
// zero-padded, and the length is folded in so padding cannot alias a
// longer input.
inline uint64_t Checksum64(const void* data, size_t len) {
  // For a fixed `h` the step is a bijection of `w`, and for a fixed `w` a
  // bijection of `h` (xor, multiply by an odd constant and xorshift are
  // each invertible), so a change confined to one input word always
  // changes the result.
  const auto mix = [](uint64_t h, uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 29);
  };
  const auto word = [](const unsigned char* b) {
    uint64_t w;
    std::memcpy(&w, b, sizeof(w));
    return w;
  };
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h0 = 0xcbf29ce484222325ull;
  uint64_t h1 = 0x84222325cbf29ce4ull;
  uint64_t h2 = 0x243f6a8885a308d3ull;
  uint64_t h3 = 0x13198a2e03707344ull;
  const auto block = [&](const unsigned char* b) {
    h0 = mix(h0, word(b));
    h1 = mix(h1, word(b + 8));
    h2 = mix(h2, word(b + 16));
    h3 = mix(h3, word(b + 24));
  };
  size_t i = 0;
  for (; i + 32 <= len; i += 32) block(p + i);
  if (i < len) {
    unsigned char tail[32] = {};
    std::memcpy(tail, p + i, len - i);
    block(tail);
  }
  uint64_t h = mix(h0, static_cast<uint64_t>(len));
  h = mix(h, h1);
  h = mix(h, h2);
  h = mix(h, h3);
  // A zero checksum is reserved as "unstamped"; remap the (astronomically
  // rare) real zero so verifiers can distinguish the two.
  return h == 0 ? 1 : h;
}

}  // namespace spitfire

#endif  // SPITFIRE_COMMON_CHECKSUM_H_
