// Figure 8: Impact of Bypassing NVM on Writes to NVM — NVM write volume
// (media bytes, i.e. 256 B-granular) under lazy vs eager NVM policies.
//
// Expected shape: on YCSB-RO the eager policy (N = 1) writes dramatically
// more to NVM than N = 0.1 (the paper reports ~92x) because every SSD
// fetch is installed into NVM; on write-heavy mixes the ratio shrinks
// (~1.3–1.6x) since dirty evictions dominate. Here a dirty DRAM page
// evicted onto its NVM copy writes back only its changed 256 B units, so
// dirty evictions weigh less and the write-heavy ratio stays larger
// (~5–7x; EXPERIMENTS.md, "Write back only the bytes that changed").
#include <cstdio>

#include "bench_util.h"

using namespace spitfire;          // NOLINT
using namespace spitfire::bench;   // NOLINT

int main() {
  LatencySimulator::SetScale(EnvScale());
  PrintBanner("Figure 8", "Impact of Bypassing NVM on Writes to NVM");
  const double kDramMb = 12.5, kNvmMb = 50, kDbMb = 100;
  const double seconds = EnvSeconds(0.4);
  const double probs[] = {0.0, 0.01, 0.1, 1.0};
  const AccessPattern pats[] = {YcsbRo(kDbMb), YcsbBa(kDbMb), YcsbWh(kDbMb),
                                TpccLike(kDbMb)};

  std::printf("\nNVM write volume in MB per 100k ops (media-granular)\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "N =", "0", "0.01", "0.1", "1");
  for (const AccessPattern& pat : pats) {
    std::printf("%-10s", pat.name.c_str());
    double lazy01 = 0, eager = 0;
    for (double n : probs) {
      HierarchySpec spec;
      spec.dram_mb = kDramMb;
      spec.nvm_mb = kNvmMb;
      spec.ssd_mb = kDbMb + 32;
      spec.policy = MigrationPolicy{1.0, 1.0, n, n};
      Hierarchy h = MakeHierarchy(spec);
      Populate(*h.bm, pat.num_pages);
      AccessGenerator gen(pat);
      WarmUp(*h.bm, gen, pat.num_pages + 40000);
      Xoshiro256 rng(7);
      std::vector<std::byte> buf(kTupleBytes);
      const uint64_t kOps = static_cast<uint64_t>(100000 * seconds / 0.4);
      for (uint64_t i = 0; i < kOps; ++i) {
        const auto a = gen.Next(rng);
        auto r = h.bm->FetchPage(a.page, a.is_write ? AccessIntent::kWrite
                                                    : AccessIntent::kRead);
        if (!r.ok()) continue;
        if (a.is_write) {
          (void)r.value().WriteAt(a.offset, kTupleBytes, buf.data());
        } else {
          (void)r.value().ReadAt(a.offset, kTupleBytes, buf.data());
        }
      }
      const double mb =
          static_cast<double>(
              h.bm->nvm_device()->stats().media_bytes_written.load()) /
          1e6 * (100000.0 / static_cast<double>(kOps));
      std::printf(" %12.2f", mb);
      std::fflush(stdout);
      if (n == 0.1) lazy01 = mb;
      if (n == 1.0) eager = mb;
    }
    std::printf("   eager/lazy(0.1) = %.1fx\n",
                lazy01 > 0 ? eager / lazy01 : 0.0);
  }
  return 0;
}
