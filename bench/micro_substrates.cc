// Microbenchmarks of the substrates (google-benchmark): concurrent bitmap
// / CLOCK, latches, B+Tree, NVM log buffer, page checksum, and raw buffer
// manager fetch paths. These are not paper figures; they guard against
// performance regressions in the building blocks.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/page.h"
#include "container/concurrent_bitmap.h"
#include "container/mpmc_queue.h"
#include "index/btree.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"
#include "sync/optimistic_latch.h"
#include "sync/spin_latch.h"
#include "wal/nvm_log_buffer.h"

namespace spitfire {
namespace {

void BM_ConcurrentBitmapSet(benchmark::State& state) {
  static ConcurrentBitmap bm(1 << 20);
  Xoshiro256 rng(state.thread_index() + 1);
  for (auto _ : state) {
    bm.Set(rng.NextUint64(1 << 20));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentBitmapSet)->Threads(1)->Threads(2);

void BM_SpinLatch(benchmark::State& state) {
  static SpinLatch latch;
  for (auto _ : state) {
    latch.Lock();
    benchmark::ClobberMemory();
    latch.Unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpinLatch)->Threads(1)->Threads(2);

void BM_OptimisticRead(benchmark::State& state) {
  static OptimisticLatch latch;
  for (auto _ : state) {
    const uint64_t v = latch.ReadLockOrRestart();
    benchmark::DoNotOptimize(latch.Validate(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OptimisticRead)->Threads(1)->Threads(2);

void BM_MpmcQueue(benchmark::State& state) {
  static MpmcQueue<uint64_t> q(4096);
  uint64_t v = 0;
  for (auto _ : state) {
    if (!q.TryPush(1)) q.TryPop(&v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueue)->Threads(1)->Threads(2);

void BM_BTreeLookup(benchmark::State& state) {
  LatencySimulator::SetScale(0.0);
  static SsdDevice* ssd = new SsdDevice(512ull << 20);
  static BufferManager* bm = [] {
    BufferManagerOptions opt;
    opt.dram_frames = 2048;
    opt.nvm_frames = 2048;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd;
    return new BufferManager(opt);
  }();
  static BTree* tree = [] {
    BTree* t = BTree::Create(bm).value();
    for (uint64_t k = 0; k < 200'000; ++k) {
      SPITFIRE_CHECK(t->Insert(k, k).ok());
    }
    return t;
  }();
  Xoshiro256 rng(state.thread_index() + 7);
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Lookup(rng.NextUint64(200'000), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Threads(1)->Threads(2);

void BM_NvmLogAppend(benchmark::State& state) {
  LatencySimulator::SetScale(0.0);
  static NvmDevice* nvm = new NvmDevice(256ull << 20);
  static NvmLogBuffer* log = [] {
    auto* l = new NvmLogBuffer(nvm, 0, 256ull << 20);
    SPITFIRE_CHECK(l->Format(0).ok());
    return l;
  }();
  std::byte payload[128] = {};
  std::vector<std::byte> sink;
  for (auto _ : state) {
    auto r = log->Append(payload, sizeof(payload));
    if (!r.ok()) {
      (void)log->Drain(&sink);  // recycle the buffer
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_NvmLogAppend)->Threads(1)->Threads(2);

// The checksum every page image written to SSD is stamped with
// (BufferManager::WriteToSsd) and recovery verifies.
void BM_PageChecksum(benchmark::State& state) {
  std::vector<std::byte> frame(kPageSize);
  Xoshiro256 rng(state.range(0));
  for (size_t i = 0; i < kPageSize; i += sizeof(uint64_t)) {
    const uint64_t w = rng.Next();
    std::memcpy(frame.data() + i, &w, sizeof(w));
  }
  uint64_t n = 0;
  for (auto _ : state) {
    // A new payload word per iteration: no two sums share an input.
    std::memcpy(frame.data() + kPageHeaderSize, &n, sizeof(n));
    ++n;
    benchmark::DoNotOptimize(ComputePageChecksum(frame.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PageChecksum)->Arg(1);

void BM_BufferFetchDramHit(benchmark::State& state) {
  LatencySimulator::SetScale(0.0);
  static SsdDevice* ssd = new SsdDevice(64ull << 20);
  static BufferManager* bm = [] {
    BufferManagerOptions opt;
    opt.dram_frames = 512;
    opt.nvm_frames = 512;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd;
    auto* b = new BufferManager(opt);
    for (int i = 0; i < 256; ++i) SPITFIRE_CHECK(b->NewPage().ok());
    return b;
  }();
  Xoshiro256 rng(state.thread_index() + 3);
  for (auto _ : state) {
    auto r = bm->FetchPage(rng.NextUint64(256), AccessIntent::kRead);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferFetchDramHit)->Threads(1)->Threads(2);

}  // namespace
}  // namespace spitfire

BENCHMARK_MAIN();
