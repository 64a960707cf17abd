// Stress tests: high-contention combinations of fetch, promotion,
// eviction, policy churn, and flushing on tiny pools — the configurations
// where latching bugs surface.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }
};

TEST_F(StressTest, FetchEvictPromoteWithPolicyChurn) {
  SsdDevice ssd(128ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 24;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = &ssd;
  BufferManager bm(opt);

  constexpr int kPages = 256;
  std::vector<page_id_t> pids;
  for (int i = 0; i < kPages; ++i) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    const uint64_t v = g.pid();
    ASSERT_TRUE(g.WriteAt(64, sizeof(v), &v).ok());
    pids.push_back(g.pid());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t * 31 + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const page_id_t pid = pids[rng.NextUint64(pids.size())];
        const bool write = rng.Bernoulli(0.4);
        auto r = bm.FetchPage(
            pid, write ? AccessIntent::kWrite : AccessIntent::kRead);
        if (!r.ok()) {
          fprintf(stderr, "fetch error: %s\n", r.status().ToString().c_str());
          errors.fetch_add(1);
          continue;
        }
        PageGuard g = r.MoveValue();
        // The stamp at offset 64 is immutable after setup; writes land in
        // a per-thread slot (the buffer manager does not serialize page
        // contents between guard holders — upper layers do).
        uint64_t v = 0;
        if (!g.ReadAt(64, sizeof(v), &v).ok() || v != pid) {
          fprintf(stderr, "data error pid=%llu got=%llu\n",
                  (unsigned long long)pid, (unsigned long long)v);
          errors.fetch_add(1);
        }
        if (write &&
            !g.WriteAt(128 + static_cast<size_t>(t) * 8, sizeof(v), &v)
                 .ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Policy churner: swaps the live policy constantly, like the tuner.
  std::thread churner([&] {
    Xoshiro256 rng(999);
    const double lattice[] = {0.0, 0.01, 0.1, 0.5, 1.0};
    while (!stop.load(std::memory_order_relaxed)) {
      MigrationPolicy p{lattice[rng.NextUint64(5)], lattice[rng.NextUint64(5)],
                        lattice[rng.NextUint64(5)],
                        lattice[rng.NextUint64(5)]};
      bm.SetPolicy(p);
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(8));
  stop.store(true);
  for (auto& w : workers) w.join();
  churner.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(StressTest, ConcurrentFlushDuringTraffic) {
  SsdDevice ssd(128ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 16;
  opt.policy = MigrationPolicy::Lazy();
  opt.ssd = &ssd;
  BufferManager bm(opt);

  constexpr int kPages = 128;
  std::vector<page_id_t> pids;
  for (int i = 0; i < kPages; ++i) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    const uint64_t v = g.pid() * 7;
    ASSERT_TRUE(g.WriteAt(128, sizeof(v), &v).ok());
    pids.push_back(g.pid());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t + 77);
      while (!stop.load(std::memory_order_relaxed)) {
        const page_id_t pid = pids[rng.NextUint64(pids.size())];
        auto r = bm.FetchPage(pid, AccessIntent::kWrite);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        PageGuard g = r.MoveValue();
        const uint64_t v = pid * 7;
        // Per-thread write slots; see the comment in the test above.
        if (!g.WriteAt(256 + static_cast<size_t>(t) * 8, sizeof(v), &v).ok()) {
          errors.fetch_add(1);
        }
        uint64_t check = 0;
        if (!g.ReadAt(128, sizeof(check), &check).ok() || check != v) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Background flusher, like the checkpointer thread.
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)bm.FlushAll(/*include_nvm=*/false);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::this_thread::sleep_for(std::chrono::seconds(6));
  stop.store(true);
  for (auto& w : workers) w.join();
  flusher.join();
  EXPECT_EQ(errors.load(), 0);

  for (page_id_t pid : pids) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    uint64_t v = 0;
    ASSERT_TRUE(g.ReadAt(128, sizeof(v), &v).ok());
    ASSERT_EQ(v, pid * 7);
  }
}

TEST_F(StressTest, FineGrainedAndMiniUnderConcurrency) {
  SsdDevice ssd(128ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 12;
  opt.nvm_frames = 32;
  opt.policy = MigrationPolicy::Eager();
  opt.enable_fine_grained_loading = true;
  opt.enable_mini_pages = true;
  opt.mini_host_frames = 4;
  opt.ssd = &ssd;
  BufferManager bm(opt);

  constexpr int kPages = 128;
  std::vector<page_id_t> pids;
  for (int i = 0; i < kPages; ++i) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    for (size_t off = 256; off + 8 <= kPageSize; off += 1024) {
      const uint64_t v = g.pid() * 1000 + off;
      ASSERT_TRUE(g.WriteAt(off, sizeof(v), &v).ok());
    }
    pids.push_back(g.pid());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t * 13 + 5);
      while (!stop.load(std::memory_order_relaxed)) {
        const page_id_t pid = pids[rng.NextUint64(pids.size())];
        auto r = bm.FetchPage(pid, AccessIntent::kRead);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        PageGuard g = r.MoveValue();
        const size_t off = 256 + rng.NextUint64(15) * 1024;
        uint64_t v = 0;
        if (!g.ReadAt(off, sizeof(v), &v).ok() || v != pid * 1000 + off) {
          errors.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(6));
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0);
}

// Hammers the latch-free pin path against eviction pressure (foreground
// CLOCK sweeps) and checks the accounting
// invariants the optimistic protocol must preserve: every successful fetch
// increments exactly one hit/miss counter (so the sharded stats snapshot
// equals a per-thread ground truth), and no pin is ever leaked or dropped
// (every state word drains to zero pins once the workers stop).
TEST_F(StressTest, ConcurrentPinEvictAccounting) {
  SsdDevice ssd(128ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 16;
  opt.nvm_frames = 32;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = &ssd;
  BufferManager bm(opt);

  constexpr int kPages = 256;
  std::vector<page_id_t> pids;
  for (int i = 0; i < kPages; ++i) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    const uint64_t v = g.pid() ^ 0x5157ull;
    ASSERT_TRUE(g.WriteAt(64, sizeof(v), &v).ok());
    pids.push_back(g.pid());
  }
  bm.stats().Reset();

  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> ground_truth_fetches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t * 101 + 7);
      uint64_t my_fetches = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const page_id_t pid = pids[rng.NextUint64(pids.size())];
        const bool write = rng.Bernoulli(0.25);
        auto r = bm.FetchPage(
            pid, write ? AccessIntent::kWrite : AccessIntent::kRead);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        ++my_fetches;
        PageGuard g = r.MoveValue();
        uint64_t v = 0;
        if (!g.ReadAt(64, sizeof(v), &v).ok() || v != (pid ^ 0x5157ull)) {
          errors.fetch_add(1);
        }
        if (write &&
            !g.WriteAt(512 + static_cast<size_t>(t) * 8, sizeof(v), &v)
                 .ok()) {
          errors.fetch_add(1);
        }
      }
      ground_truth_fetches.fetch_add(my_fetches);
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(6));
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0);

  // Exactly one of {dram_hits, nvm_hits, ssd_fetches} per successful fetch.
  const BufferStatsSnapshot snap = bm.stats().Snapshot();
  EXPECT_EQ(snap.TotalFetches(), ground_truth_fetches.load());
  EXPECT_GT(snap.dram_evictions + snap.nvm_evictions, 0u);

  // No leaked or lost pins: with all guards released, every tier state
  // word must have drained to zero, and every page must still be readable
  // with its original contents (no double-freed frames).
  for (page_id_t pid : pids) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    SharedPageDescriptor* d = g.descriptor();
    uint64_t v = 0;
    ASSERT_TRUE(g.ReadAt(64, sizeof(v), &v).ok());
    EXPECT_EQ(v, pid ^ 0x5157ull);
    g.Release();
    EXPECT_EQ(d->dram.Pins(), 0u);
    EXPECT_EQ(d->nvm.Pins(), 0u);
  }
}

// Asynchronous submit/complete racing blocking fetches and eviction on a
// pool far smaller than the working set: ring workers keep several misses
// in flight per thread while blocking writers churn frames, so installs,
// joins, re-dispatches, and evictions collide on the same descriptors.
// Accounting must stay exact and every byte must come back correct.
TEST_F(StressTest, AsyncSubmitCompleteEvictRace) {
  SsdDevice ssd(128ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = &ssd;
  BufferManager bm(opt);
  ASSERT_NE(bm.io_scheduler(), nullptr);

  constexpr int kPages = 128;
  std::vector<page_id_t> pids;
  for (int i = 0; i < kPages; ++i) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    const uint64_t v = g.pid() ^ 0xA51Cull;
    ASSERT_TRUE(g.WriteAt(64, sizeof(v), &v).ok());
    pids.push_back(g.pid());
  }
  bm.stats().Reset();

  // Small but nonzero device latency so misses genuinely overlap.
  LatencySimulator::SetScale(10.0);

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> ground_truth_fetches{0};
  std::vector<std::thread> workers;

  // Two ring workers: up to 4 async fetches in flight each.
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      constexpr int kRing = 4;
      Xoshiro256 rng(t * 733 + 11);
      FetchTicket ring[kRing];
      page_id_t in_flight[kRing];
      bool busy[kRing] = {false, false, false, false};
      uint64_t my_fetches = 0;
      auto harvest = [&](int i) {
        if (!busy[i] || !ring[i].ready.load(std::memory_order_acquire)) {
          return false;
        }
        if (ring[i].status.ok()) {
          ++my_fetches;
          uint64_t v = 0;
          if (!ring[i].guard.ReadAt(64, sizeof(v), &v).ok() ||
              v != (in_flight[i] ^ 0xA51Cull)) {
            errors.fetch_add(1);
          }
          ring[i].guard.Release();
        } else if (!ring[i].status.IsBusy()) {
          errors.fetch_add(1);  // Busy under churn is legal, errors are not
        }
        busy[i] = false;
        return true;
      };
      while (!stop.load(std::memory_order_relaxed)) {
        bool progressed = false;
        for (int i = 0; i < kRing; ++i) {
          progressed |= harvest(i);
          if (!busy[i]) {
            in_flight[i] = pids[rng.NextUint64(pids.size())];
            ring[i].Reset();
            (void)bm.SubmitFetch(in_flight[i], AccessIntent::kRead, &ring[i]);
            busy[i] = true;
            progressed = true;
          }
        }
        if (!progressed) bm.PumpIo(/*may_sleep=*/true);
      }
      // Drain the ring before the ticket storage goes out of scope.
      for (bool any = true; any;) {
        any = false;
        for (int i = 0; i < kRing; ++i) {
          harvest(i);
          any |= busy[i];
        }
        if (any) bm.PumpIo(/*may_sleep=*/false);
      }
      ground_truth_fetches.fetch_add(my_fetches);
    });
  }
  // Two blocking writers: dirty pages and force evict/write-back traffic.
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t * 577 + 3);
      uint64_t my_fetches = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const page_id_t pid = pids[rng.NextUint64(pids.size())];
        auto r = bm.FetchPage(pid, AccessIntent::kWrite);
        if (!r.ok()) {
          if (!r.status().IsBusy()) errors.fetch_add(1);
          continue;
        }
        ++my_fetches;
        PageGuard g = r.MoveValue();
        uint64_t v = 0;
        if (!g.ReadAt(64, sizeof(v), &v).ok() || v != (pid ^ 0xA51Cull)) {
          errors.fetch_add(1);
        }
        if (!g.WriteAt(512 + static_cast<size_t>(t) * 8, sizeof(v), &v)
                 .ok()) {
          errors.fetch_add(1);
        }
      }
      ground_truth_fetches.fetch_add(my_fetches);
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(6));
  stop.store(true);
  for (auto& w : workers) w.join();
  LatencySimulator::SetScale(0.0);
  EXPECT_EQ(errors.load(), 0);

  // Exactly one of {dram_hits, nvm_hits, ssd_fetches} per completed fetch,
  // across hits, leaders, joiners, and re-dispatched tickets alike.
  const BufferStatsSnapshot snap = bm.stats().Snapshot();
  EXPECT_EQ(snap.TotalFetches(), ground_truth_fetches.load());
  EXPECT_GT(snap.miss_submits, 0u);

  // All pins drained, all bytes intact.
  for (page_id_t pid : pids) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    SharedPageDescriptor* d = g.descriptor();
    uint64_t v = 0;
    ASSERT_TRUE(g.ReadAt(64, sizeof(v), &v).ok());
    EXPECT_EQ(v, pid ^ 0xA51Cull);
    g.Release();
    EXPECT_EQ(d->dram.Pins(), 0u);
    EXPECT_EQ(d->nvm.Pins(), 0u);
  }
}

}  // namespace
}  // namespace spitfire
