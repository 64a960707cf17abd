// Sharded buffer manager: routing stability, cross-shard data-plane
// correctness, cross-shard transaction atomicity under concurrent load,
// per-shard NVM recovery, and the lock-free MVTO active-transaction
// registry the sharded engine leans on.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "db/database.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"
#include "txn/mvto_manager.h"

namespace spitfire {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }
};

// --- routing ---------------------------------------------------------------

TEST_F(ShardTest, RoutingIsDeterministicAndBlockGranular) {
  for (page_id_t pid = 0; pid < 10'000; ++pid) {
    const uint32_t s = ShardOfPage(pid, 8);
    EXPECT_EQ(s, ShardOfPage(pid, 8));  // stable across calls
    EXPECT_LT(s, 8u);
    // All pages of one 32-page block land on the same shard, so
    // sequential scans stay shard-local long enough for read-ahead.
    const page_id_t block_first = pid & ~((page_id_t{1} << kShardBlockBits) - 1);
    EXPECT_EQ(s, ShardOfPage(block_first, 8));
  }
  // One shard always routes everything to itself.
  for (page_id_t pid = 0; pid < 1'000; ++pid) {
    EXPECT_EQ(ShardOfPage(pid, 1), 0u);
  }
}

TEST_F(ShardTest, RoutingCoversAllShardsRoughlyUniformly) {
  constexpr uint32_t kShards = 8;
  constexpr page_id_t kPages = 64 * 1024;  // 2048 blocks
  std::vector<uint64_t> count(kShards, 0);
  for (page_id_t pid = 0; pid < kPages; ++pid) {
    ++count[ShardOfPage(pid, kShards)];
  }
  const uint64_t expect = kPages / kShards;
  for (uint32_t s = 0; s < kShards; ++s) {
    // Within 25% of perfectly uniform over 2048 blocks.
    EXPECT_GT(count[s], expect * 3 / 4) << "shard " << s;
    EXPECT_LT(count[s], expect * 5 / 4) << "shard " << s;
  }
}

// --- cross-shard data plane ------------------------------------------------

TEST_F(ShardTest, CrossShardWritesReadBackCorrectly) {
  SsdDevice ssd(64ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 512;
  opt.num_shards = 4;
  opt.ssd = &ssd;
  BufferManager bm(opt);
  ASSERT_EQ(bm.num_shards(), 4u);

  constexpr page_id_t kPages = 256;
  std::set<uint32_t> shards_touched;
  for (page_id_t pid = 0; pid < kPages; ++pid) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().pid(), pid);
    const uint64_t marker = pid * 0x9E3779B97F4A7C15ull + 1;
    ASSERT_TRUE(r.value().WriteAt(64, sizeof(marker), &marker).ok());
    shards_touched.insert(bm.ShardIndexOf(pid));
  }
  // 8 blocks over 4 shards: every shard should own at least one.
  EXPECT_EQ(shards_touched.size(), 4u);

  // Push everything to SSD, then fetch back through the routed path.
  ASSERT_TRUE(bm.FlushAll(/*include_nvm=*/true).ok());
  for (page_id_t pid = 0; pid < kPages; ++pid) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << pid;
    uint64_t marker = 0;
    ASSERT_TRUE(r.value().ReadAt(64, sizeof(marker), &marker).ok());
    EXPECT_EQ(marker, pid * 0x9E3779B97F4A7C15ull + 1) << pid;
  }

  // Merged stats see the whole engine: every fetch above counted.
  const BufferStatsSnapshot snap = bm.stats().Snapshot();
  EXPECT_GE(snap.TotalFetches(), kPages);
}

TEST_F(ShardTest, SingleShardMatchesLegacyLayout) {
  // num_shards = 1 must reproduce the unsharded engine: every page routes
  // to shard 0 and the full frame budget lands there.
  SsdDevice ssd(16ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 64;
  opt.nvm_frames = 96;
  opt.num_shards = 1;
  opt.ssd = &ssd;
  BufferManager bm(opt);
  ASSERT_EQ(bm.num_shards(), 1u);
  EXPECT_EQ(bm.dram_pool()->num_frames(), 64u);
  EXPECT_EQ(bm.nvm_pool()->num_frames(), 96u);
  EXPECT_EQ(bm.miss_admission_cap(), std::max(8u, (64u + 96u) / 2));
}

// --- cross-shard transactions ----------------------------------------------

struct Account {
  uint64_t balance;
  char pad[1008];  // ~16 rows per 16 KB page so the table spans many pages
};

TEST_F(ShardTest, CrossShardTxnAtomicityUnderLoad) {
  DatabaseOptions opts;
  opts.dram_frames = 1024;
  opts.num_shards = 4;
  opts.policy = MigrationPolicy::Eager();
  auto db = Database::Create(opts).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Account)).value();

  // Bulk-load enough accounts that the heap spans several routing blocks
  // (>= 3 shards), so one transfer txn below crosses shards.
  constexpr uint64_t kAccounts = 3'000;
  constexpr uint64_t kInitialBalance = 1'000;
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < kAccounts; ++k) {
      Account a{};
      a.balance = kInitialBalance;
      ASSERT_TRUE(t->Insert(txn.get(), k, &a).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  // Verify the table heap really spans >= 3 shards.
  BufferManager* bm = db->buffer_manager();
  std::set<uint32_t> heap_shards;
  for (page_id_t pid = 0; pid < bm->next_page_id(); ++pid) {
    heap_shards.insert(bm->ShardIndexOf(pid));
  }
  ASSERT_GE(heap_shards.size(), 3u);

  // Transfer txns move balance between accounts ~kAccounts/2 apart (far
  // pages → different shards); half the txns abort on purpose. Concurrent
  // auditors snapshot-sum every account; any torn (partially applied)
  // transfer or leaked abort breaks the invariant total.
  constexpr int kWriters = 3;
  constexpr int kTransfersPerWriter = 150;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> audits{0};
  std::atomic<uint64_t> audit_failures{0};

  std::thread auditor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = db->Begin();
      uint64_t total = 0;
      bool complete = true;
      for (uint64_t k = 0; k < kAccounts && complete; ++k) {
        Account a{};
        const Status st = t->Read(txn.get(), k, &a);
        if (!st.ok()) {
          complete = false;  // snapshot conflict; retry with a fresh txn
          break;
        }
        total += a.balance;
      }
      if (complete) {
        audits.fetch_add(1);
        if (total != kAccounts * kInitialBalance) audit_failures.fetch_add(1);
      }
      (void)db->Abort(txn.get());
    }
  });

  // Each writer makes its transfers, and goes on until the auditor has
  // completed a snapshot: on a loaded host the writers can finish before
  // one full audit does.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0xC0FFEE + w * 7919;
      for (int i = 0;
           i < kTransfersPerWriter ||
           (audits.load() == 0 && std::chrono::steady_clock::now() < deadline);
           ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t from = rng % kAccounts;
        const uint64_t to = (from + kAccounts / 2) % kAccounts;
        const bool abort = (rng >> 32) & 1;
        auto txn = db->Begin();
        Account fa{}, ta{};
        if (!t->Read(txn.get(), from, &fa).ok() ||
            !t->Read(txn.get(), to, &ta).ok() || fa.balance == 0) {
          (void)db->Abort(txn.get());
          continue;
        }
        fa.balance -= 1;
        ta.balance += 1;
        if (!t->Update(txn.get(), from, &fa).ok() ||
            !t->Update(txn.get(), to, &ta).ok()) {
          (void)db->Abort(txn.get());
          continue;
        }
        if (abort) {
          ASSERT_TRUE(db->Abort(txn.get()).ok());
        } else if (!db->Commit(txn.get()).ok()) {
          // Commit-time conflict: already rolled back by the engine.
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  auditor.join();

  EXPECT_GT(audits.load(), 0u);
  EXPECT_EQ(audit_failures.load(), 0u);

  // Final ground truth after all writers are done.
  auto txn = db->Begin();
  uint64_t total = 0;
  for (uint64_t k = 0; k < kAccounts; ++k) {
    Account a{};
    ASSERT_TRUE(t->Read(txn.get(), k, &a).ok());
    total += a.balance;
  }
  EXPECT_EQ(total, kAccounts * kInitialBalance);
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

// --- recovery --------------------------------------------------------------

TEST_F(ShardTest, RecoveryRepopulatesEveryShard) {
  constexpr size_t kNvmFrames = 256;
  constexpr size_t kShards = 4;
  constexpr page_id_t kPages = 192;  // 6 blocks: every shard owns >= 1
  SsdDevice ssd(64ull * 1024 * 1024);
  NvmDevice nvm(BufferPool::RequiredCapacity(kNvmFrames,
                                             /*persistent_frame_table=*/true));

  BufferManagerOptions opt;
  opt.dram_frames = 0;  // NVM-SSD hierarchy: new pages live in NVM
  opt.nvm_frames = kNvmFrames;
  opt.num_shards = kShards;
  opt.ssd = &ssd;
  opt.nvm = &nvm;

  {
    BufferManager bm(opt);
    for (page_id_t pid = 0; pid < kPages; ++pid) {
      auto r = bm.NewPage();
      ASSERT_TRUE(r.ok());
      const uint64_t marker = ~pid;
      ASSERT_TRUE(r.value().WriteAt(128, sizeof(marker), &marker).ok());
    }
    // Crash: no flush. The NVM frame tables (one slice per shard, one
    // shared on-device layout) are the only surviving metadata.
  }

  BufferManager bm(opt);
  ASSERT_EQ(bm.NvmResidentPages(), 0u);
  ASSERT_TRUE(bm.RecoverNvmResidentPages().ok());
  EXPECT_EQ(bm.NvmResidentPages(), kPages);
  EXPECT_GE(bm.next_page_id(), kPages);
  // Every shard's mapping slice was rebuilt.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(bm.shard(s)->NvmResidentPages(), 0u) << "shard " << s;
  }
  // And the contents survived.
  for (page_id_t pid = 0; pid < kPages; ++pid) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << pid;
    uint64_t marker = 0;
    ASSERT_TRUE(r.value().ReadAt(128, sizeof(marker), &marker).ok());
    EXPECT_EQ(marker, ~pid) << pid;
  }
}

TEST_F(ShardTest, RecoveryRejectsMismatchedShardCount) {
  constexpr size_t kNvmFrames = 256;
  SsdDevice ssd(64ull * 1024 * 1024);
  NvmDevice nvm(BufferPool::RequiredCapacity(kNvmFrames,
                                             /*persistent_frame_table=*/true));
  BufferManagerOptions opt;
  opt.dram_frames = 0;
  opt.nvm_frames = kNvmFrames;
  opt.num_shards = 4;
  opt.ssd = &ssd;
  opt.nvm = &nvm;
  {
    BufferManager bm(opt);
    for (page_id_t pid = 0; pid < 192; ++pid) {
      ASSERT_TRUE(bm.NewPage().ok());
    }
  }
  // Reopening with a different shard count must be detected, not silently
  // mis-partitioned: some shard finds a page in its frame slice that
  // routes elsewhere.
  opt.num_shards = 2;
  BufferManager bm(opt);
  const Status st = bm.RecoverNvmResidentPages();
  EXPECT_FALSE(st.ok()) << st.ToString();
}

// --- lock-free MVTO registry ----------------------------------------------

TEST_F(ShardTest, MvtoSlotRegistryConcurrentBeginFinish) {
  TransactionManager tm;
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 2'000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = tm.Begin();
        // The GC watermark may never pass a live transaction.
        EXPECT_LE(tm.MinActiveTs(), txn->ts());
        tm.Finish(txn.get());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tm.active_count(), 0u);
  EXPECT_EQ(tm.LastAssignedTs(),
            static_cast<timestamp_t>(kThreads) * kTxnsPerThread);
  // With nothing active the watermark is the dispenser frontier.
  EXPECT_EQ(tm.MinActiveTs(), tm.LastAssignedTs() + 1);
}

// Other threads' open transactions bound the watermark too, not only the
// caller's. Each worker keeps a ring of open transactions (so its slots
// climb past the ones other workers hold) and publishes its oldest open
// timestamp; a published value that is unchanged across a MinActiveTs
// call belongs to a transaction that was open for all of it.
TEST_F(ShardTest, MvtoWatermarkBoundsOtherThreadsOpenTransactions) {
  TransactionManager tm;
  constexpr int kThreads = 4;
  constexpr size_t kRing = 16;
  constexpr int kTxnsPerThread = 20'000;
  std::array<std::atomic<timestamp_t>, kThreads> oldest{};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::deque<std::unique_ptr<Transaction>> ring;
      for (int i = 0; i < kTxnsPerThread; ++i) {
        if (ring.size() == kRing) {
          oldest[w].store(ring[1]->ts());  // unpublish before finishing
          tm.Finish(ring.front().get());
          ring.pop_front();
        }
        ring.push_back(tm.Begin());
        if (ring.size() == 1) oldest[w].store(ring.front()->ts());
      }
      oldest[w].store(0);
      for (auto& txn : ring) tm.Finish(txn.get());
      running.fetch_sub(1);
    });
  }
  uint64_t checks = 0;
  uint64_t violations = 0;
  while (running.load() > 0) {
    std::array<timestamp_t, kThreads> before;
    for (int w = 0; w < kThreads; ++w) before[w] = oldest[w].load();
    const timestamp_t min = tm.MinActiveTs();
    for (int w = 0; w < kThreads; ++w) {
      if (before[w] != 0 && oldest[w].load() == before[w] && min > before[w]) {
        ++violations;
      }
    }
    ++checks;
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(violations, 0u) << "of " << checks << " checks";
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST_F(ShardTest, MvtoFinishIsIdempotentAndSlotsRecycle) {
  TransactionManager tm;
  // Far more txns than slots: every slot must recycle cleanly.
  for (int i = 0; i < 3 * static_cast<int>(TransactionManager::kMaxActiveTxns);
       ++i) {
    auto txn = tm.Begin();
    tm.Finish(txn.get());
    tm.Finish(txn.get());  // double-finish must be harmless
  }
  EXPECT_EQ(tm.active_count(), 0u);
}

}  // namespace
}  // namespace spitfire
