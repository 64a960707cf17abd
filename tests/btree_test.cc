#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "index/btree.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    ssd_ = std::make_unique<SsdDevice>(16ull * 1024 * 1024);
    BufferManagerOptions opt;
    opt.dram_frames = 256;
    opt.nvm_frames = 256;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd_.get();
    bm_ = std::make_unique<BufferManager>(opt);
    auto r = BTree::Create(bm_.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    tree_.reset(r.value());
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  std::unique_ptr<SsdDevice> ssd_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_->Insert(42, 4200).ok());
  uint64_t v = 0;
  ASSERT_TRUE(tree_->Lookup(42, &v).ok());
  EXPECT_EQ(v, 4200u);
}

TEST_F(BTreeTest, LookupMissingReturnsNotFound) {
  uint64_t v;
  EXPECT_TRUE(tree_->Lookup(7, &v).IsNotFound());
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert(1, 10).ok());
  EXPECT_FALSE(tree_->Insert(1, 20).ok());
  uint64_t v;
  ASSERT_TRUE(tree_->Lookup(1, &v).ok());
  EXPECT_EQ(v, 10u);
}

TEST_F(BTreeTest, UpsertOverwrites) {
  ASSERT_TRUE(tree_->Upsert(1, 10).ok());
  ASSERT_TRUE(tree_->Upsert(1, 20).ok());
  uint64_t v;
  ASSERT_TRUE(tree_->Lookup(1, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST_F(BTreeTest, RemoveDeletesKey) {
  ASSERT_TRUE(tree_->Insert(5, 50).ok());
  ASSERT_TRUE(tree_->Remove(5).ok());
  uint64_t v;
  EXPECT_TRUE(tree_->Lookup(5, &v).IsNotFound());
  EXPECT_TRUE(tree_->Remove(5).IsNotFound());
}

TEST_F(BTreeTest, ManyKeysSequential) {
  constexpr uint64_t kN = 20000;  // forces multiple leaf and inner splits
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree_->Insert(k, k * 2).ok()) << k;
  }
  EXPECT_GE(tree_->height(), 2u);
  for (uint64_t k = 0; k < kN; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok()) << k;
    ASSERT_EQ(v, k * 2);
  }
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kN);
}

TEST_F(BTreeTest, ManyKeysRandomOrder) {
  constexpr uint64_t kN = 20000;
  std::vector<uint64_t> keys(kN);
  for (uint64_t i = 0; i < kN; ++i) keys[i] = i * 7 + 1;
  Xoshiro256 rng(9);
  for (uint64_t i = kN - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.NextUint64(i + 1)]);
  }
  for (uint64_t k : keys) ASSERT_TRUE(tree_->Insert(k, k + 1).ok());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok());
    ASSERT_EQ(v, k + 1);
  }
}

// Entries of a full leaf: the page payload after the 16-byte node header,
// in 16-byte key/value pairs.
constexpr uint64_t kLeafEntries = (kPagePayloadSize - 16) / 16;

// No later key lands in a leaf that ascending inserts have moved past, so
// a split in the middle would leave every such leaf half full for good.
// They split next to the new key instead.
TEST_F(BTreeTest, AscendingInsertsLeaveFullLeavesBehind) {
  constexpr uint64_t kN = 60'000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree_->Insert(k, k * 3).ok()) << k;
  }
  // The tree is the pool's only user. Every leaf but the last keeps all
  // but one entry, plus one inner root; middle splits took 118 pages.
  EXPECT_LE(bm_->next_page_id(), kN / (kLeafEntries - 1) + 2);
  for (uint64_t k = 0; k < kN; k += 7) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok()) << k;
    ASSERT_EQ(v, k * 3);
  }
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kN);
}

// The same holds for ascending runs appended side by side, as TPC-C
// appends orders and order lines at the end of each district's key range:
// a run's insert point sits inside a leaf, before the next run's keys.
TEST_F(BTreeTest, InterleavedAscendingRunsLeaveFullLeavesBehind) {
  constexpr uint64_t kRuns = 40;
  constexpr uint64_t kPerRun = 4'000;
  std::vector<uint64_t> done(kRuns, 0);
  std::vector<uint64_t> inserted;
  Xoshiro256 rng(17);
  while (inserted.size() < kRuns * kPerRun) {
    const uint64_t run = rng.NextUint64(kRuns);
    if (done[run] == kPerRun) continue;
    const uint64_t i = done[run]++;
    // Ten keys in every sixteen, like the lines of consecutive orders:
    // steps of 1 within an order and of 7 across.
    const uint64_t key = (run << 32) | (i / 10 * 16 + i % 10);
    ASSERT_TRUE(tree_->Insert(key, key + 1).ok()) << key;
    inserted.push_back(key);
  }
  const double full_leaves =
      static_cast<double>(inserted.size()) / static_cast<double>(kLeafEntries);
  // Full leaves take 157 pages; middle splits took 291.
  EXPECT_LT(static_cast<double>(bm_->next_page_id()), 1.4 * full_leaves);
  for (size_t i = 0; i < inserted.size(); i += 13) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(inserted[i], &v).ok()) << inserted[i];
    ASSERT_EQ(v, inserted[i] + 1);
  }
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), inserted.size());
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 3, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->Scan(300, 600, [&](uint64_t k, uint64_t) {
    seen.push_back(k);
    return true;
  }).ok());
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), 300u);
  EXPECT_EQ(seen.back(), 600u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 101u);
}

TEST_F(BTreeTest, ScanEarlyTermination) {
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(tree_->Insert(k, k).ok());
  int visits = 0;
  ASSERT_TRUE(tree_->Scan(0, 99, [&](uint64_t, uint64_t) {
    return ++visits < 10;
  }).ok());
  EXPECT_EQ(visits, 10);
}

TEST_F(BTreeTest, ScanAcrossDeletedKeys) {
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(tree_->Insert(k, k).ok());
  for (uint64_t k = 0; k < 3000; k += 2) ASSERT_TRUE(tree_->Remove(k).ok());
  uint64_t count = 0;
  ASSERT_TRUE(tree_->Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t) {
    EXPECT_EQ(k % 2, 1u);
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 1500u);
}

TEST_F(BTreeTest, SurvivesBufferEvictionWithTinyPools) {
  // A tree larger than the buffer: nodes constantly migrate across tiers.
  SsdDevice ssd(16ull * 1024 * 1024);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Lazy();
  opt.ssd = &ssd;
  BufferManager bm(opt);
  auto r = BTree::Create(&bm);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<BTree> tree(r.value());
  constexpr uint64_t kN = 30000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree->Insert(k, k ^ 0xF00D).ok()) << k;
  }
  for (uint64_t k = 0; k < kN; k += 17) {
    uint64_t v = 0;
    ASSERT_TRUE(tree->Lookup(k, &v).ok()) << k;
    ASSERT_EQ(v, k ^ 0xF00D);
  }
}

TEST_F(BTreeTest, OpenExistingTree) {
  ASSERT_TRUE(tree_->Insert(77, 770).ok());
  auto r = BTree::Open(bm_.get(), tree_->root_pid());
  ASSERT_TRUE(r.ok());
  std::unique_ptr<BTree> reopened(r.value());
  uint64_t v = 0;
  ASSERT_TRUE(reopened->Lookup(77, &v).ok());
  EXPECT_EQ(v, 770u);
}

TEST_F(BTreeTest, OpenRejectsNonTreePage) {
  auto pg = bm_->NewPage();
  ASSERT_TRUE(pg.ok());
  auto r = BTree::Open(bm_.get(), pg.value().pid());
  EXPECT_FALSE(r.ok());
}

TEST_F(BTreeTest, ConcurrentInsertsDisjointRanges) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 8000;
  std::vector<std::thread> ths;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
        if (!tree_->Insert(k, k).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kThreads * kPerThread);
  for (uint64_t k = 0; k < kThreads * kPerThread; k += 101) {
    uint64_t v = 0;
    ASSERT_TRUE(tree_->Lookup(k, &v).ok());
    ASSERT_EQ(v, k);
  }
}

TEST_F(BTreeTest, ConcurrentReadersDuringInserts) {
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 2, k).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread writer([&] {
    for (uint64_t k = 0; k < 5000; ++k) {
      if (!tree_->Insert(k * 2 + 1, k).ok()) reader_errors.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Xoshiro256 rng(55);
      while (!stop.load()) {
        const uint64_t k = rng.NextUint64(5000) * 2;
        uint64_t v = 0;
        const Status st = tree_->Lookup(k, &v);
        if (!st.ok() || v != k / 2) reader_errors.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

TEST_F(BTreeTest, MixedConcurrentUpserts) {
  // All threads hammer the same small key set with upserts; the tree must
  // stay structurally intact.
  std::vector<std::thread> ths;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < 5000; ++i) {
        const uint64_t k = rng.NextUint64(512);
        if (!tree_->Upsert(k, static_cast<uint64_t>(t)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = tree_->Count();
  ASSERT_TRUE(count.ok());
  EXPECT_LE(count.value(), 512u);
}

// Each trial gets its own small buffer manager and a fresh
// tree, so every trial races through the tree's first root splits. The
// trials share one SSD: a tree never reads a page it did not write, and
// zeroing a fresh device per trial would dominate the run under TSan.
class BTreeRootSplitTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  struct Trial {
    explicit Trial(SsdDevice* ssd) {
      BufferManagerOptions opt;
      opt.dram_frames = 256;
      opt.nvm_frames = 256;
      opt.policy = MigrationPolicy::Eager();
      opt.ssd = ssd;
      bm = std::make_unique<BufferManager>(opt);
      auto r = BTree::Create(bm.get());
      SPITFIRE_CHECK(r.ok());
      tree.reset(r.value());
    }
    std::unique_ptr<BufferManager> bm;
    std::unique_ptr<BTree> tree;
  };

  SsdDevice ssd_{16ull * 1024 * 1024};
};

// Interleaved concurrent inserts split every leaf, the root included, under
// contention. A descent that enters the root while it splits must not
// insert into a node no lookup searches: such a key stays in the leaf chain
// (Count sees it), but Lookup returns NotFound.
TEST_F(BTreeRootSplitTest, ConcurrentInsertsStayReachable) {
  constexpr int kTrials = 100;
  constexpr uint64_t kThreads = 8;
  constexpr uint64_t kPerThread = 800;
  for (int trial = 0; trial < kTrials; ++trial) {
    Trial tr(&ssd_);
    const page_id_t root = tr.tree->root_pid();
    ASSERT_EQ(tr.bm->next_page_id(), root + 1);  // Create allocates one page
    std::atomic<uint64_t> started{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> ths;
    for (uint64_t t = 0; t < kThreads; ++t) {
      ths.emplace_back([&, t] {
        // Spin, not yield, at the gate: a yielding thread lets its core go
        // idle, and then a trial this short runs its threads one by one.
        started.fetch_add(1);
        while (started.load() < kThreads) {
        }
        for (uint64_t i = 0; i < kPerThread; ++i) {
          const uint64_t k = i * kThreads + t;
          if (!tr.tree->Insert(k, k * 3).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : ths) th.join();
    EXPECT_EQ(failures.load(), 0) << "trial " << trial;
    int lost = 0;
    for (uint64_t k = 0; k < kThreads * kPerThread; ++k) {
      uint64_t v = 0;
      if (!tr.tree->Lookup(k, &v).ok() || v != k * 3) ++lost;
    }
    EXPECT_EQ(lost, 0) << "trial " << trial;
    auto count = tr.tree->Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), kThreads * kPerThread) << "trial " << trial;
    if (HasFailure()) break;
  }
}

// Scans racing the first root split: a leaf root that a scan re-fetches
// may have turned into an inner node. Every scan must still return keys in
// strictly increasing order and every key present before it started.
TEST_F(BTreeRootSplitTest, ScansSurviveRootSplit) {
  constexpr int kTrials = 200;
  constexpr uint64_t kEven = 500;  // fits one leaf: the root stays a leaf
  constexpr uint64_t kOdd = 1200;
  for (int trial = 0; trial < kTrials; ++trial) {
    Trial tr(&ssd_);
    for (uint64_t k = 0; k < kEven; ++k) {
      ASSERT_TRUE(tr.tree->Insert(2 * k, k).ok());
    }
    std::atomic<int> started{0};
    std::atomic<bool> done{false};
    std::atomic<int> writer_errors{0};
    std::atomic<int> bad_scans{0};
    auto gate = [&started] {
      started.fetch_add(1);
      while (started.load() < 3) {
      }
    };
    std::thread writer([&] {
      gate();
      for (uint64_t k = 0; k < kOdd; ++k) {
        if (!tr.tree->Insert(2 * k + 1, k).ok()) writer_errors.fetch_add(1);
      }
      done.store(true);
    });
    std::vector<std::thread> scanners;
    for (int s = 0; s < 2; ++s) {
      scanners.emplace_back([&] {
        gate();
        do {
          std::vector<uint64_t> keys;
          const Status st = tr.tree->Scan(0, UINT64_MAX, [&](uint64_t k,
                                                             uint64_t) {
            keys.push_back(k);
            return true;
          });
          uint64_t evens = 0;
          for (uint64_t k : keys) evens += (k % 2 == 0 && k < 2 * kEven);
          const bool increasing =
              std::adjacent_find(keys.begin(), keys.end(),
                                 std::greater_equal<uint64_t>()) ==
              keys.end();
          if (!st.ok() || !increasing || evens != kEven) {
            bad_scans.fetch_add(1);
          }
        } while (!done.load());
      });
    }
    writer.join();
    for (auto& th : scanners) th.join();
    EXPECT_EQ(writer_errors.load(), 0) << "trial " << trial;
    EXPECT_EQ(bad_scans.load(), 0) << "trial " << trial;
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace spitfire
