#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

constexpr uint64_t kSsdCapacity = 64ull * 1024 * 1024;  // 4096 pages

class BufferManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    ssd_ = std::make_unique<SsdDevice>(kSsdCapacity);
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  std::unique_ptr<BufferManager> Make(size_t dram, size_t nvm,
                                      MigrationPolicy pol) {
    BufferManagerOptions opt;
    opt.dram_frames = dram;
    opt.nvm_frames = nvm;
    opt.policy = pol;
    opt.ssd = ssd_.get();
    return std::make_unique<BufferManager>(opt);
  }

  // Creates `n` pages, each stamped with a recognizable pattern.
  std::vector<page_id_t> CreatePages(BufferManager& bm, int n) {
    std::vector<page_id_t> pids;
    for (int i = 0; i < n; ++i) {
      auto r = bm.NewPage();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      PageGuard g = r.MoveValue();
      const uint64_t stamp = Stamp(g.pid());
      EXPECT_TRUE(g.WriteAt(kPageHeaderSize, sizeof(stamp), &stamp).ok());
      pids.push_back(g.pid());
    }
    return pids;
  }

  static uint64_t Stamp(page_id_t pid) { return 0xC0FFEE0000ull + pid; }

  static void ExpectStamp(PageGuard& g) {
    uint64_t v = 0;
    ASSERT_TRUE(g.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
    EXPECT_EQ(v, Stamp(g.pid()));
  }

  std::unique_ptr<SsdDevice> ssd_;
};

TEST_F(BufferManagerTest, NewPageAndReadBack) {
  auto bm = Make(8, 8, MigrationPolicy::Eager());
  auto pids = CreatePages(*bm, 4);
  for (page_id_t pid : pids) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    ExpectStamp(g);
  }
}

TEST_F(BufferManagerTest, FetchUnallocatedPageFails) {
  auto bm = Make(4, 4, MigrationPolicy::Eager());
  auto r = bm->FetchPage(123, AccessIntent::kRead);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BufferManagerTest, DataSurvivesEvictionThroughAllTiers) {
  // 4 DRAM + 4 NVM frames, 64 pages: heavy eviction traffic.
  auto bm = Make(4, 4, MigrationPolicy::Eager());
  auto pids = CreatePages(*bm, 64);
  for (int round = 0; round < 3; ++round) {
    for (page_id_t pid : pids) {
      auto r = bm->FetchPage(pid, AccessIntent::kRead);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      PageGuard g = r.MoveValue();
      ExpectStamp(g);
    }
  }
}

TEST_F(BufferManagerTest, WritesSurviveEviction) {
  auto bm = Make(4, 4, MigrationPolicy::Eager());
  auto pids = CreatePages(*bm, 32);
  // Overwrite each page with a new value, then thrash, then verify.
  for (page_id_t pid : pids) {
    auto r = bm->FetchPage(pid, AccessIntent::kWrite);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    const uint64_t v = pid * 31 + 7;
    ASSERT_TRUE(g.WriteAt(1024, sizeof(v), &v).ok());
  }
  for (page_id_t pid : pids) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    uint64_t v = 0;
    ASSERT_TRUE(g.ReadAt(1024, sizeof(v), &v).ok());
    EXPECT_EQ(v, pid * 31 + 7);
    ExpectStamp(g);
  }
}

TEST_F(BufferManagerTest, DramSsdHierarchyWorks) {
  auto bm = Make(4, 0, MigrationPolicy::Eager());
  auto pids = CreatePages(*bm, 32);
  for (page_id_t pid : pids) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    EXPECT_EQ(g.tier(), Tier::kDram);
    ExpectStamp(g);
  }
}

TEST_F(BufferManagerTest, NvmSsdHierarchyWorks) {
  auto bm = Make(0, 4, MigrationPolicy::Eager());
  auto pids = CreatePages(*bm, 32);
  for (page_id_t pid : pids) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    EXPECT_EQ(g.tier(), Tier::kNvm);
    ExpectStamp(g);
  }
}

TEST_F(BufferManagerTest, LazyPolicyServesFromNvmWithoutPromotion) {
  // Dr = 0: never promote. Pages installed via Nr = 1 land on NVM and stay.
  auto bm = Make(8, 8, MigrationPolicy{0.0, 0.0, 1.0, 1.0});
  auto pids = CreatePages(*bm, 4);
  (void)bm->FlushAll(true);
  // Evict all DRAM copies by thrashing with other pages is fiddly; instead
  // fetch enough new pages through a tiny manager below. Here we simply
  // verify NVM-direct service: fetch pages not DRAM-resident.
  auto bm2 = Make(8, 8, MigrationPolicy{0.0, 0.0, 1.0, 1.0});
  BufferManagerOptions o;  // silence unused warnings
  (void)o;
  auto pids2 = CreatePages(*bm2, 8);
  // New pages start in DRAM; push them out through NVM by fetching many.
  for (page_id_t pid : pids2) {
    (void)bm2->FlushPage(pid);
  }
  const uint64_t promos_before = bm2->stats().Snapshot().promotions;
  for (int round = 0; round < 5; ++round) {
    for (page_id_t pid : pids2) {
      auto r = bm2->FetchPage(pid, AccessIntent::kRead);
      ASSERT_TRUE(r.ok());
    }
  }
  EXPECT_EQ(bm2->stats().Snapshot().promotions, promos_before);
}

TEST_F(BufferManagerTest, EagerPolicyPromotesNvmPagesToDram) {
  auto bm = Make(8, 8, MigrationPolicy::Eager());
  // This test pins down which ACCESS causes the SSD->NVM->DRAM walk, so
  // sequential read-ahead (which would pre-install pages 1..3 during the
  // fetch of page 0 and make their first fetch look like a second access)
  // must stay out of the picture.
  bm->SetReadAheadPages(0);
  // Force pages onto NVM: no DRAM tier usage first — create via a
  // NVM-only manager sharing the SSD, then reopen with both tiers.
  {
    auto nvm_only = Make(0, 8, MigrationPolicy::Eager());
    auto pids = CreatePages(*nvm_only, 4);
    ASSERT_TRUE(nvm_only->FlushAll(true).ok());
  }
  bm->SetNextPageId(4);
  // First fetch: SSD -> NVM (Nr=1), serve from NVM.
  for (page_id_t pid = 0; pid < 4; ++pid) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().tier(), Tier::kNvm);
  }
  // Second fetch: Dr=1 promotes to DRAM.
  for (page_id_t pid = 0; pid < 4; ++pid) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    EXPECT_EQ(g.tier(), Tier::kDram);
    ExpectStamp(g);
  }
  EXPECT_GE(bm->stats().Snapshot().promotions, 4u);
}

TEST_F(BufferManagerTest, InclusivityRatioReflectsDuplication) {
  auto bm = Make(8, 8, MigrationPolicy::Eager());
  {
    auto nvm_only = Make(0, 8, MigrationPolicy::Eager());
    CreatePages(*nvm_only, 4);
    ASSERT_TRUE(nvm_only->FlushAll(true).ok());
  }
  bm->SetNextPageId(4);
  // Fetch twice so all 4 pages live on both tiers.
  for (int round = 0; round < 2; ++round) {
    for (page_id_t pid = 0; pid < 4; ++pid) {
      ASSERT_TRUE(bm->FetchPage(pid, AccessIntent::kRead).ok());
    }
  }
  EXPECT_DOUBLE_EQ(bm->InclusivityRatio(), 1.0);
  EXPECT_EQ(bm->DramResidentPages(), 4u);
  EXPECT_EQ(bm->NvmResidentPages(), 4u);
}

TEST_F(BufferManagerTest, FlushAllWritesDirtyPagesToSsd) {
  auto bm = Make(8, 8, MigrationPolicy::Eager());
  auto pids = CreatePages(*bm, 4);
  const uint64_t writes_before = ssd_->stats().num_writes.load();
  ASSERT_TRUE(bm->FlushAll(true).ok());
  EXPECT_GE(ssd_->stats().num_writes.load() - writes_before, 4u);
  // Verify SSD contents directly.
  for (page_id_t pid : pids) {
    std::vector<std::byte> page(kPageSize);
    ASSERT_TRUE(ssd_->Read(pid * kPageSize, page.data(), kPageSize).ok());
    uint64_t v;
    std::memcpy(&v, page.data() + kPageHeaderSize, sizeof(v));
    EXPECT_EQ(v, Stamp(pid));
  }
}

TEST_F(BufferManagerTest, PinnedPagesAreNotEvicted) {
  auto bm = Make(2, 2, MigrationPolicy::Eager());
  auto r0 = bm->NewPage();
  ASSERT_TRUE(r0.ok());
  PageGuard pinned = r0.MoveValue();
  const uint64_t v = 0xDEAD;
  ASSERT_TRUE(pinned.WriteAt(256, sizeof(v), &v).ok());
  // Thrash with other pages; the pinned page must keep its frame valid.
  for (int i = 0; i < 20; ++i) {
    auto r = bm->NewPage();
    ASSERT_TRUE(r.ok());
  }
  uint64_t out = 0;
  ASSERT_TRUE(pinned.ReadAt(256, sizeof(out), &out).ok());
  EXPECT_EQ(out, 0xDEADu);
}

TEST_F(BufferManagerTest, GuardRejectsOutOfRangeAccess) {
  auto bm = Make(4, 4, MigrationPolicy::Eager());
  auto r = bm->NewPage();
  ASSERT_TRUE(r.ok());
  PageGuard g = r.MoveValue();
  char buf[32];
  EXPECT_FALSE(g.ReadAt(kPageSize - 8, 32, buf).ok());
  EXPECT_FALSE(g.WriteAt(kPageSize, 1, buf).ok());
}

TEST_F(BufferManagerTest, RawDataVisibleThroughReadAt) {
  auto bm = Make(4, 4, MigrationPolicy::Eager());
  auto r = bm->NewPage();
  ASSERT_TRUE(r.ok());
  PageGuard g = r.MoveValue();
  std::byte* raw = g.RawData(/*for_write=*/true);
  ASSERT_NE(raw, nullptr);
  raw[2000] = std::byte{0x7F};
  char c = 0;
  ASSERT_TRUE(g.ReadAt(2000, 1, &c).ok());
  EXPECT_EQ(c, 0x7F);
}

TEST_F(BufferManagerTest, PolicySwapTakesEffect) {
  auto bm = Make(4, 4, MigrationPolicy::Eager());
  MigrationPolicy lazy = MigrationPolicy::Lazy();
  bm->SetPolicy(lazy);
  const MigrationPolicy got = bm->policy();
  EXPECT_DOUBLE_EQ(got.dr, 0.01);
  EXPECT_DOUBLE_EQ(got.nr, 0.2);
}

TEST_F(BufferManagerTest, NvmWriteVolumeLowerWithLazyNvmPolicy) {
  // Eager (N=1) installs every SSD fetch into NVM; lazy (N=0.0) never.
  auto run = [&](MigrationPolicy pol) -> uint64_t {
    auto ssd = std::make_unique<SsdDevice>(kSsdCapacity);
    BufferManagerOptions opt;
    opt.dram_frames = 8;
    opt.nvm_frames = 16;
    opt.policy = pol;
    opt.ssd = ssd.get();
    BufferManager bm(opt);
    std::vector<page_id_t> pids;
    for (int i = 0; i < 64; ++i) {
      auto r = bm.NewPage();
      pids.push_back(r.value().pid());
    }
    (void)bm.FlushAll(true);
    for (int round = 0; round < 3; ++round) {
      for (page_id_t pid : pids) {
        (void)bm.FetchPage(pid, AccessIntent::kRead);
      }
    }
    return bm.nvm_device()->stats().media_bytes_written.load();
  };
  const uint64_t eager = run(MigrationPolicy{1.0, 1.0, 1.0, 1.0});
  const uint64_t lazy = run(MigrationPolicy{1.0, 1.0, 0.0, 0.0});
  EXPECT_GT(eager, lazy);
}

TEST_F(BufferManagerTest, HymemAdmissionQueueGatesNvm) {
  BufferManagerOptions opt;
  opt.dram_frames = 4;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Hymem();
  opt.nvm_admission = NvmAdmissionMode::kAdmissionQueue;
  // Large enough to remember all 32 pages between their evictions (the
  // default of nvm_frames/2 would thrash at this tiny scale).
  opt.admission_queue_capacity = 64;
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  std::vector<page_id_t> pids;
  for (int i = 0; i < 32; ++i) pids.push_back(bm.NewPage().value().pid());
  // Dirty pages cycle through DRAM; only second-time evictions land on NVM.
  for (int round = 0; round < 4; ++round) {
    for (page_id_t pid : pids) {
      auto r = bm.FetchPage(pid, AccessIntent::kWrite);
      ASSERT_TRUE(r.ok());
      PageGuard g = r.MoveValue();
      const uint64_t v = pid ^ round;
      ASSERT_TRUE(g.WriteAt(512, sizeof(v), &v).ok());
    }
  }
  EXPECT_GT(bm.stats().Snapshot().demotions_to_nvm, 0u);
  EXPECT_GT(bm.stats().Snapshot().demotions_to_ssd, 0u);
}

TEST_F(BufferManagerTest, ConcurrentFetchesKeepDataIntact) {
  auto bm = Make(8, 16, MigrationPolicy::Lazy());
  auto pids = CreatePages(*bm, 128);
  std::atomic<int> errors{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < 2000; ++i) {
        const page_id_t pid = pids[rng.NextUint64(pids.size())];
        auto r = bm->FetchPage(pid, AccessIntent::kRead);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        PageGuard g = r.MoveValue();
        uint64_t v = 0;
        if (!g.ReadAt(kPageHeaderSize, sizeof(v), &v).ok() ||
            v != Stamp(pid)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(BufferManagerTest, ConcurrentWritersToDistinctPages) {
  auto bm = Make(8, 16, MigrationPolicy::Lazy());
  auto pids = CreatePages(*bm, 64);
  std::vector<std::thread> ths;
  std::atomic<int> errors{0};
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&, t] {
      // Each thread owns a disjoint slice of pages.
      for (int i = t; i < 64; i += 4) {
        for (int round = 0; round < 50; ++round) {
          auto r = bm->FetchPage(pids[i], AccessIntent::kWrite);
          if (!r.ok()) {
            errors.fetch_add(1);
            continue;
          }
          PageGuard g = r.MoveValue();
          uint64_t v = static_cast<uint64_t>(round);
          if (!g.WriteAt(2048, sizeof(v), &v).ok()) errors.fetch_add(1);
          uint64_t check = ~0ull;
          if (!g.ReadAt(2048, sizeof(check), &check).ok() || check != v) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(BufferManagerTest, RecoverNvmResidentPagesRebuildsMapping) {
  auto nvm = std::make_unique<NvmDevice>(
      BufferPool::RequiredCapacity(8, /*persistent_frame_table=*/true));
  page_id_t created = 0;
  {
    BufferManagerOptions opt;
    opt.dram_frames = 0;
    opt.nvm_frames = 8;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd_.get();
    opt.nvm = nvm.get();
    BufferManager bm(opt);
    for (int i = 0; i < 6; ++i) {
      auto r = bm.NewPage();
      ASSERT_TRUE(r.ok());
      PageGuard g = r.MoveValue();
      const uint64_t stamp = Stamp(g.pid());
      ASSERT_TRUE(g.WriteAt(kPageHeaderSize, sizeof(stamp), &stamp).ok());
      created = g.pid() + 1;
    }
    // "Crash": no flush, just drop the buffer manager. NVM retains data.
  }
  {
    BufferManagerOptions opt;
    opt.dram_frames = 0;
    opt.nvm_frames = 8;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd_.get();
    opt.nvm = nvm.get();
    BufferManager bm(opt);
    ASSERT_TRUE(bm.RecoverNvmResidentPages().ok());
    EXPECT_EQ(bm.next_page_id(), created);
    for (page_id_t pid = 0; pid < created; ++pid) {
      auto r = bm.FetchPage(pid, AccessIntent::kRead);
      ASSERT_TRUE(r.ok());
      PageGuard g = r.MoveValue();
      uint64_t v = 0;
      ASSERT_TRUE(g.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
      EXPECT_EQ(v, Stamp(pid));
    }
  }
}

TEST_F(BufferManagerTest, NvmRecoveryRebuildsPagesAcrossTableBlocks) {
  // 192 pages fill six page-table blocks; recovery rebuilds each from the
  // persistent frame table alone.
  constexpr size_t kNvmFrames = 256;
  constexpr page_id_t kPages = 192;
  NvmDevice nvm(BufferPool::RequiredCapacity(kNvmFrames,
                                             /*persistent_frame_table=*/true));
  BufferManagerOptions opt;
  opt.dram_frames = 0;  // NVM-SSD hierarchy: new pages live in NVM
  opt.nvm_frames = kNvmFrames;
  opt.ssd = ssd_.get();
  opt.nvm = &nvm;
  {
    BufferManager bm(opt);
    CreatePages(bm, kPages);
    // Crash: no flush. The NVM frame table is the only surviving metadata.
  }
  BufferManager bm(opt);
  ASSERT_EQ(bm.NvmResidentPages(), 0u);
  ASSERT_TRUE(bm.RecoverNvmResidentPages().ok());
  EXPECT_EQ(bm.NvmResidentPages(), kPages);
  EXPECT_EQ(bm.next_page_id(), kPages);
  for (page_id_t pid = 0; pid < kPages; ++pid) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << pid;
    ExpectStamp(r.value());
  }
}

TEST_F(BufferManagerTest, PoolsAndAdmissionCapFollowTheFrameBudget) {
  // One pool per tier gets the whole frame budget; the admission cap is
  // half of it (here below the device's queue-slot ceiling).
  auto bm = Make(64, 96, MigrationPolicy::Eager());
  EXPECT_EQ(bm->dram_pool()->num_frames(), 64u);
  EXPECT_EQ(bm->nvm_pool()->num_frames(), 96u);
  EXPECT_EQ(bm->miss_admission_cap(), std::max(8u, (64u + 96u) / 2));
}

TEST_F(BufferManagerTest, FlushedPagesReadBackThroughFetch) {
  constexpr int kPages = 256;
  auto bm = Make(512, 0, MigrationPolicy::Eager());
  CreatePages(*bm, kPages);
  ASSERT_TRUE(bm->FlushAll(/*include_nvm=*/true).ok());
  for (page_id_t pid = 0; pid < kPages; ++pid) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << pid;
    ExpectStamp(r.value());
  }
  // The counters see every fetch above.
  EXPECT_GE(bm->stats().Snapshot().TotalFetches(), uint64_t{kPages});
}

// --- Parameterized sweep: every policy corner × both hierarchies must
// preserve data under eviction pressure. ---
struct PolicyCase {
  double dr, dw, nr, nw;
};

class PolicySweepTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicySweepTest, DataIntegrityUnderThrashing) {
  LatencySimulator::SetScale(0.0);
  const PolicyCase pc = GetParam();
  SsdDevice ssd(kSsdCapacity);
  BufferManagerOptions opt;
  opt.dram_frames = 4;
  opt.nvm_frames = 6;
  opt.policy = MigrationPolicy{pc.dr, pc.dw, pc.nr, pc.nw};
  opt.ssd = &ssd;
  BufferManager bm(opt);
  std::vector<page_id_t> pids;
  for (int i = 0; i < 48; ++i) {
    auto r = bm.NewPage();
    ASSERT_TRUE(r.ok());
    PageGuard g = r.MoveValue();
    const uint64_t v = g.pid() * 3 + 1;
    ASSERT_TRUE(g.WriteAt(128, sizeof(v), &v).ok());
    pids.push_back(g.pid());
  }
  Xoshiro256 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const page_id_t pid = pids[rng.NextUint64(pids.size())];
    const bool write = rng.Bernoulli(0.3);
    auto r = bm.FetchPage(pid,
                          write ? AccessIntent::kWrite : AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    PageGuard g = r.MoveValue();
    uint64_t v = 0;
    ASSERT_TRUE(g.ReadAt(128, sizeof(v), &v).ok());
    ASSERT_EQ(v, pid * 3 + 1) << "corruption on page " << pid;
    if (write) {
      ASSERT_TRUE(g.WriteAt(128, sizeof(v), &v).ok());  // idempotent write
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyLattice, PolicySweepTest,
    ::testing::Values(PolicyCase{1, 1, 1, 1}, PolicyCase{0, 0, 1, 1},
                      PolicyCase{0.01, 0.01, 0.2, 1}, PolicyCase{1, 1, 0, 0},
                      PolicyCase{0.1, 0.1, 0.1, 0.1}, PolicyCase{0, 0, 0, 0},
                      PolicyCase{0.5, 0.5, 0.5, 0.5},
                      PolicyCase{1, 0, 0, 1}, PolicyCase{0, 1, 1, 0}));

}  // namespace
}  // namespace spitfire
