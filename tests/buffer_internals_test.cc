// Unit tests for the buffer manager's internal building blocks: page
// layout, buffer pool + persistent frame table, the page table and the
// page-id bounds it enforces, CLOCK replacement, the migration-policy
// decision distribution, and the granularity of DRAM → NVM write-backs.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/buffer_pool.h"
#include "buffer/clock_replacer.h"
#include "buffer/migration_policy.h"
#include "buffer/page.h"
#include "buffer/page_table.h"
#include "storage/dram_device.h"
#include "storage/nvm_device.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

class BufferInternalsTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }
};

TEST_F(BufferInternalsTest, PageHeaderLayout) {
  EXPECT_EQ(sizeof(PageHeader), kCacheLineSize);
  EXPECT_EQ(kPagePayloadSize, kPageSize - 64);
  std::vector<std::byte> frame(kPageSize);
  PageView view(frame.data());
  view.Format(123, 0xAB);
  EXPECT_TRUE(view.header()->IsValid());
  EXPECT_EQ(view.header()->page_id, 123u);
  EXPECT_EQ(view.header()->page_type, 0xABu);
  EXPECT_EQ(view.payload(), frame.data() + 64);
}

TEST_F(BufferInternalsTest, PageHeaderRejectsGarbage) {
  std::vector<std::byte> frame(kPageSize, std::byte{0});
  PageView view(frame.data());
  EXPECT_FALSE(view.header()->IsValid());
}

TEST_F(BufferInternalsTest, BufferPoolFrameGeometry) {
  DramDevice dev(BufferPool::RequiredCapacity(16, false));
  BufferPool pool(BufferPoolConfig{Tier::kDram, &dev, 16,
                                   /*persistent_frame_table=*/false});
  EXPECT_EQ(pool.num_frames(), 16u);
  // Frames are contiguous, page-sized, and inside the device.
  EXPECT_EQ(pool.FrameOffset(1) - pool.FrameOffset(0), kPageSize);
  EXPECT_NE(pool.FramePtr(15), nullptr);
}

TEST_F(BufferInternalsTest, BufferPoolAllocateFreeCycle) {
  DramDevice dev(BufferPool::RequiredCapacity(4, false));
  BufferPool pool(BufferPoolConfig{Tier::kDram, &dev, 4, false});
  std::set<frame_id_t> got;
  frame_id_t f;
  while (pool.TryAllocateFrame(&f)) got.insert(f);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_FALSE(pool.TryAllocateFrame(&f));
  for (frame_id_t fr : got) pool.FreeFrame(fr);
  got.clear();
  while (pool.TryAllocateFrame(&f)) got.insert(f);
  EXPECT_EQ(got.size(), 4u);
}

TEST_F(BufferInternalsTest, NvmPoolPersistentFrameTable) {
  NvmDevice dev(BufferPool::RequiredCapacity(8, true));
  SharedPageDescriptor desc(42);
  {
    BufferPool pool(BufferPoolConfig{Tier::kNvm, &dev, 8,
                                     /*persistent_frame_table=*/true});
    frame_id_t f;
    ASSERT_TRUE(pool.TryAllocateFrame(&f));
    pool.SetOwner(f, &desc, 42);
    EXPECT_EQ(pool.PersistedOwner(f), 42u);
    // A new pool over the SAME device sees the persisted entry.
    BufferPool pool2(BufferPoolConfig{Tier::kNvm, &dev, 8, true});
    EXPECT_EQ(pool2.PersistedOwner(f), 42u);
  }
}

TEST_F(BufferInternalsTest, FrameTableDistinguishesPageZeroFromFree) {
  NvmDevice dev(BufferPool::RequiredCapacity(4, true));
  BufferPool pool(BufferPoolConfig{Tier::kNvm, &dev, 4, true});
  frame_id_t f;
  ASSERT_TRUE(pool.TryAllocateFrame(&f));
  // Fresh entries read as free, not as page 0.
  EXPECT_EQ(pool.PersistedOwner(f), kInvalidPageId);
  SharedPageDescriptor desc(0);
  pool.SetOwner(f, &desc, 0);
  EXPECT_EQ(pool.PersistedOwner(f), 0u);
  pool.SetOwner(f, nullptr, kInvalidPageId);
  EXPECT_EQ(pool.PersistedOwner(f), kInvalidPageId);
}

TEST_F(BufferInternalsTest, PageTableFirstTouchHasOneWinner) {
  // Eight threads race to first-touch the same pid of each of 64 blocks;
  // every thread must get the same descriptor, and the walk must see each
  // block once (the CAS losers freed theirs).
  constexpr int kThreads = 8;
  constexpr page_id_t kBlocks = 64;
  constexpr page_id_t kBlockPages = PageTable::kBlockPages;
  PageTable table(kBlocks * kBlockPages);
  std::vector<std::vector<SharedPageDescriptor*>> seen(
      kThreads, std::vector<SharedPageDescriptor*>(kBlocks));
  std::atomic<bool> go{false};
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (page_id_t b = 0; b < kBlocks; ++b) {
        seen[t][b] = table.GetOrCreate(b * kBlockPages + 5);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : ths) th.join();
  for (page_id_t b = 0; b < kBlocks; ++b) {
    ASSERT_NE(seen[0][b], nullptr);
    EXPECT_EQ(seen[0][b]->pid, b * kBlockPages + 5);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][b], seen[0][b]);
  }
  size_t walked = 0;
  table.ForEach([&](const SharedPageDescriptor*) { ++walked; });
  EXPECT_EQ(walked, kBlocks * kBlockPages);
}

TEST_F(BufferInternalsTest, ResidencyProbeOfUntouchedPageAllocatesNothing) {
  SsdDevice ssd(256 * kPageSize);
  BufferManagerOptions opt;
  opt.dram_frames = 16;
  opt.ssd = &ssd;
  BufferManager bm(opt);
  ASSERT_TRUE(bm.NewPage().ok());  // pid 0: allocates block 0
  const PageTable& table = bm.page_table();
  const auto descriptors = [&table] {
    size_t n = 0;
    table.ForEach([&n](const SharedPageDescriptor*) { ++n; });
    return n;
  };
  const size_t before = descriptors();
  EXPECT_EQ(before, PageTable::kBlockPages);
  EXPECT_FALSE(bm.IsDramResident(100));  // a block never touched
  EXPECT_FALSE(bm.IsNvmResident(100));
  EXPECT_FALSE(bm.IsDramResident(256));  // past the end of the SSD
  EXPECT_EQ(table.Find(100), nullptr);
  EXPECT_EQ(table.Find(256), nullptr);
  EXPECT_EQ(descriptors(), before);
  EXPECT_TRUE(bm.IsDramResident(0));
}

TEST_F(BufferInternalsTest, PageIdsPastTheSsdAreRefused) {
  SsdDevice ssd(4 * kPageSize);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.ssd = &ssd;
  BufferManager bm(opt);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(bm.NewPage().ok());
  // The fifth page does not fit, but its id was already drawn.
  EXPECT_TRUE(bm.NewPage().status().IsOutOfMemory());
  EXPECT_EQ(bm.next_page_id(), 5u);
  const auto r = bm.FetchPage(4, AccessIntent::kRead);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_TRUE(bm.FetchPage(3, AccessIntent::kRead).ok());
}

TEST_F(BufferInternalsTest, RecoveryRefusesPersistedPagePastTheSsd) {
  NvmDevice nvm(
      BufferPool::RequiredCapacity(16, /*persistent_frame_table=*/true));
  SsdDevice large(64 * kPageSize);
  const auto options = [&nvm](SsdDevice* ssd) {
    BufferManagerOptions opt;
    opt.nvm_frames = 16;
    opt.ssd = ssd;
    opt.nvm = &nvm;
    return opt;
  };
  {
    BufferManager bm(options(&large));
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(bm.NewPage().ok());  // on NVM
  }
  {
    SsdDevice small(4 * kPageSize);
    BufferManager bm(options(&small));
    const Status st = bm.RecoverNvmResidentPages();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  // The refusal freed no frame: under the original SSD every page is back.
  BufferManager bm(options(&large));
  ASSERT_TRUE(bm.RecoverNvmResidentPages().ok());
  EXPECT_EQ(bm.NvmResidentPages(), 8u);
}

TEST_F(BufferInternalsTest, ClockGivesSecondChance) {
  ClockReplacer clock(4);
  clock.RecordAccess(0);
  clock.RecordAccess(1);
  clock.RecordAccess(2);
  clock.RecordAccess(3);
  // All referenced: the first sweep clears bits, the second finds victims.
  std::vector<frame_id_t> victims;
  const frame_id_t v = clock.PickVictim([&](frame_id_t f) {
    victims.push_back(f);
    return true;
  });
  EXPECT_NE(v, kInvalidFrameId);
  EXPECT_EQ(victims.size(), 1u);
}

TEST_F(BufferInternalsTest, ClockSkipsRefusedVictims) {
  ClockReplacer clock(4);
  int offered = 0;
  const frame_id_t v = clock.PickVictim([&](frame_id_t f) {
    ++offered;
    return f == 2;  // refuse everything except frame 2
  });
  EXPECT_EQ(v, 2u);
  EXPECT_GE(offered, 3);
}

TEST_F(BufferInternalsTest, ClockGivesUpWhenNothingEvictable) {
  ClockReplacer clock(4);
  const frame_id_t v =
      clock.PickVictim([](frame_id_t) { return false; }, /*max_rounds=*/2);
  EXPECT_EQ(v, kInvalidFrameId);
}

TEST_F(BufferInternalsTest, ClockAccessProtectsHotFrames) {
  ClockReplacer clock(8);
  // Frame 3 is hot: re-referenced after every sweep step.
  std::vector<int> evictions(8, 0);
  for (int round = 0; round < 64; ++round) {
    clock.RecordAccess(3);
    clock.PickVictim([&](frame_id_t f) {
      if (f == 3) return false;  // pinned, say
      evictions[f]++;
      return true;
    });
  }
  EXPECT_EQ(evictions[3], 0);
  int total = 0;
  for (int e : evictions) total += e;
  EXPECT_EQ(total, 64);
}

// Under the eager policy every NVM hit is a promotion, so promotions are
// the NVM tier's only accesses. The NVM clock must see them: otherwise,
// once the tier is full, it evicts by install order and sends the oldest
// pages, hot or not, to SSD.
TEST_F(BufferInternalsTest, PromotionsAreNvmAccesses) {
  // Of the three pages a first eviction leaves on the full NVM tier, the
  // one not promoted again must be the next victim, whatever its frame.
  for (size_t cold = 0; cold < 3; ++cold) {
    SCOPED_TRACE(cold);
    SsdDevice ssd(64 * kPageSize);
    BufferManagerOptions opt;
    opt.dram_frames = 1;
    opt.nvm_frames = 4;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = &ssd;
    BufferManager bm(opt);
    // Each new page takes the DRAM frame and pushes the one before it
    // into NVM. Page 5 pushes page 4 into the full tier: the clock's
    // sweep clears every reference bit and evicts one of pages 0-3.
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(bm.NewPage().ok());
    std::vector<page_id_t> old;
    for (page_id_t p = 0; p < 4; ++p) {
      if (bm.IsNvmResident(p)) old.push_back(p);
    }
    ASSERT_EQ(old.size(), 3u);
    // A clean page 5 leaves DRAM without an NVM admission.
    ASSERT_TRUE(bm.FlushPage(5).ok());
    for (size_t i = 0; i < old.size(); ++i) {
      if (i != cold) {
        ASSERT_TRUE(bm.FetchPage(old[i], AccessIntent::kRead).ok());
      }
    }
    // Page 6 takes the DRAM frame from a clean copy; page 7 pushes page 6
    // into the full tier, which evicts one page.
    ASSERT_TRUE(bm.NewPage().ok());
    ASSERT_TRUE(bm.NewPage().ok());
    ASSERT_TRUE(bm.IsNvmResident(6));
    for (size_t i = 0; i < old.size(); ++i) {
      EXPECT_EQ(bm.IsNvmResident(old[i]), i != cold) << "page " << old[i];
    }
  }
}

TEST_F(BufferInternalsTest, PolicyDecisionFrequencies) {
  MigrationPolicy p{0.25, 0.5, 0.0, 1.0};
  int dr = 0, dw = 0, nr = 0, nw = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    dr += p.MigrateNvmToDramOnRead();
    dw += p.UseDramOnWrite();
    nr += p.InstallSsdToNvmOnRead();
    nw += p.AdmitToNvmOnDramEviction();
  }
  EXPECT_NEAR(static_cast<double>(dr) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(dw) / n, 0.5, 0.02);
  EXPECT_EQ(nr, 0);
  EXPECT_EQ(nw, n);
}

TEST_F(BufferInternalsTest, PolicyPresetsMatchTable3) {
  const MigrationPolicy hymem = MigrationPolicy::Hymem();
  EXPECT_DOUBLE_EQ(hymem.dr, 1.0);
  EXPECT_DOUBLE_EQ(hymem.dw, 1.0);
  EXPECT_DOUBLE_EQ(hymem.nr, 0.0);
  const MigrationPolicy lazy = MigrationPolicy::Lazy();
  EXPECT_DOUBLE_EQ(lazy.dr, 0.01);
  EXPECT_DOUBLE_EQ(lazy.dw, 0.01);
  EXPECT_DOUBLE_EQ(lazy.nr, 0.2);
  EXPECT_DOUBLE_EQ(lazy.nw, 1.0);
  EXPECT_NE(MigrationPolicy::Eager().ToString().find("Dr=1"),
            std::string::npos);
}

TEST_F(BufferInternalsTest, ConcurrentPoolAllocFree) {
  DramDevice dev(BufferPool::RequiredCapacity(64, false));
  BufferPool pool(BufferPoolConfig{Tier::kDram, &dev, 64, false});
  std::atomic<int> failures{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        frame_id_t f;
        if (pool.TryAllocateFrame(&f)) {
          pool.FreeFrame(f);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0);
  // All 64 frames must be recoverable afterwards.
  int count = 0;
  frame_id_t f;
  while (pool.TryAllocateFrame(&f)) ++count;
  EXPECT_EQ(count, 64);
}

TEST_F(BufferInternalsTest, DirtyUnitsOfAByteRange) {
  EXPECT_EQ(TierState::UnitsOf(0, 0), 0u);
  EXPECT_EQ(TierState::UnitsOf(kPageSize, 0), 0u);
  EXPECT_EQ(TierState::UnitsOf(1000, 8), uint64_t{1} << 3);
  EXPECT_EQ(TierState::UnitsOf(1020, 8), uint64_t{3} << 3);
  EXPECT_EQ(TierState::UnitsOf(256, 256), uint64_t{1} << 1);
  EXPECT_EQ(TierState::UnitsOf(kPageSize - 1, 1), uint64_t{1} << 63);
  EXPECT_EQ(TierState::UnitsOf(0, kPageSize), TierState::kAllUnits);
}

// A full DRAM copy evicted or flushed onto its NVM copy writes back only
// the 256 B units written since it was last clean, one device write per
// run of them. Three tiers under the eager policy with one DRAM frame:
// every fetch of an NVM page moves it up into that frame, so fetching a
// second page evicts the first one's DRAM copy.
class WriteBackGranularityTest : public BufferInternalsTest {
 protected:
  struct Traffic {
    uint64_t media_bytes = 0;
    uint64_t writes = 0;
  };

  void SetUp() override {
    BufferInternalsTest::SetUp();
    BufferManagerOptions opt;
    opt.dram_frames = 1;
    opt.nvm_frames = 8;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = &ssd_;
    bm_ = std::make_unique<BufferManager>(opt);
    // Each new page takes the DRAM frame and pushes the one before it
    // down into NVM, whole (an admission), so pages 0 and 1 end on NVM.
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(bm_->NewPage().ok());
    ASSERT_TRUE(bm_->IsNvmResident(0) && bm_->IsNvmResident(1));
  }

  // Moves page 0 up from NVM into DRAM; its NVM copy stays. The model of
  // the page starts as that NVM copy's bytes.
  PageGuard FetchPage0() {
    auto r = bm_->FetchPage(0, AccessIntent::kWrite);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    PageGuard g = r.MoveValue();
    EXPECT_EQ(g.tier(), Tier::kDram);
    EXPECT_TRUE(bm_->IsNvmResident(0));
    want_.assign(NvmCopy(), NvmCopy() + kPageSize);
    return g;
  }

  // Bytes [offset, offset + size) of page 0 to write next.
  std::vector<std::byte> Fill(size_t offset, size_t size) {
    std::vector<std::byte> buf(size);
    for (size_t i = 0; i < size; ++i) {
      buf[i] = static_cast<std::byte>(0xA5 ^ (offset + i));
    }
    std::memcpy(want_.data() + offset, buf.data(), size);
    return buf;
  }

  void WriteAt(PageGuard& g, size_t offset, size_t size) {
    const std::vector<std::byte> buf = Fill(offset, size);
    ASSERT_TRUE(g.WriteAt(offset, size, buf.data()).ok());
  }

  // Writes through the raw frame without marking anything.
  void RawWrite(PageGuard& g, size_t offset, size_t size) {
    const std::vector<std::byte> buf = Fill(offset, size);
    std::memcpy(g.RawData() + offset, buf.data(), size);
  }

  // NVM traffic of `step`.
  template <typename Step>
  Traffic NvmTraffic(Step&& step) {
    const DeviceStats& s = bm_->nvm_device()->stats();
    const uint64_t bytes = s.media_bytes_written.load();
    const uint64_t writes = s.num_writes.load();
    step();
    return {s.media_bytes_written.load() - bytes, s.num_writes.load() - writes};
  }

  // Evicts page 0's DRAM copy by moving page 1 up.
  Traffic EvictPage0() {
    const Traffic t = NvmTraffic(
        [&] { EXPECT_TRUE(bm_->FetchPage(1, AccessIntent::kRead).ok()); });
    EXPECT_FALSE(bm_->IsDramResident(0));
    return t;
  }

  const std::byte* NvmCopy() {
    const SharedPageDescriptor* d = bm_->page_table().Find(0);
    return bm_->nvm_pool()->FramePtr(d->nvm.frame.load());
  }

  void ExpectNvmCopyIsModel() {
    EXPECT_EQ(std::memcmp(NvmCopy(), want_.data(), kPageSize), 0);
  }

  SsdDevice ssd_{64 * kPageSize};
  std::unique_ptr<BufferManager> bm_;
  std::vector<std::byte> want_;
};

TEST_F(WriteBackGranularityTest, WriteInsideOneUnitWritesThatUnit) {
  {
    PageGuard g = FetchPage0();
    WriteAt(g, 1000, 8);
  }
  const Traffic t = EvictPage0();
  EXPECT_EQ(t.media_bytes, 256u);
  EXPECT_EQ(t.writes, 1u);
  ExpectNvmCopyIsModel();
}

TEST_F(WriteBackGranularityTest, WriteAcrossAUnitBoundaryWritesBothUnits) {
  {
    PageGuard g = FetchPage0();
    WriteAt(g, 1020, 8);
  }
  const Traffic t = EvictPage0();
  EXPECT_EQ(t.media_bytes, 512u);
  EXPECT_EQ(t.writes, 1u);
  ExpectNvmCopyIsModel();
}

TEST_F(WriteBackGranularityTest, DisjointWritesAreSeparateDeviceWrites) {
  {
    PageGuard g = FetchPage0();
    WriteAt(g, 1000, 8);
    WriteAt(g, 9000, 8);
  }
  const Traffic t = EvictPage0();
  EXPECT_EQ(t.media_bytes, 512u);
  EXPECT_EQ(t.writes, 2u);
  ExpectNvmCopyIsModel();
}

TEST_F(WriteBackGranularityTest, MarkedRangeOfARawWriteIsWrittenBack) {
  {
    PageGuard g = FetchPage0();
    RawWrite(g, 5000, 8);
    g.MarkDirty(5000, 8);
  }
  const Traffic t = EvictPage0();
  EXPECT_EQ(t.media_bytes, 256u);
  EXPECT_EQ(t.writes, 1u);
  ExpectNvmCopyIsModel();
}

TEST_F(WriteBackGranularityTest, WholePageMarksWriteTheWholePage) {
  {
    PageGuard g = FetchPage0();
    RawWrite(g, 5000, 8);
    g.MarkDirty();
  }
  Traffic t = EvictPage0();
  EXPECT_EQ(t.media_bytes, kPageSize);
  EXPECT_EQ(t.writes, 1u);
  ExpectNvmCopyIsModel();

  {
    PageGuard g = FetchPage0();
    const std::vector<std::byte> buf = Fill(7000, 8);
    std::memcpy(g.RawData(/*for_write=*/true) + 7000, buf.data(), 8);
  }
  t = EvictPage0();
  EXPECT_EQ(t.media_bytes, kPageSize);
  EXPECT_EQ(t.writes, 1u);
  ExpectNvmCopyIsModel();
}

TEST_F(WriteBackGranularityTest, FlushRefreshesTheNvmCopyWithDirtyUnits) {
  {
    PageGuard g = FetchPage0();
    WriteAt(g, 1000, 8);
  }
  Traffic t = NvmTraffic([&] { ASSERT_TRUE(bm_->FlushPage(0).ok()); });
  EXPECT_EQ(t.media_bytes, 256u);
  EXPECT_EQ(t.writes, 1u);
  EXPECT_TRUE(bm_->IsDramResident(0));
  ExpectNvmCopyIsModel();
  // Both copies are clean now: evicting the DRAM copy writes nothing.
  t = EvictPage0();
  EXPECT_EQ(t.media_bytes, 0u);
  ExpectNvmCopyIsModel();
}

}  // namespace
}  // namespace spitfire
