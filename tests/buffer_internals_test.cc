// Unit tests for the buffer manager's internal building blocks: page
// layout, buffer pool + persistent frame table, the page table and the
// page-id bounds it enforces, CLOCK replacement, and the migration-policy
// decision distribution.
#include <gtest/gtest.h>

#include <set>
#include <thread>

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
  BufferPool pool(Tier::kDram, &dev, 16, /*persistent_frame_table=*/false);
  EXPECT_EQ(pool.num_frames(), 16u);
  // Frames are contiguous, page-sized, and inside the device.
  EXPECT_EQ(pool.FrameOffset(1) - pool.FrameOffset(0), kPageSize);
  EXPECT_NE(pool.FramePtr(15), nullptr);
}

TEST_F(BufferInternalsTest, BufferPoolAllocateFreeCycle) {
  DramDevice dev(BufferPool::RequiredCapacity(4, false));
  BufferPool pool(Tier::kDram, &dev, 4, false);
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
    BufferPool pool(Tier::kNvm, &dev, 8, /*persistent_frame_table=*/true);
    frame_id_t f;
    ASSERT_TRUE(pool.TryAllocateFrame(&f));
    pool.SetOwner(f, &desc, 42);
    EXPECT_EQ(pool.PersistedOwner(f), 42u);
    // A new pool over the SAME device sees the persisted entry.
    BufferPool pool2(Tier::kNvm, &dev, 8, true);
    EXPECT_EQ(pool2.PersistedOwner(f), 42u);
  }
}

TEST_F(BufferInternalsTest, FrameTableDistinguishesPageZeroFromFree) {
  NvmDevice dev(BufferPool::RequiredCapacity(4, true));
  BufferPool pool(Tier::kNvm, &dev, 4, true);
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
  constexpr page_id_t kBlockPages = page_id_t{1} << kShardBlockBits;
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
  opt.num_shards = 1;
  opt.ssd = &ssd;
  BufferManager bm(opt);
  ASSERT_TRUE(bm.NewPage().ok());  // pid 0: allocates block 0
  const PageTable& table = bm.shard(0)->page_table();
  const auto descriptors = [&table] {
    size_t n = 0;
    table.ForEach([&n](const SharedPageDescriptor*) { ++n; });
    return n;
  };
  const size_t before = descriptors();
  EXPECT_EQ(before, size_t{1} << kShardBlockBits);
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
  opt.num_shards = 1;
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
    opt.num_shards = 1;
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
  BufferPool pool(Tier::kDram, &dev, 64, false);
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

}  // namespace
}  // namespace spitfire
