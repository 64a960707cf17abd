#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "container/admission_queue.h"
#include "container/concurrent_bitmap.h"
#include "container/mpmc_queue.h"

namespace spitfire {
namespace {

TEST(ConcurrentBitmapTest, SetTestClear) {
  ConcurrentBitmap bm(200);
  EXPECT_FALSE(bm.Test(63));
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_EQ(bm.CountSet(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
}

TEST(ConcurrentBitmapTest, TestAndClearReturnsPrevious) {
  ConcurrentBitmap bm(10);
  bm.Set(3);
  EXPECT_TRUE(bm.TestAndClear(3));
  EXPECT_FALSE(bm.TestAndClear(3));
  EXPECT_FALSE(bm.Test(3));
}

TEST(ConcurrentBitmapTest, ConcurrentSetsAllLand) {
  ConcurrentBitmap bm(64 * 64);
  std::vector<std::thread> ths;
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&bm, t] {
      for (size_t i = static_cast<size_t>(t); i < bm.size(); i += 4) bm.Set(i);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(bm.CountSet(), bm.size());
}

TEST(AdmissionQueueTest, SecondConsiderationAdmits) {
  AdmissionQueue q(16);
  EXPECT_FALSE(q.ShouldAdmit(7));  // first touch: enqueued, bypass NVM
  EXPECT_TRUE(q.ShouldAdmit(7));   // second touch: admitted
  EXPECT_FALSE(q.ShouldAdmit(7));  // queue entry consumed; starts over
}

TEST(AdmissionQueueTest, CapacityBoundEvictsOldest) {
  AdmissionQueue q(2);
  EXPECT_FALSE(q.ShouldAdmit(1));
  EXPECT_FALSE(q.ShouldAdmit(2));
  EXPECT_FALSE(q.ShouldAdmit(3));  // evicts 1
  EXPECT_FALSE(q.ShouldAdmit(1));  // 1 no longer remembered
  EXPECT_TRUE(q.ShouldAdmit(3));   // 3 still remembered
}

TEST(AdmissionQueueTest, RemoveForgetsPage) {
  AdmissionQueue q(8);
  EXPECT_FALSE(q.ShouldAdmit(9));
  q.Remove(9);
  EXPECT_FALSE(q.ShouldAdmit(9));  // must be re-considered from scratch
}

TEST(AdmissionQueueTest, SizeTracksMembers) {
  AdmissionQueue q(8);
  q.ShouldAdmit(1);
  q.ShouldAdmit(2);
  EXPECT_EQ(q.size(), 2u);
  q.ShouldAdmit(1);  // admitted → removed
  EXPECT_EQ(q.size(), 1u);
}

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // full
  int v;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(&v));  // empty
}

TEST(MpmcQueueTest, CapacityRoundsUpToPow2) {
  MpmcQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(MpmcQueueTest, ConcurrentProducersConsumers) {
  MpmcQueue<uint64_t> q(1024);
  constexpr uint64_t kItems = 20000;
  std::atomic<uint64_t> produced{0}, consumed_sum{0}, consumed{0};
  std::vector<std::thread> ths;
  for (int p = 0; p < 2; ++p) {
    ths.emplace_back([&] {
      for (;;) {
        const uint64_t v = produced.fetch_add(1);
        if (v >= kItems) break;
        while (!q.TryPush(v + 1)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    ths.emplace_back([&] {
      uint64_t v;
      while (consumed.load() < kItems) {
        if (q.TryPop(&v)) {
          consumed_sum.fetch_add(v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(consumed.load(), kItems);
  EXPECT_EQ(consumed_sum.load(), kItems * (kItems + 1) / 2);
}

}  // namespace
}  // namespace spitfire
