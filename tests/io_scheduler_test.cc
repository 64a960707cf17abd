#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/page.h"
#include "common/random.h"
#include "storage/io_scheduler.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

constexpr uint64_t kSsdCapacity = 64ull * 1024 * 1024;

class IoSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    ssd_ = std::make_unique<SsdDevice>(kSsdCapacity);
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  // Writes `n` formatted, stamped pages directly onto the SSD device, so
  // a fresh BufferManager sees them as cold.
  void SeedColdPages(int n) {
    std::vector<std::byte> buf(kPageSize);
    for (int i = 0; i < n; ++i) {
      PageView(buf.data()).Format(i, /*page_type=*/0);
      const uint64_t stamp = Stamp(i);
      std::memcpy(buf.data() + kPageHeaderSize, &stamp, sizeof(stamp));
      ASSERT_TRUE(ssd_->Write(i * kPageSize, buf.data(), kPageSize).ok());
    }
    ssd_->stats().Reset();
  }

  static uint64_t Stamp(page_id_t pid) { return 0xC0FFEE0000ull + pid; }

  // Full-page uniform stamp used by the torn-read checks.
  static void FillStamp(std::byte* page, uint64_t stamp) {
    for (size_t i = 0; i < kPageSize; i += sizeof(stamp)) {
      std::memcpy(page + i, &stamp, sizeof(stamp));
    }
  }
  static bool IsUniform(const std::byte* page) {
    uint64_t first = 0;
    std::memcpy(&first, page, sizeof(first));
    for (size_t i = sizeof(first); i < kPageSize; i += sizeof(first)) {
      uint64_t v = 0;
      std::memcpy(&v, page + i, sizeof(v));
      if (v != first) return false;
    }
    return true;
  }

  // One page read through SubmitRead, pumping completions until its
  // callback fires.
  static Status ReadOnce(IoScheduler& io, uint64_t offset, std::byte* dst) {
    std::atomic<bool> fired{false};
    Status out;
    io.SubmitRead(offset, 1, [&](const Status& st, const std::byte* data) {
      out = st;
      if (st.ok()) std::memcpy(dst, data, kPageSize);
      fired.store(true, std::memory_order_release);
    });
    while (!fired.load(std::memory_order_acquire)) {
      (void)io.PumpCompletions(/*may_sleep=*/false);
    }
    return out;
  }

  std::unique_ptr<SsdDevice> ssd_;
};

// The satellite miss-storm test: M threads fetch the same cold page at a
// large simulated device latency, so every thread arrives while the read
// is in flight. Single-flight dedup must issue exactly ONE device read,
// and every reader must observe the same (correct) bytes.
TEST_F(IoSchedulerTest, MissStormIssuesOneDeviceRead) {
  SeedColdPages(4);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  bm.SetNextPageId(4);

  // ~24 ms per simulated SSD read: long enough that all threads pile onto
  // the flight even on a single-core machine.
  LatencySimulator::SetScale(2000.0);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto r = bm.FetchPage(2, AccessIntent::kRead);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      PageGuard g = r.MoveValue();
      uint64_t v = 0;
      ASSERT_TRUE(g.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
      EXPECT_EQ(v, Stamp(2));
      ok.fetch_add(1);
    });
  }
  for (auto& th : ths) th.join();
  LatencySimulator::SetScale(0.0);

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(ssd_->stats().num_reads.load(), 1u);
  EXPECT_GE(bm.io_scheduler()->stats().reads_deduped.load(), 1u);
}

TEST_F(IoSchedulerTest, ReadAfterWritePageSeesNewBytes) {
  IoScheduler io(ssd_.get());

  std::vector<std::byte> page(kPageSize);
  FillStamp(page.data(), 0xAB);
  ASSERT_TRUE(io.WritePage(0, page.data()).ok());

  std::vector<std::byte> got(kPageSize);
  ASSERT_TRUE(ReadOnce(io, 0, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), page.data(), kPageSize), 0);
  ASSERT_TRUE(io.Drain().ok());
}

TEST_F(IoSchedulerTest, SecondWriteLeavesNewestBytes) {
  IoScheduler io(ssd_.get());

  std::vector<std::byte> page(kPageSize);
  FillStamp(page.data(), 0xAAAA);
  ASSERT_TRUE(io.WritePage(0, page.data()).ok());
  FillStamp(page.data(), 0xBBBB);
  ASSERT_TRUE(io.WritePage(0, page.data()).ok());

  ASSERT_TRUE(io.Drain().ok());
  std::vector<std::byte> got(kPageSize);
  ASSERT_TRUE(ssd_->Read(0, got.data(), kPageSize).ok());
  uint64_t v = 0;
  std::memcpy(&v, got.data(), sizeof(v));
  EXPECT_EQ(v, 0xBBBBu);
}

// Concurrent readers, writers, and a drainer on a small offset set. Every
// page image is a full-page uniform stamp, so any torn read (mixed bytes
// from two writes) is detected immediately. Exercised under TSan via the
// `sync` label.
TEST_F(IoSchedulerTest, ConcurrentReadWriteStressNoTornPages) {
  IoScheduler io(ssd_.get());

  constexpr int kOffsets = 4;
  constexpr int kWriters = 3;
  constexpr int kIters = 300;
  std::atomic<bool> stop{false};

  std::vector<std::thread> ths;
  for (int t = 0; t < kWriters; ++t) {
    ths.emplace_back([&, t] {
      std::vector<std::byte> page(kPageSize);
      for (int i = 0; i < kIters; ++i) {
        const uint64_t stamp =
            (static_cast<uint64_t>(t + 1) << 32) | (i + 1);
        FillStamp(page.data(), stamp);
        ASSERT_TRUE(
            io.WritePage((i % kOffsets) * kPageSize, page.data()).ok());
      }
    });
  }
  ths.emplace_back([&] {  // reader
    std::vector<std::byte> page(kPageSize);
    int i = 0;
    while (!stop.load()) {
      ASSERT_TRUE(
          ReadOnce(io, (i++ % kOffsets) * kPageSize, page.data()).ok());
      ASSERT_TRUE(IsUniform(page.data()));
    }
  });
  ths.emplace_back([&] {  // drainer
    while (!stop.load()) {
      ASSERT_TRUE(io.Drain().ok());
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kWriters; ++t) ths[t].join();
  stop.store(true);
  for (size_t t = kWriters; t < ths.size(); ++t) ths[t].join();

  ASSERT_TRUE(io.Drain().ok());
  for (int i = 0; i < kOffsets; ++i) {
    std::vector<std::byte> got(kPageSize);
    ASSERT_TRUE(ssd_->Read(i * kPageSize, got.data(), kPageSize).ok());
    EXPECT_TRUE(IsUniform(got.data()));
  }
}

// A miss whose device read overlaps an eviction's write of the same page
// must not install the older bytes. Each of two hot pages has a writer
// that stamps increasing values and a reader that must read exactly the
// last stamp, while an evictor misses on the other pages: with 4 DRAM
// frames the dirty hot pages keep being written to SSD, and a reader that
// misses during such a write reads the device before the write lands. The
// install must then see the page's SSD write count changed and read
// again. The device is file-backed: its pwrite is slow enough to open
// the window between a write's start and its count. A mutex per page
// orders its writer and reader, so page bytes never race under TSan.
// Exercised under TSan via the `sync` label.
TEST_F(IoSchedulerTest, MissRacingEvictionWriteInstallsNewestBytes) {
  constexpr page_id_t kHot = 2;
  constexpr page_id_t kPages = kHot + 22;
  const std::string path = ::testing::TempDir() + "io_scheduler_test_" +
                           std::to_string(::getpid()) + ".ssd";
  ssd_ = std::make_unique<SsdDevice>(path, kPages * kPageSize);
  SeedColdPages(kPages);
  BufferManagerOptions opt;
  opt.dram_frames = 4;
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.read_ahead_pages = 0;
  opt.ssd = ssd_.get();
  {
    BufferManager bm(opt);
    bm.SetNextPageId(kPages);

    struct Hot {
      std::mutex mu;
      uint64_t last = 0;  // the page's newest stamp, guarded by mu
    };
    Hot hot[kHot];
    for (page_id_t p = 0; p < kHot; ++p) hot[p].last = Stamp(p);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> checked{0};
    std::vector<std::thread> ths;
    for (page_id_t p = 0; p < kHot; ++p) {
      ths.emplace_back([&, p] {  // writer
        for (uint64_t k = 1; !stop.load(); ++k) {
          std::lock_guard<std::mutex> l(hot[p].mu);
          auto r = bm.FetchPage(p, AccessIntent::kWrite);
          if (!r.ok()) continue;  // Busy under churn is legal
          const uint64_t v = Stamp(kPages) + k;  // above every seeded stamp
          ASSERT_TRUE(r.value().WriteAt(kPageHeaderSize, sizeof(v), &v).ok());
          hot[p].last = v;
        }
      });
      ths.emplace_back([&, p] {  // reader
        while (!stop.load()) {
          std::lock_guard<std::mutex> l(hot[p].mu);
          auto r = bm.FetchPage(p, AccessIntent::kRead);
          if (!r.ok()) continue;
          uint64_t v = 0;
          ASSERT_TRUE(r.value().ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
          ASSERT_EQ(v, hot[p].last) << "page " << p;
          checked.fetch_add(1);
        }
      });
    }
    ths.emplace_back([&] {  // evictor
      for (page_id_t i = 0; !stop.load(); ++i) {
        (void)bm.FetchPage(kHot + i % (kPages - kHot), AccessIntent::kRead);
      }
    });
    std::this_thread::sleep_for(std::chrono::seconds(2));
    stop.store(true);
    for (auto& th : ths) th.join();
    EXPECT_GT(checked.load(), 0u);
    for (page_id_t p = 0; p < kHot; ++p) {
      EXPECT_GT(bm.page_table().Find(p)->ssd_writes.load(), 0u) << p;
    }
  }
  ssd_.reset();
  std::remove(path.c_str());
}

TEST_F(IoSchedulerTest, SequentialMissesTriggerReadAhead) {
  SeedColdPages(16);
  BufferManagerOptions opt;
  opt.dram_frames = 32;
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = ssd_.get();
  opt.read_ahead_pages = 4;
  BufferManager bm(opt);
  bm.SetNextPageId(16);

  // Two sequential misses arm the prefetcher: the second leads a window
  // over pages 1..4.
  for (page_id_t pid = 0; pid < 2; ++pid) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (bm.stats().Snapshot().read_ahead_installs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(bm.stats().Snapshot().read_ahead_installs, 1u);

  // The prefetched page is served without another device read.
  const uint64_t reads_before = ssd_->stats().num_reads.load();
  auto r = bm.FetchPage(2, AccessIntent::kRead);
  ASSERT_TRUE(r.ok());
  PageGuard g = r.MoveValue();
  uint64_t v = 0;
  ASSERT_TRUE(g.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
  EXPECT_EQ(v, Stamp(2));
  EXPECT_EQ(ssd_->stats().num_reads.load(), reads_before);
}

// A window is bounded only by read_ahead_pages, the allocator and the
// page table's end: one that starts at page 52 crosses page 64, the edge
// of a 32-page page-table block, and is still one device read that
// installs every page.
TEST_F(IoSchedulerTest, ReadAheadWindowCrossesPageTableBlocks) {
  constexpr page_id_t kPages = 128;
  SeedColdPages(kPages);
  BufferManagerOptions opt;
  opt.dram_frames = 256;
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  bm.SetNextPageId(kPages);
  const size_t ra = opt.read_ahead_pages;
  ASSERT_GT(52 + ra, 64u);

  ASSERT_TRUE(bm.FetchPage(51, AccessIntent::kRead).ok());
  const uint64_t reads_before = ssd_->stats().num_reads.load();
  const uint64_t bytes_before = ssd_->stats().bytes_read.load();
  // The second sequential miss leads a window over pages 52..52+ra-1.
  ASSERT_TRUE(bm.FetchPage(52, AccessIntent::kRead).ok());

  EXPECT_EQ(ssd_->stats().num_reads.load() - reads_before, 1u);
  EXPECT_EQ(ssd_->stats().bytes_read.load() - bytes_before, ra * kPageSize);
  EXPECT_EQ(bm.stats().Snapshot().read_ahead_installs, ra);
  for (page_id_t pid = 52; pid < 52 + ra; ++pid) {
    EXPECT_TRUE(bm.IsDramResident(pid)) << pid;
  }
}

// A read-ahead window over a page that was evicted dirty must install the
// written bytes, not the older image the device held before.
TEST_F(IoSchedulerTest, ReadAheadWindowOverEvictedDirtyPageServesNewBytes) {
  constexpr page_id_t kPages = 64;
  constexpr page_id_t kTarget = 10;
  SeedColdPages(kPages);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.read_ahead_pages = 8;
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  bm.SetNextPageId(kPages);

  const uint64_t fresh = 0xF2E5;
  {
    auto r = bm.FetchPage(kTarget, AccessIntent::kWrite);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(
        r.value().WriteAt(kPageHeaderSize, sizeof(fresh), &fresh).ok());
  }
  // Evict the dirty target with misses on pages far from it, stepping
  // down by two so the run detector never arms read-ahead.
  for (page_id_t pid = kPages - 1; pid > kPages / 2; pid -= 2) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_FALSE(bm.IsDramResident(kTarget));
  ASSERT_NE(bm.page_table().Find(kTarget)->ssd_writes.load(), 0u);

  // Two sequential misses: the second leads a window over pages 9..16.
  for (page_id_t pid = kTarget - 2; pid < kTarget; ++pid) {
    auto r = bm.FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_GT(bm.stats().Snapshot().read_ahead_installs, 0u);

  auto r = bm.FetchPage(kTarget, AccessIntent::kRead);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t v = 0;
  ASSERT_TRUE(r.value().ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
  EXPECT_EQ(v, fresh);
}

// A read-ahead window reads every page id below the allocator's, so it can
// install the SSD image of a page whose id NewPage has allocated but not
// yet materialized. NewPage must then take over that copy rather than
// publish a second frame over it (which left the first frame owned by the
// page but unreachable from its descriptor).
TEST_F(IoSchedulerTest, NewPageOverReadAheadCopyReusesItsFrame) {
  SeedColdPages(16);
  BufferManagerOptions opt;
  opt.dram_frames = 32;
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.read_ahead_pages = 4;
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  bm.SetNextPageId(16);

  // Two sequential misses: the second leads a window over pages 1..4.
  for (page_id_t pid = 0; pid < 2; ++pid) {
    ASSERT_TRUE(bm.FetchPage(pid, AccessIntent::kRead).ok());
  }
  ASSERT_TRUE(bm.IsDramResident(3));
  const size_t resident = bm.DramResidentPages();

  // Page 3's id was allocated before the window read it.
  auto r = bm.NewPageWithId(3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  PageGuard g = r.MoveValue();
  uint64_t v = 1;
  ASSERT_TRUE(g.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
  EXPECT_EQ(v, 0u);  // a new page, not the SSD image
  g.Release();
  EXPECT_EQ(bm.DramResidentPages(), resident);
  EXPECT_EQ(bm.DebugDramCensus().detached, 0u);
}

// --- Asynchronous miss path: descriptor state machine ----------------------

// A submitted miss leaves the worker in control (kQueuedLeader), and the
// continuation fires exactly once: one miss submit, one device read, one
// ready transition, bytes correct.
TEST_F(IoSchedulerTest, AsyncSubmitFiresContinuationExactlyOnce) {
  SeedColdPages(4);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  bm.SetNextPageId(4);

  // ~12 ms per read: the submission returns long before completion.
  LatencySimulator::SetScale(1000.0);
  FetchTicket t;
  const FetchSubmit s = bm.SubmitFetch(2, AccessIntent::kRead, &t);
  ASSERT_EQ(s, FetchSubmit::kQueuedLeader);
  EXPECT_FALSE(t.ready.load(std::memory_order_acquire));

  while (!t.ready.load(std::memory_order_acquire)) {
    bm.PumpIo(/*may_sleep=*/false);
  }
  LatencySimulator::SetScale(0.0);

  ASSERT_TRUE(t.status.ok()) << t.status.ToString();
  uint64_t v = 0;
  ASSERT_TRUE(t.guard.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
  EXPECT_EQ(v, Stamp(2));
  EXPECT_EQ(ssd_->stats().num_reads.load(), 1u);
  const auto snap = bm.stats().Snapshot();
  EXPECT_EQ(snap.miss_submits, 1u);
  EXPECT_EQ(snap.miss_joins, 0u);

  // Pumping again must not re-fire anything into the (completed) ticket.
  t.guard.Release();
  bm.PumpIo(/*may_sleep=*/false);
  EXPECT_EQ(bm.stats().Snapshot().miss_submits, 1u);
}

// N concurrent submitters on one cold page: exactly one leads, the rest
// join the in-flight read or hit the installed copy — one device read,
// every ticket completed with the same bytes.
TEST_F(IoSchedulerTest, ConcurrentSubmitsJoinSingleFlight) {
  SeedColdPages(4);
  BufferManagerOptions opt;
  opt.dram_frames = 8;
  opt.nvm_frames = 8;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = ssd_.get();
  BufferManager bm(opt);
  bm.SetNextPageId(4);

  LatencySimulator::SetScale(2000.0);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> ths;
  for (int i = 0; i < kThreads; ++i) {
    ths.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      FetchTicket t;
      (void)bm.SubmitFetch(2, AccessIntent::kRead, &t);
      while (!t.ready.load(std::memory_order_acquire)) {
        bm.PumpIo(/*may_sleep=*/false);
      }
      ASSERT_TRUE(t.status.ok()) << t.status.ToString();
      uint64_t v = 0;
      ASSERT_TRUE(t.guard.ReadAt(kPageHeaderSize, sizeof(v), &v).ok());
      EXPECT_EQ(v, Stamp(2));
      ok.fetch_add(1);
    });
  }
  for (auto& th : ths) th.join();
  LatencySimulator::SetScale(0.0);

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(ssd_->stats().num_reads.load(), 1u);
  const auto snap = bm.stats().Snapshot();
  EXPECT_EQ(snap.miss_submits, 1u);
  // Everyone who did not lead either joined the flight or hit the
  // installed copy; accounting must cover all eight fetches exactly once.
  EXPECT_EQ(snap.dram_hits + snap.nvm_hits + snap.ssd_fetches,
            static_cast<uint64_t>(kThreads));
}

// Destroying the buffer manager with submitted-but-unharvested tickets:
// the scheduler's shutdown drain fires the leftover completions early and
// the tear-down path must resolve every ticket (Busy, no guard) instead
// of installing into freed pools — tickets safely outlive the manager.
TEST_F(IoSchedulerTest, ShutdownResolvesInflightTickets) {
  SeedColdPages(16);
  std::vector<FetchTicket> tickets(6);
  {
    BufferManagerOptions opt;
    opt.dram_frames = 16;
    opt.nvm_frames = 0;
    opt.policy = MigrationPolicy::Eager();
    opt.ssd = ssd_.get();
    BufferManager bm(opt);
    bm.SetNextPageId(16);

    // ~24 ms per read, and strided pids so read-ahead stays unarmed: the
    // destructor runs long before any flight's deadline.
    LatencySimulator::SetScale(2000.0);
    for (size_t i = 0; i < tickets.size(); ++i) {
      (void)bm.SubmitFetch(static_cast<page_id_t>(i * 2), AccessIntent::kRead,
                           &tickets[i]);
    }
    // bm destructs here with the reads still in (simulated) flight.
  }
  LatencySimulator::SetScale(0.0);
  for (auto& t : tickets) {
    EXPECT_TRUE(t.ready.load(std::memory_order_acquire));
    // Installing during tear-down would hand out guards that dangle once
    // the pools are freed; the contract fails the ticket instead.
    EXPECT_TRUE(t.status.IsBusy()) << t.status.ToString();
    EXPECT_FALSE(t.guard.valid());
  }
}

// A read-ahead window install racing synchronous waiters on the same
// pages: scanners chase a sequential front (arming prefetch) while a
// second thread fetches pages inside the upcoming window. Every fetch
// must return the page's own bytes regardless of who installed it.
TEST_F(IoSchedulerTest, ReadAheadInstallRacesSynchronousWaiter) {
  constexpr int kPages = 64;
  SeedColdPages(kPages);
  BufferManagerOptions opt;
  opt.dram_frames = 96;
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = ssd_.get();
  opt.read_ahead_pages = 8;
  BufferManager bm(opt);
  bm.SetNextPageId(kPages);

  LatencySimulator::SetScale(50.0);
  std::atomic<int> front{0};
  std::atomic<int> errors{0};
  std::thread scanner([&] {
    for (int pid = 0; pid < kPages; ++pid) {
      auto r = bm.FetchPage(pid, AccessIntent::kRead);
      if (!r.ok()) {
        errors.fetch_add(1);
        continue;
      }
      uint64_t v = 0;
      if (!r.value().ReadAt(kPageHeaderSize, sizeof(v), &v).ok() ||
          v != Stamp(pid)) {
        errors.fetch_add(1);
      }
      front.store(pid, std::memory_order_release);
    }
  });
  std::thread chaser([&] {
    Xoshiro256 rng(42);
    while (front.load(std::memory_order_acquire) < kPages - 1) {
      // Aim just ahead of the scan front — where read-ahead installs land.
      const int base = front.load(std::memory_order_acquire);
      const page_id_t pid = static_cast<page_id_t>(
          std::min<int>(base + 1 + static_cast<int>(rng.NextUint64(8)),
                        kPages - 1));
      auto r = bm.FetchPage(pid, AccessIntent::kRead);
      if (!r.ok()) continue;  // Busy under churn is legal; wrong bytes are not
      uint64_t v = 0;
      if (!r.value().ReadAt(kPageHeaderSize, sizeof(v), &v).ok() ||
          v != Stamp(pid)) {
        errors.fetch_add(1);
      }
    }
  });
  scanner.join();
  chaser.join();
  LatencySimulator::SetScale(0.0);
  EXPECT_EQ(errors.load(), 0);
}

// Tear-down with a read-ahead window in flight, over pools full of dirty
// pages. The scheduler's shutdown fires the window's read early;
// installing its pages would evict dirty victims whose write-backs the
// stopping scheduler refuses, so every install would sweep both pools
// again and again (NVM admission retries each DRAM victim 64 times) —
// seconds even for these small pools and window. Shutdown must skip the
// installs and fail the window's waiting tickets.
TEST_F(IoSchedulerTest, TeardownWithReadAheadInFlightOverDirtyPoolsIsPrompt) {
  constexpr page_id_t kPages = 512;
  constexpr page_id_t kScanPages = 64;
  constexpr size_t kDramFrames = 16;
  constexpr size_t kNvmFrames = 16;
  SeedColdPages(kPages);
  std::vector<FetchTicket> tickets(2);
  BufferManagerOptions opt;
  opt.dram_frames = kDramFrames;
  opt.nvm_frames = kNvmFrames;
  // Misses land in DRAM; every dirty DRAM victim is admitted into NVM.
  opt.policy = MigrationPolicy{0.0, 0.0, 0.0, 1.0};
  opt.read_ahead_pages = 4;
  opt.ssd = ssd_.get();
  auto bm = std::make_unique<BufferManager>(opt);
  bm->SetNextPageId(kPages);

  const uint64_t mark = 0xD1;
  // 1. Dirty both pools with pages from the top of the range, descending
  //    so the run detector never arms read-ahead.
  for (page_id_t pid = kPages - 1; pid >= kPages - 2 * kNvmFrames; --pid) {
    auto r = bm->FetchPage(pid, AccessIntent::kWrite);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r.value().WriteAt(kPageHeaderSize, sizeof(mark), &mark).ok());
  }
  // 2. A sequential scan from page 0 chains read-ahead windows.
  for (page_id_t pid = 0; pid < kScanPages; ++pid) {
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_GT(bm->stats().Snapshot().read_ahead_installs, 0u);
  // 3. Dirty what the scan left in DRAM, through hits only.
  for (page_id_t pid = 0; pid < kScanPages; ++pid) {
    if (!bm->IsDramResident(pid)) continue;
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r.value().WriteAt(kPageHeaderSize, sizeof(mark), &mark).ok());
  }
  ASSERT_EQ(bm->DramResidentPages(), kDramFrames);
  ASSERT_EQ(bm->NvmResidentPages(), kNvmFrames);
  // 4. Two sequential misses on cold pages, submitted without waiting at
  //    ~24 ms per read: the second leads a window still in flight when
  //    the buffer manager is destroyed.
  LatencySimulator::SetScale(2000.0);
  for (size_t i = 0; i < tickets.size(); ++i) {
    (void)bm->SubmitFetch(static_cast<page_id_t>(kPages / 2 + i),
                          AccessIntent::kRead, &tickets[i]);
  }

  const auto start = std::chrono::steady_clock::now();
  bm.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  LatencySimulator::SetScale(0.0);
  for (auto& t : tickets) {
    EXPECT_TRUE(t.ready.load(std::memory_order_acquire));
    EXPECT_TRUE(t.status.IsBusy()) << t.status.ToString();
    EXPECT_FALSE(t.guard.valid());
  }
}

}  // namespace
}  // namespace spitfire
