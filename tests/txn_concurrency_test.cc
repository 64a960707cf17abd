// Transactions under concurrent load: transfers stay atomic against
// concurrent auditors, and the lock-free MVTO active-transaction registry
// keeps its watermark below every open transaction.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "db/database.h"
#include "storage/perf_model.h"
#include "txn/mvto_manager.h"

namespace spitfire {
namespace {

class TxnConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }
};

// --- transfers ------------------------------------------------------------

struct Account {
  uint64_t balance;
  char pad[1008];  // ~16 rows per 16 KB page so the table spans many pages
};

TEST_F(TxnConcurrencyTest, TransferTxnAtomicityUnderLoad) {
  DatabaseOptions opts;
  opts.dram_frames = 1024;
  opts.policy = MigrationPolicy::Eager();
  auto db = Database::Create(opts).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Account)).value();

  // Bulk-load enough accounts that the heap spans many pages, so one
  // transfer txn below writes two pages.
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
  // Transfer txns move balance between accounts ~kAccounts/2 apart, on
  // far pages; half the txns abort on purpose. Concurrent auditors
  // snapshot-sum every account; any torn (partially applied) transfer or
  // leaked abort breaks the invariant total.
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

// --- lock-free MVTO registry ----------------------------------------------

TEST_F(TxnConcurrencyTest, MvtoSlotRegistryConcurrentBeginFinish) {
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
TEST_F(TxnConcurrencyTest, MvtoWatermarkBoundsOtherThreadsOpenTransactions) {
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

TEST_F(TxnConcurrencyTest, MvtoFinishIsIdempotentAndSlotsRecycle) {
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
