// Tests for Table::Delete: tombstone semantics under MVTO, snapshot
// behaviour, re-insertion over tombstones, abort rollback, reclamation of
// committed tombstones, and crash recovery of deletes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "storage/perf_model.h"

namespace spitfire {
namespace {

struct Item {
  uint64_t value;
  uint64_t pad;
};

class DeleteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    opts_.dram_frames = 64;
    opts_.nvm_frames = 64;
    opts_.enable_wal = true;
    // These tests write little; zeroing the default 256 MB devices would
    // take most of each test's time under TSan.
    opts_.ssd_capacity = 16ull * 1024 * 1024;
    opts_.log_ssd_capacity = 16ull * 1024 * 1024;
    db_ = Database::Create(opts_).MoveValue();
    table_ = db_->CreateTable(1, sizeof(Item)).value();
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  void InsertCommitted(uint64_t key, uint64_t value) {
    auto txn = db_->Begin();
    Item it{value, 0};
    ASSERT_TRUE(table_->Insert(txn.get(), key, &it).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  void DeleteCommitted(uint64_t key) {
    auto txn = db_->Begin();
    ASSERT_TRUE(table_->Delete(txn.get(), key).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  uint64_t IndexCount() { return table_->index()->Count().value(); }

  DatabaseOptions opts_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(DeleteTest, DeleteMakesKeyNotFound) {
  InsertCommitted(1, 10);
  DeleteCommitted(1);
  auto txn = db_->Begin();
  Item it{};
  EXPECT_TRUE(table_->Read(txn.get(), 1, &it).IsNotFound());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(DeleteTest, DeleteOfMissingKeyIsNotFound) {
  auto txn = db_->Begin();
  EXPECT_TRUE(table_->Delete(txn.get(), 99).IsNotFound());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
}

TEST_F(DeleteTest, DoubleDeleteIsNotFound) {
  InsertCommitted(1, 10);
  DeleteCommitted(1);
  auto txn = db_->Begin();
  EXPECT_TRUE(table_->Delete(txn.get(), 1).IsNotFound());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
}

TEST_F(DeleteTest, OldSnapshotStillSeesDeletedRow) {
  InsertCommitted(1, 10);
  auto old_reader = db_->Begin();
  DeleteCommitted(1);
  Item it{};
  ASSERT_TRUE(table_->Read(old_reader.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 10u);
  ASSERT_TRUE(db_->Commit(old_reader.get()).ok());
}

TEST_F(DeleteTest, UpdateOfDeletedKeyIsNotFound) {
  InsertCommitted(1, 10);
  DeleteCommitted(1);
  auto txn = db_->Begin();
  Item it{20, 0};
  EXPECT_TRUE(table_->Update(txn.get(), 1, &it).IsNotFound());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
}

TEST_F(DeleteTest, ReinsertAfterDelete) {
  InsertCommitted(1, 10);
  DeleteCommitted(1);
  InsertCommitted(1, 42);
  auto txn = db_->Begin();
  Item it{};
  ASSERT_TRUE(table_->Read(txn.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 42u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(DeleteTest, ReinsertWhileRowStillVisibleIsDuplicate) {
  InsertCommitted(1, 10);
  auto txn = db_->Begin();
  Item it{20, 0};
  EXPECT_EQ(table_->Insert(txn.get(), 1, &it).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
}

TEST_F(DeleteTest, DeleteThenInsertInSameTxn) {
  InsertCommitted(1, 10);
  auto txn = db_->Begin();
  ASSERT_TRUE(table_->Delete(txn.get(), 1).ok());
  Item it{};
  EXPECT_TRUE(table_->Read(txn.get(), 1, &it).IsNotFound());
  // Re-insert within the same transaction resurrects the key (mutating the
  // txn's own tombstone version in place).
  Item fresh{30, 0};
  ASSERT_TRUE(table_->Insert(txn.get(), 1, &fresh).ok());
  ASSERT_TRUE(table_->Read(txn.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 30u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  // The write set holds a kDelete entry for a version that is live again:
  // commit must not reclaim it as a tombstone.
  auto later = db_->Begin();
  ASSERT_TRUE(table_->Read(later.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 30u);
  ASSERT_TRUE(db_->Commit(later.get()).ok());
  EXPECT_EQ(IndexCount(), 1u);
}

TEST_F(DeleteTest, InsertThenDeleteInSameTxnLeavesNoKey) {
  // The converse: a tombstone under a kInsert entry is reclaimed too.
  auto txn = db_->Begin();
  Item it{10, 0};
  ASSERT_TRUE(table_->Insert(txn.get(), 1, &it).ok());
  ASSERT_TRUE(table_->Delete(txn.get(), 1).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(IndexCount(), 0u);
  auto later = db_->Begin();
  EXPECT_TRUE(table_->Read(later.get(), 1, &it).IsNotFound());
  ASSERT_TRUE(db_->Commit(later.get()).ok());
}

TEST_F(DeleteTest, DeletedKeysLeaveTheIndex) {
  // With nothing else open, each delete's commit reclaims its tombstone:
  // the key leaves the index and its slots return to the free list.
  constexpr uint64_t kKeys = 200;
  uint64_t pages_after_first_round = 0;
  for (int round = 0; round < 5; ++round) {
    for (uint64_t k = 0; k < kKeys; ++k) InsertCommitted(k, k + 1);
    EXPECT_EQ(IndexCount(), kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) DeleteCommitted(k);
    EXPECT_EQ(IndexCount(), 0u) << "round " << round;
    if (round == 0) pages_after_first_round = table_->allocated_pages();
  }
  EXPECT_EQ(table_->allocated_pages(), pages_after_first_round);
  auto txn = db_->Begin();
  Item it{};
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(table_->Read(txn.get(), k, &it).IsNotFound()) << k;
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(DeleteTest, OlderSnapshotHoldsTombstoneBack) {
  InsertCommitted(1, 10);
  auto snapshot = db_->Begin();
  auto deleter = db_->Begin();
  const timestamp_t delete_ts = deleter->ts();
  ASSERT_TRUE(table_->Delete(deleter.get(), 1).ok());
  ASSERT_TRUE(db_->Commit(deleter.get()).ok());
  // The snapshot is older than the delete: the tombstone stays indexed
  // and the snapshot still reads the row under it.
  EXPECT_EQ(IndexCount(), 1u);
  Item it{};
  ASSERT_TRUE(table_->Read(snapshot.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 10u);
  ASSERT_TRUE(db_->Commit(snapshot.get()).ok());
  // Only the delete's own commit reclaims, so the tombstone stays indexed
  // after the snapshot ends. Nothing reclaims it later, so it does not
  // hold a checkpoint's redo horizon back.
  InsertCommitted(2, 20);
  EXPECT_EQ(IndexCount(), 2u);
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_GE(db_->log_manager()->durable_horizon(), delete_ts);
  auto txn = db_->Begin();
  EXPECT_TRUE(table_->Read(txn.get(), 1, &it).IsNotFound());
  ASSERT_TRUE(table_->Read(txn.get(), 2, &it).ok());
  EXPECT_EQ(it.value, 20u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  // Deleting a key that was never reclaimed is still NotFound.
  auto again = db_->Begin();
  EXPECT_TRUE(table_->Delete(again.get(), 1).IsNotFound());
  ASSERT_TRUE(db_->Abort(again.get()).ok());
}

TEST_F(DeleteTest, ReinsertOverHeldTombstoneKeepsTheRow) {
  // A tombstone an older snapshot held back is the base of a later
  // insert, which its commit then frees as chain garbage.
  InsertCommitted(1, 10);
  auto snapshot = db_->Begin();
  DeleteCommitted(1);
  InsertCommitted(1, 42);
  ASSERT_TRUE(db_->Commit(snapshot.get()).ok());
  InsertCommitted(2, 20);
  EXPECT_EQ(IndexCount(), 2u);
  auto txn = db_->Begin();
  Item it{};
  ASSERT_TRUE(table_->Read(txn.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 42u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(DeleteTest, FailedGarbagePinKeepsTheChainReachable) {
  // A reclaim whose walk over the older versions cannot pin one of them
  // must leave that version linked behind the tombstone. Were it cut off
  // but still allocated, a later reclaim of the key would leave it as the
  // key's only version, and recovery would bring the deleted row back.
  DatabaseOptions opts = opts_;
  opts.dram_frames = 16;
  opts.nvm_frames = 0;
  db_ = Database::Create(opts).MoveValue();
  // One version per page, so each version of the key has a page of its own.
  constexpr size_t kTupleSize = 12 * 1024;
  Table* t = db_->CreateTable(2, kTupleSize).value();
  ASSERT_EQ(t->slots_per_page(), 1u);
  BufferManager* bm = db_->buffer_manager();
  std::vector<std::byte> tuple(kTupleSize, std::byte{7});
  const auto commit = [&](auto&& op) {
    auto txn = db_->Begin();
    ASSERT_TRUE(op(txn.get()).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  };
  constexpr uint64_t kKey = 5;
  const page_id_t oldest_page = bm->next_page_id();
  commit([&](Transaction* txn) { return t->Insert(txn, kKey, tuple.data()); });
  ASSERT_EQ(bm->next_page_id(), oldest_page + 1);
  // A snapshot open across the update keeps the first version in the chain.
  auto snapshot = db_->Begin();
  commit([&](Transaction* txn) { return t->Update(txn, kKey, tuple.data()); });
  ASSERT_TRUE(db_->Commit(snapshot.get()).ok());
  auto deleter = db_->Begin();
  ASSERT_TRUE(t->Delete(deleter.get(), kKey).ok());
  // Pin every page but the oldest version's, then fill the remaining
  // frames with new pages: the oldest version's page is evicted and
  // cannot come back while the delete commits.
  std::vector<PageGuard> held;
  for (page_id_t pid = 0; pid < bm->next_page_id(); ++pid) {
    if (pid == oldest_page) continue;
    auto g = bm->FetchPage(pid, AccessIntent::kRead);
    ASSERT_TRUE(g.ok()) << pid << ": " << g.status().ToString();
    held.push_back(g.MoveValue());
  }
  for (;;) {
    auto g = bm->NewPage();
    if (!g.ok()) break;
    held.push_back(g.MoveValue());
  }
  ASSERT_TRUE(db_->Commit(deleter.get()).ok());
  held.clear();
  // The reclaim stopped, so the key is still an indexed tombstone.
  EXPECT_EQ(t->index()->Count().value(), 1u);
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
  // Re-insert and delete the key: this time every pin succeeds, and the
  // key leaves the heap with no version of it left allocated.
  commit([&](Transaction* txn) { return t->Insert(txn, kKey, tuple.data()); });
  commit([&](Transaction* txn) { return t->Delete(txn, kKey); });
  EXPECT_EQ(t->index()->Count().value(), 0u);
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
  ASSERT_TRUE(db_->Checkpoint().ok());

  DatabaseEnv env = Database::Crash(std::move(db_));
  auto db_r = Database::Recover(opts, std::move(env));
  ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
  db_ = db_r.MoveValue();
  t = db_->GetTable(2);
  EXPECT_EQ(t->index()->Count().value(), 0u);
  auto txn = db_->Begin();
  EXPECT_TRUE(t->Read(txn.get(), kKey, tuple.data()).IsNotFound());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(DeleteTest, ReadersRacingReclaimSeeRowOrNotFound) {
  // One thread inserts and deletes a few keys over and over, so their
  // tombstones are reclaimed while readers look them up. A reader may see
  // the row or NotFound (or abort), never a freed slot's bytes.
  constexpr uint64_t kKeys = 4;
  constexpr int kMinRounds = 300;
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> rows_seen{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t k = static_cast<uint64_t>(r);
      while (!stop.load()) {
        auto txn = db_->Begin();
        k = (k + 1) % kKeys;
        Item it{};
        const Status st = table_->Read(txn.get(), k, &it);
        if (st.ok()) {
          rows_seen.fetch_add(1);
          if (it.value != k + 1 || it.pad != ~(k + 1)) errors.fetch_add(1);
        } else if (!st.IsNotFound() && !st.IsAborted() && !st.IsBusy()) {
          errors.fetch_add(1);
        }
        (void)db_->Commit(txn.get());
      }
    });
  }
  // Returns the first write that neither succeeded nor aborted, if any.
  // Run on until the readers have seen rows: on a loaded host they may
  // not have been scheduled at all during the first rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto write_rounds = [&]() -> std::string {
    for (int round = 0;
         round < kMinRounds || (rows_seen.load() < 100 &&
                                std::chrono::steady_clock::now() < deadline);
         ++round) {
      for (uint64_t k = 0; k < kKeys; ++k) {
        // Readers' read_ts bumps can abort the writer: retry.
        Status st;
        for (int attempt = 0; attempt < 1000; ++attempt) {
          auto txn = db_->Begin();
          Item it{k + 1, ~(k + 1)};
          st = (round % 2 == 0) ? table_->Insert(txn.get(), k, &it)
                                : table_->Delete(txn.get(), k);
          if (st.ok()) {
            st = db_->Commit(txn.get());
            break;
          }
          (void)db_->Abort(txn.get());
          if (!st.IsAborted() && !st.IsBusy()) break;
        }
        if (!st.ok()) {
          return "key " + std::to_string(k) + " round " +
                 std::to_string(round) + ": " + st.ToString();
        }
      }
    }
    return "";
  };
  const std::string failed_write = write_rounds();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failed_write, "");
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(rows_seen.load(), 0u);
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(DeleteTest, AbortedDeleteLeavesRowVisible) {
  InsertCommitted(1, 10);
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(table_->Delete(txn.get(), 1).ok());
    ASSERT_TRUE(db_->Abort(txn.get()).ok());
  }
  auto txn = db_->Begin();
  Item it{};
  ASSERT_TRUE(table_->Read(txn.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 10u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(DeleteTest, ScanSkipsDeletedKeys) {
  for (uint64_t k = 0; k < 20; ++k) InsertCommitted(k, k);
  for (uint64_t k = 0; k < 20; k += 2) DeleteCommitted(k);
  auto txn = db_->Begin();
  uint64_t count = 0;
  ASSERT_TRUE(table_->Scan(txn.get(), 0, 100,
                           [&](uint64_t k, const void*) {
                             EXPECT_EQ(k % 2, 1u);
                             ++count;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(count, 10u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(DeleteTest, YoungerReadBlocksOlderDelete) {
  InsertCommitted(1, 10);
  auto old_deleter = db_->Begin();
  auto young = db_->Begin();
  Item it{};
  ASSERT_TRUE(table_->Read(young.get(), 1, &it).ok());
  ASSERT_TRUE(db_->Commit(young.get()).ok());
  EXPECT_TRUE(table_->Delete(old_deleter.get(), 1).IsAborted());
  ASSERT_TRUE(db_->Abort(old_deleter.get()).ok());
}

TEST_F(DeleteTest, DeletesSurviveCrashRecovery) {
  for (uint64_t k = 0; k < 30; ++k) InsertCommitted(k, k + 100);
  for (uint64_t k = 0; k < 30; k += 3) DeleteCommitted(k);
  // Re-insert one deleted key with a new value.
  InsertCommitted(3, 999);

  DatabaseEnv env = Database::Crash(std::move(db_));
  auto db_r = Database::Recover(opts_, std::move(env));
  ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
  db_ = db_r.MoveValue();
  table_ = db_->GetTable(1);

  auto txn = db_->Begin();
  Item it{};
  for (uint64_t k = 0; k < 30; ++k) {
    const Status st = table_->Read(txn.get(), k, &it);
    if (k == 3) {
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(it.value, 999u);
    } else if (k % 3 == 0) {
      EXPECT_TRUE(st.IsNotFound()) << "key " << k;
    } else {
      ASSERT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(it.value, k + 100);
    }
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  // Recovery leaves no tombstone behind: 20 rows never deleted, plus 3.
  EXPECT_EQ(IndexCount(), 21u);
}

TEST_F(DeleteTest, RecoveryReclaimsHeldTombstones) {
  // Tombstones still indexed at the crash (an old snapshot held them) are
  // found by the heap scan or replayed by redo, and reclaimed.
  for (uint64_t k = 0; k < 20; ++k) InsertCommitted(k, k + 100);
  auto snapshot = db_->Begin();
  for (uint64_t k = 0; k < 20; k += 2) DeleteCommitted(k);
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_EQ(IndexCount(), 20u);
  snapshot.reset();  // dropped by the crash, never finished

  DatabaseEnv env = Database::Crash(std::move(db_));
  auto db_r = Database::Recover(opts_, std::move(env));
  ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
  db_ = db_r.MoveValue();
  table_ = db_->GetTable(1);
  EXPECT_EQ(IndexCount(), 10u);
  auto txn = db_->Begin();
  Item it{};
  for (uint64_t k = 0; k < 20; ++k) {
    const Status st = table_->Read(txn.get(), k, &it);
    if (k % 2 == 0) {
      EXPECT_TRUE(st.IsNotFound()) << "key " << k;
    } else {
      ASSERT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(it.value, k + 100);
    }
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(DeleteTest, ConcurrentInsertDeleteChurn) {
  // Threads insert/delete disjoint key ranges while readers scan; the
  // table must stay consistent and every committed state observable.
  std::atomic<int> errors{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < 3; ++t) {
    ths.emplace_back([&, t] {
      const uint64_t base = 1000 + static_cast<uint64_t>(t) * 1000;
      // MVTO aborts (e.g. the scanner's read_ts blocking an older
      // writer) are expected under contention: retry them. Only
      // non-Aborted failures count as errors.
      auto commit_with_retry = [&](auto&& op) {
        for (int attempt = 0; attempt < 100; ++attempt) {
          auto txn = db_->Begin();
          const Status st = op(txn.get());
          if (st.ok()) {
            if (db_->Commit(txn.get()).ok()) return;
            errors.fetch_add(1);
            return;
          }
          (void)db_->Abort(txn.get());
          if (!st.IsAborted() && !st.IsBusy()) {
            errors.fetch_add(1);
            return;
          }
        }
        errors.fetch_add(1);  // could not commit in 100 attempts
      };
      for (int round = 0; round < 60; ++round) {
        for (uint64_t k = base; k < base + 10; ++k) {
          Item it{k, 0};
          commit_with_retry([&](Transaction* txn) {
            return table_->Insert(txn, k, &it);
          });
        }
        for (uint64_t k = base; k < base + 10; ++k) {
          commit_with_retry([&](Transaction* txn) {
            return table_->Delete(txn, k);
          });
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load()) {
      auto txn = db_->Begin();
      uint64_t prev = 0;
      const Status st = table_->Scan(txn.get(), 1000, 4000,
                                     [&](uint64_t k, const void* tuple) {
                                       if (k < prev) errors.fetch_add(1);
                                       prev = k;
                                       const auto* it =
                                           static_cast<const Item*>(tuple);
                                       if (it->value != k) errors.fetch_add(1);
                                       return true;
                                     });
      if (!st.ok() && !st.IsAborted() && !st.IsBusy()) errors.fetch_add(1);
      (void)db_->Commit(txn.get());
    }
  });
  for (auto& th : ths) th.join();
  stop.store(true);
  scanner.join();
  EXPECT_EQ(errors.load(), 0);
  // Everything was deleted in the final round of each thread.
  auto txn = db_->Begin();
  uint64_t remaining = 0;
  ASSERT_TRUE(table_->Scan(txn.get(), 1000, 4000,
                           [&](uint64_t, const void*) {
                             ++remaining;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(remaining, 0u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

}  // namespace
}  // namespace spitfire
