#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "db/database.h"
#include "storage/perf_model.h"

namespace spitfire {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  static DatabaseOptions SmallOptions() {
    DatabaseOptions opts;
    opts.dram_frames = 64;
    opts.nvm_frames = 128;
    opts.policy = MigrationPolicy::Lazy();
    opts.ssd_capacity = 256ull * 1024 * 1024;
    opts.enable_wal = true;
    return opts;
  }

  struct Row {
    uint64_t a;
    uint64_t b;
    char text[48];
  };

  static Row MakeRow(uint64_t k) {
    Row r{};
    r.a = k;
    r.b = k * k;
    std::snprintf(r.text, sizeof(r.text), "row-%llu",
                  static_cast<unsigned long long>(k));
    return r;
  }
};

TEST_F(DatabaseTest, InsertReadCommit) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  auto t_r = db->CreateTable(1, sizeof(Row));
  ASSERT_TRUE(t_r.ok());
  Table* t = t_r.value();

  auto txn = db->Begin();
  Row row = MakeRow(5);
  ASSERT_TRUE(t->Insert(txn.get(), 5, &row).ok());
  ASSERT_TRUE(db->Commit(txn.get()).ok());

  auto txn2 = db->Begin();
  Row out{};
  ASSERT_TRUE(t->Read(txn2.get(), 5, &out).ok());
  EXPECT_EQ(out.a, 5u);
  EXPECT_EQ(out.b, 25u);
  EXPECT_STREQ(out.text, "row-5");
  ASSERT_TRUE(db->Commit(txn2.get()).ok());
}

TEST_F(DatabaseTest, ReadOwnUncommittedWrites) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  auto txn = db->Begin();
  Row row = MakeRow(9);
  ASSERT_TRUE(t->Insert(txn.get(), 9, &row).ok());
  Row out{};
  ASSERT_TRUE(t->Read(txn.get(), 9, &out).ok());
  EXPECT_EQ(out.b, 81u);
  row.b = 100;
  ASSERT_TRUE(t->Update(txn.get(), 9, &row).ok());
  ASSERT_TRUE(t->Read(txn.get(), 9, &out).ok());
  EXPECT_EQ(out.b, 100u);
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(DatabaseTest, UncommittedInvisibleToOlderReader) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  // Reader begins first: the writer's eventual commit timestamp exceeds
  // the reader's, so the insert is safely invisible.
  auto reader = db->Begin();
  auto writer = db->Begin();
  Row row = MakeRow(3);
  ASSERT_TRUE(t->Insert(writer.get(), 3, &row).ok());

  Row out{};
  EXPECT_TRUE(t->Read(reader.get(), 3, &out).IsNotFound());
  ASSERT_TRUE(db->Commit(reader.get()).ok());
  ASSERT_TRUE(db->Commit(writer.get()).ok());
}

TEST_F(DatabaseTest, YoungerReaderAbortsOnInFlightOlderWrite) {
  // No-wait MVTO: a reader younger than an in-flight writer cannot safely
  // read around the uncommitted version — it aborts instead.
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  auto writer = db->Begin();
  Row row = MakeRow(3);
  ASSERT_TRUE(t->Insert(writer.get(), 3, &row).ok());

  auto reader = db->Begin();  // younger than writer
  Row out{};
  EXPECT_TRUE(t->Read(reader.get(), 3, &out).IsAborted());
  ASSERT_TRUE(db->Abort(reader.get()).ok());
  ASSERT_TRUE(db->Commit(writer.get()).ok());
}

TEST_F(DatabaseTest, SnapshotReadsOldVersion) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  {
    auto txn = db->Begin();
    Row row = MakeRow(1);
    ASSERT_TRUE(t->Insert(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  // Reader starts BEFORE the update commits: MVTO pins it to the old
  // version.
  auto old_reader = db->Begin();
  {
    auto upd = db->Begin();
    Row row = MakeRow(1);
    row.b = 777;
    ASSERT_TRUE(t->Update(upd.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(upd.get()).ok());
  }
  Row out{};
  ASSERT_TRUE(t->Read(old_reader.get(), 1, &out).ok());
  EXPECT_EQ(out.b, 1u);  // original value
  ASSERT_TRUE(db->Commit(old_reader.get()).ok());

  auto new_reader = db->Begin();
  ASSERT_TRUE(t->Read(new_reader.get(), 1, &out).ok());
  EXPECT_EQ(out.b, 777u);
  ASSERT_TRUE(db->Commit(new_reader.get()).ok());
}

TEST_F(DatabaseTest, WriteWriteConflictAborts) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  {
    auto txn = db->Begin();
    Row row = MakeRow(1);
    ASSERT_TRUE(t->Insert(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  auto t1 = db->Begin();
  auto t2 = db->Begin();
  Row row = MakeRow(1);
  row.b = 10;
  ASSERT_TRUE(t->Update(t1.get(), 1, &row).ok());
  row.b = 20;
  EXPECT_TRUE(t->Update(t2.get(), 1, &row).IsAborted());
  ASSERT_TRUE(db->Abort(t2.get()).ok());
  ASSERT_TRUE(db->Commit(t1.get()).ok());

  auto check = db->Begin();
  Row out{};
  ASSERT_TRUE(t->Read(check.get(), 1, &out).ok());
  EXPECT_EQ(out.b, 10u);
  ASSERT_TRUE(db->Commit(check.get()).ok());
}

TEST_F(DatabaseTest, ReadTsBlocksOlderWriter) {
  // MVTO: if a younger transaction read the head version, an older
  // transaction must not overwrite it.
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  {
    auto txn = db->Begin();
    Row row = MakeRow(1);
    ASSERT_TRUE(t->Insert(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  auto old_writer = db->Begin();   // ts = T
  auto young_reader = db->Begin(); // ts = T+1
  Row out{};
  ASSERT_TRUE(t->Read(young_reader.get(), 1, &out).ok());
  ASSERT_TRUE(db->Commit(young_reader.get()).ok());
  Row row = MakeRow(1);
  EXPECT_TRUE(t->Update(old_writer.get(), 1, &row).IsAborted());
  ASSERT_TRUE(db->Abort(old_writer.get()).ok());
}

TEST_F(DatabaseTest, AbortRollsBackInsertAndUpdate) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  {
    auto txn = db->Begin();
    Row row = MakeRow(1);
    ASSERT_TRUE(t->Insert(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  {
    auto txn = db->Begin();
    Row row = MakeRow(2);
    ASSERT_TRUE(t->Insert(txn.get(), 2, &row).ok());
    row = MakeRow(1);
    row.b = 999;
    ASSERT_TRUE(t->Update(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Abort(txn.get()).ok());
  }
  auto check = db->Begin();
  Row out{};
  EXPECT_TRUE(t->Read(check.get(), 2, &out).IsNotFound());
  ASSERT_TRUE(t->Read(check.get(), 1, &out).ok());
  EXPECT_EQ(out.b, 1u);
  ASSERT_TRUE(db->Commit(check.get()).ok());
  // The key is reusable after the rollback.
  auto retry = db->Begin();
  Row row = MakeRow(2);
  EXPECT_TRUE(t->Insert(retry.get(), 2, &row).ok());
  ASSERT_TRUE(db->Commit(retry.get()).ok());
}

TEST_F(DatabaseTest, ScanSeesOnlyCommitted) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 50; ++k) {
      Row row = MakeRow(k);
      ASSERT_TRUE(t->Insert(txn.get(), k, &row).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  // Reader begins before the pending insert, so the in-flight version is
  // safely invisible (no-wait MVTO only aborts younger readers).
  auto reader = db->Begin();
  auto pending = db->Begin();
  Row extra = MakeRow(100);
  ASSERT_TRUE(t->Insert(pending.get(), 100, &extra).ok());

  uint64_t count = 0;
  ASSERT_TRUE(t->Scan(reader.get(), 0, 1000,
                      [&](uint64_t, const void*) {
                        ++count;
                        return true;
                      })
                  .ok());
  EXPECT_EQ(count, 50u);
  ASSERT_TRUE(db->Commit(reader.get()).ok());
  ASSERT_TRUE(db->Commit(pending.get()).ok());
}

TEST_F(DatabaseTest, VersionChainsGetTruncated) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  {
    auto txn = db->Begin();
    Row row = MakeRow(1);
    ASSERT_TRUE(t->Insert(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  // Many updates of one key: without GC the heap would need one page per
  // ~15 versions; with GC it stays bounded.
  for (int i = 0; i < 2000; ++i) {
    auto txn = db->Begin();
    Row row = MakeRow(1);
    row.b = static_cast<uint64_t>(i);
    ASSERT_TRUE(t->Update(txn.get(), 1, &row).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  EXPECT_LT(t->allocated_pages(), 20u);
}

TEST_F(DatabaseTest, CrashRecoveryPreservesCommittedData) {
  DatabaseOptions opts = SmallOptions();
  DatabaseEnv env;
  {
    auto db = Database::Create(opts).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Row)).value();
    for (uint64_t k = 0; k < 200; ++k) {
      auto txn = db->Begin();
      Row row = MakeRow(k);
      ASSERT_TRUE(t->Insert(txn.get(), k, &row).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    // Update some keys.
    for (uint64_t k = 0; k < 200; k += 4) {
      auto txn = db->Begin();
      Row row = MakeRow(k);
      row.b = k + 1'000'000;
      ASSERT_TRUE(t->Update(txn.get(), k, &row).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    // Leave one transaction uncommitted at the crash.
    auto loser = db->Begin();
    Row row = MakeRow(7);
    row.b = 666;
    ASSERT_TRUE(t->Update(loser.get(), 7, &row).ok());
    env = Database::Crash(std::move(db));
  }
  {
    auto db_r = Database::Recover(opts, std::move(env));
    ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
    auto db = db_r.MoveValue();
    Table* t = db->GetTable(1);
    ASSERT_NE(t, nullptr);
    auto txn = db->Begin();
    Row out{};
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(t->Read(txn.get(), k, &out).ok()) << "key " << k;
      const uint64_t expect = (k % 4 == 0) ? k + 1'000'000 : k * k;
      EXPECT_EQ(out.b, expect) << "key " << k;
    }
    // The loser's update must not survive.
    ASSERT_TRUE(t->Read(txn.get(), 7, &out).ok());
    EXPECT_NE(out.b, 666u);
    ASSERT_TRUE(db->Commit(txn.get()).ok());

    // And the database remains writable after recovery.
    auto txn2 = db->Begin();
    Row row = MakeRow(500);
    ASSERT_TRUE(t->Insert(txn2.get(), 500, &row).ok());
    ASSERT_TRUE(db->Commit(txn2.get()).ok());
  }
}

TEST_F(DatabaseTest, RecoveryWithoutNvmTier) {
  DatabaseOptions opts = SmallOptions();
  opts.nvm_frames = 0;  // DRAM-SSD: commits force log drain to SSD
  DatabaseEnv env;
  {
    auto db = Database::Create(opts).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Row)).value();
    for (uint64_t k = 0; k < 50; ++k) {
      auto txn = db->Begin();
      Row row = MakeRow(k);
      ASSERT_TRUE(t->Insert(txn.get(), k, &row).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    env = Database::Crash(std::move(db));
  }
  {
    auto db_r = Database::Recover(opts, std::move(env));
    ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
    auto db = db_r.MoveValue();
    Table* t = db->GetTable(1);
    auto txn = db->Begin();
    Row out{};
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(t->Read(txn.get(), k, &out).ok()) << k;
      EXPECT_EQ(out.b, k * k);
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
}

TEST_F(DatabaseTest, ConcurrentTransfersConserveTotal) {
  // Classic bank-transfer invariant under MVTO.
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  constexpr uint64_t kAccounts = 32;
  constexpr uint64_t kInitial = 1000;
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < kAccounts; ++k) {
      Row row{};
      row.a = k;
      row.b = kInitial;
      ASSERT_TRUE(t->Insert(txn.get(), k, &row).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  std::vector<std::thread> ths;
  std::atomic<int> commits{0};
  for (int th = 0; th < 4; ++th) {
    ths.emplace_back([&, th] {
      Xoshiro256 rng(th + 100);
      for (int i = 0; i < 500; ++i) {
        const uint64_t from = rng.NextUint64(kAccounts);
        uint64_t to = rng.NextUint64(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        auto txn = db->Begin();
        Row a{}, b{};
        if (!t->Read(txn.get(), from, &a).ok() ||
            !t->Read(txn.get(), to, &b).ok() || a.b < 10) {
          (void)db->Abort(txn.get());
          continue;
        }
        a.b -= 10;
        b.b += 10;
        if (!t->Update(txn.get(), from, &a).ok() ||
            !t->Update(txn.get(), to, &b).ok()) {
          (void)db->Abort(txn.get());
          continue;
        }
        if (db->Commit(txn.get()).ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_GT(commits.load(), 0);
  auto txn = db->Begin();
  uint64_t total = 0;
  Row out{};
  for (uint64_t k = 0; k < kAccounts; ++k) {
    ASSERT_TRUE(t->Read(txn.get(), k, &out).ok());
    total += out.b;
  }
  EXPECT_EQ(total, kAccounts * kInitial);
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(DatabaseTest, CheckpointReducesRecoveryLog) {
  DatabaseOptions opts = SmallOptions();
  DatabaseEnv env;
  {
    auto db = Database::Create(opts).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Row)).value();
    for (uint64_t k = 0; k < 100; ++k) {
      auto txn = db->Begin();
      Row row = MakeRow(k);
      ASSERT_TRUE(t->Insert(txn.get(), k, &row).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    env = Database::Crash(std::move(db));
  }
  auto db = Database::Recover(opts, std::move(env)).MoveValue();
  Table* t = db->GetTable(1);
  auto txn = db->Begin();
  Row out{};
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(t->Read(txn.get(), k, &out).ok());
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(DatabaseTest, CommitThatCannotBeLoggedRollsBack) {
  // A log device that fills after a few hundred small transactions.
  DatabaseOptions opts = SmallOptions();
  opts.log_ssd_capacity = 256 * 1024;
  opts.log_staging_size = 64 * 1024;
  auto db = Database::Create(opts).MoveValue();
  constexpr uint64_t kKeys = 16;
  using Tuple = std::array<std::byte, 100>;
  const auto tuple_of = [](uint64_t v) {
    Tuple t{};
    std::memcpy(t.data(), &v, sizeof(v));
    return t;
  };
  const auto value_of = [](const Tuple& t) {
    uint64_t v = 0;
    std::memcpy(&v, t.data(), sizeof(v));
    return v;
  };
  Table* t = db->CreateTable(1, sizeof(Tuple)).value();
  {
    auto txn = db->Begin();
    const Tuple zero = tuple_of(0);
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(t->Insert(txn.get(), k, zero.data()).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  std::array<uint64_t, kKeys> acked{};  // last acknowledged value per key
  Status failed;
  uint64_t key = 0;
  for (uint64_t i = 1; i <= 10000 && failed.ok(); ++i) {
    key = i % kKeys;
    auto txn = db->Begin();
    const Tuple row = tuple_of(i);
    ASSERT_TRUE(t->Update(txn.get(), key, row.data()).ok()) << "txn " << i;
    failed = db->Commit(txn.get());
    if (failed.ok()) acked[key] = i;
  }
  ASSERT_FALSE(failed.ok()) << "the log device never filled";
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();

  // The failed commit was rolled back and its slot released.
  EXPECT_EQ(db->txn_manager()->active_count(), 0u);
  std::string why;
  EXPECT_TRUE(db->CheckIntegrity(&why).ok()) << why;
  auto reader = db->Begin();
  Tuple out{};
  ASSERT_TRUE(t->Read(reader.get(), key, out.data()).ok());
  EXPECT_EQ(value_of(out), acked[key]);
  ASSERT_TRUE(db->Commit(reader.get()).ok());

  // The key is not left write-locked: a new update of it is refused by the
  // full log (its record is larger than the commit record that did not
  // fit), not by a write-write conflict.
  auto txn = db->Begin();
  const Tuple row = tuple_of(~uint64_t{0});
  Status st = t->Update(txn.get(), key, row.data());
  if (st.ok()) {
    st = db->Commit(txn.get());
  } else {
    (void)db->Abort(txn.get());
  }
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_EQ(db->txn_manager()->active_count(), 0u);

  // The refused update's version joined the write set before its append
  // failed, so the abort rolled it back: nothing uncommitted survives and
  // the key still reads its last acknowledged value.
  EXPECT_TRUE(db->CheckIntegrity(&why).ok()) << why;
  auto later = db->Begin();
  ASSERT_TRUE(t->Read(later.get(), key, out.data()).ok());
  EXPECT_EQ(value_of(out), acked[key]);
  ASSERT_TRUE(db->Commit(later.get()).ok());
}

TEST_F(DatabaseTest, UpdateLogsOnlyTheBytesItChanges) {
  auto db = Database::Create(SmallOptions()).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Row)).value();
  Row row = MakeRow(5);
  row.b = 0x0101010101010101ull;
  const auto write = [&](const std::function<Status(Transaction*)>& op) {
    auto txn = db->Begin();
    ASSERT_TRUE(op(txn.get()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  };
  write([&](Transaction* txn) { return t->Insert(txn, 5, &row); });
  Row changed = row;
  changed.b = 0x0202020202020202ull;
  write([&](Transaction* txn) { return t->Update(txn, 5, &changed); });
  write([&](Transaction* txn) { return t->Update(txn, 5, &changed); });
  write([&](Transaction* txn) { return t->Delete(txn, 5); });

  auto recs = db->log_manager()->ReadAll();
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  std::vector<LogRecord> writes;
  for (LogRecord& r : recs.value()) {
    if (r.table_id == 1 && r.key == 5) writes.push_back(std::move(r));
  }
  ASSERT_EQ(writes.size(), 4u);
  // The insert logs the whole tuple.
  EXPECT_EQ(writes[0].type, LogRecordType::kInsert);
  EXPECT_EQ(writes[0].offset, 0u);
  EXPECT_TRUE(writes[0].before.empty());
  EXPECT_EQ(writes[0].after.size(), sizeof(Row));
  // The update logs the eight bytes of `b`, before and after.
  EXPECT_EQ(writes[1].type, LogRecordType::kUpdate);
  EXPECT_EQ(writes[1].offset, offsetof(Row, b));
  ASSERT_EQ(writes[1].before.size(), sizeof(uint64_t));
  ASSERT_EQ(writes[1].after.size(), sizeof(uint64_t));
  EXPECT_EQ(std::memcmp(writes[1].before.data(), &row.b, 8), 0);
  EXPECT_EQ(std::memcmp(writes[1].after.data(), &changed.b, 8), 0);
  // An update that changes nothing is still logged, with empty images.
  EXPECT_EQ(writes[2].type, LogRecordType::kUpdate);
  EXPECT_TRUE(writes[2].before.empty());
  EXPECT_TRUE(writes[2].after.empty());
  // The delete logs the whole tuple it hides.
  EXPECT_EQ(writes[3].type, LogRecordType::kDelete);
  EXPECT_EQ(writes[3].offset, 0u);
  ASSERT_EQ(writes[3].before.size(), sizeof(Row));
  EXPECT_EQ(std::memcmp(writes[3].before.data(), &changed, sizeof(Row)), 0);
  EXPECT_TRUE(writes[3].after.empty());
}

}  // namespace
}  // namespace spitfire
