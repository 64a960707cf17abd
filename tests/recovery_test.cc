// Recovery edge cases beyond the happy path in database_test: repeated
// crashes, crash during checkpoint-equivalent states, log drains around the
// crash point, workload-driven crash consistency, and restart counters.
#include <gtest/gtest.h>

#include <string>

#include "db/database.h"
#include "storage/perf_model.h"
#include "workload/ycsb.h"

namespace spitfire {
namespace {

struct Cell {
  uint64_t v;
  uint64_t gen;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    opts_.dram_frames = 48;
    opts_.nvm_frames = 96;
    opts_.policy = MigrationPolicy::Lazy();
    opts_.enable_wal = true;
    opts_.log_staging_size = 1 << 20;
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  DatabaseOptions opts_;
};

TEST_F(RecoveryTest, RepeatedCrashRecoverCycles) {
  auto db = Database::Create(opts_).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Cell)).value();
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 64; ++k) {
      Cell c{k, 0};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  for (int cycle = 1; cycle <= 4; ++cycle) {
    // Mutate a slice of keys, then crash.
    for (uint64_t k = 0; k < 64; k += 2) {
      auto txn = db->Begin();
      Cell c{k * 10 + static_cast<uint64_t>(cycle),
             static_cast<uint64_t>(cycle)};
      ASSERT_TRUE(t->Update(txn.get(), k, &c).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    DatabaseEnv env = Database::Crash(std::move(db));
    auto db_r = Database::Recover(opts_, std::move(env));
    ASSERT_TRUE(db_r.ok()) << "cycle " << cycle << ": "
                           << db_r.status().ToString();
    db = db_r.MoveValue();
    t = db->GetTable(1);
    auto txn = db->Begin();
    Cell c{};
    for (uint64_t k = 0; k < 64; ++k) {
      ASSERT_TRUE(t->Read(txn.get(), k, &c).ok())
          << "cycle " << cycle << " key " << k;
      if (k % 2 == 0) {
        EXPECT_EQ(c.gen, static_cast<uint64_t>(cycle));
      } else {
        EXPECT_EQ(c.v, k);
      }
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
}

TEST_F(RecoveryTest, CrashImmediatelyAfterCreateIsRecoverable) {
  auto db = Database::Create(opts_).MoveValue();
  (void)db->CreateTable(1, sizeof(Cell)).value();
  DatabaseEnv env = Database::Crash(std::move(db));
  auto db_r = Database::Recover(opts_, std::move(env));
  ASSERT_TRUE(db_r.ok());
  EXPECT_NE(db_r.value()->GetTable(1), nullptr);
}

TEST_F(RecoveryTest, CrashAfterExplicitDrainRecovers) {
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    for (uint64_t k = 0; k < 40; ++k) {
      auto txn = db->Begin();
      Cell c{k + 7, 1};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
      if (k % 10 == 9) {
        ASSERT_TRUE(db->log_manager()->Drain().ok());
      }
    }
    env = Database::Crash(std::move(db));
  }
  auto db = Database::Recover(opts_, std::move(env)).MoveValue();
  Table* t = db->GetTable(1);
  auto txn = db->Begin();
  Cell c{};
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(t->Read(txn.get(), k, &c).ok()) << k;
    EXPECT_EQ(c.v, k + 7);
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(RecoveryTest, MultiTableRecovery) {
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* a = db->CreateTable(1, sizeof(Cell)).value();
    Table* b = db->CreateTable(2, 256).value();
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 20; ++k) {
      Cell c{k, 1};
      ASSERT_TRUE(a->Insert(txn.get(), k, &c).ok());
      std::vector<std::byte> blob(256, std::byte{static_cast<uint8_t>(k)});
      ASSERT_TRUE(b->Insert(txn.get(), k, blob.data()).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    env = Database::Crash(std::move(db));
  }
  auto db = Database::Recover(opts_, std::move(env)).MoveValue();
  Table* a = db->GetTable(1);
  Table* b = db->GetTable(2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->tuple_size(), sizeof(Cell));
  EXPECT_EQ(b->tuple_size(), 256u);
  auto txn = db->Begin();
  Cell c{};
  std::vector<std::byte> blob(256);
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(a->Read(txn.get(), k, &c).ok());
    EXPECT_EQ(c.v, k);
    ASSERT_TRUE(b->Read(txn.get(), k, blob.data()).ok());
    EXPECT_EQ(blob[100], std::byte{static_cast<uint8_t>(k)});
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(RecoveryTest, CheckpointerThreadKeepsDatabaseConsistent) {
  DatabaseOptions opts = opts_;
  opts.checkpoint_interval_ms = 20;  // aggressive background flushing
  DatabaseEnv env;
  {
    auto db = Database::Create(opts).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    Xoshiro256 rng(5);
    {
      auto txn = db->Begin();
      for (uint64_t k = 0; k < 50; ++k) {
        Cell c{0, 0};
        ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
      }
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    for (int i = 0; i < 2000; ++i) {
      auto txn = db->Begin();
      const uint64_t k = rng.NextUint64(50);
      Cell c{static_cast<uint64_t>(i), 0};
      if (t->Update(txn.get(), k, &c).ok()) {
        ASSERT_TRUE(db->Commit(txn.get()).ok());
      } else {
        ASSERT_TRUE(db->Abort(txn.get()).ok());
      }
    }
    EXPECT_GT(db->checkpointer()->rounds(), 0u);
    env = Database::Crash(std::move(db));
  }
  auto db = Database::Recover(opts, std::move(env)).MoveValue();
  Table* t = db->GetTable(1);
  auto txn = db->Begin();
  Cell c{};
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(t->Read(txn.get(), k, &c).ok()) << k;
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(RecoveryTest, YcsbWorkloadSurvivesCrash) {
  DatabaseEnv env;
  constexpr uint64_t kTuples = 500;
  {
    auto db = Database::Create(opts_).MoveValue();
    YcsbWorkload ycsb(db.get(), YcsbConfig::Balanced(kTuples));
    ASSERT_TRUE(ycsb.Load().ok());
    Xoshiro256 rng(2);
    for (int i = 0; i < 500; ++i) (void)ycsb.RunTransaction(rng);
    env = Database::Crash(std::move(db));
  }
  auto db = Database::Recover(opts_, std::move(env)).MoveValue();
  Table* t = db->GetTable(1);
  ASSERT_NE(t, nullptr);
  auto txn = db->Begin();
  std::vector<std::byte> tuple(YcsbWorkload::kTupleSize);
  for (uint64_t k = 0; k < kTuples; ++k) {
    ASSERT_TRUE(t->Read(txn.get(), k, tuple.data()).ok()) << k;
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(RecoveryTest, ShardCountMismatchReturnsCleanError) {
  // Populate the persistent NVM frame table under one shard count, then
  // reopen under another: pages recovered from a shard's frame slice no
  // longer route back to it, which must surface as a clean error telling
  // the operator to reopen with the original shard count — not as silent
  // misrouting. ShardOfPage routes in 32-page blocks, so the heap must
  // span several blocks (pids past 64) before any page routes to shard 1;
  // a fat tuple gets there with few rows.
  struct Blob {
    uint64_t v;
    uint64_t pad[255];  // 2 KiB per tuple → a handful of tuples per page
  };
  DatabaseOptions opts = opts_;
  opts.num_shards = 1;
  opts.policy = MigrationPolicy::Eager();  // force pages through NVM
  DatabaseEnv env;
  {
    auto db = Database::Create(opts).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Blob)).value();
    // Enough rows that NVM admissions (DRAM evictions) spill past frame
    // 48 — the slice boundary of a two-shard reopen — with low-block page
    // ids still being admitted.
    for (uint64_t k = 0; k < 900; ++k) {
      auto txn = db->Begin();
      Blob c{};
      c.v = k;
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    env = Database::Crash(std::move(db));
  }
  DatabaseOptions wrong = opts;
  wrong.num_shards = 2;
  DatabaseEnv back;
  auto db_r = Database::Recover(wrong, std::move(env), &back);
  ASSERT_FALSE(db_r.ok());
  EXPECT_NE(db_r.status().ToString().find("shard"), std::string::npos)
      << db_r.status().ToString();
  // The devices came back out; recovery with the original count works.
  auto db = Database::Recover(opts, std::move(back)).MoveValue();
  auto txn = db->Begin();
  Blob c{};
  ASSERT_TRUE(db->GetTable(1)->Read(txn.get(), 5, &c).ok());
  EXPECT_EQ(c.v, 5u);
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(RecoveryTest, GarbageLogTailFailsCleanly) {
  // Within the durable length the drain protocol guarantees fully
  // persisted records (the header only advances after the data persist),
  // so garbage inside that region is real corruption and must fail the
  // recovery loudly instead of replaying nonsense.
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 16; ++k) {
      Cell c{k, 1};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    ASSERT_TRUE(db->log_manager()->Drain().ok());
    env = Database::Crash(std::move(db));
  }
  std::vector<std::byte> junk(64, std::byte{0xFF});
  ASSERT_TRUE(env.log_ssd
                  ->Write(LogManager::kLogDataOffset, junk.data(), junk.size())
                  .ok());
  auto db_r = Database::Recover(opts_, std::move(env));
  ASSERT_FALSE(db_r.ok());
  EXPECT_TRUE(db_r.status().IsCorruption()) << db_r.status().ToString();
}

TEST_F(RecoveryTest, DestroyedLogHeaderFailsCleanly) {
  // Both header slots invalid (version + checksum protect each): the log
  // device is unreadable and recovery must say so, not guess a length.
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    auto txn = db->Begin();
    Cell c{1, 1};
    ASSERT_TRUE(t->Insert(txn.get(), 1, &c).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    ASSERT_TRUE(db->log_manager()->Drain().ok());
    env = Database::Crash(std::move(db));
  }
  std::vector<std::byte> junk(512, std::byte{0x13});
  ASSERT_TRUE(env.log_ssd->Write(0, junk.data(), junk.size()).ok());
  auto db_r = Database::Recover(opts_, std::move(env));
  ASSERT_FALSE(db_r.ok());
  EXPECT_TRUE(db_r.status().IsCorruption()) << db_r.status().ToString();
}

TEST_F(RecoveryTest, TimestampsAdvancePastRecoveredState) {
  DatabaseEnv env;
  timestamp_t last_ts = 0;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    auto txn = db->Begin();
    Cell c{1, 1};
    ASSERT_TRUE(t->Insert(txn.get(), 1, &c).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    last_ts = txn->ts();
    env = Database::Crash(std::move(db));
  }
  auto db = Database::Recover(opts_, std::move(env)).MoveValue();
  auto txn = db->Begin();
  EXPECT_GT(txn->ts(), last_ts);
  // And the recovered version must be visible to the new transaction.
  Cell c{};
  ASSERT_TRUE(db->GetTable(1)->Read(txn.get(), 1, &c).ok());
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

// A transaction that writes one key several times logs a record per
// write, and an update record holds only the bytes it changed. Redo must
// replay every record — whether it rebuilds the versions from the log
// alone or finds them already in the heap.
TEST_F(RecoveryTest, LaterWritesOfATransactionSurviveRedo) {
  for (const bool flush_before_crash : {false, true}) {
    SCOPED_TRACE(flush_before_crash ? "heap flushed" : "heap lost");
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    {
      auto txn = db->Begin();
      const Cell one{1, 0};
      const Cell three{30, 0};
      ASSERT_TRUE(t->Insert(txn.get(), 1, &one).ok());
      ASSERT_TRUE(t->Insert(txn.get(), 3, &three).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    {
      auto txn = db->Begin();
      const Cell u1{2, 1};
      const Cell u2{3, 2};
      ASSERT_TRUE(t->Update(txn.get(), 1, &u1).ok());  // update -> update
      ASSERT_TRUE(t->Update(txn.get(), 1, &u2).ok());
      const Cell i1{20, 1};
      const Cell i2{21, 2};
      ASSERT_TRUE(t->Insert(txn.get(), 2, &i1).ok());  // insert -> update
      ASSERT_TRUE(t->Update(txn.get(), 2, &i2).ok());
      const Cell again{31, 5};
      ASSERT_TRUE(t->Delete(txn.get(), 3).ok());  // delete -> re-insert
      ASSERT_TRUE(t->Insert(txn.get(), 3, &again).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    if (flush_before_crash) {
      // The heap gets the versions but the redo horizon stays put, so
      // redo re-applies every record over versions that already hold it.
      ASSERT_TRUE(db->buffer_manager()->FlushAll(/*include_nvm=*/true).ok());
    }
    DatabaseEnv env = Database::Crash(std::move(db));
    auto db_r = Database::Recover(opts_, std::move(env));
    ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
    db = db_r.MoveValue();
    t = db->GetTable(1);
    auto txn = db->Begin();
    Cell c{};
    ASSERT_TRUE(t->Read(txn.get(), 1, &c).ok());
    EXPECT_EQ(c.v, 3u);
    EXPECT_EQ(c.gen, 2u);
    ASSERT_TRUE(t->Read(txn.get(), 2, &c).ok());
    EXPECT_EQ(c.v, 21u);
    EXPECT_EQ(c.gen, 2u);
    ASSERT_TRUE(t->Read(txn.get(), 3, &c).ok());
    EXPECT_EQ(c.v, 31u);
    EXPECT_EQ(c.gen, 5u);
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    std::string why;
    EXPECT_TRUE(db->CheckIntegrity(&why).ok()) << why;
  }
}

// Redo skips records at or below the checkpoint horizon because the heap
// holds their versions. But GC frees a key's checkpointed version as soon
// as a newer one commits; if the freeing reaches the SSD and the newer
// version does not, the key's update record has no base in the heap.
// Recovery replays such a key from its first record.
TEST_F(RecoveryTest, KeyWhoseCheckpointedVersionWasCollectedIsReplayed) {
  DatabaseOptions opts = opts_;
  opts.nvm_frames = 0;  // a page is durable only once written to the SSD
  auto db = Database::Create(opts).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Cell)).value();
  // Two full heap pages, so key 0's next version lands on a third page.
  const uint64_t keys = 2 * t->slots_per_page();
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < keys; ++k) {
      const Cell c{k, 0};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  uint64_t first = 0;
  ASSERT_TRUE(t->index()->Lookup(0, &first).ok());
  {
    auto txn = db->Begin();
    const Cell c{0, 1};
    ASSERT_TRUE(t->Update(txn.get(), 0, &c).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());  // frees the first version
  }
  uint64_t second = 0;
  ASSERT_TRUE(t->index()->Lookup(0, &second).ok());
  ASSERT_NE(RidPage(first), RidPage(second));
  ASSERT_TRUE(db->buffer_manager()->FlushPage(RidPage(first)).ok());

  DatabaseEnv env = Database::Crash(std::move(db));
  auto db_r = Database::Recover(opts, std::move(env));
  ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
  db = db_r.MoveValue();
  t = db->GetTable(1);
  auto txn = db->Begin();
  for (uint64_t k = 0; k < keys; ++k) {
    Cell c{};
    ASSERT_TRUE(t->Read(txn.get(), k, &c).ok()) << k;
    EXPECT_EQ(c.v, k);
    EXPECT_EQ(c.gen, k == 0 ? 1u : 0u) << k;
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
  std::string why;
  EXPECT_TRUE(db->CheckIntegrity(&why).ok()) << why;
}

}  // namespace
}  // namespace spitfire
