// Table-level MVTO tests: version chains, visibility, conflict rules,
// garbage collection, and slot recycling — exercised directly against the
// versioned heap (db/table.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "db/database.h"
#include "storage/perf_model.h"

namespace spitfire {
namespace {

struct Item {
  uint64_t value;
  uint64_t pad[3];
};

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    DatabaseOptions opts;
    opts.dram_frames = 64;
    opts.nvm_frames = 64;
    opts.policy = MigrationPolicy::Lazy();
    opts.enable_wal = false;
    // Small enough to zero quickly under the sanitizers.
    opts.ssd_capacity = 16ull * 1024 * 1024;
    db_ = Database::Create(opts).MoveValue();
    table_ = db_->CreateTable(1, sizeof(Item)).value();
  }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  void InsertCommitted(uint64_t key, uint64_t value) {
    auto txn = db_->Begin();
    Item it{value, {}};
    ASSERT_TRUE(table_->Insert(txn.get(), key, &it).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  void UpdateCommitted(uint64_t key, uint64_t value) {
    auto txn = db_->Begin();
    Item it{value, {}};
    ASSERT_TRUE(table_->Update(txn.get(), key, &it).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  uint64_t ReadCommitted(uint64_t key) {
    auto txn = db_->Begin();
    Item it{};
    EXPECT_TRUE(table_->Read(txn.get(), key, &it).ok());
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return it.value;
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(TableTest, InsertThenReadLatest) {
  InsertCommitted(1, 100);
  EXPECT_EQ(ReadCommitted(1), 100u);
  UpdateCommitted(1, 200);
  EXPECT_EQ(ReadCommitted(1), 200u);
}

TEST_F(TableTest, ReadMissingKeyIsNotFound) {
  auto txn = db_->Begin();
  Item it{};
  EXPECT_TRUE(table_->Read(txn.get(), 777, &it).IsNotFound());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TableTest, DuplicateInsertRejected) {
  InsertCommitted(5, 1);
  auto txn = db_->Begin();
  Item it{2, {}};
  EXPECT_EQ(table_->Insert(txn.get(), 5, &it).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
}

TEST_F(TableTest, UpdateOfMissingKeyIsNotFound) {
  auto txn = db_->Begin();
  Item it{1, {}};
  EXPECT_TRUE(table_->Update(txn.get(), 42, &it).IsNotFound());
  ASSERT_TRUE(db_->Abort(txn.get()).ok());
}

TEST_F(TableTest, VersionChainServesHistoricalReads) {
  InsertCommitted(1, 10);
  // Three snapshots interleaved with updates.
  auto t1 = db_->Begin();
  UpdateCommitted(1, 20);
  auto t2 = db_->Begin();
  UpdateCommitted(1, 30);
  auto t3 = db_->Begin();

  Item it{};
  ASSERT_TRUE(table_->Read(t1.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 10u);
  ASSERT_TRUE(table_->Read(t2.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 20u);
  ASSERT_TRUE(table_->Read(t3.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 30u);
  ASSERT_TRUE(db_->Commit(t1.get()).ok());
  ASSERT_TRUE(db_->Commit(t2.get()).ok());
  ASSERT_TRUE(db_->Commit(t3.get()).ok());
}

TEST_F(TableTest, WriteWriteConflictSecondWriterAborts) {
  InsertCommitted(1, 10);
  auto a = db_->Begin();
  auto b = db_->Begin();
  Item it{11, {}};
  ASSERT_TRUE(table_->Update(a.get(), 1, &it).ok());
  it.value = 12;
  EXPECT_TRUE(table_->Update(b.get(), 1, &it).IsAborted());
  ASSERT_TRUE(db_->Abort(b.get()).ok());
  ASSERT_TRUE(db_->Commit(a.get()).ok());
  EXPECT_EQ(ReadCommitted(1), 11u);
}

TEST_F(TableTest, OlderWriterAbortsAfterYoungerRead) {
  InsertCommitted(1, 10);
  auto old_writer = db_->Begin();
  auto young = db_->Begin();
  Item it{};
  ASSERT_TRUE(table_->Read(young.get(), 1, &it).ok());
  ASSERT_TRUE(db_->Commit(young.get()).ok());
  it.value = 99;
  EXPECT_TRUE(table_->Update(old_writer.get(), 1, &it).IsAborted());
  ASSERT_TRUE(db_->Abort(old_writer.get()).ok());
}

TEST_F(TableTest, OlderWriterSucceedsWhenNoYoungerRead) {
  InsertCommitted(1, 10);
  auto w = db_->Begin();
  Item it{55, {}};
  EXPECT_TRUE(table_->Update(w.get(), 1, &it).ok());
  ASSERT_TRUE(db_->Commit(w.get()).ok());
  EXPECT_EQ(ReadCommitted(1), 55u);
}

TEST_F(TableTest, SelfUpdateTwiceInOneTxn) {
  InsertCommitted(1, 10);
  auto txn = db_->Begin();
  Item it{20, {}};
  ASSERT_TRUE(table_->Update(txn.get(), 1, &it).ok());
  it.value = 30;
  ASSERT_TRUE(table_->Update(txn.get(), 1, &it).ok());
  ASSERT_TRUE(table_->Read(txn.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 30u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(ReadCommitted(1), 30u);
}

TEST_F(TableTest, InsertThenUpdateInSameTxn) {
  auto txn = db_->Begin();
  Item it{1, {}};
  ASSERT_TRUE(table_->Insert(txn.get(), 9, &it).ok());
  // Updating own uncommitted insert: the head is ours.
  it.value = 2;
  ASSERT_TRUE(table_->Update(txn.get(), 9, &it).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(ReadCommitted(9), 2u);
}

TEST_F(TableTest, AbortedUpdateRestoresOldHeadForWriters) {
  InsertCommitted(1, 10);
  {
    auto txn = db_->Begin();
    Item it{99, {}};
    ASSERT_TRUE(table_->Update(txn.get(), 1, &it).ok());
    ASSERT_TRUE(db_->Abort(txn.get()).ok());
  }
  // The key remains updatable afterwards (the write lock was released).
  UpdateCommitted(1, 11);
  EXPECT_EQ(ReadCommitted(1), 11u);
}

TEST_F(TableTest, GcReclaimsSlotsAcrossManyUpdates) {
  InsertCommitted(1, 0);
  for (uint64_t i = 1; i <= 5000; ++i) UpdateCommitted(1, i);
  EXPECT_EQ(ReadCommitted(1), 5000u);
  // 5000 versions of a 32 B tuple without GC would need ~25 pages; GC
  // keeps the heap at a handful.
  EXPECT_LT(table_->allocated_pages(), 5u);
}

TEST_F(TableTest, OverlappingCommitsKeepOneVersionPerKey) {
  constexpr uint64_t kKeys = 1000;
  constexpr uint64_t kRounds = 4;
  for (uint64_t k = 0; k < kKeys; ++k) InsertCommitted(k, k);
  const uint64_t one_version_pages =
      (kKeys + table_->slots_per_page() - 1) / table_->slots_per_page();
  ASSERT_EQ(table_->allocated_pages(), one_version_pages);
  for (uint64_t r = 1; r <= kRounds; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      // An older transaction stays open across each update's commit, so
      // no update commits as the oldest: its truncation is queued, and the
      // next update's commit runs it.
      auto older = db_->Begin();
      UpdateCommitted(k, r * kKeys + k);
      ASSERT_TRUE(db_->Commit(older.get()).ok());
    }
  }
  EXPECT_GE(table_->deferred_truncations(), kRounds * kKeys - 1);
  EXPECT_LE(table_->queued_truncations(), 1u);
  // Two versions per key would need twice the pages.
  EXPECT_LE(table_->allocated_pages(), one_version_pages + 1);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(ReadCommitted(k), kRounds * kKeys + k);
  }
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(TableTest, AllocateSlotReusesNewestFreedSlotPastItsGracePeriod) {
  // An aborted insert frees its slot; the index shows the slot while the
  // insert is open.
  const auto aborted_insert = [&](uint64_t key) {
    auto txn = db_->Begin();
    Item it{key, {}};
    EXPECT_TRUE(table_->Insert(txn.get(), key, &it).ok());
    uint64_t rid = kInvalidRid;
    EXPECT_TRUE(table_->index()->Lookup(key, &rid).ok());
    EXPECT_TRUE(db_->Abort(txn.get()).ok());
    return rid;
  };
  const auto committed_insert = [&](uint64_t key) {
    InsertCommitted(key, key);
    uint64_t rid = kInvalidRid;
    EXPECT_TRUE(table_->index()->Lookup(key, &rid).ok());
    return rid;
  };
  // Each slot freed while `first` is open waits out its grace period until
  // `first` ends, so every insert here takes a fresh slot.
  auto first = db_->Begin();
  const uint64_t a = aborted_insert(1);
  const uint64_t b = aborted_insert(2);
  const uint64_t c = aborted_insert(3);
  {
    // Begins after c's free, so `second` is younger than all three.
    auto spacer = db_->Begin();
    ASSERT_TRUE(db_->Commit(spacer.get()).ok());
  }
  auto second = db_->Begin();
  const uint64_t d = aborted_insert(4);  // in its grace period until `second` ends
  EXPECT_EQ(std::set<uint64_t>({a, b, c, d}).size(), 4u);
  ASSERT_TRUE(db_->Commit(first.get()).ok());

  EXPECT_EQ(committed_insert(10), c);
  EXPECT_EQ(committed_insert(11), b);
  EXPECT_EQ(committed_insert(12), a);
  const uint64_t fresh = committed_insert(13);
  EXPECT_EQ(std::set<uint64_t>({a, b, c, d, fresh}).size(), 5u);
  ASSERT_TRUE(db_->Commit(second.get()).ok());
  EXPECT_EQ(committed_insert(14), d);
}

// What a queued truncation asks another thread to do when it reaches
// Table::gc_pause_for_testing: update the key with a transaction older
// than the truncating one, so that the update commits as the oldest and
// truncates the chain itself, while the truncation waits. A claimed head
// makes the update wait for the truncation instead; the truncation gives
// up waiting after a while.
struct GcInterference {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t key = 0;
  bool requested = false;
  uint64_t done = 0;  // requests served
};
GcInterference* g_interference = nullptr;

void InterfereWithTruncation(uint64_t key) {
  GcInterference* in = g_interference;
  std::unique_lock<std::mutex> lk(in->mu);
  if (in->requested) return;
  in->key = key;
  in->requested = true;
  const uint64_t served = in->done;
  in->cv.notify_all();
  in->cv.wait_for(lk, std::chrono::milliseconds(2),
                  [&] { return in->done != served; });
}

// Writers, readers and queued truncations race on four hot keys. An
// interfering thread keeps two staggered transactions open, so writer
// commits are not the oldest and queue their truncations; they become due
// as it finishes the older one. Each queued truncation that finds its head
// still current asks the interferer to update that key as the oldest
// transaction, once before its claim and once before its walk: a
// truncation that walked a chain whose head had moved, or without holding
// the head's claim, would free versions the interferer's own truncation
// frees too. Every read must return a value committed at or before the
// reader's timestamp, the final state must be the last commit of each key,
// and CheckIntegrity rejects any slot freed twice (a slot listed twice, or
// allocated and listed) or any allocated version that no chain reaches.
TEST_F(TableTest, QueuedTruncationsRaceWritersAndReaders) {
  constexpr uint64_t kKeys = 4;
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 1000;
  // value % kKeys is the key; nullopt is a delete.
  using Value = std::optional<uint64_t>;
  struct Write {
    uint64_t key;
    timestamp_t ts;
    Value value;
  };
  struct Observation {
    timestamp_t ts;
    uint64_t key;
    Value value;
  };
  std::mutex mu;
  std::vector<Write> committed;
  {
    auto txn = db_->Begin();
    for (uint64_t k = 0; k < kKeys; ++k) {
      Item it{k, {}};
      ASSERT_TRUE(table_->Insert(txn.get(), k, &it).ok());
      committed.push_back({k, txn->ts(), k});
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  std::atomic<uint64_t> next_value{1};
  std::atomic<int> writers_left{kWriters};
  std::vector<Observation> seen;

  // Applies a write in `txn` and commits it; false if it did not commit.
  const auto write = [&](Transaction* txn, uint64_t key, bool del) {
    Value value;
    Status st;
    if (del) {
      st = table_->Delete(txn, key);
    } else {
      value = next_value.fetch_add(1) * kKeys + key;
      Item it{*value, {}};
      st = table_->Update(txn, key, &it);
      if (st.IsNotFound()) st = table_->Insert(txn, key, &it);
    }
    if (st.ok() && db_->Commit(txn).ok()) {
      std::lock_guard<std::mutex> g(mu);
      committed.push_back({key, txn->ts(), value});
      return true;
    }
    if (txn->state() == TxnState::kActive) (void)db_->Abort(txn);
    return false;
  };

  GcInterference interference;
  g_interference = &interference;
  Table::gc_pause_for_testing = InterfereWithTruncation;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(w + 1);
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = db_->Begin();
        const uint64_t key = rng() % kKeys;
        (void)write(txn.get(), key, rng() % 8 == 0);
        // A key then keeps its head until its queued truncation is due.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    // Reads every key at one snapshot, now and then.
    while (writers_left.load() > 0) {
      auto txn = db_->Begin();
      for (uint64_t key = 0; key < kKeys; ++key) {
        Item it{};
        const Status st = table_->Read(txn.get(), key, &it);
        if (!st.ok() && !st.IsNotFound()) break;
        seen.push_back({txn->ts(), key,
                        st.ok() ? Value(it.value) : std::nullopt});
      }
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  threads.emplace_back([&] {
    auto older = db_->Begin();
    auto newer = db_->Begin();
    uint64_t served = 0;
    while (writers_left.load() > 0) {
      std::unique_lock<std::mutex> lk(interference.mu);
      if (interference.cv.wait_for(lk, std::chrono::microseconds(100),
                                   [&] { return interference.requested; })) {
        const uint64_t key = interference.key;
        lk.unlock();
        if (write(older.get(), key, false)) ++served;
        lk.lock();
        interference.requested = false;
        ++interference.done;
        interference.cv.notify_all();
      } else {
        lk.unlock();
        ASSERT_TRUE(db_->Commit(older.get()).ok());
      }
      older = std::move(newer);
      newer = db_->Begin();
    }
    ASSERT_TRUE(db_->Commit(older.get()).ok());
    ASSERT_TRUE(db_->Commit(newer.get()).ok());
    EXPECT_GT(served, 0u);
  });
  for (auto& t : threads) t.join();
  Table::gc_pause_for_testing = nullptr;
  g_interference = nullptr;
  EXPECT_GT(table_->deferred_truncations(), 0u);

  // Committed writes of each key, by timestamp.
  std::map<uint64_t, std::map<timestamp_t, Value>> history;
  std::map<uint64_t, std::pair<uint64_t, timestamp_t>> by_value;
  for (const Write& w : committed) {
    history[w.key][w.ts] = w.value;
    if (w.value) by_value[*w.value] = {w.key, w.ts};
  }
  EXPECT_FALSE(seen.empty());
  for (const Observation& o : seen) {
    if (o.value) {
      auto it = by_value.find(*o.value);
      ASSERT_TRUE(it != by_value.end())
          << "key " << o.key << " read " << *o.value
          << ", which no transaction committed";
      ASSERT_EQ(it->second.first, o.key) << "read another key's value";
      ASSERT_LE(it->second.second, o.ts) << "read a value from its future";
    } else {
      const auto& h = history[o.key];
      ASSERT_TRUE(std::any_of(h.begin(), h.end(),
                              [&](const auto& e) {
                                return e.first <= o.ts && !e.second;
                              }))
          << "key " << o.key << " read as absent, never deleted";
    }
  }
  for (uint64_t key = 0; key < kKeys; ++key) {
    const Value last = history[key].rbegin()->second;
    auto txn = db_->Begin();
    Item it{};
    const Status st = table_->Read(txn.get(), key, &it);
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    if (last) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(it.value, *last) << "key " << key;
    } else {
      EXPECT_TRUE(st.IsNotFound()) << "key " << key;
    }
  }
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(TableTest, GcRespectsActiveSnapshots) {
  InsertCommitted(1, 10);
  auto pinned = db_->Begin();  // holds the watermark
  for (uint64_t i = 0; i < 50; ++i) UpdateCommitted(1, 100 + i);
  // The old version must still be readable by the pinned snapshot.
  Item it{};
  ASSERT_TRUE(table_->Read(pinned.get(), 1, &it).ok());
  EXPECT_EQ(it.value, 10u);
  ASSERT_TRUE(db_->Commit(pinned.get()).ok());
}

TEST_F(TableTest, ScanRangeAndVisibility) {
  for (uint64_t k = 10; k < 20; ++k) InsertCommitted(k, k * 2);
  auto txn = db_->Begin();
  uint64_t sum = 0;
  ASSERT_TRUE(table_->Scan(txn.get(), 12, 15,
                           [&](uint64_t, const void* t) {
                             sum += static_cast<const Item*>(t)->value;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(sum, (12 + 13 + 14 + 15) * 2u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TableTest, ScanStopsWhenCallbackReturnsFalse) {
  for (uint64_t k = 0; k < 10; ++k) InsertCommitted(k, k);
  auto txn = db_->Begin();
  int seen = 0;
  ASSERT_TRUE(table_->Scan(txn.get(), 0, 9,
                           [&](uint64_t, const void*) {
                             return ++seen < 3;
                           })
                  .ok());
  EXPECT_EQ(seen, 3);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TableTest, ConcurrentUpdatersSingleKeySerialize) {
  InsertCommitted(1, 0);
  std::atomic<int> commits{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < 4; ++t) {
    ths.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto txn = db_->Begin();
        Item it{};
        if (!table_->Read(txn.get(), 1, &it).ok()) {
          (void)db_->Abort(txn.get());
          continue;
        }
        it.value += 1;
        if (!table_->Update(txn.get(), 1, &it).ok()) {
          (void)db_->Abort(txn.get());
          continue;
        }
        if (db_->Commit(txn.get()).ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& th : ths) th.join();
  // Counter must equal the number of committed increments (no lost
  // updates) — the serializability core of MVTO.
  EXPECT_EQ(ReadCommitted(1), static_cast<uint64_t>(commits.load()));
  EXPECT_GT(commits.load(), 0);
}

TEST_F(TableTest, LargeTupleSpanningManyCacheLines) {
  DatabaseOptions opts;
  opts.dram_frames = 32;
  opts.nvm_frames = 32;
  opts.enable_wal = false;
  auto db = Database::Create(opts).MoveValue();
  // 4 KB tuples: 3 per page.
  Table* t = db->CreateTable(2, 4096).value();
  std::vector<std::byte> tuple(4096);
  for (uint64_t k = 0; k < 50; ++k) {
    auto txn = db->Begin();
    std::fill(tuple.begin(), tuple.end(), std::byte{static_cast<uint8_t>(k)});
    ASSERT_TRUE(t->Insert(txn.get(), k, tuple.data()).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  auto txn = db->Begin();
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(t->Read(txn.get(), k, tuple.data()).ok());
    EXPECT_EQ(tuple[4095], std::byte{static_cast<uint8_t>(k)});
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

}  // namespace
}  // namespace spitfire
