#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <numeric>

#include "storage/perf_model.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace spitfire {
namespace {

// All tests run a DRAM-only pool far smaller than the working set, so
// buffer misses — and therefore parked continuations — are the common
// case rather than a corner.
constexpr size_t kPoolFrames = 64;
constexpr size_t kTupleBytes = 1000;  // ~15 slots per 16 KB page
// At scale 0 the simulated device completes reads inline at submit time
// and nothing ever parks. Tests that need parks keep misses queueing with
// twice the Table 1 latency: at a quarter of it, a ThreadSanitizer build
// spends longer submitting a read than the read takes, so it completes
// inline and nothing parks.
constexpr double kParkingLatencyScale = 2.0;

class InterleavedTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  static DatabaseOptions Opts() {
    DatabaseOptions opts;
    opts.dram_frames = kPoolFrames;
    opts.nvm_frames = 0;
    opts.num_shards = 1;
    opts.policy = MigrationPolicy::Lazy();
    opts.ssd_capacity = 512ull * 1024 * 1024;
    opts.enable_wal = false;
    return opts;
  }
};

// A transaction machine with an externally observable effect: read a
// counter tuple, write back counter+1, commit. Phases follow the
// interleaving contract — reads first, exactly one write, and the write
// buffer is recomputed from the read snapshot on every attempt, so a
// phase re-run after a parked miss can never double-increment.
class IncrementMachine : public TxnMachine {
 public:
  IncrementMachine(Database* db, Table* table) : db_(db), table_(table) {}

  void SetKey(uint64_t key) { next_key_ = key; }

  Status Step(Xoshiro256& /*rng*/, FetchContext* ctx) override {
    if (txn_ == nullptr) {
      txn_ = db_->Begin();
      phase_ = Phase::kRead;
      key_ = next_key_;
    }
    txn_->fetch_ctx = ctx;
    for (;;) {
      switch (phase_) {
        case Phase::kRead: {
          const Status st = table_->Read(txn_.get(), key_, buf_);
          if (st.IsWouldBlock()) return st;
          if (!st.ok()) return Finish(st);
          phase_ = Phase::kWrite;
          break;
        }
        case Phase::kWrite: {
          // Recompute, don't accumulate: a parked attempt already wrote
          // nothing, and the next attempt starts from buf_ again.
          std::byte wbuf[kTupleBytes];
          std::memcpy(wbuf, buf_, sizeof(wbuf));
          uint64_t v = 0;
          std::memcpy(&v, buf_, sizeof(v));
          ++v;
          std::memcpy(wbuf, &v, sizeof(v));
          const Status st = table_->Update(txn_.get(), key_, wbuf);
          if (st.IsWouldBlock()) return st;
          if (!st.ok()) return Finish(st);
          phase_ = Phase::kCommit;
          break;
        }
        case Phase::kCommit:
          return Finish(Status::OK());
      }
    }
  }

  void Cancel() override {
    if (txn_ == nullptr) return;
    txn_->fetch_ctx = nullptr;
    (void)db_->Abort(txn_.get());
    txn_.reset();
  }

  bool in_flight() const override { return txn_ != nullptr; }

 private:
  enum class Phase : uint8_t { kRead, kWrite, kCommit };

  Status Finish(const Status& st) {
    txn_->fetch_ctx = nullptr;
    Status out = st;
    if (st.ok()) {
      out = db_->Commit(txn_.get());
    } else {
      (void)db_->Abort(txn_.get());
      if (!out.IsAborted()) out = Status::Aborted(out.ToString());
    }
    txn_.reset();
    return out;
  }

  Database* db_;
  Table* table_;
  std::unique_ptr<Transaction> txn_;
  Phase phase_ = Phase::kRead;
  uint64_t key_ = 0;
  uint64_t next_key_ = 0;
  std::byte buf_[kTupleBytes];
};

// Shared fixture state for the counter table. Each transaction under test
// gets its OWN heap page (keys strided one per page, each touched only
// when its transaction runs): a page accessed once sits in the 2Q
// replacer's probationary FIFO, where a churn sweep evicts it
// deterministically — repeatedly-touched pages would get promoted into
// the protected segment and (by design) survive scans, which would make
// re-eviction between park and resume a coin flip. Keys [kChurnLo,
// kChurnHi) are eviction fodder spanning more heap pages than the pool
// has frames.
constexpr uint32_t kCounterTable = 7;
constexpr uint64_t kSlotsPerPage = 15;  // 1000 B tuples in 16 KB pages
constexpr uint64_t kIncTxns = 24;
constexpr uint64_t kIncKeySpan = kIncTxns * kSlotsPerPage;
constexpr uint64_t kChurnLo = 1000;
constexpr uint64_t kChurnHi = 3000;

// The counter key for transaction i: first slot of its own heap page.
constexpr uint64_t IncKey(uint64_t i) { return i * kSlotsPerPage; }

class CounterTableTest : public InterleavedTest {
 protected:
  void SetUp() override {
    InterleavedTest::SetUp();
    LatencySimulator::SetScale(kParkingLatencyScale);
    db_ = Database::Create(Opts()).MoveValue();
    table_ = db_->CreateTable(kCounterTable, kTupleBytes).MoveValue();
    std::byte zero[kTupleBytes] = {};
    auto load = [&](uint64_t lo, uint64_t hi) {
      for (uint64_t k = lo; k < hi; k += 100) {
        auto txn = db_->Begin();
        for (uint64_t i = k; i < std::min(hi, k + 100); ++i) {
          ASSERT_TRUE(table_->Insert(txn.get(), i, zero).ok()) << i;
        }
        ASSERT_TRUE(db_->Commit(txn.get()).ok());
      }
    };
    load(0, kIncKeySpan);
    load(kChurnLo, kChurnHi);
    ASSERT_EQ(table_->slots_per_page(), kSlotsPerPage);
    // Writes staged in the I/O scheduler serve later reads inline (no
    // device trip, no park); drain so cold reads genuinely queue.
    ASSERT_TRUE(db_->buffer_manager()->DrainIo().ok());
    // Sequential read-ahead would prefetch the NEXT transaction's counter
    // page while servicing this one's miss, silently turning later parks
    // into hits; these tests need each miss to stand on its own.
    db_->buffer_manager()->SetReadAheadPages(0);
  }

  // Cycles more one-touch pages through the pool than the probationary
  // FIFO holds. A freshly (re)installed page a parked transaction waits
  // on is probationary — exactly what this sweep evicts; hot pages in
  // the protected segment rightly survive (scan resistance), which is
  // why the counter pages must never become hot (see above).
  void ChurnPool() {
    const uint64_t step = table_->slots_per_page();
    auto txn = db_->Begin();
    std::byte buf[kTupleBytes];
    for (uint64_t k = kChurnLo; k < kChurnHi; k += step) {
      ASSERT_TRUE(table_->Read(txn.get(), k, buf).ok()) << k;
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    // Evictions staged writes for the dirtied pages; drain them so the
    // evicted pages' next reads go to the device instead of the staging
    // table.
    ASSERT_TRUE(db_->buffer_manager()->DrainIo().ok());
  }

  uint64_t CounterValue(uint64_t key) {
    auto txn = db_->Begin();
    std::byte buf[kTupleBytes];
    EXPECT_TRUE(table_->Read(txn.get(), key, buf).ok()) << key;
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    uint64_t v = 0;
    std::memcpy(&v, buf, sizeof(v));
    return v;
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(CounterTableTest, ExactlyOnceWhenWaitedOnPageIsReEvicted) {
  BufferManager* bm = db_->buffer_manager();
  IncrementMachine m(db_.get(), table_);
  FetchContext ctx;
  Xoshiro256 rng(11);

  int parks = 0;
  int re_evicted_resumes = 0;  // txns that parked again after a churn
  for (uint64_t i = 0; i < kIncTxns; ++i) {
    m.SetKey(IncKey(i));
    // Evict this transaction's counter page (and anything a predecessor
    // dragged in) so the first step deterministically parks.
    ChurnPool();
    bool churned = false;
    int parks_this_txn = 0;
    for (;;) {
      const Status st = m.Step(rng, &ctx);
      if (st.ok()) break;
      ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
      ++parks;
      ++parks_this_txn;
      ASSERT_TRUE(ctx.pending());
      while (!ctx.ready()) (void)bm->PumpIo(/*may_sleep=*/true);
      (void)ctx.Harvest();
      if (!churned) {
        // The adversarial schedule: the page the transaction waited for
        // just landed (and its completion pin was dropped) — evict it
        // again before the transaction gets to resume.
        ChurnPool();
        churned = true;
      } else if (parks_this_txn >= 2) {
        re_evicted_resumes = std::max(re_evicted_resumes, parks_this_txn);
      }
    }
    ASSERT_FALSE(m.in_flight());
  }
  // The schedule must actually have exercised parking, and at least one
  // resume must have found its page re-evicted (parked a second time).
  EXPECT_GT(parks, 0);
  EXPECT_GE(re_evicted_resumes, 2);

  // Exactly-once: every committed increment is visible exactly once, no
  // matter how many times its transaction parked and restarted.
  for (uint64_t i = 0; i < kIncTxns; ++i) {
    EXPECT_EQ(CounterValue(IncKey(i)), 1u) << "key " << IncKey(i);
  }
}

TEST_F(CounterTableTest, AbortingParkedTxnReleasesTicketWithoutLeak) {
  BufferManager* bm = db_->buffer_manager();
  IncrementMachine m(db_.get(), table_);
  FetchContext ctx;
  Xoshiro256 rng(13);

  auto PinnedFrames = [&]() -> uint32_t {
    return bm->DebugDramCensus().pinned;
  };
  // Quiesce, then baseline. Background threads may hold a transient
  // pin at any instant, so waiting-for-stable beats a one-shot census.
  auto WaitPinned = [&](uint32_t want) {
    for (int i = 0; i < 10000 && PinnedFrames() != want; ++i) {
      (void)bm->PumpIo(/*may_sleep=*/true);
    }
    return PinnedFrames();
  };
  const uint32_t baseline = WaitPinned(0);

  // Park a transaction mid-traversal on a cold page.
  bool parked = false;
  uint64_t parked_key = 0;
  for (uint64_t i = 0; i < kIncTxns && !parked; ++i) {
    ChurnPool();
    m.SetKey(IncKey(i));
    const Status st = m.Step(rng, &ctx);
    if (st.IsWouldBlock()) {
      parked = true;
      parked_key = IncKey(i);
      break;
    }
    // A step that never parked ran to commit; try the next key. (Its
    // increment is on a key the final check below does not reuse.)
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(parked) << "no step parked; pool too large for the test?";
  ASSERT_TRUE(ctx.pending());
  ASSERT_TRUE(m.in_flight());

  // Abort path: drain the in-flight ticket, then cancel the transaction.
  ctx.CancelSync(bm);
  m.Cancel();
  EXPECT_FALSE(ctx.pending());
  EXPECT_FALSE(m.in_flight());

  // No pinned frame may outlive the cancelled continuation.
  EXPECT_EQ(WaitPinned(baseline), baseline);

  // The aborted attempt left no effect behind...
  EXPECT_EQ(CounterValue(parked_key), 0u);

  // ...and the context and machine are reusable after the abort: rerun
  // the same key to completion and see exactly one increment.
  m.SetKey(parked_key);
  for (;;) {
    const Status st = m.Step(rng, &ctx);
    if (st.ok()) break;
    ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
    while (!ctx.ready()) (void)bm->PumpIo(/*may_sleep=*/true);
    (void)ctx.Harvest();
  }
  EXPECT_EQ(CounterValue(parked_key), 1u);
}

TEST_F(InterleavedTest, RunInterleavedYcsbCommitsUnderSpill) {
  auto db = Database::Create(Opts()).MoveValue();
  YcsbConfig cfg = YcsbConfig::Balanced(4000);  // ~270 pages vs 64 frames
  YcsbWorkload ycsb(db.get(), cfg);
  ASSERT_TRUE(ycsb.Load().ok());

  DriverResult res = WorkloadDriver::RunInterleaved(
      db->buffer_manager(), 2, 0.4, /*ring_depth=*/8,
      [&] { return std::make_unique<YcsbTxnMachine>(&ycsb); });
  EXPECT_GT(res.committed, 50u);
  EXPECT_LT(res.AbortRate(), 0.5);
  EXPECT_EQ(res.latency_ns.count(), res.committed + res.aborted);
}

TEST_F(InterleavedTest, RunInterleavedRingDepthOneStillCorrect) {
  auto db = Database::Create(Opts()).MoveValue();
  YcsbWorkload ycsb(db.get(), YcsbConfig::Balanced(2000));
  ASSERT_TRUE(ycsb.Load().ok());

  DriverResult res = WorkloadDriver::RunInterleaved(
      db->buffer_manager(), 1, 0.3, /*ring_depth=*/1,
      [&] { return std::make_unique<YcsbTxnMachine>(&ycsb); });
  EXPECT_GT(res.committed, 20u);
}

// Counts a TpccTxnMachine's parks and commits by transaction type.
class CountingTpccMachine : public TxnMachine {
 public:
  struct Counts {
    std::array<uint64_t, 5> parks{}, commits{};
    uint64_t parked(TpccWorkload::TxnType t) const {
      return parks[static_cast<size_t>(t)];
    }
    uint64_t committed(TpccWorkload::TxnType t) const {
      return commits[static_cast<size_t>(t)];
    }
  };
  CountingTpccMachine(TpccWorkload* tpcc, Counts* counts)
      : inner_(tpcc), counts_(counts) {}

  Status Step(Xoshiro256& rng, FetchContext* ctx) override {
    const Status st = inner_.Step(rng, ctx);
    const size_t type = static_cast<size_t>(inner_.type());
    if (st.IsWouldBlock()) ++counts_->parks[type];
    if (st.ok()) ++counts_->commits[type];
    return st;
  }
  void Cancel() override { inner_.Cancel(); }
  bool in_flight() const override { return inner_.in_flight(); }

 private:
  TpccTxnMachine inner_;
  Counts* counts_;
};

// The full TPC-C mix on one worker's ring, over a pool far smaller than
// the schema, so machines park inside every transaction type. One worker
// keeps this a check of the machines alone: with two TPC-C workers a
// B+Tree race can lose committed index keys, which is tracked separately.
TEST_F(InterleavedTest, RunInterleavedTpccKeepsMoneyConsistent) {
  using W = TpccWorkload;
  LatencySimulator::SetScale(kParkingLatencyScale);
  auto db = Database::Create(Opts()).MoveValue();
  TpccConfig cfg;
  cfg.num_warehouses = 1;
  // Weight the three rarer types up so each runs (and parks) often.
  cfg.pct_new_order = 30;
  cfg.pct_payment = 25;
  cfg.pct_order_status = 15;
  cfg.pct_delivery = 15;
  cfg.pct_stock_level = 15;
  TpccWorkload tpcc(db.get(), cfg);
  ASSERT_TRUE(tpcc.Load().ok());
  ASSERT_TRUE(db->buffer_manager()->DrainIo().ok());

  // Run in rounds until every type under test has parked and a delivery
  // committed (one round in a normal build; sanitizer builds run slower).
  CountingTpccMachine::Counts counts;
  const auto covered = [&] {
    return counts.parked(W::TxnType::kOrderStatus) > 0 &&
           counts.parked(W::TxnType::kDelivery) > 0 &&
           counts.parked(W::TxnType::kStockLevel) > 0 &&
           counts.committed(W::TxnType::kDelivery) > 0;
  };
  for (int round = 0; round < 20 && !covered(); ++round) {
    (void)WorkloadDriver::RunInterleaved(
        db->buffer_manager(), /*num_threads=*/1, 0.5, /*ring_depth=*/8, [&] {
          return std::make_unique<CountingTpccMachine>(&tpcc, &counts);
        });
  }
  EXPECT_GT(counts.parked(W::TxnType::kOrderStatus), 0u);
  EXPECT_GT(counts.parked(W::TxnType::kDelivery), 0u);
  EXPECT_GT(counts.parked(W::TxnType::kStockLevel), 0u);
  EXPECT_GT(counts.committed(W::TxnType::kDelivery), 0u);
  EXPECT_GT(std::accumulate(counts.commits.begin(), counts.commits.end(),
                            uint64_t{0}),
            10u);

  auto txn = db->Begin();
  Table* orders = db->GetTable(W::kOrder);
  Table* new_orders = db->GetTable(W::kNewOrder);
  Table* lines = db->GetTable(W::kOrderLine);
  Table* customers = db->GetTable(W::kCustomer);

  // PAYMENT adds its amount to both the warehouse and the district YTD in
  // one transaction; both start at 300,000 per warehouse. A phase that
  // double-applied after a parked resume would break this equality.
  W::WarehouseTuple wt{};
  ASSERT_TRUE(db->GetTable(W::kWarehouse)
                  ->Read(txn.get(), W::WarehouseKey(1), &wt)
                  .ok());
  double district_ytd = 0;
  uint64_t delivered = 0;
  double delivered_amount = 0;
  for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
    W::DistrictTuple dt{};
    ASSERT_TRUE(db->GetTable(W::kDistrict)
                    ->Read(txn.get(), W::DistrictKey(1, d), &dt)
                    .ok());
    district_ytd += dt.ytd;
    for (uint32_t o = 1; o < dt.next_o_id; ++o) {
      W::OrderTuple ot{};
      ASSERT_TRUE(orders->Read(txn.get(), W::OrderKey(1, d, o), &ot).ok())
          << "order " << d << "/" << o;
      // Oracle 1: an order is pending (NEW-ORDER row) exactly when it has
      // no carrier yet.
      W::NewOrderTuple no{};
      const Status nst = new_orders->Read(txn.get(), W::OrderKey(1, d, o), &no);
      ASSERT_TRUE(nst.ok() || nst.IsNotFound()) << nst.ToString();
      EXPECT_EQ(nst.ok(), ot.carrier_id == 0) << "order " << d << "/" << o;
      if (ot.carrier_id == 0) continue;
      ++delivered;
      for (uint32_t l = 1; l <= ot.ol_cnt; ++l) {
        W::OrderLineTuple ol{};
        ASSERT_TRUE(
            lines->Read(txn.get(), W::OrderLineKey(1, d, o, l), &ol).ok());
        delivered_amount += ol.amount;
      }
    }
  }
  EXPECT_NEAR(wt.ytd, district_ytd, 1e-6);

  uint64_t delivery_cnt = 0;
  double balance = 0;
  const uint64_t num_customers = static_cast<uint64_t>(
      cfg.districts_per_warehouse) * cfg.customers_per_district;
  for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
    for (uint32_t c = 1; c <= cfg.customers_per_district; ++c) {
      W::CustomerTuple ct{};
      ASSERT_TRUE(
          customers->Read(txn.get(), W::CustomerKey(1, d, c), &ct).ok());
      delivery_cnt += ct.delivery_cnt;
      balance += ct.balance;
    }
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
  // Oracle 2: every delivered order credited its customer exactly once.
  EXPECT_EQ(delivery_cnt, delivered);
  // Oracle 3: balances start at -10; PAYMENT debits what it adds to
  // W.ytd, DELIVERY credits the order-line amounts of the orders it
  // delivered.
  EXPECT_NEAR(balance,
              -10.0 * static_cast<double>(num_customers) -
                  (wt.ytd - 300'000.0) + delivered_amount,
              1e-3);
}

}  // namespace
}  // namespace spitfire
