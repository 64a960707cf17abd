#include <gtest/gtest.h>

#include <string>

#include "storage/perf_model.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace spitfire {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  static DatabaseOptions Opts() {
    DatabaseOptions opts;
    opts.dram_frames = 128;
    opts.nvm_frames = 256;
    opts.policy = MigrationPolicy::Lazy();
    opts.ssd_capacity = 512ull * 1024 * 1024;
    opts.enable_wal = true;
    return opts;
  }
};

TEST_F(WorkloadTest, YcsbLoadAndReadBack) {
  auto db = Database::Create(Opts()).MoveValue();
  YcsbConfig cfg = YcsbConfig::ReadOnly(2000);
  YcsbWorkload ycsb(db.get(), cfg);
  ASSERT_TRUE(ycsb.Load().ok());

  auto txn = db->Begin();
  std::vector<std::byte> tuple(YcsbWorkload::kTupleSize);
  for (uint64_t k = 0; k < cfg.num_tuples; k += 97) {
    ASSERT_TRUE(ycsb.table()->Read(txn.get(), k, tuple.data()).ok()) << k;
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

TEST_F(WorkloadTest, YcsbTransactionsCommit) {
  auto db = Database::Create(Opts()).MoveValue();
  YcsbWorkload ycsb(db.get(), YcsbConfig::Balanced(1000));
  ASSERT_TRUE(ycsb.Load().ok());
  Xoshiro256 rng(1);
  int commits = 0;
  for (int i = 0; i < 500; ++i) {
    if (ycsb.RunTransaction(rng).ok()) ++commits;
  }
  // Single-threaded: only rare self-conflicts possible.
  EXPECT_GT(commits, 450);
}

TEST_F(WorkloadTest, YcsbMixesRespectReadRatio) {
  EXPECT_DOUBLE_EQ(YcsbConfig::ReadOnly().read_ratio, 1.0);
  EXPECT_DOUBLE_EQ(YcsbConfig::Balanced().read_ratio, 0.5);
  EXPECT_DOUBLE_EQ(YcsbConfig::WriteHeavy().read_ratio, 0.1);
}

TEST_F(WorkloadTest, DriverRunsMultiThreaded) {
  auto db = Database::Create(Opts()).MoveValue();
  YcsbWorkload ycsb(db.get(), YcsbConfig::Balanced(1000));
  ASSERT_TRUE(ycsb.Load().ok());
  DriverResult res = WorkloadDriver::Run(
      2, 0.5, [&](Xoshiro256& rng) { return ycsb.RunTransaction(rng); });
  EXPECT_GT(res.committed, 100u);
  EXPECT_GT(res.Throughput(), 0.0);
  EXPECT_LT(res.AbortRate(), 0.5);
}

class TpccTest : public WorkloadTest {
 protected:
  void SetUp() override {
    WorkloadTest::SetUp();
    db_ = Database::Create(Opts()).MoveValue();
    TpccConfig cfg;
    cfg.num_warehouses = 1;
    cfg.customers_per_district = 30;
    cfg.num_items = 200;
    tpcc_ = std::make_unique<TpccWorkload>(db_.get(), cfg);
    ASSERT_TRUE(tpcc_->Load().ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TpccWorkload> tpcc_;
};

TEST_F(TpccTest, LoadPopulatesAllTables) {
  auto txn = db_->Begin();
  TpccWorkload::WarehouseTuple wt{};
  ASSERT_TRUE(db_->GetTable(TpccWorkload::kWarehouse)
                  ->Read(txn.get(), TpccWorkload::WarehouseKey(1), &wt)
                  .ok());
  EXPECT_DOUBLE_EQ(wt.ytd, 300000.0);
  TpccWorkload::DistrictTuple dt{};
  ASSERT_TRUE(db_->GetTable(TpccWorkload::kDistrict)
                  ->Read(txn.get(), TpccWorkload::DistrictKey(1, 10), &dt)
                  .ok());
  EXPECT_EQ(dt.next_o_id, 1u);
  TpccWorkload::ItemTuple it{};
  ASSERT_TRUE(db_->GetTable(TpccWorkload::kItem)
                  ->Read(txn.get(), TpccWorkload::ItemKey(200), &it)
                  .ok());
  EXPECT_GT(it.price, 0.0);
  TpccWorkload::StockTuple st{};
  ASSERT_TRUE(db_->GetTable(TpccWorkload::kStock)
                  ->Read(txn.get(), TpccWorkload::StockKey(1, 1), &st)
                  .ok());
  EXPECT_GE(st.quantity, 10u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TpccTest, NewOrderAdvancesDistrictCounter) {
  Xoshiro256 rng(3);
  int ok_count = 0;
  for (int i = 0; i < 20; ++i) {
    if (tpcc_->NewOrder(rng).ok()) ++ok_count;
  }
  EXPECT_GT(ok_count, 15);
  auto txn = db_->Begin();
  uint32_t total_orders = 0;
  for (uint32_t d = 1; d <= 10; ++d) {
    TpccWorkload::DistrictTuple dt{};
    ASSERT_TRUE(db_->GetTable(TpccWorkload::kDistrict)
                    ->Read(txn.get(), TpccWorkload::DistrictKey(1, d), &dt)
                    .ok());
    total_orders += dt.next_o_id - 1;
  }
  EXPECT_EQ(total_orders, static_cast<uint32_t>(ok_count));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TpccTest, PaymentUpdatesBalances) {
  Xoshiro256 rng(4);
  int ok_count = 0;
  for (int i = 0; i < 20; ++i) {
    if (tpcc_->Payment(rng).ok()) ++ok_count;
  }
  EXPECT_GT(ok_count, 15);
  auto txn = db_->Begin();
  TpccWorkload::WarehouseTuple wt{};
  ASSERT_TRUE(db_->GetTable(TpccWorkload::kWarehouse)
                  ->Read(txn.get(), TpccWorkload::WarehouseKey(1), &wt)
                  .ok());
  EXPECT_GT(wt.ytd, 300000.0);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(TpccTest, OrderStatusAndStockLevelAreReadOnly) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(tpcc_->NewOrder(rng).ok());
  EXPECT_TRUE(tpcc_->OrderStatus(rng).ok());
  EXPECT_TRUE(tpcc_->StockLevel(rng).ok());
}

TEST_F(TpccTest, DeliveryDeletesNewOrderRows) {
  Xoshiro256 rng(6);
  int placed = 0;
  for (int i = 0; i < 12; ++i) placed += tpcc_->NewOrder(rng).ok();
  ASSERT_GT(placed, 0);
  auto CountPending = [&]() {
    auto txn = db_->Begin();
    uint32_t pending = 0;
    for (uint32_t d = 1; d <= 10; ++d) {
      EXPECT_TRUE(db_->GetTable(TpccWorkload::kNewOrder)
                      ->Scan(txn.get(), TpccWorkload::OrderKey(1, d, 0),
                             TpccWorkload::OrderKey(1, d, 0x0FFFFFFF),
                             [&](uint64_t, const void*) {
                               ++pending;
                               return true;
                             })
                      .ok());
    }
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return pending;
  };
  const uint32_t before = CountPending();
  EXPECT_EQ(before, static_cast<uint32_t>(placed));
  ASSERT_TRUE(tpcc_->Delivery(rng).ok());
  // Delivery removes the oldest pending NEW-ORDER row per district.
  EXPECT_LT(CountPending(), before);
}

TEST_F(TpccTest, DeliveredOrdersLeaveTheNewOrderIndex) {
  // One worker: every delete's commit finds no older transaction active,
  // so delivered NEW-ORDER rows leave the index at once and Delivery's
  // scan starts at the oldest pending order.
  Xoshiro256 rng(8);
  for (int i = 0; i < 300; ++i) (void)tpcc_->RunTransaction(rng);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tpcc_->Delivery(rng).ok());
  Table* new_orders = db_->GetTable(TpccWorkload::kNewOrder);
  auto txn = db_->Begin();
  uint64_t visible = 0;
  ASSERT_TRUE(new_orders
                  ->Scan(txn.get(), 0, UINT64_MAX,
                         [&](uint64_t, const void*) {
                           ++visible;
                           return true;
                         })
                  .ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(new_orders->index()->Count().value(), visible);
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
}

TEST_F(TpccTest, MixedWorkloadRuns) {
  Xoshiro256 rng(7);
  int commits = 0;
  for (int i = 0; i < 100; ++i) {
    if (tpcc_->RunTransaction(rng).ok()) ++commits;
  }
  EXPECT_GT(commits, 80);
}

TEST_F(TpccTest, MultiThreadedMixKeepsMoneyConsistent) {
  DriverResult res = WorkloadDriver::Run(
      2, 0.5, [&](Xoshiro256& rng) { return tpcc_->RunTransaction(rng); });
  EXPECT_GT(res.committed, 10u);
  // Every key in a heap is reachable through its index, which points at
  // the key's newest committed version.
  std::string why;
  EXPECT_TRUE(db_->CheckIntegrity(&why).ok()) << why;
  // PAYMENT adds its amount to the warehouse and to one district in one
  // transaction, so W.ytd stays the sum of its districts' YTDs; both start
  // at 300,000.
  auto txn = db_->Begin();
  TpccWorkload::WarehouseTuple wt{};
  ASSERT_TRUE(db_->GetTable(TpccWorkload::kWarehouse)
                  ->Read(txn.get(), TpccWorkload::WarehouseKey(1), &wt)
                  .ok());
  EXPECT_GE(wt.ytd, 300000.0);
  double district_ytd = 0;
  for (uint32_t d = 1; d <= tpcc_->config().districts_per_warehouse; ++d) {
    TpccWorkload::DistrictTuple dt{};
    ASSERT_TRUE(db_->GetTable(TpccWorkload::kDistrict)
                    ->Read(txn.get(), TpccWorkload::DistrictKey(1, d), &dt)
                    .ok());
    district_ytd += dt.ytd;
  }
  EXPECT_NEAR(wt.ytd, district_ytd, 1e-6);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

}  // namespace
}  // namespace spitfire
