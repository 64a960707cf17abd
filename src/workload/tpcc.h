#ifndef SPITFIRE_WORKLOAD_TPCC_H_
#define SPITFIRE_WORKLOAD_TPCC_H_

#include <atomic>
#include <memory>

#include "common/random.h"
#include "db/database.h"
#include "workload/txn_machine.h"

namespace spitfire {

// TPC-C [35], the order-entry benchmark the paper uses as its mixed
// workload (Section 6.1): five transaction types over a warehouse-centric
// schema; 88% of the mix modifies the database.
//
// The schema is scaled relative to the specification, in line with the
// paper's MB-for-GB scaling: fewer items/customers by default (all
// configurable).
struct TpccConfig {
  uint32_t num_warehouses = 2;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 300;
  uint32_t num_items = 2'000;

  // Standard mix percentages.
  uint32_t pct_new_order = 45;
  uint32_t pct_payment = 43;
  uint32_t pct_order_status = 4;
  uint32_t pct_delivery = 4;
  uint32_t pct_stock_level = 4;
};

class TpccWorkload {
 public:
  // Table ids.
  enum TableId : uint32_t {
    kWarehouse = 10,
    kDistrict = 11,
    kCustomer = 12,
    kHistory = 13,
    kNewOrder = 14,
    kOrder = 15,
    kOrderLine = 16,
    kItem = 17,
    kStock = 18,
  };

  // Fixed-size tuple layouts (sizes chosen to match TPC-C field widths).
  struct WarehouseTuple {
    double ytd;
    double tax;
    char name[10];
    char street[40];
    char city[20];
    char state[2];
    char zip[9];
    char pad[7];
  };
  struct DistrictTuple {
    double ytd;
    double tax;
    uint32_t next_o_id;
    char name[10];
    char street[40];
    char city[20];
    char state[2];
    char zip[9];
    char pad[3];
  };
  struct CustomerTuple {
    double balance;
    double ytd_payment;
    double discount;
    double credit_lim;
    uint32_t payment_cnt;
    uint32_t delivery_cnt;
    char first[16];
    char middle[2];
    char last[16];
    char credit[2];
    char data[500];
  };
  struct HistoryTuple {
    uint32_t c_id;
    uint32_t c_d_id;
    uint32_t c_w_id;
    uint32_t d_id;
    uint32_t w_id;
    uint32_t pad;
    double amount;
    char data[24];
  };
  struct NewOrderTuple {
    uint32_t delivered;  // always 0 while the row exists (deleted on delivery)
    uint32_t pad;
  };
  struct OrderTuple {
    uint32_t c_id;
    uint32_t carrier_id;  // 0 = unassigned
    uint32_t ol_cnt;
    uint32_t all_local;
    uint64_t entry_d;
  };
  struct OrderLineTuple {
    uint32_t i_id;
    uint32_t supply_w_id;
    uint32_t quantity;
    uint32_t pad;
    double amount;
    uint64_t delivery_d;
    char dist_info[24];
  };
  struct ItemTuple {
    uint32_t im_id;
    uint32_t pad;
    double price;
    char name[24];
    char data[50];
    char pad2[6];
  };
  struct StockTuple {
    uint32_t quantity;
    uint32_t ytd;
    uint32_t order_cnt;
    uint32_t remote_cnt;
    char dist[10][24];
    char data[50];
    char pad[6];
  };

  // --- key encodings (packed into 64 bits) ---
  static uint64_t WarehouseKey(uint32_t w) { return w; }
  static uint64_t DistrictKey(uint32_t w, uint32_t d) {
    return (static_cast<uint64_t>(w) << 8) | d;
  }
  static uint64_t CustomerKey(uint32_t w, uint32_t d, uint32_t c) {
    return (static_cast<uint64_t>(w) << 28) |
           (static_cast<uint64_t>(d) << 20) | c;
  }
  static uint64_t OrderKey(uint32_t w, uint32_t d, uint32_t o) {
    return (static_cast<uint64_t>(w) << 36) |
           (static_cast<uint64_t>(d) << 28) | o;
  }
  static uint64_t OrderLineKey(uint32_t w, uint32_t d, uint32_t o,
                               uint32_t line) {
    return (OrderKey(w, d, o) << 4) | line;
  }
  static uint64_t ItemKey(uint32_t i) { return i; }
  static uint64_t StockKey(uint32_t w, uint32_t i) {
    return (static_cast<uint64_t>(w) << 24) | i;
  }

  TpccWorkload(Database* db, const TpccConfig& config);

  // Creates all nine tables and loads warehouses, districts, customers,
  // items, and stock.
  Status Load();

  enum class TxnType : uint8_t {
    kNewOrder,
    kPayment,
    kOrderStatus,
    kDelivery,
    kStockLevel,
  };
  // Draws a transaction type from the configured mix.
  TxnType PickType(Xoshiro256& rng) const;

  // Executes one transaction drawn from the standard mix.
  Status RunTransaction(Xoshiro256& rng);

  // Individual transactions (public for targeted tests). Each is its
  // machine below stepped without a context.
  Status NewOrder(Xoshiro256& rng);
  Status Payment(Xoshiro256& rng);
  Status OrderStatus(Xoshiro256& rng);
  Status Delivery(Xoshiro256& rng);
  Status StockLevel(Xoshiro256& rng);

  const TpccConfig& config() const { return config_; }
  Database* db() { return db_; }
  Table* table(TableId id) { return db_->GetTable(id); }

  // Uniform draws of a warehouse, district and customer id.
  uint32_t RandomWarehouse(Xoshiro256& rng) const {
    return 1 + static_cast<uint32_t>(rng.NextUint64(config_.num_warehouses));
  }
  uint32_t RandomDistrict(Xoshiro256& rng) const {
    return 1 + static_cast<uint32_t>(
                   rng.NextUint64(config_.districts_per_warehouse));
  }
  uint32_t RandomCustomer(Xoshiro256& rng) const {
    return 1 + static_cast<uint32_t>(
                   rng.NextUint64(config_.customers_per_district));
  }
  // A fresh HISTORY key for warehouse `w` (the table has no natural key).
  uint64_t NextHistoryKey(uint32_t w) {
    return history_seq_.fetch_add(1, std::memory_order_relaxed) |
           (static_cast<uint64_t>(w) << 40);
  }

 private:
  Database* db_;
  TpccConfig config_;
  std::atomic<uint64_t> history_seq_{0};
};

// The five TPC-C transactions as parked continuations (see TxnMachine and
// DbTxnMachine). Every random decision is drawn when the transaction
// begins, and each phase ends in at most one write and advances only once
// that write succeeded, so a re-run after a parked miss never re-rolls
// next_o_id, double-decrements stock, or credits a delivery twice.

// NEW-ORDER: read W → read D + bump next_o_id → read C →
// per line: (read item, read stock, update stock) → insert ORDER-LINE →
// insert ORDER → insert NEW-ORDER.
class TpccNewOrderMachine : public DbTxnMachine {
 public:
  explicit TpccNewOrderMachine(TpccWorkload* workload)
      : DbTxnMachine(workload->db()), w_(workload) {}

 private:
  enum class Phase : uint8_t {
    kReadWarehouse,
    kReadDistrict,
    kReadCustomer,
    kLineStock,
    kLineInsert,
    kInsertOrder,
    kInsertNewOrder,
  };
  static constexpr uint32_t kMaxLines = 15;

  void Draw(Xoshiro256& rng) override;
  Status Resume() override;

  TpccWorkload* w_;
  Phase phase_ = Phase::kReadWarehouse;
  // Decisions drawn at begin.
  uint32_t wid_ = 0, did_ = 0, cid_ = 0, ol_cnt_ = 0;
  uint32_t item_ids_[kMaxLines] = {};
  uint32_t qtys_[kMaxLines] = {};
  uint64_t entry_d_ = 0;
  // Progress state.
  uint32_t o_id_ = 0;
  uint32_t line_ = 1;
  TpccWorkload::OrderLineTuple ol_{};  // staged by kLineStock for kLineInsert
};

// PAYMENT: read+update W → read+update D → read+update C → insert HISTORY.
class TpccPaymentMachine : public DbTxnMachine {
 public:
  explicit TpccPaymentMachine(TpccWorkload* workload)
      : DbTxnMachine(workload->db()), w_(workload) {}

 private:
  enum class Phase : uint8_t { kWarehouse, kDistrict, kCustomer, kHistory };

  void Draw(Xoshiro256& rng) override;
  Status Resume() override;

  TpccWorkload* w_;
  Phase phase_ = Phase::kWarehouse;
  uint32_t wid_ = 0, did_ = 0, cid_ = 0;
  double amount_ = 0;
  uint64_t hkey_ = 0;
  TpccWorkload::HistoryTuple ht_{};
};

// ORDER-STATUS (read-only): read C → read D → walk back from the newest
// order to the customer's latest (bounded) → read its order lines.
class TpccOrderStatusMachine : public DbTxnMachine {
 public:
  explicit TpccOrderStatusMachine(TpccWorkload* workload)
      : DbTxnMachine(workload->db()), w_(workload) {}

 private:
  enum class Phase : uint8_t { kCustomer, kDistrict, kFindOrder, kLines };

  void Draw(Xoshiro256& rng) override;
  Status Resume() override;

  TpccWorkload* w_;
  Phase phase_ = Phase::kCustomer;
  uint32_t wid_ = 0, did_ = 0, cid_ = 0;
  uint32_t next_o_id_ = 0;
  uint32_t o_id_ = 0;  // walk cursor, then the order found
  uint32_t ol_cnt_ = 0;
  uint32_t line_ = 1;
};

// DELIVERY: for each district of one warehouse, deliver the oldest
// undelivered order — find and delete its NEW-ORDER row → set the ORDER's
// carrier → stamp each ORDER-LINE → credit the customer — one write per
// phase. The delivery date is one timestamp for the whole transaction.
class TpccDeliveryMachine : public DbTxnMachine {
 public:
  explicit TpccDeliveryMachine(TpccWorkload* workload)
      : DbTxnMachine(workload->db()), w_(workload) {}

 private:
  enum class Phase : uint8_t { kNewOrder, kOrder, kLine, kCustomer };

  void Draw(Xoshiro256& rng) override;
  Status Resume() override;

  TpccWorkload* w_;
  Phase phase_ = Phase::kNewOrder;
  uint32_t wid_ = 0, carrier_ = 0;
  uint64_t delivery_d_ = 0;
  // Progress state: the district being delivered and its order.
  uint32_t did_ = 1;
  uint32_t o_id_ = 0, cid_ = 0, ol_cnt_ = 0, line_ = 1;
  double total_ = 0;  // order-line amounts credited so far
};

// STOCK-LEVEL (read-only): read D → for each of the district's last 20
// orders, read the order and, per line, the order line and its stock.
class TpccStockLevelMachine : public DbTxnMachine {
 public:
  explicit TpccStockLevelMachine(TpccWorkload* workload)
      : DbTxnMachine(workload->db()), w_(workload) {}

 private:
  enum class Phase : uint8_t { kDistrict, kOrder, kLine };

  void Draw(Xoshiro256& rng) override;
  Status Resume() override;

  TpccWorkload* w_;
  Phase phase_ = Phase::kDistrict;
  uint32_t wid_ = 0, did_ = 0, threshold_ = 0;
  uint32_t o_id_ = 0, last_o_id_ = 0, ol_cnt_ = 0, line_ = 1;
  uint32_t low_stock_ = 0;
};

// The full TPC-C mix as one machine: picks the next transaction's type
// from the configured percentages (TpccWorkload::PickType) and delegates
// to that type's machine until it finishes.
class TpccTxnMachine : public TxnMachine {
 public:
  explicit TpccTxnMachine(TpccWorkload* workload)
      : w_(workload),
        new_order_(workload),
        payment_(workload),
        order_status_(workload),
        delivery_(workload),
        stock_level_(workload) {}
  SPITFIRE_DISALLOW_COPY_AND_MOVE(TpccTxnMachine);

  Status Step(Xoshiro256& rng, FetchContext* ctx) override;
  void Cancel() override { current_->Cancel(); }
  bool in_flight() const override { return current_->in_flight(); }

  // The type of the transaction in flight (when idle, of the last one).
  TpccWorkload::TxnType type() const { return type_; }

 private:
  TpccWorkload* w_;
  TpccNewOrderMachine new_order_;
  TpccPaymentMachine payment_;
  TpccOrderStatusMachine order_status_;
  TpccDeliveryMachine delivery_;
  TpccStockLevelMachine stock_level_;
  TpccWorkload::TxnType type_ = TpccWorkload::TxnType::kNewOrder;
  TxnMachine* current_ = &new_order_;
};

}  // namespace spitfire

#endif  // SPITFIRE_WORKLOAD_TPCC_H_
