#include "workload/tpcc.h"

#include <cstring>

namespace spitfire {

namespace {
void FillString(Xoshiro256& rng, char* dst, size_t n) {
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (size_t i = 0; i < n; ++i) {
    dst[i] = kAlpha[rng.NextUint64(sizeof(kAlpha) - 1)];
  }
}

using W = TpccWorkload;
}  // namespace

TpccWorkload::TpccWorkload(Database* db, const TpccConfig& config)
    : db_(db), config_(config) {}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

Status TpccWorkload::Load() {
  struct Spec {
    TableId id;
    size_t size;
  };
  const Spec specs[] = {
      {kWarehouse, sizeof(WarehouseTuple)},
      {kDistrict, sizeof(DistrictTuple)},
      {kCustomer, sizeof(CustomerTuple)},
      {kHistory, sizeof(HistoryTuple)},
      {kNewOrder, sizeof(NewOrderTuple)},
      {kOrder, sizeof(OrderTuple)},
      {kOrderLine, sizeof(OrderLineTuple)},
      {kItem, sizeof(ItemTuple)},
      {kStock, sizeof(StockTuple)},
  };
  for (const Spec& s : specs) {
    SPITFIRE_RETURN_NOT_OK(db_->CreateTable(s.id, s.size).status());
  }

  Xoshiro256 rng(0x79CC);

  // Items (shared across warehouses).
  {
    auto txn = db_->Begin();
    for (uint32_t i = 1; i <= config_.num_items; ++i) {
      ItemTuple item{};
      item.im_id = static_cast<uint32_t>(rng.NextUint64(10'000)) + 1;
      item.price = 1.0 + static_cast<double>(rng.NextUint64(9'900)) / 100.0;
      FillString(rng, item.name, sizeof(item.name));
      FillString(rng, item.data, sizeof(item.data));
      SPITFIRE_RETURN_NOT_OK(
          table(kItem)->Insert(txn.get(), ItemKey(i), &item));
      if (i % 1024 == 0) {
        SPITFIRE_RETURN_NOT_OK(db_->Commit(txn.get()));
        txn = db_->Begin();
      }
    }
    SPITFIRE_RETURN_NOT_OK(db_->Commit(txn.get()));
  }

  for (uint32_t w = 1; w <= config_.num_warehouses; ++w) {
    auto txn = db_->Begin();
    WarehouseTuple wt{};
    wt.ytd = 300'000.0;
    wt.tax = static_cast<double>(rng.NextUint64(2'000)) / 10'000.0;
    FillString(rng, wt.name, sizeof(wt.name));
    FillString(rng, wt.city, sizeof(wt.city));
    SPITFIRE_RETURN_NOT_OK(
        table(kWarehouse)->Insert(txn.get(), WarehouseKey(w), &wt));

    for (uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      DistrictTuple dt{};
      dt.ytd = 30'000.0;
      dt.tax = static_cast<double>(rng.NextUint64(2'000)) / 10'000.0;
      dt.next_o_id = 1;
      FillString(rng, dt.name, sizeof(dt.name));
      SPITFIRE_RETURN_NOT_OK(
          table(kDistrict)->Insert(txn.get(), DistrictKey(w, d), &dt));

      for (uint32_t c = 1; c <= config_.customers_per_district; ++c) {
        CustomerTuple ct{};
        ct.balance = -10.0;
        ct.ytd_payment = 10.0;
        ct.discount = static_cast<double>(rng.NextUint64(5'000)) / 10'000.0;
        ct.credit_lim = 50'000.0;
        FillString(rng, ct.first, sizeof(ct.first));
        FillString(rng, ct.last, sizeof(ct.last));
        ct.credit[0] = rng.Bernoulli(0.1) ? 'B' : 'G';
        ct.credit[1] = 'C';
        FillString(rng, ct.data, 64);  // partial, like a short history
        SPITFIRE_RETURN_NOT_OK(table(kCustomer)->Insert(
            txn.get(), CustomerKey(w, d, c), &ct));
      }
      // Commit per district to bound transaction size.
      SPITFIRE_RETURN_NOT_OK(db_->Commit(txn.get()));
      txn = db_->Begin();
    }

    for (uint32_t i = 1; i <= config_.num_items; ++i) {
      StockTuple st{};
      st.quantity = 10 + static_cast<uint32_t>(rng.NextUint64(91));
      FillString(rng, st.data, sizeof(st.data));
      SPITFIRE_RETURN_NOT_OK(
          table(kStock)->Insert(txn.get(), StockKey(w, i), &st));
      if (i % 1024 == 0) {
        SPITFIRE_RETURN_NOT_OK(db_->Commit(txn.get()));
        txn = db_->Begin();
      }
    }
    SPITFIRE_RETURN_NOT_OK(db_->Commit(txn.get()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Mix
// ---------------------------------------------------------------------------

W::TxnType TpccWorkload::PickType(Xoshiro256& rng) const {
  const uint32_t pick = static_cast<uint32_t>(rng.NextUint64(100));
  uint32_t acc = config_.pct_new_order;
  if (pick < acc) return TxnType::kNewOrder;
  acc += config_.pct_payment;
  if (pick < acc) return TxnType::kPayment;
  acc += config_.pct_order_status;
  if (pick < acc) return TxnType::kOrderStatus;
  acc += config_.pct_delivery;
  if (pick < acc) return TxnType::kDelivery;
  return TxnType::kStockLevel;
}

Status TpccWorkload::RunTransaction(Xoshiro256& rng) {
  return TpccTxnMachine(this).Run(rng);
}

Status TpccWorkload::NewOrder(Xoshiro256& rng) {
  return TpccNewOrderMachine(this).Run(rng);
}

Status TpccWorkload::Payment(Xoshiro256& rng) {
  return TpccPaymentMachine(this).Run(rng);
}

Status TpccWorkload::OrderStatus(Xoshiro256& rng) {
  return TpccOrderStatusMachine(this).Run(rng);
}

Status TpccWorkload::Delivery(Xoshiro256& rng) {
  return TpccDeliveryMachine(this).Run(rng);
}

Status TpccWorkload::StockLevel(Xoshiro256& rng) {
  return TpccStockLevelMachine(this).Run(rng);
}

Status TpccTxnMachine::Step(Xoshiro256& rng, FetchContext* ctx) {
  if (!current_->in_flight()) {
    type_ = w_->PickType(rng);
    switch (type_) {
      case W::TxnType::kNewOrder: current_ = &new_order_; break;
      case W::TxnType::kPayment: current_ = &payment_; break;
      case W::TxnType::kOrderStatus: current_ = &order_status_; break;
      case W::TxnType::kDelivery: current_ = &delivery_; break;
      case W::TxnType::kStockLevel: current_ = &stock_level_; break;
    }
  }
  return current_->Step(rng, ctx);
}

// ---------------------------------------------------------------------------
// NEW-ORDER: place an order of 5-15 lines; updates district.next_o_id and
// stock quantities, inserts ORDER / NEW-ORDER / ORDER-LINE rows.
// ---------------------------------------------------------------------------

void TpccNewOrderMachine::Draw(Xoshiro256& rng) {
  wid_ = w_->RandomWarehouse(rng);
  did_ = w_->RandomDistrict(rng);
  cid_ = w_->RandomCustomer(rng);
  ol_cnt_ = 5 + static_cast<uint32_t>(rng.NextUint64(11));
  for (uint32_t i = 0; i < ol_cnt_; ++i) {
    item_ids_[i] =
        1 + static_cast<uint32_t>(rng.NextUint64(w_->config().num_items));
    qtys_[i] = 1 + static_cast<uint32_t>(rng.NextUint64(10));
  }
  entry_d_ = rng.Next();
  o_id_ = 0;
  line_ = 1;
  phase_ = Phase::kReadWarehouse;
}

Status TpccNewOrderMachine::Resume() {
  for (;;) {
    switch (phase_) {
      case Phase::kReadWarehouse: {
        W::WarehouseTuple wt{};
        SPITFIRE_RETURN_NOT_OK(w_->table(W::kWarehouse)
                                   ->Read(txn(), W::WarehouseKey(wid_), &wt));
        phase_ = Phase::kReadDistrict;
        break;
      }
      case Phase::kReadDistrict: {
        // Read + one write. A park inside Update happens before the write
        // applied, so the re-run re-reads next_o_id and recomputes o_id_ —
        // no re-roll.
        W::DistrictTuple dt{};
        const uint64_t dkey = W::DistrictKey(wid_, did_);
        Table* districts = w_->table(W::kDistrict);
        SPITFIRE_RETURN_NOT_OK(districts->Read(txn(), dkey, &dt));
        o_id_ = dt.next_o_id;
        dt.next_o_id++;
        SPITFIRE_RETURN_NOT_OK(districts->Update(txn(), dkey, &dt));
        phase_ = Phase::kReadCustomer;
        break;
      }
      case Phase::kReadCustomer: {
        W::CustomerTuple ct{};
        SPITFIRE_RETURN_NOT_OK(
            w_->table(W::kCustomer)
                ->Read(txn(), W::CustomerKey(wid_, did_, cid_), &ct));
        phase_ = Phase::kLineStock;
        break;
      }
      case Phase::kLineStock: {
        const uint32_t i_id = item_ids_[line_ - 1];
        const uint32_t qty = qtys_[line_ - 1];
        W::ItemTuple item{};
        SPITFIRE_RETURN_NOT_OK(
            w_->table(W::kItem)->Read(txn(), W::ItemKey(i_id), &item));
        W::StockTuple stock{};
        const uint64_t skey = W::StockKey(wid_, i_id);
        Table* stocks = w_->table(W::kStock);
        SPITFIRE_RETURN_NOT_OK(stocks->Read(txn(), skey, &stock));
        stock.quantity = stock.quantity >= qty + 10
                             ? stock.quantity - qty
                             : stock.quantity + 91 - qty;
        stock.ytd += qty;
        stock.order_cnt++;
        SPITFIRE_RETURN_NOT_OK(stocks->Update(txn(), skey, &stock));
        // Stage the order line for the next phase while the item and
        // stock reads are at hand.
        ol_ = W::OrderLineTuple{};
        ol_.i_id = i_id;
        ol_.supply_w_id = wid_;
        ol_.quantity = qty;
        ol_.amount = qty * item.price;
        std::memcpy(ol_.dist_info, stock.dist[did_ - 1],
                    sizeof(ol_.dist_info));
        phase_ = Phase::kLineInsert;
        break;
      }
      case Phase::kLineInsert: {
        SPITFIRE_RETURN_NOT_OK(
            w_->table(W::kOrderLine)
                ->Insert(txn(), W::OrderLineKey(wid_, did_, o_id_, line_),
                         &ol_));
        ++line_;
        phase_ = line_ <= ol_cnt_ ? Phase::kLineStock : Phase::kInsertOrder;
        break;
      }
      case Phase::kInsertOrder: {
        W::OrderTuple ot{};
        ot.c_id = cid_;
        ot.carrier_id = 0;
        ot.ol_cnt = ol_cnt_;
        ot.all_local = 1;
        ot.entry_d = entry_d_;
        SPITFIRE_RETURN_NOT_OK(
            w_->table(W::kOrder)
                ->Insert(txn(), W::OrderKey(wid_, did_, o_id_), &ot));
        phase_ = Phase::kInsertNewOrder;
        break;
      }
      case Phase::kInsertNewOrder: {
        W::NewOrderTuple no{};
        return w_->table(W::kNewOrder)
            ->Insert(txn(), W::OrderKey(wid_, did_, o_id_), &no);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PAYMENT: updates warehouse/district YTD and the customer balance,
// inserts a HISTORY row.
// ---------------------------------------------------------------------------

void TpccPaymentMachine::Draw(Xoshiro256& rng) {
  wid_ = w_->RandomWarehouse(rng);
  did_ = w_->RandomDistrict(rng);
  cid_ = w_->RandomCustomer(rng);
  amount_ = 1.0 + static_cast<double>(rng.NextUint64(499'900)) / 100.0;
  ht_ = W::HistoryTuple{};
  ht_.c_id = cid_;
  ht_.c_d_id = did_;
  ht_.c_w_id = wid_;
  ht_.d_id = did_;
  ht_.w_id = wid_;
  ht_.amount = amount_;
  FillString(rng, ht_.data, sizeof(ht_.data));
  hkey_ = w_->NextHistoryKey(wid_);
  phase_ = Phase::kWarehouse;
}

Status TpccPaymentMachine::Resume() {
  for (;;) {
    switch (phase_) {
      case Phase::kWarehouse: {
        W::WarehouseTuple wt{};
        const uint64_t wkey = W::WarehouseKey(wid_);
        Table* warehouses = w_->table(W::kWarehouse);
        SPITFIRE_RETURN_NOT_OK(warehouses->Read(txn(), wkey, &wt));
        wt.ytd += amount_;
        SPITFIRE_RETURN_NOT_OK(warehouses->Update(txn(), wkey, &wt));
        phase_ = Phase::kDistrict;
        break;
      }
      case Phase::kDistrict: {
        W::DistrictTuple dt{};
        const uint64_t dkey = W::DistrictKey(wid_, did_);
        Table* districts = w_->table(W::kDistrict);
        SPITFIRE_RETURN_NOT_OK(districts->Read(txn(), dkey, &dt));
        dt.ytd += amount_;
        SPITFIRE_RETURN_NOT_OK(districts->Update(txn(), dkey, &dt));
        phase_ = Phase::kCustomer;
        break;
      }
      case Phase::kCustomer: {
        W::CustomerTuple ct{};
        const uint64_t ckey = W::CustomerKey(wid_, did_, cid_);
        Table* customers = w_->table(W::kCustomer);
        SPITFIRE_RETURN_NOT_OK(customers->Read(txn(), ckey, &ct));
        ct.balance -= amount_;
        ct.ytd_payment += amount_;
        ct.payment_cnt++;
        SPITFIRE_RETURN_NOT_OK(customers->Update(txn(), ckey, &ct));
        phase_ = Phase::kHistory;
        break;
      }
      case Phase::kHistory:
        return w_->table(W::kHistory)->Insert(txn(), hkey_, &ht_);
    }
  }
}

// ---------------------------------------------------------------------------
// ORDER-STATUS: reads a customer's most recent order and its lines.
// ---------------------------------------------------------------------------

void TpccOrderStatusMachine::Draw(Xoshiro256& rng) {
  wid_ = w_->RandomWarehouse(rng);
  did_ = w_->RandomDistrict(rng);
  cid_ = w_->RandomCustomer(rng);
  phase_ = Phase::kCustomer;
}

Status TpccOrderStatusMachine::Resume() {
  for (;;) {
    switch (phase_) {
      case Phase::kCustomer: {
        W::CustomerTuple ct{};
        SPITFIRE_RETURN_NOT_OK(
            w_->table(W::kCustomer)
                ->Read(txn(), W::CustomerKey(wid_, did_, cid_), &ct));
        phase_ = Phase::kDistrict;
        break;
      }
      case Phase::kDistrict: {
        W::DistrictTuple dt{};
        SPITFIRE_RETURN_NOT_OK(w_->table(W::kDistrict)
                                   ->Read(txn(), W::DistrictKey(wid_, did_),
                                          &dt));
        next_o_id_ = dt.next_o_id;
        o_id_ = next_o_id_;
        phase_ = Phase::kFindOrder;
        break;
      }
      case Phase::kFindOrder: {
        // Walk the district's orders back from the newest (keys are
        // ordered by o_id); the spec uses a secondary index, we cap the
        // walk. One read per step: a park resumes at the same order.
        if (o_id_ == 0) return Status::OK();  // no recent order
        W::OrderTuple ot{};
        const Status st = w_->table(W::kOrder)->Read(
            txn(), W::OrderKey(wid_, did_, o_id_), &ot);
        if (st.IsNotFound()) {
          --o_id_;
          break;
        }
        SPITFIRE_RETURN_NOT_OK(st);
        if (ot.c_id == cid_) {
          ol_cnt_ = ot.ol_cnt;
          line_ = 1;
          phase_ = Phase::kLines;
        } else {
          o_id_ = next_o_id_ - o_id_ > 64 ? 0 : o_id_ - 1;
        }
        break;
      }
      case Phase::kLines: {
        if (line_ > ol_cnt_) return Status::OK();
        W::OrderLineTuple ol{};
        const Status st = w_->table(W::kOrderLine)
                              ->Read(txn(),
                                     W::OrderLineKey(wid_, did_, o_id_, line_),
                                     &ol);
        if (!st.ok() && !st.IsNotFound()) return st;
        ++line_;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DELIVERY: for each district, deliver the oldest undelivered order:
// delete its NEW-ORDER row, set the carrier, stamp order lines, and credit
// the customer.
// ---------------------------------------------------------------------------

void TpccDeliveryMachine::Draw(Xoshiro256& rng) {
  wid_ = w_->RandomWarehouse(rng);
  carrier_ = 1 + static_cast<uint32_t>(rng.NextUint64(10));
  delivery_d_ = rng.Next();
  did_ = 1;
  phase_ = Phase::kNewOrder;
}

Status TpccDeliveryMachine::Resume() {
  for (;;) {
    if (did_ > w_->config().districts_per_warehouse) return Status::OK();
    switch (phase_) {
      case Phase::kNewOrder: {
        // Rows are deleted on delivery, so the first visible row in key
        // order is the district's oldest pending order.
        uint32_t o_id = 0;
        Table* new_orders = w_->table(W::kNewOrder);
        SPITFIRE_RETURN_NOT_OK(new_orders->Scan(
            txn(), W::OrderKey(wid_, did_, 0),
            W::OrderKey(wid_, did_, 0x0FFFFFFF),
            [&](uint64_t key, const void*) {
              o_id = static_cast<uint32_t>(key & 0x0FFFFFFF);
              return false;
            }));
        if (o_id == 0) {  // nothing pending in this district
          ++did_;
          break;
        }
        SPITFIRE_RETURN_NOT_OK(
            new_orders->Delete(txn(), W::OrderKey(wid_, did_, o_id)));
        o_id_ = o_id;
        phase_ = Phase::kOrder;
        break;
      }
      case Phase::kOrder: {
        W::OrderTuple ot{};
        const uint64_t okey = W::OrderKey(wid_, did_, o_id_);
        Table* orders = w_->table(W::kOrder);
        SPITFIRE_RETURN_NOT_OK(orders->Read(txn(), okey, &ot));
        ot.carrier_id = carrier_;
        SPITFIRE_RETURN_NOT_OK(orders->Update(txn(), okey, &ot));
        cid_ = ot.c_id;
        ol_cnt_ = ot.ol_cnt;
        line_ = 1;
        total_ = 0;
        phase_ = Phase::kLine;
        break;
      }
      case Phase::kLine: {
        if (line_ > ol_cnt_) {
          phase_ = Phase::kCustomer;
          break;
        }
        W::OrderLineTuple ol{};
        const uint64_t lkey = W::OrderLineKey(wid_, did_, o_id_, line_);
        Table* lines = w_->table(W::kOrderLine);
        const Status st = lines->Read(txn(), lkey, &ol);
        if (!st.IsNotFound()) {
          SPITFIRE_RETURN_NOT_OK(st);
          ol.delivery_d = delivery_d_;
          SPITFIRE_RETURN_NOT_OK(lines->Update(txn(), lkey, &ol));
          total_ += ol.amount;
        }
        ++line_;
        break;
      }
      case Phase::kCustomer: {
        W::CustomerTuple ct{};
        const uint64_t ckey = W::CustomerKey(wid_, did_, cid_);
        Table* customers = w_->table(W::kCustomer);
        SPITFIRE_RETURN_NOT_OK(customers->Read(txn(), ckey, &ct));
        ct.balance += total_;
        ct.delivery_cnt++;
        SPITFIRE_RETURN_NOT_OK(customers->Update(txn(), ckey, &ct));
        ++did_;
        phase_ = Phase::kNewOrder;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// STOCK-LEVEL: count stock entries below a threshold among the last 20
// orders' lines of one district (read-only).
// ---------------------------------------------------------------------------

void TpccStockLevelMachine::Draw(Xoshiro256& rng) {
  wid_ = w_->RandomWarehouse(rng);
  did_ = w_->RandomDistrict(rng);
  threshold_ = 10 + static_cast<uint32_t>(rng.NextUint64(11));
  low_stock_ = 0;
  phase_ = Phase::kDistrict;
}

Status TpccStockLevelMachine::Resume() {
  for (;;) {
    switch (phase_) {
      case Phase::kDistrict: {
        W::DistrictTuple dt{};
        SPITFIRE_RETURN_NOT_OK(w_->table(W::kDistrict)
                                   ->Read(txn(), W::DistrictKey(wid_, did_),
                                          &dt));
        last_o_id_ = dt.next_o_id > 0 ? dt.next_o_id - 1 : 0;
        o_id_ = last_o_id_ > 20 ? last_o_id_ - 20 + 1 : 1;
        phase_ = Phase::kOrder;
        break;
      }
      case Phase::kOrder: {
        if (o_id_ > last_o_id_) return Status::OK();
        W::OrderTuple ot{};
        const Status st = w_->table(W::kOrder)->Read(
            txn(), W::OrderKey(wid_, did_, o_id_), &ot);
        if (st.IsNotFound()) {
          ++o_id_;
          break;
        }
        SPITFIRE_RETURN_NOT_OK(st);
        ol_cnt_ = ot.ol_cnt;
        line_ = 1;
        phase_ = Phase::kLine;
        break;
      }
      case Phase::kLine: {
        if (line_ > ol_cnt_) {
          ++o_id_;
          phase_ = Phase::kOrder;
          break;
        }
        W::OrderLineTuple ol{};
        Status st = w_->table(W::kOrderLine)
                        ->Read(txn(), W::OrderLineKey(wid_, did_, o_id_, line_),
                               &ol);
        if (st.ok()) {
          W::StockTuple stock{};
          st = w_->table(W::kStock)->Read(txn(), W::StockKey(wid_, ol.i_id),
                                          &stock);
          if (st.ok() && stock.quantity < threshold_) ++low_stock_;
        }
        if (!st.ok() && !st.IsNotFound()) return st;
        ++line_;
        break;
      }
    }
  }
}

}  // namespace spitfire
