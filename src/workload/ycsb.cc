#include "workload/ycsb.h"

#include <cstring>

namespace spitfire {

YcsbWorkload::YcsbWorkload(Database* db, const YcsbConfig& config)
    : db_(db),
      config_(config),
      zipf_(config.num_tuples, config.zipf_theta) {}

void YcsbWorkload::FillTuple(Xoshiro256& rng, std::byte* out) {
  // Ten columns of random printable data.
  for (size_t c = 0; c < kColumns; ++c) {
    std::byte* col = out + c * kColumnSize;
    for (size_t i = 0; i < kColumnSize; i += 8) {
      const uint64_t v = rng.Next();
      std::memcpy(col + i, &v, std::min<size_t>(8, kColumnSize - i));
    }
  }
}

Status YcsbWorkload::Load() {
  auto t_r = db_->CreateTable(config_.table_id, kTupleSize);
  SPITFIRE_RETURN_NOT_OK(t_r.status());
  table_ = t_r.value();

  Xoshiro256 rng(0xBADC0DE);
  std::vector<std::byte> tuple(kTupleSize);
  constexpr uint64_t kBatch = 1024;
  for (uint64_t k = 0; k < config_.num_tuples;) {
    auto txn = db_->Begin();
    const uint64_t end = std::min(config_.num_tuples, k + kBatch);
    for (; k < end; ++k) {
      FillTuple(rng, tuple.data());
      const Status st = table_->Insert(txn.get(), k, tuple.data());
      if (!st.ok()) {
        (void)db_->Abort(txn.get());
        return st;
      }
    }
    SPITFIRE_RETURN_NOT_OK(db_->Commit(txn.get()));
  }
  return Status::OK();
}

Status YcsbWorkload::WarmUp() {
  std::vector<std::byte> tuple(kTupleSize);
  auto txn = db_->Begin();
  for (uint64_t k = 0; k < config_.num_tuples; ++k) {
    const Status st = table_->Read(txn.get(), k, tuple.data());
    if (!st.ok() && !st.IsNotFound()) {
      (void)db_->Abort(txn.get());
      return st;
    }
  }
  return db_->Commit(txn.get());
}

Status YcsbWorkload::RunTransaction(Xoshiro256& rng) {
  SPITFIRE_CHECK(table_ != nullptr);
  return YcsbTxnMachine(this).Run(rng);
}

// ---------------------------------------------------------------------------
// Transaction machine
// ---------------------------------------------------------------------------

YcsbTxnMachine::YcsbTxnMachine(YcsbWorkload* workload)
    : DbTxnMachine(workload->db()),
      w_(workload),
      tuple_(YcsbWorkload::kTupleSize) {}

void YcsbTxnMachine::Draw(Xoshiro256& rng) {
  key_ = w_->SampleKey(rng);
  is_read_ = rng.Bernoulli(w_->config().read_ratio);
  update_value_ = rng.Next();
  phase_ = Phase::kRead;
}

Status YcsbTxnMachine::Resume() {
  Table* table = w_->table();
  switch (phase_) {
    case Phase::kRead:
      SPITFIRE_RETURN_NOT_OK(table->Read(txn(), key_, tuple_.data()));
      if (is_read_) return Status::OK();
      // Modify one column, as in the paper's update transaction.
      std::memcpy(
          tuple_.data() +
              (key_ % YcsbWorkload::kColumns) * YcsbWorkload::kColumnSize,
          &update_value_, sizeof(update_value_));
      phase_ = Phase::kUpdate;
      [[fallthrough]];
    case Phase::kUpdate:
      return table->Update(txn(), key_, tuple_.data());
  }
  return Status::OK();
}

}  // namespace spitfire
