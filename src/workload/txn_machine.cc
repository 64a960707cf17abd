#include "workload/txn_machine.h"

namespace spitfire {

Status DbTxnMachine::Step(Xoshiro256& rng, FetchContext* ctx) {
  SPITFIRE_DCHECK(ctx == nullptr || !ctx->pending());
  if (txn_ == nullptr) {
    Draw(rng);
    txn_ = db_->Begin();
  }
  txn_->fetch_ctx = ctx;
  const Status st = Resume();
  if (st.IsWouldBlock()) return st;
  // Commit/abort processing always blocks: the pages it touches were just
  // written by this transaction and are almost surely resident.
  txn_->fetch_ctx = nullptr;
  Status out = st;
  if (st.ok()) {
    out = db_->Commit(txn_.get());
  } else {
    (void)db_->Abort(txn_.get());
    if (!st.IsAborted()) out = Status::Aborted(st.ToString());
  }
  txn_.reset();
  return out;
}

void DbTxnMachine::Cancel() {
  if (txn_ == nullptr) return;
  txn_->fetch_ctx = nullptr;
  (void)db_->Abort(txn_.get());
  txn_.reset();
}

}  // namespace spitfire
