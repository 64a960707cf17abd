#ifndef SPITFIRE_WORKLOAD_TXN_MACHINE_H_
#define SPITFIRE_WORKLOAD_TXN_MACHINE_H_

#include <functional>
#include <memory>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "common/status.h"
#include "db/database.h"

namespace spitfire {

// A transaction procedure refactored into a resumable state machine, the
// unit the interleaved executor schedules (ISSUE: interleaved transaction
// execution). One worker thread drives a ring of K machines: instead of
// blocking on a buffer miss, the running machine parks the miss on its
// FetchContext, remembers which step to restart, and returns WouldBlock so
// the worker can advance a sibling while the fetch is in flight.
//
// Contract:
//  - Step() drives the current transaction as far as it can go. It begins
//    a fresh transaction if none is in flight (drawing all random
//    decisions up front, so a parked step re-runs deterministically) and
//    returns:
//      OK          — the transaction committed; the machine is idle again.
//      Aborted     — the transaction aborted and was rolled back; idle.
//      WouldBlock  — a buffer miss parked on `ctx`; the machine stays
//                    in flight. The caller must wait for ctx->ready(),
//                    Harvest() it, and call Step() again — with the SAME
//                    machine and context — to resume.
//    `ctx` must not be pending on entry (the caller harvests completions;
//    the machine only submits through it).
//  - Exactly-once: a machine phase performs reads followed by at most one
//    write, the write last, and advances only after the write succeeds.
//    Since table/index operations surface WouldBlock only before their
//    side effects, re-running a phase after a park never double-applies
//    (no next_o_id re-roll, no double stock decrement).
//  - Cancel() aborts any in-flight transaction and resets the machine.
//    The caller must drain the context first (FetchContext::CancelSync)
//    so no parked fetch still targets it.
//  - A null `ctx` never parks: every fetch blocks, so one Step() runs the
//    whole transaction. That is the blocking form of the procedure (Run).
class TxnMachine {
 public:
  virtual ~TxnMachine() = default;
  virtual Status Step(Xoshiro256& rng, FetchContext* ctx) = 0;
  virtual void Cancel() = 0;
  virtual bool in_flight() const = 0;

  // Runs one whole transaction without a context (see above).
  Status Run(Xoshiro256& rng) {
    const Status st = Step(rng, nullptr);
    SPITFIRE_DCHECK(!st.IsWouldBlock());
    return st;
  }
};

// Creates one machine per ring slot; called once per slot per worker.
using TxnMachineFactory = std::function<std::unique_ptr<TxnMachine>()>;

// The begin/finish/cancel plumbing every workload machine shares. Step()
// begins a transaction when none is in flight — Draw() first takes every
// random decision, so a phase re-run after a park replays the identical
// operation — binds the step's context to it, and runs Resume(). Unless
// the step parked, it then finishes the transaction: commit when Resume()
// returned OK, otherwise abort, reporting Aborted so drivers count every
// failure as a conflict.
class DbTxnMachine : public TxnMachine {
 public:
  Status Step(Xoshiro256& rng, FetchContext* ctx) final;
  void Cancel() final;
  bool in_flight() const final { return txn_ != nullptr; }

 protected:
  explicit DbTxnMachine(Database* db) : db_(db) {}

  // Draws the next transaction's decisions and resets its progress.
  virtual void Draw(Xoshiro256& rng) = 0;
  // Runs the phases left: OK when all are done, WouldBlock when a fetch
  // parked, or the failure that aborts the transaction.
  virtual Status Resume() = 0;

  Transaction* txn() const { return txn_.get(); }

 private:
  Database* db_;
  std::unique_ptr<Transaction> txn_;
};

}  // namespace spitfire

#endif  // SPITFIRE_WORKLOAD_TXN_MACHINE_H_
