// Crash-injection recovery fuzzing: run transactions against a live
// database while a FaultInjector counts durability operations (SSD page
// writes and persists, NVM stores and flush-backs) and kills the device
// stack at a randomized point — mid-group-commit, mid-checkpoint,
// mid-page-write, mid-NVM-admission. The harness then simulates
// power loss (destroy the engine, roll NVM back to its durable shadow),
// recovers, and checks the durability contract against a transaction
// ledger kept outside the database:
//
//   - every transaction whose Commit() returned OK is fully present,
//   - no uncommitted or aborted effect is visible,
//   - a transaction whose Commit() returned an error (the device died
//     mid-commit) is indeterminate: all of its effects or none,
//   - heap/index invariants hold (Database::CheckIntegrity), and
//   - for the TPC-C-style payments, money is conserved: each warehouse's
//     ytd delta equals the sum of its districts' deltas, and both match
//     the committed payments plus a consistent subset of indeterminate
//     ones.
//
// Runs are driven by a per-iteration seed derived from a base seed
// (SPITFIRE_FUZZ_SEED) so a failure reproduces from the printed repro
// line. Iteration count: SPITFIRE_FUZZ_ITERS (default kept small enough
// for the regular test suite; CI's fuzz job raises it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "storage/fault_injector.h"
#include "storage/perf_model.h"
#include "workload/tpcc.h"

namespace spitfire {
namespace {

uint64_t EnvOr(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

// One deterministic iteration's configuration, drawn from the seed.
struct FuzzConfig {
  uint64_t seed = 0;
  bool with_nvm = true;
  size_t dram_frames = 48;
  size_t nvm_frames = 96;
  bool checkpoint_after_load = false;
  // Kill spec: either an op-count trip or a named kill point.
  uint64_t kill_after_ops = 0;
  std::string kill_point;
  uint64_t kill_point_hits = 1;
  // Extra crash-recover cycles after the first recovery.
  bool double_crash = false;
  // Install a second injector across Recover() itself.
  bool crash_during_recovery = false;
  uint64_t recovery_kill_after_ops = 0;

  std::string ToString() const {
    std::ostringstream os;
    os << "seed=" << seed << " nvm=" << with_nvm << " dram=" << dram_frames
       << " nvm_frames=" << nvm_frames
       << " ckpt_after_load=" << checkpoint_after_load
       << " kill_after_ops=" << kill_after_ops;
    if (!kill_point.empty()) {
      os << " kill_point=" << kill_point << ":" << kill_point_hits;
    }
    os << " double_crash=" << double_crash
       << " crash_during_recovery=" << crash_during_recovery << ":"
       << recovery_kill_after_ops;
    return os.str();
  }
};

FuzzConfig DrawConfig(uint64_t base_seed, uint64_t iter) {
  std::mt19937_64 rng(base_seed * 0x9E3779B97F4A7C15ull + iter);
  FuzzConfig c;
  c.seed = rng();
  c.with_nvm = (iter % 3) != 2;  // two thirds with an NVM tier
  c.dram_frames = 32 + rng() % 64;
  c.nvm_frames = c.with_nvm ? 64 + rng() % 96 : 0;
  // A draw that configured the buffer manager's shard count when it had
  // shards; kept so that every seed draws the same later fields.
  (void)rng();
  c.checkpoint_after_load = (rng() % 2) == 0;
  if (rng() % 5 == 0) {
    static const char* kPoints[] = {"wal.drain.file_written",
                                    "wal.drain.header_written"};
    c.kill_point = kPoints[rng() % 2];
    c.kill_point_hits = 1 + rng() % 3;
    // Belt and braces: if the point never fires, an op-count trip still
    // ends the run.
    c.kill_after_ops = 400 + rng() % 400;
  } else {
    c.kill_after_ops = 1 + rng() % 150;
  }
  c.double_crash = rng() % 3 == 0;
  c.crash_during_recovery = rng() % 6 == 0;
  c.recovery_kill_after_ops = 1 + rng() % 40;
  return c;
}

DatabaseOptions MakeOptions(const FuzzConfig& c) {
  DatabaseOptions o;
  o.dram_frames = c.dram_frames;
  o.nvm_frames = c.nvm_frames;
  o.policy = c.with_nvm ? MigrationPolicy::Lazy() : MigrationPolicy::Eager();
  o.enable_wal = true;
  o.log_staging_size = 1 << 20;
  return o;
}

// Crash (destroying the engine), roll NVM back to its durable shadow, and
// uninstall the injector. Returns the surviving devices.
DatabaseEnv CrashAndRestore(std::unique_ptr<Database> db) {
  DatabaseEnv env = Database::Crash(std::move(db));
  if (FaultInjector* fi = FaultInjector::Get()) {
    if (env.nvm != nullptr) fi->RestoreNvm();
    FaultInjector::Uninstall();
  }
  return env;
}

// Recover, tolerating injected crashes during recovery itself: every
// failed attempt simulates another power loss (restore NVM, drop the
// injector) and retries without faults. The final attempt must succeed.
Result<std::unique_ptr<Database>> RecoverWithRetries(
    const DatabaseOptions& opts, DatabaseEnv env, std::string* trace) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    DatabaseEnv back;
    auto db_r = Database::Recover(opts, std::move(env), &back);
    if (db_r.ok()) {
      if (FaultInjector::Get() != nullptr) FaultInjector::Uninstall();
      return db_r;
    }
    *trace += " recover_attempt_" + std::to_string(attempt) + "=" +
              db_r.status().ToString();
    if (FaultInjector* fi = FaultInjector::Get()) {
      if (back.nvm != nullptr) fi->RestoreNvm();
      FaultInjector::Uninstall();
    } else {
      // No injector: the failure is a real recovery bug, not an injected
      // crash. Surface it.
      return db_r.status();
    }
    env = std::move(back);
  }
  return Status::IoError("recovery did not converge after 3 attempts");
}

// ---------------------------------------------------------------------------
// YCSB-style fuzz: single table, per-worker key ownership, unique values.
// ---------------------------------------------------------------------------

struct YcsbTuple {
  uint64_t val;
  uint64_t pad[7];
};

struct YcsbWrite {
  uint64_t key;
  std::optional<uint64_t> val;  // nullopt = delete (tombstone)
};

struct YcsbLedger {
  // Durable truth: key -> value (absent = never inserted or deleted).
  std::map<uint64_t, std::optional<uint64_t>> committed;
  // One per worker at most: the last transaction if Commit() errored.
  std::vector<std::vector<YcsbWrite>> indeterminate;
};

constexpr uint32_t kYcsbWorkers = 3;
constexpr uint64_t kYcsbKeysPerWorker = 32;
constexpr uint64_t kYcsbKeys = kYcsbWorkers * kYcsbKeysPerWorker;

// Runs the interleaved workload until the injector trips (or the step
// budget runs out), maintaining the ledger. Transactions from different
// workers stay open concurrently — MVTO-level concurrency with a
// deterministic schedule, so a failing seed replays.
void RunYcsbWorkload(Database* db, Table* t, std::mt19937_64& rng,
                     YcsbLedger* ledger) {
  struct Worker {
    std::unique_ptr<Transaction> txn;
    std::vector<YcsbWrite> plan;   // staged effects (applied on commit)
    size_t next_op = 0;
    bool stopped = false;
  };
  std::vector<Worker> workers(kYcsbWorkers);
  ledger->indeterminate.resize(kYcsbWorkers);
  uint64_t next_val = 1'000'000;  // unique, distinct from load values

  for (int step = 0; step < 900; ++step) {
    if (FaultInjector::IsTripped()) break;
    if (step % 97 == 96) {
      (void)db->Checkpoint();  // mid-checkpoint crash coverage
      continue;
    }
    Worker& w = workers[step % kYcsbWorkers];
    if (w.stopped) continue;
    const uint64_t base = (step % kYcsbWorkers) * kYcsbKeysPerWorker;

    if (w.txn == nullptr) {
      w.txn = db->Begin();
      w.plan.clear();
      w.next_op = 0;
      // 1..3 writes to distinct owned keys; ~1 in 8 is a delete.
      const size_t nops = 1 + rng() % 3;
      std::vector<uint64_t> keys;
      while (keys.size() < nops) {
        const uint64_t k = base + rng() % kYcsbKeysPerWorker;
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
        }
      }
      for (uint64_t k : keys) {
        const bool present = ledger->committed.count(k) != 0 &&
                             ledger->committed[k].has_value();
        if (present && rng() % 8 == 0) {
          w.plan.push_back({k, std::nullopt});
        } else {
          w.plan.push_back({k, next_val++});
        }
      }
      // About one plan in three writes its first key a second time:
      // update after update or insert, delete after either, re-insert
      // after delete.
      if (rng() % 3 == 0) {
        const bool present = w.plan.front().val.has_value();
        if (present && rng() % 8 == 0) {
          w.plan.push_back({keys.front(), std::nullopt});
        } else {
          w.plan.push_back({keys.front(), next_val++});
        }
      }
      continue;
    }

    if (w.next_op < w.plan.size()) {
      const YcsbWrite& op = w.plan[w.next_op];
      // Whether the key holds a row as this transaction sees it: after its
      // own earlier write of the key, else as committed.
      bool present = ledger->committed.count(op.key) != 0 &&
                     ledger->committed[op.key].has_value();
      for (size_t i = 0; i < w.next_op; ++i) {
        if (w.plan[i].key == op.key) present = w.plan[i].val.has_value();
      }
      Status st;
      if (!op.val.has_value()) {
        st = t->Delete(w.txn.get(), op.key);
      } else if (present) {
        YcsbTuple tup{*op.val, {}};
        st = t->Update(w.txn.get(), op.key, &tup);
      } else {
        YcsbTuple tup{*op.val, {}};
        st = t->Insert(w.txn.get(), op.key, &tup);
      }
      if (!st.ok()) {
        // Conflict or dying device: roll back cleanly; no ledger effect.
        (void)db->Abort(w.txn.get());
        w.txn.reset();
        continue;
      }
      // Occasionally read someone else's key (bumps read_ts, provoking
      // write conflicts).
      if (rng() % 4 == 0) {
        YcsbTuple tup;
        (void)t->Read(w.txn.get(), rng() % kYcsbKeys, &tup);
      }
      ++w.next_op;
      continue;
    }

    const Status st = db->Commit(w.txn.get());
    if (st.ok()) {
      for (const YcsbWrite& op : w.plan) ledger->committed[op.key] = op.val;
    } else {
      // Commit attempted but errored: the commit record may or may not be
      // durable. Either full effect or none is acceptable; the worker's
      // in-doubt transaction is its last (nothing overwrites it later).
      // Only its last write of each key is a possible outcome.
      std::vector<YcsbWrite>& doubt =
          ledger->indeterminate[step % kYcsbWorkers];
      doubt.clear();
      for (auto it = w.plan.rbegin(); it != w.plan.rend(); ++it) {
        const auto same_key = [&](const YcsbWrite& o) {
          return o.key == it->key;
        };
        if (std::none_of(doubt.begin(), doubt.end(), same_key)) {
          doubt.push_back(*it);
        }
      }
      w.stopped = true;
    }
    w.txn.reset();
  }
  // In-flight transactions are dropped without abort: their uncommitted
  // versions and stale write locks are exactly what recovery must scrub.
  for (Worker& w : workers) w.txn.reset();
}

// Validates the recovered database against the ledger. Returns a
// diagnostic string on violation, empty on success.
std::string ValidateYcsb(Database* db, Table* t, const YcsbLedger& ledger) {
  std::string why;
  if (Status st = db->CheckIntegrity(&why); !st.ok()) {
    return "integrity: " + why;
  }
  auto txn = db->Begin();
  std::ostringstream err;
  // Per-indeterminate-transaction effect observations for the atomicity
  // check: 0 = old state seen, 1 = new state seen, -1 = indistinguishable.
  std::vector<std::vector<int>> effect(ledger.indeterminate.size());
  for (uint64_t k = 0; k < kYcsbKeys; ++k) {
    YcsbTuple tup{};
    const Status st = t->Read(txn.get(), k, &tup);
    std::optional<uint64_t> observed;
    if (st.ok()) {
      observed = tup.val;
    } else if (!st.IsNotFound()) {
      err << "key " << k << ": read error " << st.ToString();
      break;
    }
    auto it = ledger.committed.find(k);
    std::optional<uint64_t> expected;
    if (it != ledger.committed.end()) expected = it->second;
    bool ok = observed == expected;
    for (size_t wkr = 0; wkr < ledger.indeterminate.size(); ++wkr) {
      for (const YcsbWrite& op : ledger.indeterminate[wkr]) {
        if (op.key != k) continue;
        if (op.val == expected) {
          effect[wkr].push_back(-1);
        } else if (observed == op.val) {
          effect[wkr].push_back(1);
          ok = true;
        } else if (observed == expected) {
          effect[wkr].push_back(0);
        }
      }
    }
    if (!ok) {
      err << "key " << k << ": observed "
          << (observed ? std::to_string(*observed) : "absent")
          << " expected "
          << (expected ? std::to_string(*expected) : "absent");
      break;
    }
  }
  (void)db->Commit(txn.get());
  if (!err.str().empty()) return err.str();
  for (size_t wkr = 0; wkr < effect.size(); ++wkr) {
    bool some_new = false;
    bool some_old = false;
    for (int e : effect[wkr]) {
      some_new |= e == 1;
      some_old |= e == 0;
    }
    if (some_new && some_old) {
      return "indeterminate transaction of worker " + std::to_string(wkr) +
             " applied partially (atomicity violated)";
    }
  }
  return "";
}

void RunYcsbIteration(const FuzzConfig& c) {
  std::mt19937_64 rng(c.seed);
  DatabaseOptions opts = MakeOptions(c);
  std::string trace;

  auto db = Database::Create(opts).MoveValue();
  Table* t = db->CreateTable(1, sizeof(YcsbTuple)).value();
  YcsbLedger ledger;
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < kYcsbKeys; ++k) {
      if (rng() % 4 == 0) continue;  // leave holes for inserts
      YcsbTuple tup{k + 1, {}};
      ASSERT_TRUE(t->Insert(txn.get(), k, &tup).ok());
      ledger.committed[k] = k + 1;
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  if (c.checkpoint_after_load) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  FaultInjector::Options fopts;
  fopts.seed = c.seed ^ 0xF417;
  fopts.kill_after_ops = c.kill_after_ops;
  fopts.kill_point = c.kill_point;
  fopts.kill_point_hits = c.kill_point_hits;
  FaultInjector::Install(fopts);
  if (db->env().nvm != nullptr) {
    FaultInjector::Get()->AttachNvm(db->env().nvm.get());
  }

  RunYcsbWorkload(db.get(), t, rng, &ledger);
  const std::string repro = FaultInjector::Get()->ToString();
  DatabaseEnv env = CrashAndRestore(std::move(db));

  if (c.crash_during_recovery) {
    FaultInjector::Options ropts;
    ropts.seed = c.seed ^ 0x2ECC;
    ropts.kill_after_ops = c.recovery_kill_after_ops;
    FaultInjector::Install(ropts);
    if (env.nvm != nullptr) FaultInjector::Get()->AttachNvm(env.nvm.get());
  }
  auto db_r = RecoverWithRetries(opts, std::move(env), &trace);
  ASSERT_TRUE(db_r.ok()) << "recovery failed: " << db_r.status().ToString()
                         << "\n  config: " << c.ToString()
                         << "\n  injector: " << repro << trace;
  db = db_r.MoveValue();

  if (c.double_crash) {
    env = Database::Crash(std::move(db));
    db_r = RecoverWithRetries(opts, std::move(env), &trace);
    ASSERT_TRUE(db_r.ok()) << "re-recovery failed: "
                           << db_r.status().ToString()
                           << "\n  config: " << c.ToString() << trace;
    db = db_r.MoveValue();
  }

  t = db->GetTable(1);
  ASSERT_NE(t, nullptr) << c.ToString();
  const std::string violation = ValidateYcsb(db.get(), t, ledger);
  ASSERT_TRUE(violation.empty())
      << violation << "\n  config: " << c.ToString()
      << "\n  injector: " << repro << trace;
}

TEST(CrashFuzz, YcsbRandomKillPoints) {
  LatencySimulator::SetScale(0.0);
  const uint64_t iters = EnvOr("SPITFIRE_FUZZ_ITERS", 12);
  const uint64_t base_seed = EnvOr("SPITFIRE_FUZZ_SEED", 0xC0FFEE);
  for (uint64_t it = 0; it < iters; ++it) {
    const FuzzConfig c = DrawConfig(base_seed, it);
    SCOPED_TRACE("iter " + std::to_string(it) + " " + c.ToString());
    RunYcsbIteration(c);
    if (::testing::Test::HasFatalFailure()) break;
  }
  LatencySimulator::SetScale(1.0);
}

// ---------------------------------------------------------------------------
// TPC-C-style fuzz: payments over the TPC-C schema, money conservation.
// ---------------------------------------------------------------------------

struct Payment {
  uint32_t w = 0;
  uint32_t d = 0;
  uint64_t amount = 0;  // integer dollars — exact in a double
};

struct TpccLedger {
  std::map<uint64_t, double> base_w_ytd;  // by warehouse key
  std::map<uint64_t, double> base_d_ytd;  // by district key
  std::map<uint32_t, uint64_t> committed_w;          // w -> sum
  std::map<uint64_t, uint64_t> committed_d;          // district key -> sum
  std::vector<Payment> indeterminate;                // at most one/worker
};

constexpr uint32_t kTpccWorkers = 3;

void RunTpccWorkload(Database* db, const TpccConfig& cfg,
                     std::mt19937_64& rng, TpccLedger* ledger) {
  Table* wt = db->GetTable(TpccWorkload::kWarehouse);
  Table* dt = db->GetTable(TpccWorkload::kDistrict);
  struct Worker {
    std::unique_ptr<Transaction> txn;
    Payment pay;
    int phase = 0;  // 0 = update W, 1 = update D, 2 = commit
    bool stopped = false;
  };
  std::vector<Worker> workers(kTpccWorkers);

  for (int step = 0; step < 900; ++step) {
    if (FaultInjector::IsTripped()) break;
    if (step % 101 == 100) {
      (void)db->Checkpoint();
      continue;
    }
    Worker& w = workers[step % kTpccWorkers];
    if (w.stopped) continue;

    if (w.txn == nullptr) {
      w.txn = db->Begin();
      w.pay.w = 1 + static_cast<uint32_t>(rng() % cfg.num_warehouses);
      w.pay.d =
          1 + static_cast<uint32_t>(rng() % cfg.districts_per_warehouse);
      w.pay.amount = 1 + rng() % 5000;
      w.phase = 0;
      continue;
    }

    auto abort = [&] {
      (void)db->Abort(w.txn.get());
      w.txn.reset();
    };
    if (w.phase == 0) {
      TpccWorkload::WarehouseTuple tup;
      const uint64_t key = TpccWorkload::WarehouseKey(w.pay.w);
      if (!wt->Read(w.txn.get(), key, &tup).ok()) {
        abort();
        continue;
      }
      tup.ytd += static_cast<double>(w.pay.amount);
      if (!wt->Update(w.txn.get(), key, &tup).ok()) {
        abort();
        continue;
      }
      w.phase = 1;
    } else if (w.phase == 1) {
      TpccWorkload::DistrictTuple tup;
      const uint64_t key = TpccWorkload::DistrictKey(w.pay.w, w.pay.d);
      if (!dt->Read(w.txn.get(), key, &tup).ok()) {
        abort();
        continue;
      }
      tup.ytd += static_cast<double>(w.pay.amount);
      if (!dt->Update(w.txn.get(), key, &tup).ok()) {
        abort();
        continue;
      }
      w.phase = 2;
    } else {
      const Status st = db->Commit(w.txn.get());
      if (st.ok()) {
        ledger->committed_w[w.pay.w] += w.pay.amount;
        ledger->committed_d[TpccWorkload::DistrictKey(w.pay.w, w.pay.d)] +=
            w.pay.amount;
      } else {
        ledger->indeterminate.push_back(w.pay);
        w.stopped = true;
      }
      w.txn.reset();
    }
  }
  for (Worker& w : workers) w.txn.reset();
}

std::string ValidateTpcc(Database* db, const TpccConfig& cfg,
                         const TpccLedger& ledger) {
  std::string why;
  if (Status st = db->CheckIntegrity(&why); !st.ok()) {
    return "integrity: " + why;
  }
  Table* wt = db->GetTable(TpccWorkload::kWarehouse);
  Table* dt = db->GetTable(TpccWorkload::kDistrict);
  if (wt == nullptr || dt == nullptr) return "TPC-C tables missing";

  std::map<uint32_t, double> w_delta;
  std::map<uint64_t, double> d_delta;
  auto txn = db->Begin();
  for (uint32_t w = 1; w <= cfg.num_warehouses; ++w) {
    TpccWorkload::WarehouseTuple tup;
    const uint64_t key = TpccWorkload::WarehouseKey(w);
    if (!wt->Read(txn.get(), key, &tup).ok()) return "warehouse row lost";
    w_delta[w] = tup.ytd - ledger.base_w_ytd.at(key);
    for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
      TpccWorkload::DistrictTuple dtup;
      const uint64_t dkey = TpccWorkload::DistrictKey(w, d);
      if (!dt->Read(txn.get(), dkey, &dtup).ok()) return "district row lost";
      d_delta[dkey] = dtup.ytd - ledger.base_d_ytd.at(dkey);
    }
  }
  (void)db->Commit(txn.get());

  // Find an all-or-nothing assignment of the indeterminate payments that
  // explains every warehouse AND district delta simultaneously. The
  // per-transaction consistency (a payment lands in W iff it lands in D)
  // is exactly the money-conservation invariant.
  const size_t n = ledger.indeterminate.size();
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::map<uint32_t, double> want_w;
    std::map<uint64_t, double> want_d;
    for (const auto& [w, sum] : ledger.committed_w) {
      want_w[w] += static_cast<double>(sum);
    }
    for (const auto& [dkey, sum] : ledger.committed_d) {
      want_d[dkey] += static_cast<double>(sum);
    }
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        const Payment& p = ledger.indeterminate[i];
        want_w[p.w] += static_cast<double>(p.amount);
        want_d[TpccWorkload::DistrictKey(p.w, p.d)] +=
            static_cast<double>(p.amount);
      }
    }
    bool fits = true;
    for (const auto& [w, delta] : w_delta) fits &= delta == want_w[w];
    for (const auto& [dkey, delta] : d_delta) fits &= delta == want_d[dkey];
    if (fits) return "";
  }
  std::ostringstream err;
  err << "money not conserved: no all-or-nothing assignment of " << n
      << " indeterminate payment(s) explains the observed ytd deltas";
  for (const auto& [w, delta] : w_delta) {
    err << "\n  W" << w << " delta=" << delta
        << " committed=" << (ledger.committed_w.count(w)
                                 ? ledger.committed_w.at(w)
                                 : 0);
  }
  return err.str();
}

void RunTpccIteration(const FuzzConfig& c) {
  std::mt19937_64 rng(c.seed);
  DatabaseOptions opts = MakeOptions(c);
  // TPC-C's nine tables and load phase want a bit more buffer headroom.
  opts.dram_frames += 32;
  std::string trace;

  TpccConfig cfg;
  cfg.num_warehouses = 2;
  cfg.districts_per_warehouse = 3;
  cfg.customers_per_district = 12;
  cfg.num_items = 40;

  auto db = Database::Create(opts).MoveValue();
  TpccWorkload tpcc(db.get(), cfg);
  ASSERT_TRUE(tpcc.Load().ok());

  TpccLedger ledger;
  {
    Table* wt = db->GetTable(TpccWorkload::kWarehouse);
    Table* dt = db->GetTable(TpccWorkload::kDistrict);
    auto txn = db->Begin();
    for (uint32_t w = 1; w <= cfg.num_warehouses; ++w) {
      TpccWorkload::WarehouseTuple tup;
      const uint64_t key = TpccWorkload::WarehouseKey(w);
      ASSERT_TRUE(wt->Read(txn.get(), key, &tup).ok());
      ledger.base_w_ytd[key] = tup.ytd;
      for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
        TpccWorkload::DistrictTuple dtup;
        const uint64_t dkey = TpccWorkload::DistrictKey(w, d);
        ASSERT_TRUE(dt->Read(txn.get(), dkey, &dtup).ok());
        ledger.base_d_ytd[dkey] = dtup.ytd;
      }
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  if (c.checkpoint_after_load) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  FaultInjector::Options fopts;
  fopts.seed = c.seed ^ 0xF417;
  fopts.kill_after_ops = c.kill_after_ops;
  fopts.kill_point = c.kill_point;
  fopts.kill_point_hits = c.kill_point_hits;
  FaultInjector::Install(fopts);
  if (db->env().nvm != nullptr) {
    FaultInjector::Get()->AttachNvm(db->env().nvm.get());
  }

  RunTpccWorkload(db.get(), cfg, rng, &ledger);
  const std::string repro = FaultInjector::Get()->ToString();
  DatabaseEnv env = CrashAndRestore(std::move(db));

  if (c.crash_during_recovery) {
    FaultInjector::Options ropts;
    ropts.seed = c.seed ^ 0x2ECC;
    ropts.kill_after_ops = c.recovery_kill_after_ops;
    FaultInjector::Install(ropts);
    if (env.nvm != nullptr) FaultInjector::Get()->AttachNvm(env.nvm.get());
  }
  auto db_r = RecoverWithRetries(opts, std::move(env), &trace);
  ASSERT_TRUE(db_r.ok()) << "recovery failed: " << db_r.status().ToString()
                         << "\n  config: " << c.ToString()
                         << "\n  injector: " << repro << trace;
  db = db_r.MoveValue();

  if (c.double_crash) {
    env = Database::Crash(std::move(db));
    db_r = RecoverWithRetries(opts, std::move(env), &trace);
    ASSERT_TRUE(db_r.ok()) << "re-recovery failed: "
                           << db_r.status().ToString()
                           << "\n  config: " << c.ToString() << trace;
    db = db_r.MoveValue();
  }

  const std::string violation = ValidateTpcc(db.get(), cfg, ledger);
  ASSERT_TRUE(violation.empty())
      << violation << "\n  config: " << c.ToString()
      << "\n  injector: " << repro << trace;
}

TEST(CrashFuzz, TpccPaymentMoneyConservation) {
  LatencySimulator::SetScale(0.0);
  const uint64_t iters = EnvOr("SPITFIRE_FUZZ_ITERS", 12);
  const uint64_t base_seed = EnvOr("SPITFIRE_FUZZ_SEED", 0xC0FFEE);
  for (uint64_t it = 0; it < iters; ++it) {
    const FuzzConfig c = DrawConfig(base_seed, it);
    SCOPED_TRACE("iter " + std::to_string(it) + " " + c.ToString());
    RunTpccIteration(c);
    if (::testing::Test::HasFatalFailure()) break;
  }
  LatencySimulator::SetScale(1.0);
}

// ---------------------------------------------------------------------------
// Pinned-seed regression tests for the specific latent bugs the fuzzer
// flushed out (each failed before its fix).
// ---------------------------------------------------------------------------

class CrashFuzzRegression : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencySimulator::SetScale(0.0);
    opts_.dram_frames = 48;
    opts_.nvm_frames = 96;
    opts_.policy = MigrationPolicy::Lazy();
    opts_.enable_wal = true;
    opts_.log_staging_size = 1 << 20;
  }
  void TearDown() override {
    if (FaultInjector::Get() != nullptr) FaultInjector::Uninstall();
    LatencySimulator::SetScale(1.0);
  }
  DatabaseOptions opts_;
};

struct Cell {
  uint64_t v;
  uint64_t pad[7];
};

// Bug 1 (WAL drain ordering): the drain used to consume the NVM staging
// buffer BEFORE the bytes were durable in the log file — a crash between
// the consume and the file write lost committed records. The protocol is
// now Peek -> file write -> persist -> header -> MarkDrained; killing the
// device right after the file write leaves the staged bytes in place for
// the next drain, and the commit must survive.
TEST_F(CrashFuzzRegression, DrainKilledAfterFileWriteLosesNothing) {
  auto db = Database::Create(opts_).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Cell)).value();
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 16; ++k) {
      Cell c{k + 100, {}};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  FaultInjector::Options fopts;
  fopts.kill_point = "wal.drain.file_written";
  FaultInjector::Install(fopts);
  FaultInjector::Get()->AttachNvm(db->env().nvm.get());
  ASSERT_FALSE(db->log_manager()->Drain().ok());  // killed mid-drain
  ASSERT_TRUE(FaultInjector::IsTripped());
  DatabaseEnv env = CrashAndRestore(std::move(db));

  auto db2 = Database::Recover(opts_, std::move(env)).MoveValue();
  Table* t2 = db2->GetTable(1);
  auto txn = db2->Begin();
  for (uint64_t k = 0; k < 16; ++k) {
    Cell c{};
    ASSERT_TRUE(t2->Read(txn.get(), k, &c).ok()) << k;
    EXPECT_EQ(c.v, k + 100);
  }
  ASSERT_TRUE(db2->Commit(txn.get()).ok());
}

// Same protocol, killed one step later: the log-file header (durable
// length) was updated but the staging consume never ran. Recovery must
// tolerate the overlap — the staged bytes re-drain over identical file
// content at identical offsets.
TEST_F(CrashFuzzRegression, DrainKilledAfterHeaderUpdateIsIdempotent) {
  auto db = Database::Create(opts_).MoveValue();
  Table* t = db->CreateTable(1, sizeof(Cell)).value();
  {
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 16; ++k) {
      Cell c{k + 200, {}};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  FaultInjector::Options fopts;
  fopts.kill_point = "wal.drain.header_written";
  FaultInjector::Install(fopts);
  FaultInjector::Get()->AttachNvm(db->env().nvm.get());
  (void)db->log_manager()->Drain();
  ASSERT_TRUE(FaultInjector::IsTripped());
  DatabaseEnv env = CrashAndRestore(std::move(db));

  auto db2 = Database::Recover(opts_, std::move(env)).MoveValue();
  Table* t2 = db2->GetTable(1);
  auto txn = db2->Begin();
  for (uint64_t k = 0; k < 16; ++k) {
    Cell c{};
    ASSERT_TRUE(t2->Read(txn.get(), k, &c).ok()) << k;
    EXPECT_EQ(c.v, k + 200);
  }
  ASSERT_TRUE(db2->Commit(txn.get()).ok());
}

// Bug 2 (torn heap page trusted): recovery used to adopt any SSD page
// whose header magic looked right — a torn checkpoint write could smuggle
// a half-written page image into the heap. Pages are now checksummed at
// the SSD-write chokepoint; a mismatch quarantines the page and redo
// rebuilds its content from the (never-truncated) log.
TEST_F(CrashFuzzRegression, TornHeapPageIsQuarantinedAndRedone) {
  opts_.nvm_frames = 0;  // keep all pages SSD-backed
  opts_.policy = MigrationPolicy::Eager();
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 64; ++k) {
      Cell c{k + 300, {}};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    env = Database::Crash(std::move(db));
  }
  // Tear a heap page after the fact: flip payload bytes of the first page
  // that carries table 1's heap type, leaving header and checksum intact.
  const page_id_t ssd_pages =
      static_cast<page_id_t>(env.db_ssd->capacity() / kPageSize);
  page_id_t victim = kInvalidPageId;
  for (page_id_t pid = 1; pid < ssd_pages && victim == kInvalidPageId;
       ++pid) {
    PageHeader hdr;
    ASSERT_TRUE(env.db_ssd->Read(pid * kPageSize, &hdr, sizeof(hdr)).ok());
    if (hdr.IsValid() && hdr.page_id == pid && IsHeapPageType(hdr.page_type)) {
      ASSERT_NE(hdr.checksum, 0u) << "flushed page was not stamped";
      victim = pid;
    }
  }
  ASSERT_NE(victim, kInvalidPageId);
  const uint64_t garbage = 0xDEADBEEFDEADBEEFull;
  ASSERT_TRUE(env.db_ssd
                  ->Write(victim * kPageSize + kPageSize / 2, &garbage,
                          sizeof(garbage))
                  .ok());

  auto db = Database::Recover(opts_, std::move(env)).MoveValue();
  EXPECT_EQ(db->recovery_stats().quarantined_pages, 1u);
  Table* t = db->GetTable(1);
  auto txn = db->Begin();
  for (uint64_t k = 0; k < 64; ++k) {
    Cell c{};
    ASSERT_TRUE(t->Read(txn.get(), k, &c).ok()) << k;
    EXPECT_EQ(c.v, k + 300);
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
  std::string why;
  EXPECT_TRUE(db->CheckIntegrity(&why).ok()) << why;
}

// Bug 3 (torn catalog trusted): the catalog was a single unversioned
// blob behind one magic word — a torn flush of page 0 could brick the
// database or resurrect garbage table entries. It is now two versioned,
// checksummed slots; tearing the newest slot falls back to the previous
// catalog version, and only destroying BOTH slots is unrecoverable (and
// reported cleanly).
TEST_F(CrashFuzzRegression, TornCatalogFallsBackToPreviousSlot) {
  // SSD-only: with an NVM tier the catalog would be NVM-resident and
  // recovery would never consult the torn SSD image.
  opts_.nvm_frames = 0;
  opts_.policy = MigrationPolicy::Eager();
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t1 = db->CreateTable(1, sizeof(Cell)).value();
    {
      auto txn = db->Begin();
      Cell c{7, {}};
      ASSERT_TRUE(t1->Insert(txn.get(), 1, &c).ok());
      ASSERT_TRUE(db->Commit(txn.get()).ok());
    }
    // Catalog versions so far: 1 (Create), 2 (CreateTable 1). Version 3
    // (CreateTable 2) lands in slot 1.
    (void)db->CreateTable(2, sizeof(Cell)).value();
    ASSERT_TRUE(db->Checkpoint().ok());
    env = Database::Crash(std::move(db));
  }
  // Tear the newest slot (slot 1 = parity of version 3).
  const uint64_t slot1_off = kPageHeaderSize + 2048;
  const uint64_t garbage = 0x5A5A5A5A5A5A5A5Aull;
  ASSERT_TRUE(env.db_ssd->Write(slot1_off + 4, &garbage, sizeof(garbage)).ok());

  auto db = Database::Recover(opts_, std::move(env)).MoveValue();
  // Fallback catalog: table 1 (and its committed data) present; table 2's
  // creation — whose durability the torn write interrupted — is gone.
  Table* t1 = db->GetTable(1);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(db->GetTable(2), nullptr);
  auto txn = db->Begin();
  Cell c{};
  ASSERT_TRUE(t1->Read(txn.get(), 1, &c).ok());
  EXPECT_EQ(c.v, 7u);
  ASSERT_TRUE(db->Commit(txn.get()).ok());

  // Destroying both slots must fail cleanly, not crash.
  DatabaseEnv env2 = Database::Crash(std::move(db));
  std::vector<std::byte> junk(2 * 2048 + kPageHeaderSize,
                              std::byte{0x5A});
  ASSERT_TRUE(env2.db_ssd->Write(0, junk.data(), junk.size()).ok());
  auto db_r = Database::Recover(opts_, std::move(env2));
  ASSERT_FALSE(db_r.ok());
  EXPECT_TRUE(db_r.status().IsCorruption()) << db_r.status().ToString();
}

// Satellite 1: a crash during the post-recovery Checkpoint() (the tail of
// Database::RunRecovery) must leave the database re-recoverable —
// crash-recover-crash-recover converges.
TEST_F(CrashFuzzRegression, CrashDuringRecoveryCheckpointIsRecoverable) {
  DatabaseEnv env;
  {
    auto db = Database::Create(opts_).MoveValue();
    Table* t = db->CreateTable(1, sizeof(Cell)).value();
    auto txn = db->Begin();
    for (uint64_t k = 0; k < 32; ++k) {
      Cell c{k + 400, {}};
      ASSERT_TRUE(t->Insert(txn.get(), k, &c).ok());
    }
    ASSERT_TRUE(db->Commit(txn.get()).ok());
    env = Database::Crash(std::move(db));
  }
  // First recovery attempt: kill the device at the final checkpoint.
  FaultInjector::Options fopts;
  fopts.kill_point = "recovery.before_checkpoint";
  FaultInjector::Install(fopts);
  FaultInjector::Get()->AttachNvm(env.nvm.get());
  DatabaseEnv back;
  auto db_r = Database::Recover(opts_, std::move(env), &back);
  ASSERT_FALSE(db_r.ok());
  ASSERT_TRUE(FaultInjector::IsTripped());
  FaultInjector::Get()->RestoreNvm();
  FaultInjector::Uninstall();

  // Second recovery, no faults: must succeed with all data.
  auto db = Database::Recover(opts_, std::move(back)).MoveValue();
  Table* t = db->GetTable(1);
  auto txn = db->Begin();
  for (uint64_t k = 0; k < 32; ++k) {
    Cell c{};
    ASSERT_TRUE(t->Read(txn.get(), k, &c).ok()) << k;
    EXPECT_EQ(c.v, k + 400);
  }
  ASSERT_TRUE(db->Commit(txn.get()).ok());
  std::string why;
  EXPECT_TRUE(db->CheckIntegrity(&why).ok()) << why;
}

}  // namespace
}  // namespace spitfire
