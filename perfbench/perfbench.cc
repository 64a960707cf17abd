// End-to-end benchmark of the engine: committed transactions through
// Database with the WAL on, closed-loop from one process, one workload per
// invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs one untraced window of <s> seconds and reports the
// end-to-end metrics. --trace 1 runs an untraced and then a traced window
// of <s>/2 seconds each: counters come from the untraced window's start/end
// snapshots, layer times from the traced one. Every layer is measured from
// outside: the bench times its own calls into public engine functions and
// diffs public counters. Nothing in src/ is instrumented.
//
// The last line on stdout is one JSON object (metrics, checks, config);
// run.py wraps it for callers. Progress goes to stderr. Exit code 0 means
// every correctness check passed, 1 a failed check, 2 bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "db/database.h"
#include "storage/perf_model.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace spitfire::perfbench {
namespace {

// Side probes (B+Tree lookup, resident FetchPage) run after every N-th
// transaction of a driver thread in the traced window.
constexpr uint64_t kProbeEvery = 64;
// A run fails when the log device ends fuller than this.
constexpr double kLogFillGuard = 0.9;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kYcsb, kTpcc };

struct Spec {
  const char* name;  // BENCHMARK.json says why each workload is there
  Kind kind;
  // Closed-loop driver threads. TPC-C runs one: with two, the full mix
  // occasionally loses a committed key from a B+Tree under concurrent
  // inserts, and the integrity check fails the run.
  int workers;
  int ring_depth;  // 0 = blocking executor (WorkloadDriver::Run)
  double latency_scale;
  size_t dram_frames;
  size_t nvm_frames;
  MigrationPolicy policy;
  uint64_t ssd_mb;
  uint64_t ycsb_tuples;
  uint32_t warehouses;
  uint64_t warmup_txns;
  // Log device sizing: the most one run can write is the load plus this
  // rate over warm-up and both measured windows (see LogCapacity).
  uint64_t log_load_mb;
  uint64_t log_mb_per_s;
};

const Spec kSpecs[] = {
    // name, kind, workers, ring, latency scale, DRAM frames, NVM frames,
    // policy, SSD MB, YCSB tuples, warehouses, warm-up txns, log MB load,
    // log MB/s
    {"ycsb-hot", Kind::kYcsb, 2, 0, 0.0, 4096, 1024, MigrationPolicy::Eager(),
     128, 20'000, 0, 60'000, 64, 130},
    {"ycsb-spill", Kind::kYcsb, 2, 8, 1.0, 256, 512, MigrationPolicy::Lazy(),
     256, 60'000, 0, 30'000, 128, 64},
    {"tpcc-nvm", Kind::kTpcc, 1, 0, 1.0, 128, 2048, MigrationPolicy::Eager(),
     256, 0, 4, 3'000, 64, 64},
};

// One loaded, warmed database with its workload object.
struct Instance {
  Instance() = default;
  // Destroying a Database whose I/O scheduler still holds queued read-ahead
  // tasks can livelock: shutdown runs each task, its install evicts a dirty
  // page, the write is refused because the scheduler is stopping, and the
  // frame allocator retries forever. Flushing first leaves only clean
  // victims, which need no write.
  ~Instance() {
    if (db == nullptr) return;
    (void)db->buffer_manager()->FlushAll(/*include_nvm=*/true);
    (void)db->buffer_manager()->DrainIo();
  }
  SPITFIRE_DISALLOW_COPY_AND_MOVE(Instance);

  std::unique_ptr<Database> db;  // declared first: outlives the workloads
  std::unique_ptr<YcsbWorkload> ycsb;
  std::unique_ptr<TpccWorkload> tpcc;

  BTree* probe_index() {
    return db->GetTable(ycsb != nullptr ? ycsb->config().table_id
                                        : TpccWorkload::kStock)
        ->index();
  }
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  return SplitMix(SplitMix(seed) ^ SplitMix(stream * 0x10001 + index));
}

uint64_t LogCapacity(const Spec& s, double seconds) {
  // Warm-up counts as two more seconds at the run's rate.
  const double mb = static_cast<double>(s.log_load_mb) +
                    static_cast<double>(s.log_mb_per_s) * (seconds + 2.0);
  return static_cast<uint64_t>(std::ceil(mb)) * 1024 * 1024;
}

DatabaseOptions MakeOptions(const Spec& s, double seconds) {
  DatabaseOptions o;
  o.dram_frames = s.dram_frames;
  o.nvm_frames = s.nvm_frames;
  o.num_shards = 1;  // host-independent: auto would follow nproc
  o.policy = s.policy;
  o.ssd_capacity = s.ssd_mb * 1024 * 1024;
  o.enable_wal = true;
  o.log_ssd_capacity = LogCapacity(s, seconds);
  return o;
}

// Runs `n` transactions of the workload's own blocking procedure on
// `workers` threads.
Status WarmUp(Instance& in, int workers, uint64_t n, uint64_t seed) {
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(StreamSeed(seed, 1, static_cast<uint64_t>(t)));
      for (uint64_t i = 0; i < n / workers; ++i) {
        const Status st = in.ycsb != nullptr ? in.ycsb->RunTransaction(rng)
                                             : in.tpcc->RunTransaction(rng);
        if (!st.ok() && !st.IsAborted() && !st.IsBusy()) failed = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  return failed ? Status::IoError("warm-up transaction failed") : Status::OK();
}

// Create (device allocation included), load, and warm up. Runs with the
// latency simulation off.
Result<std::unique_ptr<Instance>> Setup(const Spec& s, double seconds,
                                        uint64_t seed) {
  auto in = std::make_unique<Instance>();
  auto db_r = Database::Create(MakeOptions(s, seconds));
  SPITFIRE_RETURN_NOT_OK(db_r.status());
  in->db = db_r.MoveValue();
  if (s.kind == Kind::kYcsb) {
    YcsbConfig cfg = YcsbConfig::Balanced(s.ycsb_tuples);
    cfg.zipf_theta = 0.3;
    in->ycsb = std::make_unique<YcsbWorkload>(in->db.get(), cfg);
    SPITFIRE_RETURN_NOT_OK(in->ycsb->Load());
    SPITFIRE_RETURN_NOT_OK(in->ycsb->WarmUp());
  } else {
    TpccConfig cfg;
    cfg.num_warehouses = s.warehouses;
    in->tpcc = std::make_unique<TpccWorkload>(in->db.get(), cfg);
    SPITFIRE_RETURN_NOT_OK(in->tpcc->Load());
  }
  SPITFIRE_RETURN_NOT_OK(WarmUp(*in, s.workers, s.warmup_txns, seed));
  SPITFIRE_RETURN_NOT_OK(in->db->buffer_manager()->DrainIo());
  return in;
}

// ---------------------------------------------------------------------------
// Per-window collection
// ---------------------------------------------------------------------------

// Timed spans, each kept as exact nanosecond samples.
enum Span : int {
  kBegin,
  kRead,
  kUpdate,
  kCommit,
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
  kLookup,
  kFetchHit,
  kNumSpans,
};
const char* const kSpanNames[kNumSpans] = {
    "begin",    "read",        "update",      "commit",
    "new_order", "payment",    "order_status", "delivery",
    "stock_level", "lookup",   "fetch_hit",
};

// Transaction types with their own abort ratio.
enum TxnType : int {
  kTNewOrder,
  kTPayment,
  kTOrderStatus,
  kTDelivery,
  kTStockLevel,
  kTYcsbUpdate,
  kTYcsbRead,
  kNumTypes,
};
// TpccTxn maps a TPC-C type to its span by offset.
static_assert(kStockLevel - kNewOrder == kTStockLevel - kTNewOrder);

// State of one worker thread (blocking executor) or one ring slot.
struct Worker {
  explicit Worker(uint64_t seed) : rng(seed) {}

  Xoshiro256 rng;
  // Begin→commit of committed transactions: the workload's main write
  // transaction (YCSB read-modify-write, TPC-C New-Order), and the others.
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> other_latency_ns;
  uint64_t failed = 0;               // errors other than conflicts
  uint64_t committed[kNumTypes] = {};
  uint64_t aborted[kNumTypes] = {};
  // Traced window only.
  std::vector<uint64_t> spans[kNumSpans];
  uint64_t covered_ns = 0;  // span time inside committed transactions
  uint64_t txn_ns = 0;      // latency of those transactions
  uint64_t parks = 0;       // ring: WouldBlock returns, committed txns
  uint64_t step_ns = 0;     // ring: time inside Step, committed txns
  uint64_t parked_ns = 0;   // ring: WouldBlock → next Step, committed txns
};

// Owns the Workers of one measured window. The driver's threads bind to a
// Worker on first use through a thread_local keyed by the window's epoch.
class Collector {
 public:
  Collector(bool trace, uint64_t seed, uint64_t window)
      : trace_(trace), seed_(seed), window_(window), epoch_(++next_epoch_) {}

  bool trace() const { return trace_; }

  Worker* Register() {
    std::lock_guard<std::mutex> g(mu_);
    workers_.push_back(std::make_unique<Worker>(
        StreamSeed(seed_, 2 + window_, workers_.size())));
    workers_.back()->latency_ns.reserve(1 << 16);
    return workers_.back().get();
  }

  Worker* ForThisThread() {
    thread_local Worker* worker = nullptr;
    thread_local uint64_t epoch = 0;
    if (epoch != epoch_) {
      worker = Register();
      epoch = epoch_;
    }
    return worker;
  }

  const std::vector<std::unique_ptr<Worker>>& workers() const {
    return workers_;
  }

 private:
  static inline std::atomic<uint64_t> next_epoch_{0};
  const bool trace_;
  const uint64_t seed_;
  const uint64_t window_;
  const uint64_t epoch_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

void RecordCommit(Worker* w, bool main, uint64_t ns) {
  (main ? w->latency_ns : w->other_latency_ns).push_back(ns);
}

void Count(Worker* w, TxnType type, const Status& st) {
  if (st.ok()) {
    ++w->committed[type];
  } else if (st.IsAborted() || st.IsBusy()) {
    ++w->aborted[type];
  } else {
    ++w->failed;
  }
}

// Sampled side probes, outside any transaction: a B+Tree point lookup of a
// random existing key, then a FetchPage of the heap page it points to
// (fetched once to make it resident, timed on the second fetch).
void Probe(Instance& in, Worker* w) {
  uint64_t key;
  if (in.ycsb != nullptr) {
    key = w->rng.NextUint64(in.ycsb->config().num_tuples);
  } else {
    const TpccConfig& c = in.tpcc->config();
    key = TpccWorkload::StockKey(
        1 + static_cast<uint32_t>(w->rng.NextUint64(c.num_warehouses)),
        1 + static_cast<uint32_t>(w->rng.NextUint64(c.num_items)));
  }
  uint64_t rid = 0;
  const uint64_t t0 = NowNanos();
  const Status st = in.probe_index()->Lookup(key, &rid);
  const uint64_t t1 = NowNanos();
  if (!st.ok()) return;
  w->spans[kLookup].push_back(t1 - t0);
  BufferManager* bm = in.db->buffer_manager();
  {
    auto g = bm->FetchPage(RidPage(rid), AccessIntent::kRead);
    if (!g.ok()) return;
  }
  const uint64_t t2 = NowNanos();
  auto g = bm->FetchPage(RidPage(rid), AccessIntent::kRead);
  const uint64_t t3 = NowNanos();
  if (g.ok()) w->spans[kFetchHit].push_back(t3 - t2);
}

// Paced per driver thread, which runs one worker or a whole ring.
void MaybeProbe(Instance& in, Collector& col, Worker* w) {
  thread_local uint64_t finished = 0;
  if (col.trace() && ++finished % kProbeEvery == 0) Probe(in, w);
}

// ycsb-hot: one YCSB-BA transaction, calling Database and Table directly so
// each call can be timed.
Status YcsbTxn(Instance& in, Collector& col) {
  Worker* w = col.ForThisThread();
  YcsbWorkload& y = *in.ycsb;
  Database* db = in.db.get();
  const uint64_t key = y.SampleKey(w->rng);
  const bool is_read = w->rng.Bernoulli(y.config().read_ratio);
  const uint64_t value = w->rng.Next();
  std::byte tuple[YcsbWorkload::kTupleSize];
  const bool trace = col.trace();
  uint64_t t[5] = {NowNanos(), 0, 0, 0, 0};
  int n = 1;
  const auto mark = [&] {
    if (trace) t[n++] = NowNanos();
  };

  auto txn = db->Begin();
  mark();
  Status st = y.table()->Read(txn.get(), key, tuple);
  mark();
  if (st.ok() && !is_read) {
    std::memcpy(tuple + (key % YcsbWorkload::kColumns) *
                            YcsbWorkload::kColumnSize,
                &value, sizeof(value));
    st = y.table()->Update(txn.get(), key, tuple);
    mark();
  }
  if (st.ok()) {
    st = db->Commit(txn.get());
    mark();
  } else {
    (void)db->Abort(txn.get());
    if (!st.IsAborted()) st = Status::Aborted(st.message());
  }
  const uint64_t end = NowNanos();
  Count(w, is_read ? kTYcsbRead : kTYcsbUpdate, st);
  if (st.ok()) {
    RecordCommit(w, !is_read, end - t[0]);
    if (trace) {
      const Span order[4] = {kBegin, kRead, is_read ? kCommit : kUpdate,
                             kCommit};
      for (int i = 1; i < n; ++i) w->spans[order[i - 1]].push_back(t[i] - t[i - 1]);
      w->covered_ns += t[n - 1] - t[0];
      w->txn_ns += end - t[0];
    }
  }
  MaybeProbe(in, col, w);
  return st;
}

// tpcc-nvm: one transaction of the standard mix, timed as a whole.
Status TpccTxn(Instance& in, Collector& col) {
  Worker* w = col.ForThisThread();
  TpccWorkload& tp = *in.tpcc;
  const TpccConfig& c = tp.config();
  const uint32_t pick = static_cast<uint32_t>(w->rng.NextUint64(100));
  const uint32_t bounds[4] = {
      c.pct_new_order, c.pct_new_order + c.pct_payment,
      c.pct_new_order + c.pct_payment + c.pct_order_status,
      c.pct_new_order + c.pct_payment + c.pct_order_status + c.pct_delivery};
  const TxnType type = pick < bounds[0]   ? kTNewOrder
                       : pick < bounds[1] ? kTPayment
                       : pick < bounds[2] ? kTOrderStatus
                       : pick < bounds[3] ? kTDelivery
                                          : kTStockLevel;
  const uint64_t t0 = NowNanos();
  Status st;
  switch (type) {
    case kTNewOrder: st = tp.NewOrder(w->rng); break;
    case kTPayment: st = tp.Payment(w->rng); break;
    case kTOrderStatus: st = tp.OrderStatus(w->rng); break;
    case kTDelivery: st = tp.Delivery(w->rng); break;
    default: st = tp.StockLevel(w->rng); break;
  }
  const uint64_t t1 = NowNanos();
  Count(w, type, st);
  if (st.ok()) {
    RecordCommit(w, type == kTNewOrder, t1 - t0);
    if (col.trace()) {
      w->spans[kNewOrder + static_cast<int>(type)].push_back(t1 - t0);
      w->covered_ns += t1 - t0;
      w->txn_ns += t1 - t0;
    }
  }
  MaybeProbe(in, col, w);
  return st;
}

// ycsb-spill: decorates the engine's YcsbTxnMachine. Draws from its own
// seeded generator instead of the driver's per-thread one, and records
// begin→commit latency (parked time included); traced, also the time
// inside Step and the parked time between a WouldBlock and the resume.
class TracedMachine : public TxnMachine {
 public:
  TracedMachine(Instance* in, Collector* col)
      : in_(in), col_(col), w_(col->Register()), inner_(in->ycsb.get()) {}

  Status Step(Xoshiro256& /*driver_rng*/, FetchContext* ctx) override {
    const uint64_t enter = NowNanos();
    if (!inner_.in_flight()) {
      begin_ns_ = enter;
      begin_rng_ = w_->rng;
      parks_ = step_ns_ = parked_ns_ = 0;
    } else {
      ++parks_;
      parked_ns_ += enter - park_ns_;
    }
    const Status st = inner_.Step(w_->rng, ctx);
    const uint64_t exit = NowNanos();
    step_ns_ += exit - enter;
    if (st.IsWouldBlock()) {
      park_ns_ = exit;
      return st;
    }
    // The machine draws the key and then read-or-update from the generator
    // it is handed when a transaction begins; replaying those two draws
    // tells which kind this transaction was.
    Xoshiro256 replay = begin_rng_;
    (void)in_->ycsb->SampleKey(replay);
    const bool is_read = replay.Bernoulli(in_->ycsb->config().read_ratio);
    Count(w_, is_read ? kTYcsbRead : kTYcsbUpdate, st);
    if (st.ok()) {
      RecordCommit(w_, !is_read, exit - begin_ns_);
      if (col_->trace()) {
        w_->parks += parks_;
        w_->step_ns += step_ns_;
        w_->parked_ns += parked_ns_;
        w_->covered_ns += step_ns_ + parked_ns_;
        w_->txn_ns += exit - begin_ns_;
      }
    }
    MaybeProbe(*in_, *col_, w_);
    return st;
  }
  void Cancel() override { inner_.Cancel(); }
  bool in_flight() const override { return inner_.in_flight(); }

 private:
  Instance* in_;
  Collector* col_;
  Worker* w_;
  YcsbTxnMachine inner_;
  Xoshiro256 begin_rng_;
  uint64_t begin_ns_ = 0, park_ns_ = 0;
  uint64_t parks_ = 0, step_ns_ = 0, parked_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

struct DevCounters {
  uint64_t reads = 0, bytes_written = 0, media_bytes_written = 0;
};

DevCounters Read(const Device* d) {
  if (d == nullptr) return {};
  return {d->stats().num_reads.load(), d->stats().bytes_written.load(),
          d->stats().media_bytes_written.load()};
}

struct Counters {
  BufferStatsSnapshot buf;
  uint64_t io_read_ops = 0, io_reads_deduped = 0, io_writes_staged = 0,
           io_write_ops = 0;
  DevCounters db_ssd, log_ssd, nvm;
  uint64_t next_lsn = 0, durable_gen = 0;
  double cpu_s = 0;
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

Counters Snap(Database* db) {
  Counters c;
  BufferManager* bm = db->buffer_manager();
  c.buf = bm->stats().Snapshot();
  if (IoScheduler* io = bm->io_scheduler(); io != nullptr) {
    c.io_read_ops = io->stats().read_ops.load();
    c.io_reads_deduped = io->stats().reads_deduped.load();
    c.io_writes_staged = io->stats().writes_staged.load();
    c.io_write_ops = io->stats().write_ops.load();
  }
  c.db_ssd = Read(db->env().db_ssd.get());
  c.log_ssd = Read(db->env().log_ssd.get());
  c.nvm = Read(db->env().nvm.get());
  c.next_lsn = db->log_manager()->next_lsn();
  c.durable_gen = db->log_manager()->durable_generation();
  c.cpu_s = CpuSeconds();
  return c;
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

struct Window {
  DriverResult driver;
  Counters before, after;
  std::unique_ptr<Collector> col;

  uint64_t Sum(uint64_t Worker::*f) const {
    uint64_t s = 0;
    for (const auto& w : col->workers()) s += (*w).*f;
    return s;
  }
  std::vector<uint64_t> Latencies(bool main) const {
    std::vector<uint64_t> all;
    for (const auto& w : col->workers()) {
      const auto& v = main ? w->latency_ns : w->other_latency_ns;
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  std::vector<uint64_t> SpanSamples(Span s) const {
    std::vector<uint64_t> all;
    for (const auto& w : col->workers()) {
      all.insert(all.end(), w->spans[s].begin(), w->spans[s].end());
    }
    return all;
  }
  uint64_t TypeCount(TxnType t, bool committed) const {
    uint64_t s = 0;
    for (const auto& w : col->workers()) {
      s += committed ? w->committed[t] : w->aborted[t];
    }
    return s;
  }
};

Window RunWindow(Instance& in, const Spec& s, double seconds, bool trace,
                 uint64_t seed, uint64_t index) {
  Window win;
  win.col = std::make_unique<Collector>(trace, seed, index);
  Collector* col = win.col.get();
  Instance* inp = &in;
  win.before = Snap(in.db.get());
  LatencySimulator::SetScale(s.latency_scale);
  if (s.ring_depth > 0) {
    win.driver = WorkloadDriver::RunInterleaved(
        in.db->buffer_manager(), s.workers, seconds, s.ring_depth,
        [inp, col] { return std::make_unique<TracedMachine>(inp, col); });
  } else if (s.kind == Kind::kYcsb) {
    win.driver = WorkloadDriver::Run(
        s.workers, seconds,
        [inp, col](Xoshiro256&) { return YcsbTxn(*inp, *col); });
  } else {
    win.driver = WorkloadDriver::Run(
        s.workers, seconds,
        [inp, col](Xoshiro256&) { return TpccTxn(*inp, *col); });
  }
  LatencySimulator::SetScale(0.0);
  win.after = Snap(in.db.get());
  return win;
}

// ---------------------------------------------------------------------------
// Correctness checks on the quiescent database
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

Check CheckMoney(Instance& in) {
  Database* db = in.db.get();
  const TpccConfig& c = in.tpcc->config();
  auto txn = db->Begin();
  std::string detail;
  bool ok = true;
  for (uint32_t w = 1; w <= c.num_warehouses && ok; ++w) {
    TpccWorkload::WarehouseTuple wt{};
    Status st = db->GetTable(TpccWorkload::kWarehouse)
                    ->Read(txn.get(), TpccWorkload::WarehouseKey(w), &wt);
    double d_sum = 0;
    for (uint32_t d = 1; d <= c.districts_per_warehouse && st.ok(); ++d) {
      TpccWorkload::DistrictTuple dt{};
      st = db->GetTable(TpccWorkload::kDistrict)
               ->Read(txn.get(), TpccWorkload::DistrictKey(w, d), &dt);
      d_sum += dt.ytd;
    }
    char buf[160];
    if (!st.ok()) {
      std::snprintf(buf, sizeof(buf), "warehouse %u: %s", w,
                    st.ToString().c_str());
      ok = false;
    } else if (std::fabs(wt.ytd - d_sum) > 1e-6 * std::fabs(wt.ytd)) {
      std::snprintf(buf, sizeof(buf), "warehouse %u: W.ytd=%.4f sum(D.ytd)=%.4f",
                    w, wt.ytd, d_sum);
      ok = false;
    }
    if (!ok) detail = buf;
  }
  (void)db->Commit(txn.get());
  return {"tpcc_money_conserved", ok, detail};
}

std::vector<Check> RunChecks(Instance& in, const Spec& s, double abort_ratio) {
  std::vector<Check> checks;
  Database* db = in.db.get();
  std::string why;
  const Status integ = db->CheckIntegrity(&why);
  checks.push_back({"integrity", integ.ok(),
                    integ.ok() ? "" : integ.ToString() + " " + why});
  if (in.ycsb != nullptr) {
    auto n = in.ycsb->table()->index()->Count();
    const bool ok = n.ok() && n.value() == in.ycsb->config().num_tuples;
    checks.push_back({"ycsb_index_count", ok,
                      n.ok() ? std::to_string(n.value()) + " keys"
                             : n.status().ToString()});
  } else {
    checks.push_back(CheckMoney(in));
  }
  const double fill =
      static_cast<double>(db->log_manager()->next_lsn()) /
      static_cast<double>(db->env().log_ssd->capacity());
  checks.push_back({"log_fill_below_guard", fill < kLogFillGuard,
                    std::to_string(fill)});
  if (std::strcmp(s.name, "ycsb-hot") == 0) {
    checks.push_back({"ycsb_hot_abort_ratio_below_1pct", abort_ratio < 0.01,
                      std::to_string(abort_ratio)});
  }
  return checks;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double Div(double a, double b) { return b > 0 ? a / b : 0.0; }

// Exact percentile (nearest rank) of nanosecond samples, divided by
// `unit_ns` (microseconds by default); 0 for no samples.
double Percentile(std::vector<uint64_t> v, double pct, double unit_ns = 1e3) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]) / unit_ns;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    out_ += out_.empty() ? "" : ", ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"%s\"}",
                  value, unit);
    out_ += "\"" + name + "\": " + buf;
  }
  const std::string& json() const { return out_; }

 private:
  std::string out_;
};

long PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void AddEndToEnd(Metrics& m, const Window& w, double setup_s) {
  const double committed = static_cast<double>(w.driver.committed);
  // Latency of the main write transaction only: the mixes put the median
  // of all transactions on the gap between a fast and a slow kind (YCSB
  // reads vs updates, TPC-C Payment vs New-Order), where it flips between
  // them from run to run.
  const auto lat = w.Latencies(/*main=*/true);
  const auto delta = [&](DevCounters Counters::*dev) {
    return static_cast<double>((w.after.*dev).bytes_written -
                               (w.before.*dev).bytes_written);
  };
  m.Add("txn_per_s", w.driver.Throughput(), "txn/s");
  m.Add("commit_p50_us", Percentile(lat, 50), "us");
  // p95, not p99: on ycsb-hot the p99 falls among the writers that queue
  // behind a synchronous log drain, and moves with the host's memory
  // bandwidth (txn.commit_p99_us reports it without a bound).
  m.Add("commit_p95_us", Percentile(lat, 95), "us");
  // 1 - abort ratio: aborts are rare on YCSB (~1e-4), so their ratio is too
  // noisy to bound; its complement is not. The raw ratio is in the detail
  // line and in the traced run (txn.abort_ratio).
  m.Add("commit_ratio",
        Div(committed, static_cast<double>(w.driver.committed +
                                           w.driver.aborted)),
        "ratio");
  m.Add("setup_s", setup_s, "s");
  m.Add("cpu_us_per_txn",
        Div((w.after.cpu_s - w.before.cpu_s) * 1e6, committed), "us");
  m.Add("nvm_bytes_per_txn",
        Div(static_cast<double>(w.after.nvm.media_bytes_written -
                                w.before.nvm.media_bytes_written),
            committed),
        "B/txn");
  m.Add("ssd_bytes_per_txn",
        Div(delta(&Counters::db_ssd) + delta(&Counters::log_ssd), committed),
        "B/txn");
  m.Add("rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB");
}

void AddPerLayer(Metrics& m, const Window& counted, const Window& traced,
                 Database* db) {
  const double n = static_cast<double>(counted.driver.committed);
  const auto per_txn = [&](uint64_t a, uint64_t b) {
    return Div(static_cast<double>(b - a), n);
  };
  const Counters& a = counted.before;
  const Counters& b = counted.after;

  // workload (ring executor only; blocking workloads report 0)
  const double tn = static_cast<double>(traced.driver.committed);
  m.Add("workload.parks_per_txn", Div(traced.Sum(&Worker::parks), tn), "1/txn");
  m.Add("workload.step_us_per_txn", Div(traced.Sum(&Worker::step_ns) / 1e3, tn),
        "us");
  m.Add("workload.parked_us_per_txn",
        Div(traced.Sum(&Worker::parked_ns) / 1e3, tn), "us");

  // db: calls timed by the bench (0 where the workload does not make them)
  for (Span s : {kBegin, kRead, kUpdate, kCommit, kNewOrder, kPayment,
                 kOrderStatus, kDelivery, kStockLevel}) {
    const auto v = traced.SpanSamples(s);
    const std::string base = std::string("db.") + kSpanNames[s] + "_us";
    m.Add(base + ".p50", Percentile(v, 50), "us");
    m.Add(base + ".p99", Percentile(v, 99), "us");
  }
  // txn: tail commit latency of the untraced window
  m.Add("txn.commit_p99_us", Percentile(counted.Latencies(true), 99), "us");
  // txn: abort ratio overall and per transaction type, over both windows
  m.Add("txn.abort_ratio",
        Div(static_cast<double>(counted.driver.aborted + traced.driver.aborted),
            static_cast<double>(counted.driver.committed + counted.driver.aborted +
                                traced.driver.committed + traced.driver.aborted)),
        "ratio");
  const char* const type_names[] = {"new_order", "payment", "order_status",
                                    "delivery", "stock_level", "ycsb_update"};
  for (int t = kTNewOrder; t <= kTYcsbUpdate; ++t) {
    const auto type = static_cast<TxnType>(t);
    const double ab = static_cast<double>(counted.TypeCount(type, false) +
                                          traced.TypeCount(type, false));
    const double co = static_cast<double>(counted.TypeCount(type, true) +
                                          traced.TypeCount(type, true));
    m.Add(std::string("txn.abort_ratio.") + type_names[t], Div(ab, ab + co),
          "ratio");
  }

  // index / buffer probes
  m.Add("index.lookup_us", Percentile(traced.SpanSamples(kLookup), 50), "us");
  m.Add("buffer.fetch_hit_ns",
        Percentile(traced.SpanSamples(kFetchHit), 50, 1.0), "ns");

  // buffer counters
  const double fetches =
      static_cast<double>(b.buf.TotalFetches() - a.buf.TotalFetches());
  m.Add("buffer.fetches_per_txn", Div(fetches, n), "1/txn");
  m.Add("buffer.dram_hit_ratio",
        Div(static_cast<double>(b.buf.dram_hits - a.buf.dram_hits), fetches),
        "ratio");
  m.Add("buffer.nvm_hit_ratio",
        Div(static_cast<double>(b.buf.nvm_hits - a.buf.nvm_hits), fetches),
        "ratio");
  m.Add("buffer.ssd_fetches_per_txn",
        per_txn(a.buf.ssd_fetches, b.buf.ssd_fetches), "1/txn");
  m.Add("buffer.miss_joins_per_txn", per_txn(a.buf.miss_joins, b.buf.miss_joins),
        "1/txn");
  m.Add("buffer.read_ahead_installs_per_txn",
        per_txn(a.buf.read_ahead_installs, b.buf.read_ahead_installs), "1/txn");
  m.Add("buffer.promotions_per_txn", per_txn(a.buf.promotions, b.buf.promotions),
        "1/txn");
  m.Add("buffer.demotions_to_nvm_per_txn",
        per_txn(a.buf.demotions_to_nvm, b.buf.demotions_to_nvm), "1/txn");
  m.Add("buffer.nvm_installs_per_txn",
        per_txn(a.buf.nvm_installs, b.buf.nvm_installs), "1/txn");
  m.Add("buffer.dram_evictions_per_txn",
        per_txn(a.buf.dram_evictions, b.buf.dram_evictions), "1/txn");
  m.Add("buffer.nvm_evictions_per_txn",
        per_txn(a.buf.nvm_evictions, b.buf.nvm_evictions), "1/txn");

  // storage
  m.Add("storage.ssd_reads_per_txn", per_txn(a.db_ssd.reads, b.db_ssd.reads),
        "1/txn");
  const double io_reads = static_cast<double>(b.io_read_ops - a.io_read_ops);
  const double deduped =
      static_cast<double>(b.io_reads_deduped - a.io_reads_deduped);
  m.Add("storage.io_reads_deduped_ratio", Div(deduped, io_reads + deduped),
        "ratio");
  m.Add("storage.io_write_coalesce_ratio",
        Div(static_cast<double>(b.io_writes_staged - a.io_writes_staged),
            static_cast<double>(b.io_write_ops - a.io_write_ops)),
        "pages/op");
  m.Add("storage.nvm_reads_per_txn", per_txn(a.nvm.reads, b.nvm.reads), "1/txn");
  m.Add("storage.log_ssd_bytes_per_txn",
        per_txn(a.log_ssd.bytes_written, b.log_ssd.bytes_written), "B/txn");

  // wal
  m.Add("wal.log_bytes_per_txn", per_txn(a.next_lsn, b.next_lsn), "B/txn");
  m.Add("wal.commits_per_group",
        Div(n, static_cast<double>(b.durable_gen - a.durable_gen)), "txn/group");
  m.Add("wal.log_fill_ratio",
        Div(static_cast<double>(db->log_manager()->next_lsn()),
            static_cast<double>(db->env().log_ssd->capacity())),
        "ratio");

  // trace
  m.Add("trace.coverage",
        Div(static_cast<double>(traced.Sum(&Worker::covered_ns)),
            static_cast<double>(traced.Sum(&Worker::txn_ns))),
        "ratio");
  m.Add("trace.overhead",
        Div(counted.driver.Throughput(), traced.driver.Throughput()) - 1.0,
        "ratio");
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

bool ParseSeconds(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v) || v <= 0) return false;
  *out = v;
  return true;
}

bool ParseSeed(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

std::string JsonStr(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += (ch == '\n' || ch == '\t') ? ' ' : ch;
  }
  return o + "\"";
}

int Main(int argc, char** argv) {
  const char* workload = nullptr;
  const char* seed_s = nullptr;
  const char* seconds_s = nullptr;
  const char* trace_s = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed_s = v;
    else if (a == "--seconds") seconds_s = v;
    else if (a == "--trace") trace_s = v;
    else return Usage(("unknown argument " + a).c_str());
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload != nullptr && std::strcmp(workload, s.name) == 0) spec = &s;
  }
  if (spec == nullptr) return Usage("unknown or missing --workload");
  uint64_t seed = 0;
  if (!ParseSeed(seed_s, &seed)) return Usage("--seed must be an integer >= 0");
  double seconds = 0;
  if (!ParseSeconds(seconds_s, &seconds)) {
    return Usage("--seconds must be a positive number");
  }
  if (trace_s == nullptr ||
      (std::strcmp(trace_s, "0") != 0 && std::strcmp(trace_s, "1") != 0)) {
    return Usage("--trace must be 0 or 1");
  }
  const bool trace = trace_s[0] == '1';

  LatencySimulator::SetScale(0.0);
  Timer setup_timer;
  auto in_r = Setup(*spec, seconds, seed);
  if (!in_r.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 in_r.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Instance> in = in_r.MoveValue();
  const double setup_s = setup_timer.ElapsedSeconds();
  std::fprintf(stderr, "perfbench: %s setup %.3f s\n", spec->name, setup_s);

  // Trace on: one untraced window for the counters, then one traced window
  // for the layer times.
  Metrics m;
  std::vector<Window> windows;
  const int n_windows = trace ? 2 : 1;
  for (int i = 0; i < n_windows; ++i) {
    windows.push_back(RunWindow(*in, *spec, seconds / n_windows,
                                /*trace=*/trace && i == 1, seed, i));
    std::fprintf(stderr, "perfbench: %s window %d%s: %s\n", spec->name, i,
                 trace && i == 1 ? " (traced)" : "",
                 windows.back().driver.ToString().c_str());
  }
  if (trace) {
    AddPerLayer(m, windows[0], windows[1], in->db.get());
  } else {
    AddEndToEnd(m, windows[0], setup_s);
  }

  uint64_t committed = 0, aborted = 0, failed = 0;
  for (const Window& w : windows) {
    committed += w.driver.committed;
    aborted += w.driver.aborted;
    failed += w.Sum(&Worker::failed);
  }
  const double abort_ratio =
      Div(static_cast<double>(aborted), static_cast<double>(committed + aborted));
  std::vector<Check> checks = RunChecks(*in, *spec, abort_ratio);
  checks.push_back({"no_failed_transactions", failed == 0,
                    std::to_string(failed)});
  bool correct = true;
  std::string checks_json;
  for (const Check& c : checks) {
    correct = correct && c.ok;
    if (!c.ok) {
      std::fprintf(stderr, "perfbench: check failed: %s (%s)\n",
                   c.name.c_str(), c.detail.c_str());
    }
    checks_json += checks_json.empty() ? "" : ", ";
    checks_json += JsonStr(c.name) + ": {\"ok\": " + (c.ok ? "true" : "false") +
                   ", \"detail\": " + JsonStr(c.detail) + "}";
  }

  const DatabaseOptions& o = in->db->options();
  char config[640];
  std::snprintf(
      config, sizeof(config),
      "{\"workers\": %d, \"executor\": \"%s\", \"ring_depth\": %d, "
      "\"latency_scale\": %g, \"dram_frames\": %zu, \"nvm_frames\": %zu, "
      "\"policy\": \"%s\", \"num_shards\": %zu, \"ycsb_tuples\": %llu, "
      "\"warehouses\": %u, \"warmup_txns\": %llu, \"ssd_mb\": %llu, "
      "\"log_ssd_mb\": %llu, \"log_fill_guard\": %g, "
      "\"probe_every\": %llu}",
      spec->workers, spec->ring_depth > 0 ? "interleaved" : "blocking",
      spec->ring_depth, spec->latency_scale, o.dram_frames, o.nvm_frames,
      spec->policy.ToString().c_str(), o.num_shards,
      (unsigned long long)spec->ycsb_tuples, spec->warehouses,
      (unsigned long long)spec->warmup_txns,
      (unsigned long long)spec->ssd_mb,
      (unsigned long long)(o.log_ssd_capacity >> 20), kLogFillGuard,
      (unsigned long long)kProbeEvery);
  // Commit latency in the untraced window, both kinds.
  std::string latency;
  for (bool main : {true, false}) {
    const auto v = windows[0].Latencies(main);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"samples\": %zu, \"p50_us\": %.3f, "
                  "\"p95_us\": %.3f, \"p99_us\": %.3f}",
                  main ? "" : ", ", main ? "main" : "other", v.size(),
                  Percentile(v, 50), Percentile(v, 95), Percentile(v, 99));
    latency += buf;
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"correct\": %s, \"committed\": %llu, "
      "\"aborted\": %llu, \"failed\": %llu, \"abort_ratio\": %.17g, "
      "\"latency\": {%s}, "
      "\"config\": %s, \"checks\": {%s}, \"metrics\": {%s}}\n",
      JsonStr(spec->name).c_str(),
      (unsigned long long)seed, seconds, trace ? 1 : 0,
      correct ? "true" : "false", (unsigned long long)committed,
      (unsigned long long)aborted, (unsigned long long)failed, abort_ratio,
      latency.c_str(), config,
      checks_json.c_str(), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace spitfire::perfbench

int main(int argc, char** argv) { return spitfire::perfbench::Main(argc, argv); }
