// End-to-end sustained transaction throughput: the regression gate for
// interleaved execution (ROADMAP items 1/2 follow-up).
//
// Zipfian YCSB over a DRAM-NVM-SSD hierarchy whose working set spills to
// SSD, so buffer misses are the common case. One config, four executors:
//
//   K=1   the blocking procedures (YcsbWorkload::RunTransaction: the
//         same machine stepped without a context) on the classic
//         closed-loop driver — every miss stalls its worker.
//   K=4/8/16  WorkloadDriver::RunInterleaved — each worker drives a ring
//         of K transaction state machines over the async miss path; a
//         machine that parks on a miss yields the worker to a sibling.
//
// Each point runs a warm-up window then a timed window, reporting
// committed tx/s, throughput-over-time slices, and p50/p99/p999 commit
// latency (parked time included — tail latency is where over-deep rings
// show up first). A short TPC-C section repeats the comparison on the
// full five-type mix. Acceptance: every interleaved depth beats the
// blocking baseline by >= 1.5x at 8 workers.
//
// SPITFIRE_BENCH_SECONDS scales the per-point window;
// SPITFIRE_BENCH_SCALE scales the table size;
// SPITFIRE_BENCH_IO_SCALE multiplies simulated device latency during the
// timed windows (default 16). The paper's SSD experiments are IO-bound:
// 8 cores execute transactions faster than one Optane SSD serves misses.
// This container gives all 8 workers ONE core, so per-transaction CPU is
// ~8x over-represented and at true device latency the run is CPU-bound —
// overlap has nothing to hide. Scaling device latency restores the
// stall:compute ratio the experiment is about; ratios, not absolute
// numbers, are the result (as everywhere in this scaled reproduction).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/driver.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace spitfire::bench {
namespace {

constexpr int kThreads = 8;
const std::vector<int> kRingDepths = {4, 8, 16};

std::string SliceArray(const std::vector<double>& slices) {
  std::string out = "[";
  char tmp[32];
  for (size_t i = 0; i < slices.size(); ++i) {
    std::snprintf(tmp, sizeof(tmp), "%.0f", slices[i]);
    if (i > 0) out += ", ";
    out += tmp;
  }
  out += "]";
  return out;
}

void EmitPoint(const char* workload, const char* mode, int ring_depth,
               const DriverResult& res) {
  JsonLine line;
  line.Str("bench", "endtoend")
      .Str("workload", workload)
      .Str("mode", mode)
      .Num("ring_depth", ring_depth)
      .Num("threads", kThreads)
      .Num("tx_per_sec", res.Throughput())
      .Num("committed", res.committed)
      .Num("aborted", res.aborted)
      .Num("abort_rate", res.AbortRate());
  AddLatencyPercentiles(line, res.latency_ns);
  line.Raw("slice_tx_per_sec", SliceArray(res.slice_ops_per_sec));
  line.Print();
}

// A DRAM-NVM-SSD database where the YCSB table (~num_tuples / 15 pages of
// 16 KB) dwarfs both memory tiers, the paper's Figure 9 regime.
std::unique_ptr<Database> MakeSpillDb() {
  DatabaseOptions opts;
  opts.dram_frames = 256;                      // 4 MB
  opts.nvm_frames = 512;                       // 8 MB
  opts.policy = MigrationPolicy::Lazy();
  opts.ssd_capacity = 512ull * 1024 * 1024;
  opts.enable_wal = false;                     // isolate the buffer path
  auto r = Database::Create(opts);
  SPITFIRE_CHECK(r.ok());
  return r.MoveValue();
}

struct Sweep {
  double blocking_tps = 0;
  double min_ratio = 0;
  double max_ratio = 0;
};

// One fully initialized workload instance: a fresh database, loaded and
// warmed, plus both executors over it. Every measured point gets its own
// — committed updates grow MVTO version chains and shift buffer
// placement, so reusing one database hands whichever point runs first an
// unearned head start (~30% in practice).
struct WorkloadInstance {
  std::unique_ptr<Database> db;
  std::shared_ptr<void> workload;  // keeps the workload object alive
  WorkloadDriver::TxnFn blocking_fn;
  TxnMachineFactory factory;
};

Sweep RunSweep(const char* name,
               const std::function<WorkloadInstance()>& make, double seconds,
               double warmup) {
  constexpr double kSlice = 0.25;

  Sweep s;
  {
    WorkloadInstance w = make();
    DriverResult blocking = WorkloadDriver::Run(kThreads, seconds,
                                                w.blocking_fn, warmup, kSlice);
    EmitPoint(name, "blocking", 1, blocking);
    s.blocking_tps = blocking.Throughput();
  }
  for (int k : kRingDepths) {
    WorkloadInstance w = make();
    DriverResult res = WorkloadDriver::RunInterleaved(
        w.db->buffer_manager(), kThreads, seconds, k, w.factory, warmup,
        kSlice);
    EmitPoint(name, "interleaved", k, res);
    const double ratio =
        s.blocking_tps > 0 ? res.Throughput() / s.blocking_tps : 0;
    s.min_ratio = s.min_ratio == 0 ? ratio : std::min(s.min_ratio, ratio);
    s.max_ratio = std::max(s.max_ratio, ratio);
  }
  return s;
}

void Main() {
  PrintBanner("endtoend",
              "sustained YCSB/TPC-C, blocking vs interleaved rings");
  const double seconds = EnvSeconds(1.5);
  const double warmup = std::min(0.5, seconds * 0.25);
  const double scale = EnvScale();
  const double io_scale =
      EnvNumber("SPITFIRE_BENCH_IO_SCALE", 16.0, 0.0, /*min_inclusive=*/true);

  // --- YCSB: zipfian point ops, working set ~16x DRAM ---
  const auto make_ycsb = [&]() -> WorkloadInstance {
    WorkloadInstance w;
    w.db = MakeSpillDb();
    YcsbConfig cfg = YcsbConfig::Balanced(
        static_cast<uint64_t>(60'000 * scale));     // ~4000 heap pages
    cfg.zipf_theta = 0.3;  // mild skew: most transactions miss to SSD
    auto ycsb = std::make_shared<YcsbWorkload>(w.db.get(), cfg);
    LatencySimulator::SetScale(0.0);
    SPITFIRE_CHECK(ycsb->Load().ok());
    SPITFIRE_CHECK(ycsb->WarmUp().ok());
    SPITFIRE_CHECK(w.db->buffer_manager()->DrainIo().ok());
    LatencySimulator::SetScale(io_scale);
    w.blocking_fn = [ycsb](Xoshiro256& rng) {
      return ycsb->RunTransaction(rng);
    };
    w.factory = [ycsb] { return std::make_unique<YcsbTxnMachine>(ycsb.get()); };
    w.workload = ycsb;
    return w;
  };
  const Sweep ys = RunSweep("ycsb-ba", make_ycsb, seconds, warmup);

  // --- TPC-C (informational): the full mix. Warehouses scale with
  // the peak transaction concurrency (8 workers x ring 16), not the
  // worker count — rings multiply simultaneous Payment attempts per
  // warehouse row, and MVTO resolves those by aborting. ---
  const auto make_tpcc = [&]() -> WorkloadInstance {
    WorkloadInstance w;
    w.db = MakeSpillDb();
    TpccConfig tcfg;
    tcfg.num_warehouses = 8;
    auto tpcc = std::make_shared<TpccWorkload>(w.db.get(), tcfg);
    LatencySimulator::SetScale(0.0);
    SPITFIRE_CHECK(tpcc->Load().ok());
    SPITFIRE_CHECK(w.db->buffer_manager()->DrainIo().ok());
    LatencySimulator::SetScale(io_scale);
    w.blocking_fn = [tpcc](Xoshiro256& rng) {
      return tpcc->RunTransaction(rng);
    };
    w.factory = [tpcc] { return std::make_unique<TpccTxnMachine>(tpcc.get()); };
    w.workload = tpcc;
    return w;
  };
  const Sweep ts = RunSweep("tpcc", make_tpcc, seconds, warmup);

  JsonLine accept;
  accept.Str("bench", "endtoend")
      .Str("section", "acceptance")
      .Num("ycsb_blocking_tps", ys.blocking_tps)
      .Num("ycsb_min_ratio", ys.min_ratio)
      .Num("ycsb_max_ratio", ys.max_ratio)
      .Str("ycsb_pass_1_5x", ys.min_ratio >= 1.5 ? "true" : "false")
      .Num("tpcc_blocking_tps", ts.blocking_tps)
      .Num("tpcc_min_ratio", ts.min_ratio)
      .Num("tpcc_max_ratio", ts.max_ratio);
  accept.Print();
  LatencySimulator::SetScale(1.0);
}

}  // namespace
}  // namespace spitfire::bench

int main() {
  spitfire::bench::Main();
  return 0;
}
