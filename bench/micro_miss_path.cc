// Miss-path microbenchmark: FetchPage throughput when most accesses must
// go to the (simulated) SSD, at 1/2/4/8 threads, for two patterns:
//
//  - uniform: each thread fetches uniformly random pages from a database
//    ~8x larger than the buffer, so threads mostly miss on DISTINCT pages
//    (measures raw miss bandwidth: async submission, no latch across I/O);
//  - hot: all threads fetch the same slowly-advancing page (a shared
//    counter advances the target every 8 global ops), so every advance
//    is a MISS STORM — N threads hitting one cold page at once.
//    Single-flight dedup turns N device reads into one read plus N-1
//    sleeping waiters, and because the hot page advances sequentially (a
//    shared scan front), read-ahead streams the next window in one
//    multi-page device read, paying the per-op fixed cost once per window
//    instead of once per page.
//
// One JSON line per point.
//
// A second section sweeps the submission/completion split: the blocking
// FetchPage shim versus the asynchronous ring driver
// (WorkloadDriver::RunAsyncPageOps) at --queue-depth=1,4,16,64 tickets in
// flight per worker. Blocking keeps at most one miss per thread in the
// SSD's queues no matter how deep they are; the ring converts queue depth
// into throughput. Latency percentiles (p50/p99/p999) come from the same
// histogram for both modes.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "workload/driver.h"

namespace spitfire::bench {
namespace {

constexpr double kDbMb = 32;     // 2048 pages
constexpr double kBufferMb = 4;  // 256 frames — ~12% of the database

struct MissHierarchy {
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<BufferManager> bm;
};

MissHierarchy Make() {
  MissHierarchy h;
  h.ssd = std::make_unique<SsdDevice>(
      static_cast<uint64_t>(2 * kDbMb * 1024 * 1024));
  BufferManagerOptions opt;
  opt.dram_frames = FramesForMb(kBufferMb);
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = h.ssd.get();
  h.bm = std::make_unique<BufferManager>(opt);
  return h;
}

double MeasureMissOps(BufferManager& bm, uint64_t num_pages, int threads,
                      double seconds, bool hot) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> tick{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x4155C + static_cast<uint64_t>(t) * 6271);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        page_id_t pid;
        if (hot) {
          // All threads chase one page that advances every 8 global ops —
          // a shared scan front: each advance storms a cold page, and the
          // sequential order lets read-ahead stay ahead of the front.
          const uint64_t c = tick.fetch_add(1, std::memory_order_relaxed);
          pid = static_cast<page_id_t>((c / 8) % num_pages);
        } else {
          pid = rng.NextUint64(num_pages);
        }
        auto r = bm.FetchPage(pid, AccessIntent::kRead);
        if (r.ok()) ++local;
      }
      ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  Timer timer;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  const double elapsed = timer.ElapsedSeconds();
  for (auto& w : workers) w.join();
  return static_cast<double>(ops.load()) / elapsed;
}

void RunMode(double seconds) {
  const uint64_t num_pages = PagesForMb(kDbMb);
  for (const bool hot : {false, true}) {
    MissHierarchy h = Make();
    Populate(*h.bm, num_pages);
    // Devices simulate Table 1 latencies during measurement: the miss
    // path's cost is the device wait, which is what the scheduler hides.
    LatencySimulator::SetScale(EnvScale(1.0));
    for (int threads : {1, 2, 4, 8}) {
      h.bm->stats().Reset();
      h.ssd->stats().Reset();
      const double ops =
          MeasureMissOps(*h.bm, num_pages, threads, seconds, hot);
      const auto snap = h.bm->stats().Snapshot();
      JsonLine()
          .Str("bench", "micro_miss_path")
          .Str("pattern", hot ? "hot" : "uniform")
          .Num("threads", threads)
          .Num("pages", num_pages)
          .Num("ops_per_sec", ops)
          .Num("ssd_reads", h.ssd->stats().num_reads.load())
          .Num("ssd_read_pages", h.ssd->stats().bytes_read.load() / kPageSize)
          .Num("ssd_fetches", snap.ssd_fetches)
          .Num("reads_deduped",
               h.bm->io_scheduler()->stats().reads_deduped.load())
          .Num("ra_installs", snap.read_ahead_installs)
          .Print();
    }
    LatencySimulator::SetScale(0.0);
  }
}

// Shared op stream for the queue-depth sweep: same distributions as
// MeasureMissOps, expressed as a PageOp generator so the blocking and
// async modes measure identical access sequences.
//
// The hot pattern here differs from RunMode's scan front on purpose:
// the storm page jumps kStormStride (> read_ahead_pages) per advance,
// so every storm target is COLD — read-ahead cannot stream it in, and
// all eight threads pile onto one in-flight read per advance. Blocking
// mode therefore serializes on one device latency per 8 ops; the async
// ring keeps QD storm fronts in flight at once, which is exactly the
// submission/completion split's win.
struct MissOpGen {
  static constexpr uint64_t kStormStride = 97;  // prime, > RA window (32)

  uint64_t num_pages = 0;
  bool hot = false;
  std::atomic<uint64_t> tick{0};

  PageOp Next(Xoshiro256& rng) {
    if (hot) {
      const uint64_t c = tick.fetch_add(1, std::memory_order_relaxed);
      return {static_cast<page_id_t>(((c / 8) * kStormStride) % num_pages),
              AccessIntent::kRead};
    }
    return {static_cast<page_id_t>(rng.NextUint64(num_pages)),
            AccessIntent::kRead};
  }
};

void EmitSweepLine(const char* mode, int qd, bool hot, int threads,
                   const DriverResult& res, BufferManager& bm,
                   SsdDevice& ssd) {
  const auto snap = bm.stats().Snapshot();
  JsonLine line;
  line.Str("bench", "micro_miss_path")
      .Str("section", "queue_depth_sweep")
      .Str("mode", mode)
      .Num("queue_depth", qd)
      .Str("pattern", hot ? "hot" : "uniform")
      .Num("threads", threads)
      .Num("ops_per_sec", res.Throughput())
      .Num("aborted", res.aborted)
      .Num("ssd_reads", ssd.stats().num_reads.load())
      .Num("miss_submits", snap.miss_submits)
      .Num("miss_joins", snap.miss_joins)
      .Num("reads_deduped", bm.io_scheduler()->stats().reads_deduped.load())
      .Num("ra_installs", snap.read_ahead_installs);
  AddLatencyPercentiles(line, res.latency_ns).Print();
}

// Blocking vs async at each queue depth, 8 workers each. The blocking
// reference is the FetchPage shim driven by the closed-loop driver
// (qd is reported as 1: one op in flight per thread by construction).
void RunQueueDepthSweep(const std::vector<int>& depths, double seconds) {
  const uint64_t num_pages = PagesForMb(kDbMb);
  // SPITFIRE_SWEEP_THREADS overrides the worker count (useful for
  // isolating driver behavior from cross-thread contention).
  int threads = 8;
  if (const char* e = std::getenv("SPITFIRE_SWEEP_THREADS")) {
    threads = std::max(1, std::atoi(e));
  }
  for (const bool hot : {false, true}) {
    {
      MissHierarchy h = Make();
      Populate(*h.bm, num_pages);
      LatencySimulator::SetScale(EnvScale(1.0));
      h.bm->stats().Reset();
      h.ssd->stats().Reset();
      MissOpGen gen{num_pages, hot};
      BufferManager* bm = h.bm.get();
      const DriverResult res = WorkloadDriver::Run(
          threads, seconds,
          [bm, &gen](Xoshiro256& rng) {
            const PageOp op = gen.Next(rng);
            auto r = bm->FetchPage(op.pid, op.intent);
            return r.ok() ? Status::OK() : r.status();
          });
      EmitSweepLine("blocking", 1, hot, threads, res, *h.bm, *h.ssd);
      LatencySimulator::SetScale(0.0);
    }
    for (const int qd : depths) {
      MissHierarchy h = Make();
      Populate(*h.bm, num_pages);
      LatencySimulator::SetScale(EnvScale(1.0));
      h.bm->stats().Reset();
      h.ssd->stats().Reset();
      MissOpGen gen{num_pages, hot};
      std::atomic<bool> diag_stop{false};
      std::thread diag;
      if (std::getenv("SPITFIRE_DIAG") != nullptr) {
        diag = std::thread([&] {
          while (!diag_stop.load()) {
            const auto snap = h.bm->stats().Snapshot();
            const auto cen = h.bm->DebugDramCensus();
            std::fprintf(
                stderr,
                "[diag] qd=%d hot=%d inflight=%u cap=%u comps=%llu "
                "submits=%llu fetches=%llu evict=%llu hits=%llu | "
                "free=%u evictable=%u pinned=%u detached=%u pins=%llu\n",
                qd, hot ? 1 : 0, h.bm->inflight_misses(),
                h.bm->miss_admission_cap(),
                static_cast<unsigned long long>(
                    h.bm->io_scheduler()->stats().completions_run.load()),
                static_cast<unsigned long long>(snap.miss_submits),
                static_cast<unsigned long long>(snap.ssd_fetches),
                static_cast<unsigned long long>(snap.dram_evictions),
                static_cast<unsigned long long>(snap.dram_hits), cen.free,
                cen.evictable, cen.pinned, cen.detached,
                static_cast<unsigned long long>(cen.total_pins));
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
          }
        });
      }
      const DriverResult res = WorkloadDriver::RunAsyncPageOps(
          h.bm.get(), threads, seconds, qd,
          [&gen](Xoshiro256& rng) { return gen.Next(rng); });
      diag_stop.store(true);
      if (diag.joinable()) diag.join();
      EmitSweepLine("async", qd, hot, threads, res, *h.bm, *h.ssd);
      LatencySimulator::SetScale(0.0);
    }
  }
}

void Main(const std::vector<int>& depths, bool sweep_only) {
  PrintBanner("micro_miss_path", "SSD-miss fetch throughput (I/O scheduler)");
  const double seconds = EnvSeconds(1.5);
  LatencySimulator::SetScale(0.0);
  if (!sweep_only) RunMode(seconds);
  RunQueueDepthSweep(depths, seconds);
  LatencySimulator::SetScale(1.0);
}

}  // namespace
}  // namespace spitfire::bench

int main(int argc, char** argv) {
  // --queue-depth=1,4,16,64 selects the per-worker ring depths swept by
  // the async section (comma-separated).
  std::vector<int> depths = {1, 4, 16, 64};
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--sweep-only") == 0) {
      sweep_only = true;
    } else if (std::strncmp(arg, "--queue-depth=", 14) == 0) {
      depths.clear();
      std::string list(arg + 14);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        depths.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  spitfire::bench::Main(depths, sweep_only);
  return 0;
}
