// Phase-change scenario: point-lookup phase → full-table-scan phase →
// point-lookup phase → write-burst phase → point-lookup phase.
//
// Two questions, two sections:
//
//  - "replacement": does a full scan crater the post-scan point-lookup
//    throughput? Runs the identical scenario once with CLOCK and once with
//    the scan-resistant 2Q/cooling policy and reports throughput over time
//    (slices), the post-scan recovery-window throughput, and how much of
//    the pre-scan hot set is still DRAM-resident after the scan. CLOCK
//    lets the scan flush the hot set (every post-scan hit refaults from
//    SSD); 2Q keeps the scan in the probationary FIFO and the hot set in
//    the protected segment.
//  - "tuner": with the OnlineTuner attached, do the migration
//    probabilities ⟨Dr,Dw,Nr,Nw⟩ re-converge after each workload
//    transition? Reports windows/reconvergences/convergence per phase.
//
// Output: JSON lines on stdout (banner on stderr), redirected into
// BENCH_phase_change.json by CI.

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/online_tuner.h"
#include "bench_util.h"
#include "buffer/replacer.h"
#include "workload/driver.h"

namespace spitfire::bench {
namespace {

// Scaled-down scenario: 64 MB DB over an 8 MB DRAM / 16 MB NVM / SSD
// hierarchy; the hot set (6 MB) fits in DRAM with room to spare.
constexpr double kDbMb = 64;
constexpr double kDramMb = 8;
constexpr double kNvmMb = 16;
constexpr uint64_t kHotPages = 384;
constexpr double kUniformShare = 0.05;
constexpr int kThreads = 2;
constexpr double kSliceSeconds = 0.05;
// Post-scan recovery window: the first 200 ms of the post-scan phase.
constexpr size_t kRecoverySlices = 4;

// The default LatencySimulator scale underweights the DRAM↔SSD gap
// (~100x here vs ~1000x for real devices); the scan-resistance penalty is
// exactly that gap, so this bench defaults the sim scale up. Override
// with SPITFIRE_BENCH_SCALE.
constexpr double kDefaultScale = 20.0;

uint64_t DbPages() { return PagesForMb(kDbMb); }

// Hot pages are strided across the DB (not a contiguous prefix) so the
// sequential read-ahead cannot refault the whole hot set in a few chained
// window reads — recovery pays one random SSD read per hot page, as a
// real post-scan workload would.
page_id_t HotPid(uint64_t i) { return static_cast<page_id_t>(i * (DbPages() / kHotPages)); }

WorkloadDriver::TxnFn PointFn(BufferManager* bm, double write_ratio) {
  const uint64_t db_pages = DbPages();
  return [bm, write_ratio, db_pages](Xoshiro256& rng) -> Status {
    const page_id_t pid = rng.NextDouble() < kUniformShare
                              ? rng.NextUint64(db_pages)
                              : HotPid(rng.NextUint64(kHotPages));
    const bool is_write = rng.Bernoulli(write_ratio);
    auto r = bm->FetchPage(
        pid, is_write ? AccessIntent::kWrite : AccessIntent::kRead);
    if (!r.ok()) return r.status();
    std::byte buf[kTupleBytes] = {};
    const size_t off = TupleOffset(rng.NextUint64(kTuplesPerPage));
    if (is_write) return r.value().WriteAt(off, kTupleBytes, buf);
    return r.value().ReadAt(off, kTupleBytes, buf);
  };
}

WorkloadDriver::TxnFn ScanFn(BufferManager* bm,
                             std::shared_ptr<std::atomic<uint64_t>> cursor) {
  const uint64_t db_pages = DbPages();
  return [bm, cursor, db_pages](Xoshiro256&) -> Status {
    const page_id_t pid = static_cast<page_id_t>(
        cursor->fetch_add(1, std::memory_order_relaxed) % db_pages);
    auto r = bm->FetchPage(pid, AccessIntent::kRead);
    if (!r.ok()) return r.status();
    std::byte buf[kTupleBytes];
    return r.value().ReadAt(TupleOffset(0), kTupleBytes, buf);
  };
}

size_t HotResident(const BufferManager& bm) {
  size_t n = 0;
  for (uint64_t p = 0; p < kHotPages; ++p) {
    if (bm.IsDramResident(HotPid(p))) ++n;
  }
  return n;
}

std::string SlicesJson(const std::vector<double>& slices) {
  std::string s = "[";
  char tmp[32];
  for (size_t i = 0; i < slices.size(); ++i) {
    std::snprintf(tmp, sizeof(tmp), "%s%.0f", i ? ", " : "", slices[i]);
    s += tmp;
  }
  return s + "]";
}

double WindowTput(const std::vector<double>& slices, size_t n) {
  double sum = 0;
  n = std::min(n, slices.size());
  for (size_t i = 0; i < n; ++i) sum += slices[i];
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

// `with_nvm` selects the hierarchy shape. The replacement section runs
// DRAM-SSD: with an NVM middle tier Spitfire's miss path installs scan
// pages into NVM and serves them from there, so the DRAM pool never sees
// the scan at all (the tier structure itself is scan-resistant) and the
// replacement policies are indistinguishable. The tuner section runs the
// full three-tier hierarchy, where ⟨Dr,Dw,Nr,Nw⟩ actually matters.
Hierarchy MakeScenarioHierarchy(ReplacerKind kind, bool with_nvm) {
  HierarchySpec spec;
  spec.dram_mb = kDramMb;
  spec.nvm_mb = with_nvm ? kNvmMb : 0;
  spec.ssd_mb = 256;
  spec.policy = MigrationPolicy::Eager();
  spec.dram_replacer = kind;
  spec.nvm_replacer = kind;
  // Faster probation→protected promotion (2 sampled = 8 raw accesses).
  spec.replacer_sample_rate = 4;
  Hierarchy h = MakeHierarchy(spec);
  Populate(*h.bm, DbPages());
  // Pre-warm the hot set at zero simulated latency so the point mix
  // starts from steady-state placement (hot pages promoted/protected),
  // then restore the configured scale for the measured phases.
  const double saved = LatencySimulator::scale();
  LatencySimulator::SetScale(0.0);
  Xoshiro256 rng(4242);
  auto warm = PointFn(h.bm.get(), /*write_ratio=*/0.05);
  for (int i = 0; i < 200'000; ++i) (void)warm(rng);
  h.bm->stats().Reset();
  LatencySimulator::SetScale(saved);
  return h;
}

struct PhaseRow {
  std::string name;
  DriverResult result;
  uint64_t windows = 0, reconvergences = 0, last_converged = 0;
  bool converged = false;
};

// Runs the five-phase scenario, one sliced Run per phase, so hot-set
// residency (and tuner state) can be sampled at the boundaries.
struct ScenarioOut {
  std::vector<PhaseRow> rows;
  size_t hot_before_scan = 0, hot_after_scan = 0;
  uint64_t scan_pages = 0;
  std::string replacer_debug;
};

ScenarioOut RunScenario(ReplacerKind kind, double phase_secs,
                        bool with_tuner) {
  Hierarchy h = MakeScenarioHierarchy(kind, /*with_nvm=*/with_tuner);
  BufferManager* bm = h.bm.get();

  std::unique_ptr<OnlineTuner> tuner;
  if (with_tuner) {
    OnlineTunerOptions topt;
    topt.min_window_fetches = 512;
    // Online windows are short; a hotter-but-faster schedule than the
    // default converges in ~14 active windows (0.7 s of traffic).
    topt.annealing.initial_temperature = 1.5;
    topt.annealing.cooling_rate = 0.7;
    tuner = std::make_unique<OnlineTuner>(bm, topt);
    tuner->Start();
  }

  auto cursor = std::make_shared<std::atomic<uint64_t>>(0);
  const std::pair<std::string, WorkloadDriver::TxnFn> phases[] = {
      {"point_pre", PointFn(bm, 0.05)},
      {"scan", ScanFn(bm, cursor)},
      {"point_post", PointFn(bm, 0.05)},
      {"write_burst", PointFn(bm, 0.80)},
      {"point_final", PointFn(bm, 0.05)},
  };

  ScenarioOut out;
  for (const auto& [name, fn] : phases) {
    if (name == "scan") out.hot_before_scan = HotResident(*bm);
    PhaseRow row;
    row.name = name;
    row.result = WorkloadDriver::Run(kThreads, phase_secs, fn,
                                     /*warmup_seconds=*/0.0, kSliceSeconds);
    if (name == "scan") {
      out.hot_after_scan = HotResident(*bm);
      out.scan_pages = cursor->load();
    }
    if (tuner != nullptr) {
      row.windows = tuner->windows();
      row.reconvergences = tuner->reconvergences();
      row.last_converged = tuner->last_converged_window();
      row.converged = tuner->converged();
    }
    out.rows.push_back(std::move(row));
  }
  if (tuner != nullptr) tuner->Stop();
  out.replacer_debug = bm->dram_pool()->replacer().DebugString();
  return out;
}

void PrintPhaseLines(const char* section, const char* policy,
                     const ScenarioOut& out, bool with_tuner) {
  for (const auto& row : out.rows) {
    JsonLine line;
    line.Str("bench", "phase_change")
        .Str("section", section)
        .Str("policy", policy)
        .Str("phase", row.name)
        .Num("ops_per_sec", row.result.Throughput())
        .Num("committed", row.result.committed)
        .Num("aborted", row.result.aborted)
        .Raw("slice_ops_per_sec", SlicesJson(row.result.slice_ops_per_sec));
    if (row.name == "point_post") {
      line.Num("recovery_window_ops_per_sec",
               WindowTput(row.result.slice_ops_per_sec, kRecoverySlices));
    }
    if (row.name == "scan") {
      line.Num("hot_resident_before", static_cast<uint64_t>(out.hot_before_scan))
          .Num("hot_resident_after", static_cast<uint64_t>(out.hot_after_scan))
          .Num("hot_pages", kHotPages)
          .Num("scan_pages_fetched", out.scan_pages);
    }
    if (with_tuner) {
      line.Num("tuner_windows", row.windows)
          .Num("tuner_reconvergences", row.reconvergences)
          .Num("tuner_last_converged_window", row.last_converged)
          .Num("tuner_converged", static_cast<uint64_t>(row.converged ? 1 : 0));
    }
    line.Print();
  }
  JsonLine().Str("bench", "phase_change")
      .Str("section", section)
      .Str("policy", policy)
      .Str("dram_replacer_state", out.replacer_debug)
      .Print();
}

int Main() {
  std::fprintf(stderr,
               "phase_change: point -> scan -> point -> write-burst -> "
               "point (db=%.0fMB dram=%.0fMB nvm=%.0fMB, %d threads)\n",
               kDbMb, kDramMb, kNvmMb, kThreads);
  const double phase_secs = EnvSeconds(1.0);
  LatencySimulator::SetScale(EnvScale(kDefaultScale));

  JsonLine()
      .Str("bench", "phase_change")
      .Str("section", "config")
      .Num("db_mb", kDbMb)
      .Num("dram_mb", kDramMb)
      .Num("nvm_mb", kNvmMb)
      .Num("hot_pages", kHotPages)
      .Num("uniform_share", kUniformShare)
      .Num("threads", kThreads)
      .Num("phase_seconds", phase_secs)
      .Num("slice_seconds", kSliceSeconds)
      .Num("latency_scale", LatencySimulator::scale())
      .Print();

  // Section 1: CLOCK vs 2Q, fixed (eager) migration policy.
  ScenarioOut clock = RunScenario(ReplacerKind::kClock, phase_secs, false);
  PrintPhaseLines("replacement", "clock", clock, false);
  ScenarioOut twoq = RunScenario(ReplacerKind::kTwoQ, phase_secs, false);
  PrintPhaseLines("replacement", "2q", twoq, false);

  const auto recovery = [](const ScenarioOut& s) {
    for (const auto& row : s.rows) {
      if (row.name == "point_post") {
        return WindowTput(row.result.slice_ops_per_sec, kRecoverySlices);
      }
    }
    return 0.0;
  };
  const double rec_clock = recovery(clock);
  const double rec_2q = recovery(twoq);
  JsonLine()
      .Str("bench", "phase_change")
      .Str("section", "summary")
      .Num("post_scan_recovery_clock_ops_per_sec", rec_clock)
      .Num("post_scan_recovery_2q_ops_per_sec", rec_2q)
      .Num("post_scan_recovery_ratio_2q_over_clock",
           rec_clock > 0 ? rec_2q / rec_clock : 0)
      .Num("hot_retention_clock",
           clock.hot_before_scan > 0
               ? static_cast<double>(clock.hot_after_scan) /
                     static_cast<double>(clock.hot_before_scan)
               : 0)
      .Num("hot_retention_2q",
           twoq.hot_before_scan > 0
               ? static_cast<double>(twoq.hot_after_scan) /
                     static_cast<double>(twoq.hot_before_scan)
               : 0)
      .Print();

  // Section 2: the online tuner across the same transitions (2Q).
  ScenarioOut tuned = RunScenario(ReplacerKind::kTwoQ, phase_secs, true);
  PrintPhaseLines("tuner", "2q", tuned, true);
  return 0;
}

}  // namespace
}  // namespace spitfire::bench

int main() { return spitfire::bench::Main(); }
