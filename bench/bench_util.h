#ifndef SPITFIRE_BENCH_BENCH_UTIL_H_
#define SPITFIRE_BENCH_BENCH_UTIL_H_

// Shared harness for the paper-reproduction benchmarks (one binary per
// table/figure). The paper's evaluation metric is buffer manager
// operations per second (Section 6.1), so these benchmarks drive the
// buffer manager directly with tuple-grained accesses; the full DB engine
// (MVTO + WAL + B+Tree) is exercised by the examples and the adaptive
// benchmark.
//
// Scaling: paper GB → our MB (1000×), paper threads {1,16,8} → {1,2}.
// Device latencies follow Table 1 via LatencySimulator; set
// SPITFIRE_BENCH_SECONDS / SPITFIRE_BENCH_SCALE to adjust runtimes.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/timer.h"
#include "storage/memory_mode_device.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire::bench {

inline constexpr size_t kTupleBytes = 1024;   // ~1 KB YCSB tuple
// Tuples live after the page header: 15 one-KB tuples per 16 KB page.
inline constexpr size_t kTuplesPerPage =
    (kPageSize - kPageHeaderSize) / kTupleBytes;
inline constexpr size_t TupleOffset(size_t slot) {
  return kPageHeaderSize + slot * kTupleBytes;
}

inline size_t FramesForMb(double mb) {
  return static_cast<size_t>(mb * 1024 * 1024 / kPageSize);
}
inline uint64_t PagesForMb(double mb) {
  return static_cast<uint64_t>(mb * 1024 * 1024 / kPageSize);
}

// Reads a finite number from environment variable `name` (`def` when
// unset). Garbage, a non-finite value, or one not above `min` (or below
// it, when `min_inclusive`) ends the process with a message: a bad value
// would otherwise turn every rate the bench prints into nonsense.
inline double EnvNumber(const char* name, double def, double min,
                        bool min_inclusive) {
  const char* s = std::getenv(name);
  if (s == nullptr) return def;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  const bool ok = end != s && *end == '\0' && std::isfinite(v) &&
                  (min_inclusive ? v >= min : v > min);
  if (!ok) {
    std::fprintf(stderr, "%s=\"%s\": expected a finite number %s %g\n", name,
                 s, min_inclusive ? ">=" : ">", min);
    std::exit(2);
  }
  return v;
}
// Seconds per measurement point (> 0).
inline double EnvSeconds(double def) {
  return EnvNumber("SPITFIRE_BENCH_SECONDS", def, 0.0, false);
}
// Device latency scale (>= 0; 0 turns the latency simulation off).
inline double EnvScale(double def = 1.0) {
  return EnvNumber("SPITFIRE_BENCH_SCALE", def, 0.0, true);
}

// ---------------------------------------------------------------------------
// Access patterns
// ---------------------------------------------------------------------------

struct AccessPattern {
  std::string name;
  uint64_t num_pages = 0;
  double read_ratio = 1.0;   // fraction of tuple reads (rest are updates)
  double zipf_theta = 0.3;
  bool tpcc_like = false;    // warehouse-style mixed pattern
};

// Default skew: the paper uses zipf theta = 0.3 over 100M tuples; zipfian
// head mass grows with the key-space size, so at our 1000x-smaller scale
// theta = 0.6 reproduces a comparable buffer-hit-rate regime.
inline AccessPattern YcsbRo(double db_mb, double theta = 0.6) {
  return {"YCSB-RO", PagesForMb(db_mb), 1.0, theta, false};
}
inline AccessPattern YcsbBa(double db_mb, double theta = 0.6) {
  return {"YCSB-BA", PagesForMb(db_mb), 0.5, theta, false};
}
inline AccessPattern YcsbWh(double db_mb, double theta = 0.6) {
  return {"YCSB-WH", PagesForMb(db_mb), 0.1, theta, false};
}
// TPC-C-like page traffic: a small hot region (warehouse/district rows), a
// skewed warm region (customer/stock), and a recency-driven tail (orders /
// order lines); 88% of operations modify pages, as in the TPC-C mix.
inline AccessPattern TpccLike(double db_mb) {
  return {"TPC-C", PagesForMb(db_mb), 0.12, 0.4, true};
}

// Generates one tuple access (page id + tuple slot + read/write) per call.
class AccessGenerator {
 public:
  explicit AccessGenerator(const AccessPattern& p)
      : p_(p),
        zipf_(std::max<uint64_t>(1, p.num_pages * kTuplesPerPage),
              p.zipf_theta) {}

  struct Access {
    page_id_t page;
    size_t offset;  // byte offset of the tuple inside the page
    bool is_write;
  };

  Access Next(Xoshiro256& rng) {
    if (!p_.tpcc_like) {
      // Scrambled-zipfian tuple keys, mapped onto pages (1 KB tuples, 15
      // per page), exactly as the paper's YCSB table is laid out.
      const uint64_t key =
          ScrambledZipfianGenerator::Hash(zipf_.Next(rng)) %
          (p_.num_pages * kTuplesPerPage);
      return {key / kTuplesPerPage, TupleOffset(key % kTuplesPerPage),
              !rng.Bernoulli(p_.read_ratio)};
    }
    return NextTpcc(rng);
  }

 private:
  Access NextTpcc(Xoshiro256& rng) {
    const uint64_t n = p_.num_pages;
    const uint64_t hot_end = std::max<uint64_t>(1, n / 50);        // 2%
    const uint64_t warm_end = hot_end + n * 60 / 100;              // +60%
    const double r = rng.NextDouble();
    page_id_t page;
    bool is_write;
    if (r < 0.15) {
      // Warehouse/district counters: tiny and write-hot.
      page = rng.NextUint64(hot_end);
      is_write = rng.Bernoulli(0.7);
    } else if (r < 0.70) {
      // Customer/stock: skewed, update-heavy.
      const uint64_t span = warm_end - hot_end;
      const uint64_t key = zipf_.Next(rng) % std::max<uint64_t>(1, span);
      page = hot_end + key;
      is_write = rng.Bernoulli(0.8);
    } else {
      // Orders / order lines: recent window around an advancing cursor.
      const uint64_t tail_begin = warm_end;
      const uint64_t tail_span = n > warm_end ? n - warm_end : 1;
      const uint64_t cur = cursor_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t recent = rng.NextUint64(64);
      page = tail_begin + ((cur / 4 + tail_span - recent % tail_span) % tail_span);
      is_write = rng.Bernoulli(0.95);
    }
    const size_t slot = rng.NextUint64(kTuplesPerPage);
    return {page, TupleOffset(slot), is_write};
  }

  AccessPattern p_;
  ZipfianGenerator zipf_;
  std::atomic<uint64_t> cursor_{0};
};

// ---------------------------------------------------------------------------
// Hierarchy construction / population / measurement
// ---------------------------------------------------------------------------

struct Hierarchy {
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<MemoryModeDevice> memory_mode;  // optional (Figure 5)
  std::unique_ptr<BufferManager> bm;
};

struct HierarchySpec {
  double dram_mb = 0;
  double nvm_mb = 0;
  double ssd_mb = 512;
  MigrationPolicy policy = MigrationPolicy::Eager();
  NvmAdmissionMode admission = NvmAdmissionMode::kProbabilistic;
  size_t admission_queue_capacity = 0;
  bool fine_grained = false;
  bool mini_pages = false;
  uint32_t granularity = 256;
  // Replacement policy per tier and the hit-path sampling rate (the
  // phase-change bench compares kClock vs kTwoQ head to head).
  ReplacerKind dram_replacer = ReplacerKind::kClock;
  ReplacerKind nvm_replacer = ReplacerKind::kClock;
  uint32_t replacer_sample_rate = 8;
  // Memory mode (Figure 5): the "DRAM" buffer is NVM fronted by a
  // direct-mapped DRAM cache of dram_cache_mb.
  bool memory_mode = false;
  double memory_mode_cache_mb = 0;
};

inline Hierarchy MakeHierarchy(const HierarchySpec& spec) {
  Hierarchy h;
  h.ssd = std::make_unique<SsdDevice>(
      static_cast<uint64_t>(spec.ssd_mb * 1024 * 1024));
  BufferManagerOptions opt;
  opt.dram_frames = FramesForMb(spec.dram_mb);
  opt.nvm_frames = FramesForMb(spec.nvm_mb);
  opt.policy = spec.policy;
  opt.nvm_admission = spec.admission;
  opt.admission_queue_capacity = spec.admission_queue_capacity;
  opt.enable_fine_grained_loading = spec.fine_grained;
  opt.enable_mini_pages = spec.mini_pages;
  opt.load_granularity = spec.granularity;
  opt.dram_replacer = spec.dram_replacer;
  opt.nvm_replacer = spec.nvm_replacer;
  opt.replacer_sample_rate = spec.replacer_sample_rate;
  opt.ssd = h.ssd.get();
  if (spec.memory_mode) {
    const uint64_t backing = BufferPool::RequiredCapacity(
        opt.dram_frames, /*persistent_frame_table=*/false);
    h.memory_mode = std::make_unique<MemoryModeDevice>(
        backing,
        static_cast<uint64_t>(spec.memory_mode_cache_mb * 1024 * 1024));
    opt.dram_backing = h.memory_mode.get();
  }
  h.bm = std::make_unique<BufferManager>(opt);
  return h;
}

// Creates `num_pages` zero-filled pages and pushes them all to SSD.
// Latency simulation is disabled during population.
inline void Populate(BufferManager& bm, uint64_t num_pages) {
  const double saved = LatencySimulator::scale();
  LatencySimulator::SetScale(0.0);
  for (uint64_t i = 0; i < num_pages; ++i) {
    auto r = bm.NewPage();
    SPITFIRE_CHECK(r.ok());
  }
  SPITFIRE_CHECK(bm.FlushAll(/*include_nvm=*/true).ok());
  LatencySimulator::SetScale(saved);
}

// Runs the access pattern without latency simulation until the buffers
// fill ("We warm up the system until the buffer pool is full", §6.2).
inline void WarmUp(BufferManager& bm, AccessGenerator& gen,
                   uint64_t num_ops) {
  const double saved = LatencySimulator::scale();
  LatencySimulator::SetScale(0.0);
  Xoshiro256 rng(4242);
  std::vector<std::byte> buf(kTupleBytes);
  for (uint64_t i = 0; i < num_ops; ++i) {
    const auto a = gen.Next(rng);
    auto r = bm.FetchPage(a.page, a.is_write ? AccessIntent::kWrite
                                             : AccessIntent::kRead);
    if (!r.ok()) continue;
    if (a.is_write) {
      (void)r.value().WriteAt(a.offset, kTupleBytes, buf.data());
    } else {
      (void)r.value().ReadAt(a.offset, kTupleBytes, buf.data());
    }
  }
  bm.stats().Reset();
  if (bm.nvm_device() != nullptr) bm.nvm_device()->stats().Reset();
  bm.ssd()->stats().Reset();
  LatencySimulator::SetScale(saved);
}

// Closed-loop measurement: returns buffer manager operations per second.
inline double MeasureOps(BufferManager& bm, AccessGenerator& gen, int threads,
                         double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0xBE7C4 + static_cast<uint64_t>(t) * 977);
      std::vector<std::byte> buf(kTupleBytes);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto a = gen.Next(rng);
        auto r = bm.FetchPage(a.page, a.is_write ? AccessIntent::kWrite
                                                 : AccessIntent::kRead);
        if (!r.ok()) continue;
        if (a.is_write) {
          if (r.value().WriteAt(a.offset, kTupleBytes, buf.data()).ok()) {
            ++local;
          }
        } else {
          if (r.value().ReadAt(a.offset, kTupleBytes, buf.data()).ok()) {
            ++local;
          }
        }
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

// Convenience: build, populate, warm, and measure one configuration.
struct RunResult {
  double ops_per_sec = 0;
  double inclusivity = 0;
  uint64_t nvm_media_bytes_written = 0;
  uint64_t ssd_ops = 0;
};

inline RunResult RunPoint(const HierarchySpec& spec, const AccessPattern& pat,
                          int threads, double seconds,
                          uint64_t warm_ops = 0) {
  Hierarchy h = MakeHierarchy(spec);
  Populate(*h.bm, pat.num_pages);
  AccessGenerator gen(pat);
  if (warm_ops == 0) {
    // Default: enough for lazy policies (Dr = 0.01 needs ~100 touches per
    // hot page to promote it) to reach steady-state placement.
    warm_ops = pat.num_pages + 300'000;
  }
  WarmUp(*h.bm, gen, warm_ops);
  RunResult res;
  res.ops_per_sec = MeasureOps(*h.bm, gen, threads, seconds);
  res.inclusivity = h.bm->InclusivityRatio();
  if (h.bm->nvm_device() != nullptr) {
    res.nvm_media_bytes_written =
        h.bm->nvm_device()->stats().media_bytes_written.load();
  }
  res.ssd_ops = h.bm->ssd()->stats().num_reads.load() +
                h.bm->ssd()->stats().num_writes.load();
  return res;
}

// ---------------------------------------------------------------------------
// Machine-readable output
// ---------------------------------------------------------------------------

// Accumulates one flat JSON object and prints it as a single line. Used by
// the micro benchmarks so regressions are diffable:
//   JsonLine().Str("bench", "micro_hit_path").Num("threads", 8).Print();
class JsonLine {
 public:
  JsonLine& Str(const char* key, const std::string& v) {
    Key(key);
    buf_ += '"';
    buf_ += v;
    buf_ += '"';
    return *this;
  }
  JsonLine& Num(const char* key, double v) {
    char tmp[64];
    // %.1f keeps big throughput numbers diff-friendly, but collapses
    // small config values (0.05 would print as "0.1"); small magnitudes
    // get significant digits instead.
    if (v < 10.0 && v > -10.0) {
      std::snprintf(tmp, sizeof(tmp), "%.4g", v);
    } else {
      std::snprintf(tmp, sizeof(tmp), "%.1f", v);
    }
    Key(key);
    buf_ += tmp;
    return *this;
  }
  JsonLine& Num(const char* key, uint64_t v) {
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%llu", (unsigned long long)v);
    Key(key);
    buf_ += tmp;
    return *this;
  }
  JsonLine& Num(const char* key, int v) {
    return Num(key, static_cast<uint64_t>(v));
  }
  // Pre-rendered JSON value (e.g. an array of slice throughputs).
  JsonLine& Raw(const char* key, const std::string& v) {
    Key(key);
    buf_ += v;
    return *this;
  }
  void Print() { std::printf("{%s}\n", buf_.c_str()); }

 private:
  void Key(const char* key) {
    if (!buf_.empty()) buf_ += ", ";
    buf_ += '"';
    buf_ += key;
    buf_ += "\": ";
  }
  std::string buf_;
};

// Attaches tail-latency percentiles (in microseconds) of a nanosecond
// latency histogram: the p999 is what distinguishes "one slow queue" from
// "the whole device stalled" in the multi-queue model.
inline JsonLine& AddLatencyPercentiles(JsonLine& line, const Histogram& h) {
  line.Num("p50_us", static_cast<double>(h.Percentile(50)) * 1e-3)
      .Num("p99_us", static_cast<double>(h.Percentile(99)) * 1e-3)
      .Num("p999_us", static_cast<double>(h.Percentile(99.9)) * 1e-3);
  return line;
}

inline void PrintBanner(const char* id, const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("(scaled reproduction: paper GB -> MB, threads -> {1,2};\n");
  std::printf(" compare shapes/ratios, not absolute numbers)\n");
  std::printf("==========================================================\n");
}

}  // namespace spitfire::bench

#endif  // SPITFIRE_BENCH_BENCH_UTIL_H_
