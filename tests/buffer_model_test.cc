// Differential fuzz of the buffer manager against a reference model: one
// 16 KB image per page id. Random NewPage, FetchPage + ReadAt/WriteAt,
// whole-page RawData reads, RawData writes that mark only the range they
// change, scans of consecutive pages (which fire read-ahead), FlushPage,
// FlushAll and SetPolicy sequences
// run over every hierarchy, migration policy, replacer and HyMem mode,
// and every byte read back is compared with the model.
//
// Replay: each configuration's operation stream is drawn from
// SPITFIRE_FUZZ_SEED (the crash fuzzer's knob) mixed with the
// configuration's name; a failure prints both. The buffer manager's own
// migration coin flips come from per-thread PRNGs, so a replay reproduces
// the operation sequence, not every placement decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/page.h"
#include "common/random.h"
#include "storage/memory_mode_device.h"
#include "storage/perf_model.h"
#include "storage/ssd_device.h"

namespace spitfire {
namespace {

uint64_t EnvOr(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

enum class PolicyKind { kEager, kLazy, kRandom };
enum class Hymem { kOff, kCacheLineGrained, kMiniPages };

struct ModelConfig {
  std::string name;
  size_t dram_frames = 0;
  size_t nvm_frames = 0;
  // DRAM tier backed by a MemoryModeDevice (NVM behind a DRAM cache).
  bool memory_mode = false;
  PolicyKind policy = PolicyKind::kEager;
  ReplacerKind dram_replacer = ReplacerKind::kClock;
  ReplacerKind nvm_replacer = ReplacerKind::kClock;
  Hymem hymem = Hymem::kOff;
  bool admission_queue = false;
  // Pages the single-threaded pass creates; about twice the buffered
  // frames, so pages keep moving between the tiers and the SSD.
  size_t pages = 48;
};

// Every hierarchy, policy, replacer and HyMem mode appears at least
// once; this is a covering list, not the cross product.
std::vector<ModelConfig> Configs() {
  std::vector<ModelConfig> c;
  {
    ModelConfig m;
    m.name = "DramSsd";
    m.dram_frames = 16;
    m.pages = 40;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "DramSsdLazyTwoQ";
    m.dram_frames = 64;
    m.policy = PolicyKind::kLazy;
    m.dram_replacer = ReplacerKind::kTwoQ;
    m.pages = 160;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "MemoryModeRandom";
    m.dram_frames = 16;
    m.memory_mode = true;
    m.policy = PolicyKind::kRandom;
    m.pages = 40;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "NvmSsdTwoQ";
    m.nvm_frames = 16;
    m.nvm_replacer = ReplacerKind::kTwoQ;
    m.pages = 40;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "ThreeTierEager";
    m.dram_frames = 8;
    m.nvm_frames = 16;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "ThreeTierLazyTwoQ";
    m.dram_frames = 8;
    m.nvm_frames = 16;
    m.policy = PolicyKind::kLazy;
    m.dram_replacer = ReplacerKind::kTwoQ;
    m.nvm_replacer = ReplacerKind::kTwoQ;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "ThreeTierRandom";
    m.dram_frames = 32;
    m.nvm_frames = 64;
    m.policy = PolicyKind::kRandom;
    m.nvm_replacer = ReplacerKind::kTwoQ;
    m.pages = 192;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "ThreeTierCacheLineGrained";
    m.dram_frames = 8;
    m.nvm_frames = 16;
    m.hymem = Hymem::kCacheLineGrained;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "ThreeTierMiniPagesLazy";
    m.dram_frames = 8;
    m.nvm_frames = 16;
    m.policy = PolicyKind::kLazy;
    m.hymem = Hymem::kMiniPages;
    c.push_back(m);
  }
  {
    ModelConfig m;
    m.name = "ThreeTierAdmissionQueue";
    m.dram_frames = 8;
    m.nvm_frames = 16;
    m.admission_queue = true;
    c.push_back(m);
  }
  return c;
}

MigrationPolicy RandomPolicy(Xoshiro256& rng) {
  static constexpr double kLevels[] = {0.0, 0.01, 0.2, 0.5, 1.0};
  const auto pick = [&] { return kLevels[rng.NextUint64(5)]; };
  MigrationPolicy p;
  p.dr = pick();
  p.dw = pick();
  p.nr = pick();
  p.nw = pick();
  return p;
}

MigrationPolicy InitialPolicy(const ModelConfig& c, Xoshiro256& rng) {
  if (c.admission_queue) return MigrationPolicy::Hymem();
  switch (c.policy) {
    case PolicyKind::kEager:
      return MigrationPolicy::Eager();
    case PolicyKind::kLazy:
      return MigrationPolicy::Lazy();
    case PolicyKind::kRandom:
      break;
  }
  return RandomPolicy(rng);
}

// Operations per configuration: one thread, then each of four threads.
// ThreadSanitizer runs the engine about 20x slower, and what it adds here
// is the threaded pass, so under it the single-threaded pass shrinks most.
#if defined(__SANITIZE_THREAD__)
constexpr size_t kSingleThreadOps = 2500;
constexpr size_t kOpsPerThread = 2000;
#else
constexpr size_t kSingleThreadOps = 20000;
constexpr size_t kOpsPerThread = 4000;
#endif
constexpr int kThreads = 4;

// The checksum field of the page header: WriteToSsd stamps it on every
// SSD write, so a page that made an SSD round trip carries a stamp its
// model never saw. Comparisons skip these bytes.
constexpr size_t kChecksumBegin = offsetof(PageHeader, checksum);
constexpr size_t kChecksumEnd = kChecksumBegin + sizeof(uint64_t);

// Owns the devices and the buffer manager of one configuration.
struct Engine {
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<MemoryModeDevice> memory_mode;
  std::unique_ptr<BufferManager> bm;

  Engine(const ModelConfig& c, const MigrationPolicy& policy) {
    ssd = std::make_unique<SsdDevice>(16ull * 1024 * 1024);
    BufferManagerOptions opt;
    opt.dram_frames = c.dram_frames;
    opt.nvm_frames = c.nvm_frames;
    opt.policy = policy;
    opt.dram_replacer = c.dram_replacer;
    opt.nvm_replacer = c.nvm_replacer;
    opt.enable_fine_grained_loading = c.hymem != Hymem::kOff;
    opt.enable_mini_pages = c.hymem == Hymem::kMiniPages;
    opt.mini_host_frames = 2;
    if (c.admission_queue) {
      opt.nvm_admission = NvmAdmissionMode::kAdmissionQueue;
    }
    opt.ssd = ssd.get();
    if (c.memory_mode) {
      memory_mode = std::make_unique<MemoryModeDevice>(
          BufferPool::RequiredCapacity(c.dram_frames,
                                       /*persistent_frame_table=*/false),
          /*dram_cache_capacity=*/4 * kPageSize);
      opt.dram_backing = memory_mode.get();
    }
    bm = std::make_unique<BufferManager>(opt);
  }
};

// One thread's operation stream over the pages it created, checked
// against its own model. `strict` (single-threaded) treats every failed
// call as a divergence; otherwise a transient Busy / OutOfMemory from
// contention with the other threads only skips the operation.
class ModelRun {
 public:
  ModelRun(BufferManager* bm, const ModelConfig& config, uint64_t seed,
           size_t max_pages, bool strict)
      : bm_(bm),
        config_(config),
        rng_(seed),
        max_pages_(max_pages),
        strict_(strict) {}

  // Runs `ops` operations and then reads every page back in full.
  // Returns an empty string, or a description of the first divergence.
  std::string Run(size_t ops) {
    for (op_ = 0; op_ < ops && error_.empty(); ++op_) Step();
    for (page_id_t pid : pids_) {
      if (!error_.empty()) break;
      auto r = bm_->FetchPage(pid, AccessIntent::kRead);
      if (!Check(r.status(), "final FetchPage")) continue;
      std::vector<std::byte> buf(kPageSize);
      if (Check(r.value().ReadAt(0, kPageSize, buf.data()), "final ReadAt")) {
        Compare(pid, 0, kPageSize, buf.data(), "final ReadAt");
      }
    }
    return error_;
  }

  size_t skipped() const { return skipped_; }

 private:
  void Step() {
    if (pids_.empty() ||
        (pids_.size() < max_pages_ && rng_.Bernoulli(0.1))) {
      NewPage();
      return;
    }
    const uint64_t dice = rng_.NextUint64(100);
    if (dice < 60) {
      Access();
    } else if (dice < 65) {
      Scan();
    } else if (dice < 75) {
      RawWrite();
    } else if (dice < 87) {
      RawRead();
    } else if (dice < 94) {
      const page_id_t pid = pids_[rng_.NextUint64(pids_.size())];
      Check(bm_->FlushPage(pid), "FlushPage");
    } else if (dice < 97) {
      size_t skipped = 0;
      Check(bm_->FlushAll(/*include_nvm=*/rng_.Bernoulli(0.5), &skipped),
            "FlushAll");
    } else {
      // Alternate between a random policy and the configuration's own,
      // so the configured policy stays in force for most of the run.
      random_policy_ = !random_policy_;
      bm_->SetPolicy(random_policy_ ? RandomPolicy(rng_)
                                    : InitialPolicy(config_, rng_));
    }
  }

  void NewPage() {
    const uint32_t type = static_cast<uint32_t>(rng_.NextUint64(4));
    auto r = bm_->NewPage(type);
    if (!Check(r.status(), "NewPage")) return;
    const page_id_t pid = r.value().pid();
    std::vector<std::byte> image(kPageSize);
    PageView(image.data()).Format(pid, type);
    model_[pid] = std::move(image);
    pids_.push_back(pid);
  }

  // Draws [offset, offset + size) for one access: empty ranges (at 0, at
  // a unit boundary, at the page end), ranges ending at the page end,
  // ranges straddling a unit boundary, small and tuple-sized ones. Writes
  // stay out of the header except for empty ones.
  void DrawRange(bool write, size_t* offset, size_t* size) {
    const size_t lo = write ? kPageHeaderSize : 0;
    switch (rng_.NextUint64(6)) {
      case 0: {
        static constexpr size_t kEmptyAt[] = {0, 256, 4096, kPageSize};
        *offset = kEmptyAt[rng_.NextUint64(4)];
        *size = 0;
        return;
      }
      case 1:
        *size = 1 + rng_.NextUint64(kPageSize / 4);
        *offset = kPageSize - *size;
        return;
      case 2: {
        // Multiples of 256 are unit boundaries at the default 256 B
        // loading unit, which every configuration here uses.
        const size_t boundary = 256 * (1 + rng_.NextUint64(63));
        *offset = boundary - 1 - rng_.NextUint64(200);
        *size = boundary - *offset + 1 + rng_.NextUint64(200);
        break;
      }
      case 3:
        *size = 1 + rng_.NextUint64(16);
        *offset = rng_.NextUint64(kPageSize - *size + 1);
        break;
      case 4:
        *size = 1000;
        *offset = rng_.NextUint64(kPageSize - *size + 1);
        break;
      default:
        *size = 1 + rng_.NextUint64(4096);
        *offset = rng_.NextUint64(kPageSize - *size + 1);
        break;
    }
    if (*offset < lo) *offset = lo;
    if (*offset + *size > kPageSize) *size = kPageSize - *offset;
  }

  void Access() {
    const page_id_t pid = pids_[rng_.NextUint64(pids_.size())];
    const bool write_intent = rng_.Bernoulli(0.5);
    auto r = bm_->FetchPage(
        pid, write_intent ? AccessIntent::kWrite : AccessIntent::kRead);
    if (!Check(r.status(), "FetchPage")) return;
    PageGuard g = r.MoveValue();
    const int n = 1 + static_cast<int>(rng_.NextUint64(3));
    for (int i = 0; i < n && error_.empty(); ++i) {
      const bool write = write_intent && rng_.Bernoulli(0.6);
      size_t offset = 0;
      size_t size = 0;
      DrawRange(write, &offset, &size);
      std::vector<std::byte> buf(size);
      if (write) {
        for (std::byte& b : buf) {
          b = static_cast<std::byte>(rng_.Next());
        }
        if (!Check(g.WriteAt(offset, size, buf.data()), "WriteAt")) return;
        std::copy(buf.begin(), buf.end(), model_[pid].begin() + offset);
      } else {
        if (!Check(g.ReadAt(offset, size, buf.data()), "ReadAt")) return;
        Compare(pid, offset, size, buf.data(), "ReadAt");
      }
    }
    // An out-of-range access is refused and changes nothing.
    if (rng_.Bernoulli(0.05)) {
      std::byte b{};
      const Status read = g.ReadAt(kPageSize, 1, &b);
      const Status write = g.WriteAt(kPageSize - 4, 8, &b);
      if (read.code() != StatusCode::kInvalidArgument ||
          write.code() != StatusCode::kInvalidArgument) {
        Fail(pid, "out-of-range access was not refused");
      }
    }
  }

  // Reads a run of this thread's pages in page-id order — consecutive ids
  // in the single-threaded pass — so the sequential-miss detector starts
  // read-ahead windows, and every window install is checked in full.
  void Scan() {
    const size_t first = rng_.NextUint64(pids_.size());
    const size_t end =
        std::min(pids_.size(), first + 4 + rng_.NextUint64(13));
    std::vector<std::byte> buf(kPageSize);
    for (size_t i = first; i < end && error_.empty(); ++i) {
      const page_id_t pid = pids_[i];
      auto r = bm_->FetchPage(pid, AccessIntent::kRead);
      if (!Check(r.status(), "scan FetchPage")) return;
      if (Check(r.value().ReadAt(0, kPageSize, buf.data()), "scan ReadAt")) {
        Compare(pid, 0, kPageSize, buf.data(), "scan ReadAt");
      }
    }
  }

  // Writes a range through the raw frame and marks only that range dirty,
  // as the table heap and the B+Tree do: a partial write-back that misses
  // a changed unit loses bytes the model still has.
  void RawWrite() {
    const page_id_t pid = pids_[rng_.NextUint64(pids_.size())];
    auto r = bm_->FetchPage(pid, AccessIntent::kWrite);
    if (!Check(r.status(), "FetchPage")) return;
    PageGuard g = r.MoveValue();
    std::byte* p = g.RawData();
    if (p == nullptr) {
      Check(Status::Busy("RawData found no frame"), "RawData");
      return;
    }
    size_t offset = 0;
    size_t size = 0;
    DrawRange(/*write=*/true, &offset, &size);
    std::byte* want = model_[pid].data();
    for (size_t i = offset; i < offset + size; ++i) {
      p[i] = want[i] = static_cast<std::byte>(rng_.Next());
    }
    g.MarkDirty(offset, size);
  }

  void RawRead() {
    const page_id_t pid = pids_[rng_.NextUint64(pids_.size())];
    auto r = bm_->FetchPage(pid, AccessIntent::kRead);
    if (!Check(r.status(), "FetchPage")) return;
    PageGuard g = r.MoveValue();
    const std::byte* p = g.RawData();
    if (p == nullptr) {
      // A mini copy whose promotion found no free frame.
      Check(Status::Busy("RawData found no frame"), "RawData");
      return;
    }
    Compare(pid, 0, kPageSize, p, "RawData");
  }

  bool Check(const Status& st, const char* what) {
    if (st.ok()) return true;
    if (!strict_ && (st.IsBusy() || st.IsOutOfMemory())) {
      ++skipped_;
      return false;
    }
    std::ostringstream os;
    os << "op " << op_ << ": " << what << " failed: " << st.ToString();
    if (error_.empty()) error_ = os.str();
    return false;
  }

  void Compare(page_id_t pid, size_t offset, size_t size,
               const std::byte* got, const char* what) {
    const std::byte* want = model_[pid].data();
    for (size_t i = offset; i < offset + size; ++i) {
      if (i >= kChecksumBegin && i < kChecksumEnd) continue;
      if (got[i - offset] != want[i]) {
        std::ostringstream os;
        os << what << " [" << offset << ", " << offset + size
           << ") differs from the model at byte " << i << ": got "
           << static_cast<int>(got[i - offset]) << ", want "
           << static_cast<int>(want[i]);
        Fail(pid, os.str());
        return;
      }
    }
  }

  void Fail(page_id_t pid, const std::string& msg) {
    if (!error_.empty()) return;
    std::ostringstream os;
    os << "op " << op_ << ", page " << pid << ": " << msg;
    error_ = os.str();
  }

  BufferManager* const bm_;
  const ModelConfig& config_;
  Xoshiro256 rng_;
  const size_t max_pages_;
  const bool strict_;
  std::unordered_map<page_id_t, std::vector<std::byte>> model_;
  std::vector<page_id_t> pids_;
  bool random_policy_ = false;
  size_t op_ = 0;
  size_t skipped_ = 0;
  std::string error_;
};

uint64_t ConfigSeed(const ModelConfig& c) {
  return EnvOr("SPITFIRE_FUZZ_SEED", 0x5EED) * 0x9E3779B97F4A7C15ull ^
         std::hash<std::string>{}(c.name);
}

std::string Repro(const ModelConfig& c) {
  return "replay: SPITFIRE_FUZZ_SEED=" +
         std::to_string(EnvOr("SPITFIRE_FUZZ_SEED", 0x5EED)) +
         " --gtest_filter=*" + c.name + "* (config seed " +
         std::to_string(ConfigSeed(c)) + ")";
}

class BufferModelTest : public ::testing::TestWithParam<ModelConfig> {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }
};

// One thread drives the whole page set; the configuration must both
// evict and move pages up a tier, or the run proved nothing. Moving up is
// an NVM→DRAM promotion in a three-tier hierarchy and an SSD fetch in a
// two-tier one. A DRAM–SSD hierarchy must also have installed read-ahead
// windows, so their pages were checked against the model.
TEST_P(BufferModelTest, SingleThreadMatchesModel) {
  const ModelConfig& c = GetParam();
  SCOPED_TRACE(Repro(c));
  Xoshiro256 policy_rng(ConfigSeed(c) ^ 0x9011C7);
  Engine e(c, InitialPolicy(c, policy_rng));
  ModelRun run(e.bm.get(), c, ConfigSeed(c), c.pages, /*strict=*/true);
  const std::string err = run.Run(kSingleThreadOps);
  ASSERT_TRUE(err.empty()) << err;

  const BufferStatsSnapshot s = e.bm->stats().Snapshot();
  EXPECT_GT(s.dram_evictions + s.nvm_evictions, 0u) << s.ToString();
  if (c.dram_frames > 0 && c.nvm_frames > 0) {
    EXPECT_GT(s.promotions, 0u) << s.ToString();
  } else {
    EXPECT_GT(s.ssd_fetches, 0u) << s.ToString();
  }
  if (c.dram_frames > 0 && c.nvm_frames == 0) {
    EXPECT_GT(s.read_ahead_installs, 0u) << s.ToString();
  }
}

// Four threads on disjoint page sets (each creates its own pages), so
// every thread's model stays exact while the threads contend for frames,
// latches, flushes and policy changes.
TEST_P(BufferModelTest, FourThreadsOnDisjointPagesMatchModel) {
  const ModelConfig& c = GetParam();
  SCOPED_TRACE(Repro(c));
  Xoshiro256 policy_rng(ConfigSeed(c) ^ 0x9011C7);
  Engine e(c, InitialPolicy(c, policy_rng));
  std::vector<std::string> errors(kThreads);
  std::vector<size_t> skipped(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ModelRun run(e.bm.get(), c, ConfigSeed(c) + 1 + t,
                   c.pages / kThreads + 4, /*strict=*/false);
      errors[t] = run.Run(kOpsPerThread);
      skipped[t] = run.skipped();
    });
  }
  for (auto& w : workers) w.join();
  size_t total_skipped = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
    total_skipped += skipped[t];
  }
  // Contention may refuse a few operations, never most of them.
  EXPECT_LT(total_skipped, kThreads * kOpsPerThread / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Hierarchies, BufferModelTest, ::testing::ValuesIn(Configs()),
    [](const ::testing::TestParamInfo<ModelConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace spitfire
