#ifndef SPITFIRE_ADAPTIVE_ONLINE_TUNER_H_
#define SPITFIRE_ADAPTIVE_ONLINE_TUNER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "adaptive/annealing_tuner.h"
#include "buffer/migration_policy.h"
#include "buffer/stats.h"

namespace spitfire {

class BufferManager;

// Continuous online tuning of the migration probabilities ⟨Dr,Dw,Nr,Nw⟩
// (Section 4, promoted from the offline epoch loop in bench/fig10).
//
// A background thread samples BufferStats every kWindowSeconds and runs a
// small state machine over the per-window deltas:
//
//   annealing ──temperature floor──> holding ──sustained drift──> annealing
//
//  - While ANNEALING, each window's throughput (fetch delta / window) is an
//    epoch for the simulated-annealing search: the tuner applies the next
//    candidate policy to the live BufferManager (SetPolicy is lock-free)
//    and cools. Online windows are short and noisy, so the default
//    schedule is much hotter-to-colder than the paper's offline one
//    (t0=2.0, alpha=0.8, floor 0.01 → ~24 windows per convergence).
//  - Once converged it HOLDS the best policy and watches the workload-mix
//    signature: per-window counter deltas normalized by total fetches
//    (DRAM/NVM hit shares, SSD fetch share, promotion/demotion rates,
//    write-intent share). The baseline tracks slow change via EMA
//    (kBaselineEma); re-convergence triggers only after kDriftWindows
//    CONSECUTIVE windows whose L1 distance from the baseline exceeds
//    kDriftThreshold (hysteresis — a single odd window never thrashes
//    the policy), and the annealing restart is seeded from the best
//    policy so far (warm restart).
//  - Windows with less than `min_window_fetches` replacer-visible
//    activity — fetches plus sampled hit accesses plus read-ahead
//    installs — are ignored entirely: an idle system neither anneals nor
//    drifts. (Gating on fetches alone made the tuner idle through pure
//    scan phases, whose windows are latency-bound: one fetch per
//    multi-hundred-µs op leaves the fetch delta under any useful
//    threshold even at full load.)
//
// The sampling and policy-application points are injected as callbacks so
// tests can drive Step() deterministically with synthetic snapshots; the
// BufferManager convenience constructor wires stats().Snapshot() and
// SetPolicy(). Start()/Stop() manage the thread (Stop is idempotent and
// runs in the destructor).
struct OnlineTunerOptions {
  // Annealing schedule for online windows (see above); `annealing.seed`
  // etc. can still be overridden by the caller.
  AnnealingOptions annealing = [] {
    AnnealingOptions a;
    a.initial_temperature = 2.0;
    a.min_temperature = 0.01;
    a.cooling_rate = 0.8;
    return a;
  }();
  // Minimum replacer-visible activity (fetches + sampled accesses +
  // read-ahead installs) for a window to count. Name kept for
  // compatibility with existing configs.
  uint64_t min_window_fetches = 256;
};

class OnlineTuner {
 public:
  // Sampling period of the background thread.
  static constexpr double kWindowSeconds = 0.05;
  // Workload-drift detection (holding state).
  static constexpr double kDriftThreshold = 0.35;  // L1 over the signature
  static constexpr int kDriftWindows = 3;  // consecutive drifted windows
  static constexpr double kBaselineEma = 0.2;  // baseline <- (1-a)*b + a*sig

  using SampleFn = std::function<BufferStatsSnapshot()>;
  using ApplyFn = std::function<void(const MigrationPolicy&)>;

  // Wires sampling to bm->stats().Snapshot() and application to
  // bm->SetPolicy(); starts from bm->policy().
  OnlineTuner(BufferManager* bm, const OnlineTunerOptions& options);
  // Callback form for tests and custom embeddings. No thread is started
  // until Start().
  OnlineTuner(SampleFn sample, ApplyFn apply, MigrationPolicy initial,
              const OnlineTunerOptions& options);
  ~OnlineTuner();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(OnlineTuner);

  void Start();
  void Stop();

  // One tuning window over the delta since the previous Step (or since
  // construction). `window_seconds` is the wall time the delta covers.
  // The background thread calls this on its tick; tests call it directly.
  void Step(const BufferStatsSnapshot& snapshot, double window_seconds);

  // Introspection (all safe to read concurrently with the thread).
  bool converged() const {
    return converged_.load(std::memory_order_relaxed);
  }
  MigrationPolicy policy() const {
    std::lock_guard<std::mutex> l(mu_);
    return applied_;
  }
  uint64_t windows() const { return windows_.load(std::memory_order_relaxed); }
  uint64_t reconvergences() const {
    return reconvergences_.load(std::memory_order_relaxed);
  }
  // Window index at which the current (or latest) annealing run converged.
  uint64_t last_converged_window() const {
    return last_converged_window_.load(std::memory_order_relaxed);
  }

 private:
  // Normalized workload-mix signature of one window's counter deltas.
  struct Signature {
    static constexpr int kDims = 7;
    double v[kDims] = {};
    static Signature FromDelta(const BufferStatsSnapshot& delta);
    double L1Distance(const Signature& other) const;
  };

  void ThreadLoop();
  void ApplyLocked(const MigrationPolicy& p);

  const OnlineTunerOptions options_;
  SampleFn sample_;
  ApplyFn apply_;

  mutable std::mutex mu_;  // guards tuner_, baseline_, applied_
  std::optional<AnnealingTuner> tuner_;
  MigrationPolicy applied_;
  BufferStatsSnapshot prev_;
  bool have_prev_ = false;
  std::optional<Signature> baseline_;
  int drift_run_ = 0;

  std::atomic<bool> converged_{false};
  std::atomic<uint64_t> windows_{0};
  std::atomic<uint64_t> reconvergences_{0};
  std::atomic<uint64_t> last_converged_window_{0};

  std::thread thread_;
  std::condition_variable cv_;
  std::mutex thread_mu_;
  bool stop_ = false;
  bool running_ = false;
};

}  // namespace spitfire

#endif  // SPITFIRE_ADAPTIVE_ONLINE_TUNER_H_
