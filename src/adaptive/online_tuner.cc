#include "adaptive/online_tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "buffer/buffer_manager.h"

namespace spitfire {

OnlineTuner::Signature OnlineTuner::Signature::FromDelta(
    const BufferStatsSnapshot& delta) {
  Signature s;
  const double total =
      std::max<double>(1.0, static_cast<double>(delta.TotalFetches()));
  s.v[0] = static_cast<double>(delta.dram_hits) / total;
  s.v[1] = static_cast<double>(delta.nvm_hits) / total;
  s.v[2] = static_cast<double>(delta.ssd_fetches) / total;
  s.v[3] = static_cast<double>(delta.promotions) / total;
  s.v[4] = static_cast<double>(delta.demotions_to_nvm + delta.demotions_to_ssd) /
           total;
  s.v[5] = static_cast<double>(delta.nvm_installs) / total;
  s.v[6] = static_cast<double>(delta.write_fetches) / total;
  return s;
}

double OnlineTuner::Signature::L1Distance(const Signature& other) const {
  double d = 0;
  for (int i = 0; i < kDims; ++i) d += std::fabs(v[i] - other.v[i]);
  return d;
}

OnlineTuner::OnlineTuner(BufferManager* bm, const OnlineTunerOptions& options)
    : OnlineTuner([bm] { return bm->stats().Snapshot(); },
                  [bm](const MigrationPolicy& p) { bm->SetPolicy(p); },
                  bm->policy(), options) {}

OnlineTuner::OnlineTuner(SampleFn sample, ApplyFn apply,
                         MigrationPolicy initial,
                         const OnlineTunerOptions& options)
    : options_(options),
      sample_(std::move(sample)),
      apply_(std::move(apply)),
      applied_(initial) {
  tuner_.emplace(options_.annealing, initial);
  // Run the first candidate from the start so window 1 measures it.
  ApplyLocked(tuner_->current());
}

OnlineTuner::~OnlineTuner() { Stop(); }

void OnlineTuner::ApplyLocked(const MigrationPolicy& p) {
  applied_ = p;
  apply_(p);
}

void OnlineTuner::Start() {
  std::lock_guard<std::mutex> l(thread_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { ThreadLoop(); });
}

void OnlineTuner::Stop() {
  {
    std::lock_guard<std::mutex> l(thread_mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
  {
    std::lock_guard<std::mutex> l(thread_mu_);
    running_ = false;
  }
}

void OnlineTuner::ThreadLoop() {
  std::unique_lock<std::mutex> l(thread_mu_);
  while (!stop_) {
    cv_.wait_for(
        l, std::chrono::duration<double>(kWindowSeconds),
        [this] { return stop_; });
    if (stop_) break;
    l.unlock();
    Step(sample_(), kWindowSeconds);
    l.lock();
  }
}

void OnlineTuner::Step(const BufferStatsSnapshot& snapshot,
                       double window_seconds) {
  std::lock_guard<std::mutex> l(mu_);
  const BufferStatsSnapshot delta =
      have_prev_ ? snapshot.Since(prev_) : snapshot;
  prev_ = snapshot;
  have_prev_ = true;

  windows_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t fetches = delta.TotalFetches();
  // Activity gate: fetches alone undercount phases whose windows are
  // latency-bound rather than fetch-bound (e.g. a pure scan doing one
  // SSD-latency fetch plus large reads per op — few fetches per window,
  // yet the workload is anything but idle). Count everything the replacer
  // saw: fetches, sampled hit accesses, and read-ahead installs. Truly
  // idle windows still contribute nothing and are skipped.
  const uint64_t activity =
      fetches + delta.replacer_sampled + delta.read_ahead_installs;
  if (activity < options_.min_window_fetches) return;  // idle window

  // Rank candidates by the same replacer-visible activity rate the gate
  // uses: in latency-bound windows the raw fetch rate is near-zero noise,
  // while sampled hits still move with the policy under test.
  const double throughput =
      static_cast<double>(activity) / std::max(1e-9, window_seconds);
  const Signature sig = Signature::FromDelta(delta);

  if (!tuner_->converged()) {
    // ANNEALING: this window measured tuner_->current(); report it and
    // run the next candidate.
    const MigrationPolicy next = tuner_->OnEpochComplete(throughput);
    if (tuner_->converged()) {
      ApplyLocked(tuner_->best());
      converged_.store(true, std::memory_order_relaxed);
      last_converged_window_.store(windows_.load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
      baseline_ = sig;  // the mix the held policy was tuned for
      drift_run_ = 0;
    } else {
      ApplyLocked(next);
    }
    return;
  }

  // HOLDING: watch the mix signature for sustained drift.
  if (!baseline_.has_value()) {
    baseline_ = sig;
    return;
  }
  const double dist = sig.L1Distance(*baseline_);
  if (dist <= kDriftThreshold) {
    drift_run_ = 0;
    // Track slow change so gradual shifts re-center instead of firing.
    const double a = kBaselineEma;
    for (int i = 0; i < Signature::kDims; ++i) {
      baseline_->v[i] = (1.0 - a) * baseline_->v[i] + a * sig.v[i];
    }
    return;
  }
  if (++drift_run_ < kDriftWindows) return;

  // Sustained drift: re-anneal, warm-started from the best policy so far.
  drift_run_ = 0;
  baseline_.reset();
  converged_.store(false, std::memory_order_relaxed);
  reconvergences_.fetch_add(1, std::memory_order_relaxed);
  AnnealingOptions a = options_.annealing;
  // Vary the seed per restart so a repeat of the same drift does not
  // replay an identical (possibly unlucky) search path.
  a.seed = options_.annealing.seed +
           0x9E3779B97F4A7C15ULL * reconvergences_.load();
  const MigrationPolicy warm = tuner_->best();
  tuner_.emplace(a, warm);
  ApplyLocked(tuner_->current());
}

}  // namespace spitfire
