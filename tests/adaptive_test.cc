#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "adaptive/annealing_tuner.h"
#include "adaptive/grid_search.h"
#include "adaptive/online_tuner.h"
#include "buffer/stats.h"

namespace spitfire {
namespace {

// A synthetic performance model: throughput peaks at the lazy policy, as
// the paper measures for capacity-constrained hierarchies.
double SyntheticThroughput(const MigrationPolicy& p) {
  auto closeness = [](double v, double target) {
    return 1.0 / (1.0 + 20.0 * std::abs(v - target));
  };
  return 100'000.0 * (0.2 + 0.8 * (closeness(p.dr, 0.01) * closeness(p.dw, 0.01) *
                                   closeness(p.nr, 0.2) * closeness(p.nw, 1.0)));
}

TEST(AnnealingTunerTest, StartsAtInitialPolicy) {
  AnnealingOptions opts;
  AnnealingTuner tuner(opts, MigrationPolicy::Eager());
  EXPECT_DOUBLE_EQ(tuner.current().dr, 1.0);
  EXPECT_EQ(tuner.epochs(), 0u);
}

TEST(AnnealingTunerTest, NeighborsStayOnLattice) {
  AnnealingOptions opts;
  AnnealingTuner tuner(opts, MigrationPolicy::Eager());
  for (int i = 0; i < 200; ++i) {
    const MigrationPolicy p = tuner.OnEpochComplete(1000.0);
    for (double v : {p.dr, p.dw, p.nr, p.nw}) {
      bool on_lattice = false;
      for (double l : opts.lattice) {
        if (v == l) on_lattice = true;
      }
      EXPECT_TRUE(on_lattice) << v;
    }
  }
}

TEST(AnnealingTunerTest, TemperatureCools) {
  AnnealingOptions opts;
  AnnealingTuner tuner(opts, MigrationPolicy::Eager());
  const double t0 = tuner.temperature();
  for (int i = 0; i < 50; ++i) tuner.OnEpochComplete(1000.0);
  EXPECT_LT(tuner.temperature(), t0);
}

TEST(AnnealingTunerTest, TracksBestObservedPolicy) {
  AnnealingOptions opts;
  AnnealingTuner tuner(opts, MigrationPolicy::Eager());
  for (int i = 0; i < 100; ++i) {
    tuner.OnEpochComplete(SyntheticThroughput(tuner.current()));
  }
  EXPECT_GE(tuner.best_throughput(),
            SyntheticThroughput(MigrationPolicy::Eager()));
}

TEST(AnnealingTunerTest, ConvergesNearOptimumOnSyntheticModel) {
  // The paper's claim (Section 6.4): starting from the eager policy, the
  // tuner converges to a near-optimal (lazy) policy without manual tuning.
  AnnealingOptions opts;
  opts.initial_temperature = 10.0;
  opts.cooling_rate = 0.85;
  AnnealingTuner tuner(opts, MigrationPolicy::Eager());
  for (int epoch = 0; epoch < 120; ++epoch) {
    tuner.OnEpochComplete(SyntheticThroughput(tuner.current()));
  }
  const double best = tuner.best_throughput();
  const double optimal = SyntheticThroughput(MigrationPolicy{0.01, 0.01, 0.1, 1.0});
  EXPECT_GT(best, 0.6 * optimal);
  // And far better than the eager starting point.
  EXPECT_GT(best, 1.5 * SyntheticThroughput(MigrationPolicy::Eager()));
}

TEST(AnnealingTunerTest, AfterConvergenceSticksToBest) {
  AnnealingOptions opts;
  opts.initial_temperature = 1.0;
  opts.min_temperature = 0.9;  // converge immediately
  AnnealingTuner tuner(opts, MigrationPolicy::Eager());
  tuner.OnEpochComplete(100.0);
  ASSERT_TRUE(tuner.converged());
  const MigrationPolicy p1 = tuner.OnEpochComplete(100.0);
  const MigrationPolicy p2 = tuner.OnEpochComplete(100.0);
  EXPECT_DOUBLE_EQ(p1.dr, p2.dr);
  EXPECT_DOUBLE_EQ(p1.nr, p2.nr);
}

TEST(GridSearchTest, CostUsesTable1Prices) {
  StorageConfig c;
  c.dram_bytes = 4ull << 30;   // 4 GB * $10
  c.nvm_bytes = 80ull << 30;   // 80 GB * $4.5
  c.ssd_bytes = 200ull << 30;  // 200 GB * $2.8
  const double gib = static_cast<double>(1ull << 30) / 1e9;
  EXPECT_NEAR(c.CostDollars(), (4 * 10 + 80 * 4.5 + 200 * 2.8) * gib, 1.0);
}

TEST(GridSearchTest, PerfPerPriceSelection) {
  std::vector<GridPoint> grid;
  StorageConfig small{1ull << 30, 0, 10ull << 30};
  StorageConfig big{32ull << 30, 160ull << 30, 10ull << 30};
  grid.push_back({small, 50'000});   // cheap, decent
  grid.push_back({big, 100'000});    // fast, expensive
  const GridPoint* best_pp = GridSearch::BestPerfPerPrice(grid);
  ASSERT_NE(best_pp, nullptr);
  EXPECT_EQ(best_pp->config.dram_bytes, small.dram_bytes);
  const GridPoint* best_t = GridSearch::BestThroughput(grid);
  ASSERT_NE(best_t, nullptr);
  EXPECT_EQ(best_t->config.dram_bytes, big.dram_bytes);
}

// ---------------------------------------------------------------------------
// OnlineTuner: driven deterministically through Step() with synthetic
// windows. A Mix describes the workload signature as fractions of the
// window's fetches; throughput follows the same peaked policy model above,
// so the annealing search has a real optimum to find.
// ---------------------------------------------------------------------------

struct Mix {
  double dram_hits, nvm_hits, ssd_fetches;        // must sum to ~1
  double promotions, demotions, nvm_installs, write_fetches;
};
constexpr Mix kPointMix{0.90, 0.05, 0.05, 0.02, 0.02, 0.03, 0.05};
constexpr Mix kWriteMix{0.55, 0.15, 0.30, 0.02, 0.25, 0.20, 0.85};

class TunerHarness {
 public:
  explicit TunerHarness(const OnlineTunerOptions& opts)
      : tuner_([] { return BufferStatsSnapshot{}; },
               [this](const MigrationPolicy& p) { applied_ = p; },
               MigrationPolicy::Eager(), opts) {}

  // One tuning window of `mix` traffic under the currently applied policy.
  // `fetch_scale` < 1 models a partially idle window.
  void Window(const Mix& mix, double fetch_scale = 1.0) {
    const double fetches =
        std::max(1.0, SyntheticThroughput(applied_) *
                          OnlineTuner::kWindowSeconds * fetch_scale);
    const auto n = [&](double frac) {
      return static_cast<uint64_t>(fetches * frac);
    };
    cum_.dram_hits += n(mix.dram_hits);
    cum_.nvm_hits += n(mix.nvm_hits);
    cum_.ssd_fetches += n(mix.ssd_fetches);
    cum_.promotions += n(mix.promotions);
    cum_.demotions_to_nvm += n(mix.demotions);
    cum_.nvm_installs += n(mix.nvm_installs);
    cum_.write_fetches += n(mix.write_fetches);
    tuner_.Step(cum_, OnlineTuner::kWindowSeconds);
  }

  void Windows(int count, const Mix& mix, double fetch_scale = 1.0) {
    for (int i = 0; i < count; ++i) Window(mix, fetch_scale);
  }

  // A latency-bound scan window: almost no fetches (one op in flight per
  // multi-hundred-µs device read), but heavy sampled hit traffic through
  // the replacer. The activity gate must count this as a live window.
  void ScanWindow(uint64_t sampled) {
    cum_.dram_hits += 2;  // far below min_window_fetches on its own
    cum_.replacer_sampled += sampled;
    cum_.read_ahead_installs += sampled / 8;
    tuner_.Step(cum_, OnlineTuner::kWindowSeconds);
  }

  OnlineTuner& tuner() { return tuner_; }
  const MigrationPolicy& applied() const { return applied_; }

 private:
  MigrationPolicy applied_;  // written by tuner_'s ctor; declare first
  BufferStatsSnapshot cum_;
  OnlineTuner tuner_;
};

// The default schedule (t0=2.0, alpha=0.8, floor 0.01) needs ~24 measured
// windows per convergence; allow slack.
constexpr int kConvergenceBudget = 40;

TEST(OnlineTunerTest, ConvergesWithinBoundedWindows) {
  TunerHarness h((OnlineTunerOptions()));
  int w = 0;
  while (!h.tuner().converged() && w < kConvergenceBudget) {
    h.Window(kPointMix);
    ++w;
  }
  EXPECT_TRUE(h.tuner().converged()) << "still annealing after " << w;
  EXPECT_EQ(h.tuner().reconvergences(), 0u);
  // The held policy is the search's best: no worse than the eager start.
  EXPECT_GE(SyntheticThroughput(h.applied()),
            SyntheticThroughput(MigrationPolicy::Eager()));
}

TEST(OnlineTunerTest, StableMixHoldsWithoutOscillation) {
  TunerHarness h((OnlineTunerOptions()));
  h.Windows(kConvergenceBudget, kPointMix);
  ASSERT_TRUE(h.tuner().converged());
  const MigrationPolicy held = h.tuner().policy();
  // 100 more identical windows: the policy must not move at all.
  for (int i = 0; i < 100; ++i) {
    h.Window(kPointMix);
    EXPECT_TRUE(h.tuner().converged());
    EXPECT_DOUBLE_EQ(h.tuner().policy().dr, held.dr);
    EXPECT_DOUBLE_EQ(h.tuner().policy().nw, held.nw);
  }
  EXPECT_EQ(h.tuner().reconvergences(), 0u);
}

TEST(OnlineTunerTest, MixShiftTriggersExactlyOneReconvergence) {
  OnlineTunerOptions opts;
  TunerHarness h(opts);
  h.Windows(kConvergenceBudget, kPointMix);
  ASSERT_TRUE(h.tuner().converged());

  // Shift the workload. Drift must fire only after kDriftWindows
  // consecutive drifted windows (hysteresis)...
  h.Windows(OnlineTuner::kDriftWindows - 1, kWriteMix);
  EXPECT_EQ(h.tuner().reconvergences(), 0u);
  h.Window(kWriteMix);
  EXPECT_EQ(h.tuner().reconvergences(), 1u);
  EXPECT_FALSE(h.tuner().converged());

  // ...and the tuner must re-converge on the new mix within the budget,
  // then hold: no further reconvergences while the mix stays put.
  h.Windows(kConvergenceBudget, kWriteMix);
  EXPECT_TRUE(h.tuner().converged());
  h.Windows(100, kWriteMix);
  EXPECT_EQ(h.tuner().reconvergences(), 1u) << "tuner oscillated";
}

TEST(OnlineTunerTest, SingleOddWindowDoesNotThrash) {
  static_assert(OnlineTuner::kDriftWindows >= 2);
  TunerHarness h((OnlineTunerOptions()));
  h.Windows(kConvergenceBudget, kPointMix);
  ASSERT_TRUE(h.tuner().converged());
  // Isolated anomalies (shorter than kDriftWindows) interleaved with
  // normal traffic must never trigger a re-anneal.
  for (int i = 0; i < 10; ++i) {
    h.Window(kWriteMix);
    h.Windows(5, kPointMix);
  }
  EXPECT_EQ(h.tuner().reconvergences(), 0u);
  EXPECT_TRUE(h.tuner().converged());
}

TEST(OnlineTunerTest, IdleWindowsAreIgnored) {
  OnlineTunerOptions opts;
  TunerHarness h(opts);
  h.Windows(kConvergenceBudget, kPointMix);
  ASSERT_TRUE(h.tuner().converged());
  const uint64_t windows_before = h.tuner().windows();
  // Near-idle windows of a wildly different mix: below min_window_fetches
  // they must neither drift nor anneal (scale chosen so fetches < minimum).
  h.Windows(20, kWriteMix, /*fetch_scale=*/0.04);
  EXPECT_EQ(h.tuner().reconvergences(), 0u);
  EXPECT_TRUE(h.tuner().converged());
  EXPECT_EQ(h.tuner().windows(), windows_before + 20);  // still counted
}

TEST(OnlineTunerTest, ScanWindowsCountAsActivity) {
  // A pure scan phase is fetch-starved but replacer-busy. Gating on
  // fetches alone made the tuner sit idle through such phases; the
  // activity gate must keep annealing on sampled accesses alone.
  OnlineTunerOptions opts;
  TunerHarness h(opts);
  int w = 0;
  while (!h.tuner().converged() && w < kConvergenceBudget) {
    h.ScanWindow(4096);  // 2 fetches + 4096 sampled per window
    ++w;
  }
  EXPECT_TRUE(h.tuner().converged())
      << "tuner ignored scan-phase windows; still annealing after " << w;
  EXPECT_EQ(h.tuner().windows(), static_cast<uint64_t>(w));
}

TEST(OnlineTunerTest, SubThresholdScanWindowsStillIgnored) {
  // The gate widened to replacer-visible activity, but a genuinely idle
  // window (total activity below the minimum) must still be skipped.
  OnlineTunerOptions opts;
  TunerHarness h(opts);
  h.Windows(kConvergenceBudget, kPointMix);
  ASSERT_TRUE(h.tuner().converged());
  for (int i = 0; i < 20; ++i) h.ScanWindow(32);  // 2 + 32 + 4 < 256
  EXPECT_EQ(h.tuner().reconvergences(), 0u);
  EXPECT_TRUE(h.tuner().converged());
}

TEST(GridSearchTest, BudgetFiltersCandidates) {
  std::vector<GridPoint> grid;
  StorageConfig cheap{0, 0, 10ull << 30};
  StorageConfig pricey{64ull << 30, 0, 10ull << 30};
  grid.push_back({cheap, 10'000});
  grid.push_back({pricey, 200'000});
  const GridPoint* within = GridSearch::BestWithinBudget(grid, 100.0);
  ASSERT_NE(within, nullptr);
  EXPECT_EQ(within->config.dram_bytes, 0u);
  EXPECT_EQ(GridSearch::BestWithinBudget(grid, 0.0), nullptr);
}

}  // namespace
}  // namespace spitfire
