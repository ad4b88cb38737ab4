// The cross-search caching subsystem and the fixed candidate comparator:
//  * candidate_better handles infinite objectives explicitly (the old
//    1%-band arithmetic produced inf-inf = NaN on infeasible ties),
//  * searches flag infeasible outcomes instead of silently returning a
//    garbage best,
//  * a SharedScoreCache serves many searches bit-identically to the
//    per-search ScoreCache while reporting cross-search reuse, from any
//    number of threads,
//  * exhaustive() enumerates the canonical quotient space: same best,
//    strictly fewer replays.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "dmm/alloc/config_rules.h"
#include "dmm/core/explorer.h"
#include "dmm/core/methodology.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

constexpr double kInf = std::numeric_limits<double>::infinity();

AllocTrace variable_size_trace(std::size_t events, unsigned seed = 3) {
  AllocTrace t;
  std::mt19937 rng(seed);
  std::vector<std::uint32_t> live;
  std::uint32_t next_id = 0;
  while (t.size() < events) {
    if (live.empty() || rng() % 3 != 0) {
      const std::uint32_t sizes[] = {40, 120, 576, 900, 1500, 2048, 7000};
      t.record_alloc(next_id, sizes[rng() % 7] + rng() % 64);
      live.push_back(next_id++);
    } else {
      const std::size_t i = rng() % live.size();
      t.record_free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  t.close_leaks();
  return t;
}

/// No manager can serve this: two simultaneously live ~3.75 GiB objects
/// exceed the arena's 4 GiB reservation, so every replay fails allocations
/// regardless of the decision vector.
AllocTrace infeasible_trace() {
  AllocTrace t;
  constexpr std::uint32_t kHuge = 0xF0000000u;  // ~3.75 GiB
  for (std::uint32_t pair = 0; pair < 3; ++pair) {
    t.record_alloc(2 * pair, kHuge);
    t.record_alloc(2 * pair + 1, kHuge);
    t.record_free(2 * pair);
    t.record_free(2 * pair + 1);
  }
  return t;
}

void expect_same_search(const ExplorationResult& a, const ExplorationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what << ": best vector differs";
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size());
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      EXPECT_EQ(a.steps[i].candidates[c].peak_footprint,
                b.steps[i].candidates[c].peak_footprint)
          << what << " step " << i << " cand " << c;
      EXPECT_EQ(a.steps[i].candidates[c].work_steps,
                b.steps[i].candidates[c].work_steps);
    }
  }
}

// ---------------------------------------------------------------------------
// candidate_better: the inf-inf => NaN tie bug
// ---------------------------------------------------------------------------

TEST(CandidateBetter, FeasibleAlwaysBeatsInfeasible) {
  // Even a huge finite peak wins against an infeasible candidate with a
  // seductive average footprint.
  EXPECT_TRUE(candidate_better(1e12, 0, 1e12, 1e9, kInf, 1, 10.0, 1));
  EXPECT_FALSE(candidate_better(kInf, 1, 10.0, 1, 1e12, 0, 1e12, 1e9));
}

TEST(CandidateBetter, InfeasibleTiesRankByFailureCount) {
  // The old comparator computed tol = 0.01 * min(inf, inf) = inf, then
  // abs(inf - inf) = NaN, and NaN > inf is false — so the comparison fell
  // through to average footprint and the config with MORE failed
  // allocations could win the tie.  Now the tie ranks by distance to
  // feasibility.
  EXPECT_TRUE(candidate_better(kInf, 1, 500.0, 10, kInf, 5, 100.0, 10))
      << "fewer failures must win even with a worse average footprint";
  EXPECT_FALSE(candidate_better(kInf, 5, 100.0, 10, kInf, 1, 500.0, 10))
      << "the old NaN fall-through preferred the lower average";
  // Equal failure counts: the footprint tiers still break the tie.
  EXPECT_TRUE(candidate_better(kInf, 3, 100.0, 10, kInf, 3, 500.0, 10));
  EXPECT_FALSE(candidate_better(kInf, 3, 100.0, 10, kInf, 3, 100.0, 10));
}

TEST(CandidateBetter, FinitePeaksKeepTheOnePercentBand) {
  // Clearly better peak wins.
  EXPECT_TRUE(candidate_better(100.0, 0, 50.0, 5, 200.0, 0, 10.0, 1));
  // Within 1%: falls to the average-footprint tier.
  EXPECT_TRUE(candidate_better(1000.0, 0, 10.0, 5, 1004.0, 0, 500.0, 1));
  EXPECT_FALSE(candidate_better(1004.0, 0, 500.0, 1, 1000.0, 0, 10.0, 5));
}

// ---------------------------------------------------------------------------
// Infeasible-only searches: feasible == false, no silent garbage best
// ---------------------------------------------------------------------------

class InfeasibleSearch : public ::testing::Test {
 protected:
  InfeasibleSearch() : trace_(infeasible_trace()) {}
  AllocTrace trace_;
};

TEST_F(InfeasibleSearch, ExploreFlagsInfeasibility) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.explore();
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.best_sim.failed_allocs, 0u);
}

TEST_F(InfeasibleSearch, ExhaustiveFlagsInfeasibility) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.exhaustive({TreeId::kB4, TreeId::kC1});
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.simulations + r.cache_hits, 0u);
  EXPECT_GT(r.best_sim.failed_allocs, 0u);
  // The least-bad vector is still a coherent one, just flagged unusable.
  EXPECT_TRUE(alloc::is_valid(r.best));
}

TEST_F(InfeasibleSearch, RandomSearchFlagsInfeasibility) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.random_search(10, /*seed=*/7);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.best_sim.failed_allocs, 0u);
}

TEST(FeasibleSearch, FeasibleCandidateBeatsInfeasibleOne) {
  // Peak live ~2 MiB: a statically preallocated 1 MiB pool must fail while
  // the adaptive leaves succeed — the comparator may never crown static.
  AllocTrace t;
  for (std::uint32_t i = 0; i < 64; ++i) t.record_alloc(i, 32 * 1024);
  for (std::uint32_t i = 0; i < 64; ++i) t.record_free(i);
  Explorer ex(t);
  const ExplorationResult r = ex.exhaustive({TreeId::kB4});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.best_sim.failed_allocs, 0u);
  EXPECT_NE(r.best.adaptivity, alloc::PoolAdaptivity::kStaticPreallocated);
}

// ---------------------------------------------------------------------------
// SharedScoreCache: sessions, keys, cross-search accounting
// ---------------------------------------------------------------------------

TEST(SharedScoreCache, SessionRoundTripAndCrossSearchAccounting) {
  SharedScoreCache cache;
  const DmmConfig cfg = alloc::drr_paper_config();
  const DmmConfig canon = alloc::canonical(cfg);
  SharedScoreCache::Entry entry;
  entry.sim.peak_footprint = 42;
  entry.work_steps = 7;

  auto first = cache.begin_search(/*trace_fingerprint=*/111);
  SharedScoreCache::Entry out;
  EXPECT_FALSE(first.lookup_canonical(canon, &out));
  first.insert_canonical(canon, entry);
  ASSERT_TRUE(first.lookup_canonical(canon, &out));
  EXPECT_EQ(out.sim.peak_footprint, 42u);
  EXPECT_EQ(out.work_steps, 7u);
  EXPECT_EQ(first.cross_search_hits(), 0u)
      << "a hit on the session's own entry is not cross-search";

  auto second = cache.begin_search(/*trace_fingerprint=*/111);
  ASSERT_TRUE(second.lookup_canonical(canon, &out));
  EXPECT_EQ(second.cross_search_hits(), 1u)
      << "a hit on another search's entry is cross-search";

  auto other_trace = cache.begin_search(/*trace_fingerprint=*/222);
  EXPECT_FALSE(other_trace.lookup_canonical(canon, &out))
      << "distinct traces must never share entries";

  const SharedScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.searches, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.cross_search_hits, 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Lower-bound entries: replays stopped at a peak cutoff
// ---------------------------------------------------------------------------

CandidateCache::Entry scored(std::size_t peak, bool stopped) {
  CandidateCache::Entry e;
  e.sim.peak_footprint = peak;
  e.sim.stopped = stopped;
  e.work_steps = peak / 10;
  return e;
}

/// The tier and upgrade contract, run against any CandidateCache.
void expect_lower_bound_contract(CandidateCache& cache,
                                 const std::string& what) {
  const DmmConfig canon = alloc::canonical(alloc::drr_paper_config());
  CandidateCache::Entry out;
  cache.insert_canonical(canon, scored(5000, /*stopped=*/true));
  EXPECT_FALSE(cache.lookup_canonical(canon, &out))
      << what << ": an exact lookup must never see a lower bound";
  EXPECT_FALSE(cache.lookup_canonical(canon, &out, 0)) << what;
  EXPECT_FALSE(cache.lookup_canonical(canon, &out, 5000))
      << what << ": a bound at the cutoff proves nothing";
  ASSERT_TRUE(cache.lookup_canonical(canon, &out, 4999)) << what;
  EXPECT_TRUE(out.sim.stopped) << what;
  EXPECT_EQ(out.sim.peak_footprint, 5000u) << what;

  // A lower stopped peak does not replace a higher one ...
  cache.insert_canonical(canon, scored(4000, true));
  ASSERT_TRUE(cache.lookup_canonical(canon, &out, 4999)) << what;
  EXPECT_EQ(out.sim.peak_footprint, 5000u) << what;
  // ... a higher one does ...
  cache.insert_canonical(canon, scored(7000, true));
  EXPECT_FALSE(cache.lookup_canonical(canon, &out)) << what;
  ASSERT_TRUE(cache.lookup_canonical(canon, &out, 6000)) << what;
  EXPECT_EQ(out.sim.peak_footprint, 7000u) << what;
  // ... and an exact score replaces any bound and answers every lookup.
  cache.insert_canonical(canon, scored(9000, false));
  ASSERT_TRUE(cache.lookup_canonical(canon, &out)) << what;
  EXPECT_FALSE(out.sim.stopped) << what;
  EXPECT_EQ(out.sim.peak_footprint, 9000u) << what;
  ASSERT_TRUE(cache.lookup_canonical(canon, &out, 100000))
      << what << ": an exact entry answers a cutoff lookup too";
  EXPECT_EQ(out.sim.peak_footprint, 9000u) << what;

  // Exact entries are final: neither a bound nor another write moves them.
  cache.insert_canonical(canon, scored(20000, true));
  cache.insert_canonical(canon, scored(1, false));
  ASSERT_TRUE(cache.lookup_canonical(canon, &out)) << what;
  EXPECT_FALSE(out.sim.stopped) << what;
  EXPECT_EQ(out.sim.peak_footprint, 9000u) << what;
}

TEST(LowerBoundEntries, ScoreCacheServesAndUpgradesByTheContract) {
  ScoreCache cache;
  expect_lower_bound_contract(cache, "ScoreCache");
  const DmmConfig cfg = alloc::minimal_config();
  cache.insert(cfg, scored(100, true));
  EXPECT_EQ(cache.lookup(cfg), nullptr)
      << "the by-config lookup is exact too";
}

TEST(LowerBoundEntries, SharedSessionsServeAndUpgradeByTheContract) {
  SharedScoreCache cache;
  auto session = cache.begin_search(111);
  expect_lower_bound_contract(session, "SharedScoreCache::Session");
  EXPECT_EQ(cache.stats().insertions, 1u) << "upgrades add no entry";

  // Across sessions: the upgrade moves provenance with the score, and a
  // lookup the bound cannot answer is a miss, not a hit.
  const DmmConfig canon = alloc::canonical(alloc::minimal_config());
  auto a = cache.begin_search(111);
  auto b = cache.begin_search(111);
  a.insert_canonical(canon, scored(300, true));
  CandidateCache::Entry out;
  const std::uint64_t hits = cache.stats().hits;
  EXPECT_FALSE(b.lookup_canonical(canon, &out, 400));
  EXPECT_EQ(cache.stats().hits, hits);
  b.insert_canonical(canon, scored(500, true));
  ASSERT_TRUE(b.lookup_canonical(canon, &out, 400));
  EXPECT_EQ(b.cross_search_hits(), 0u) << "b's own replay now holds the key";
  ASSERT_TRUE(a.lookup_canonical(canon, &out, 400));
  EXPECT_EQ(a.cross_search_hits(), 1u);
}

// ---------------------------------------------------------------------------
// Shared cache vs per-search cache: bit-identical searches
// ---------------------------------------------------------------------------

class SharedCacheIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(SharedCacheIdentity, ExploreMatchesPerSearchCache) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(3000));
  ExplorerOptions per_search;
  per_search.num_threads = GetParam();
  Explorer baseline(trace, per_search);
  const ExplorationResult expected = baseline.explore();

  ExplorerOptions shared = per_search;
  shared.shared_cache = std::make_shared<SharedScoreCache>();
  Explorer ex(trace, shared);
  const ExplorationResult got = ex.explore();
  expect_same_search(expected, got,
                     "shared cache @" + std::to_string(GetParam()));
  // On a cold shared cache the accounting matches the per-search cache
  // exactly — and nothing was cross-search yet.
  EXPECT_EQ(expected.simulations, got.simulations);
  EXPECT_EQ(expected.cache_hits, got.cache_hits);
  EXPECT_EQ(got.cross_search_hits, 0u);

  // A second identical search is served entirely by the first one.
  const ExplorationResult warm = ex.explore();
  expect_same_search(expected, warm,
                     "warm shared cache @" + std::to_string(GetParam()));
  EXPECT_EQ(warm.simulations, 0u);
  EXPECT_EQ(warm.cache_hits, expected.simulations + expected.cache_hits);
  EXPECT_GT(warm.cross_search_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, SharedCacheIdentity,
                         ::testing::Values(1u, 4u));

TEST(SharedCache, ExhaustiveReusesGreedyReplaysAcrossSearches) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(3000));
  const std::vector<TreeId> subspace = {TreeId::kA2, TreeId::kA5,
                                        TreeId::kE2};
  ExplorerOptions per_search;
  Explorer baseline(trace, per_search);
  const ExplorationResult expected = baseline.exhaustive(subspace);

  ExplorerOptions shared = per_search;
  shared.shared_cache = std::make_shared<SharedScoreCache>();
  Explorer ex(trace, shared);
  const ExplorationResult walk = ex.explore();
  EXPECT_GT(walk.simulations, 0u);
  const ExplorationResult validation = ex.exhaustive(subspace);
  expect_same_search(expected, validation, "exhaustive after walk");
  EXPECT_EQ(expected.simulations + expected.cache_hits,
            validation.simulations + validation.cache_hits)
      << "the shared cache may shift replays to hits, never change the "
         "evaluation stream";
}

// ---------------------------------------------------------------------------
// design_manager with a shared cache
// ---------------------------------------------------------------------------

TEST(SharedCache, DesignManagerIsBitIdenticalAndReportsCrossSearchHits) {
  const AllocTrace trace = variable_size_trace(2500);
  for (const unsigned threads : {1u, 4u}) {
    MethodologyOptions per_search;
    per_search.explorer_options.num_threads = threads;
    per_search.validate = true;
    per_search.validation_trees = {TreeId::kA2, TreeId::kA5, TreeId::kE2};
    const MethodologyResult expected = design_manager(trace, per_search);

    MethodologyOptions shared = per_search;
    shared.explorer_options.shared_cache =
        std::make_shared<SharedScoreCache>();
    const MethodologyResult got = design_manager(trace, shared);

    ASSERT_EQ(expected.phase_configs.size(), got.phase_configs.size());
    for (std::size_t i = 0; i < expected.phase_configs.size(); ++i) {
      EXPECT_EQ(expected.phase_configs[i], got.phase_configs[i])
          << "phase " << i << " @" << threads << " threads";
      expect_same_search(expected.phase_results[i], got.phase_results[i],
                         "phase result " + std::to_string(i));
      // The walk runs before the validator, so even its accounting is
      // untouched by the shared cache within one run.
      EXPECT_EQ(expected.phase_results[i].simulations,
                got.phase_results[i].simulations);
      EXPECT_EQ(expected.phase_results[i].cache_hits,
                got.phase_results[i].cache_hits);
    }
    ASSERT_EQ(expected.validation_results.size(),
              got.validation_results.size());
    for (std::size_t i = 0; i < expected.validation_results.size(); ++i) {
      expect_same_search(expected.validation_results[i],
                         got.validation_results[i],
                         "validation result " + std::to_string(i));
    }
    EXPECT_EQ(expected.total_cross_search_hits, 0u);
    EXPECT_GT(got.total_cross_search_hits, 0u)
        << "the validator must reuse the walk's replays via the shared "
           "cache";
    EXPECT_LT(got.total_simulations, expected.total_simulations)
        << "cross-search reuse must save whole trace replays";
  }
}

// ---------------------------------------------------------------------------
// Concurrent searches on one shared cache (the TSan target)
// ---------------------------------------------------------------------------

TEST(SharedCache, ConcurrentSearchesAreSafeAndBitIdentical) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(1500));
  ExplorerOptions reference_opts;
  Explorer reference(trace, reference_opts);
  const ExplorationResult expected = reference.explore();

  const auto cache = std::make_shared<SharedScoreCache>();
  constexpr std::size_t kThreads = 4;
  std::vector<ExplorationResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ExplorerOptions opts;
        opts.shared_cache = cache;
        Explorer ex(trace, opts);
        results[i] = ex.explore();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::uint64_t total_replays = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    expect_same_search(expected, results[i],
                       "concurrent explorer " + std::to_string(i));
    total_replays += results[i].simulations;
  }
  // Races decide who replays what, but the union of replays can never
  // exceed what the searches would have paid in isolation.
  EXPECT_LE(total_replays, kThreads * expected.simulations);
  EXPECT_GE(cache->stats().entries, expected.simulations);
}

// ---------------------------------------------------------------------------
// Canonical-space exhaustive(): same best, strictly fewer replays
// ---------------------------------------------------------------------------

TEST(CanonicalExhaustive, QuotientEnumerationFindsSameBestWithFewerReplays) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(2000));
  // The operational space (hard rules only) is rich in behavioural
  // aliases: a mechanism granted by A5 but scheduled never (or vice
  // versa) builds the very same manager.  Caches off, so `simulations`
  // counts every replay honestly.
  const std::vector<TreeId> subspace = {TreeId::kA5, TreeId::kE2,
                                        TreeId::kD2};
  ExplorerOptions seed_opts;
  seed_opts.prune_soft = false;
  seed_opts.cache = false;
  seed_opts.canonical_prune = false;
  Explorer seed(trace, seed_opts);
  const ExplorationResult full = seed.exhaustive(subspace);

  ExplorerOptions quotient_opts = seed_opts;
  quotient_opts.canonical_prune = true;
  Explorer quotient(trace, quotient_opts);
  const ExplorationResult pruned = quotient.exhaustive(subspace);

  EXPECT_EQ(full.best, pruned.best) << "the quotient must keep the winner";
  EXPECT_EQ(full.best_sim.peak_footprint, pruned.best_sim.peak_footprint);
  EXPECT_EQ(full.feasible, pruned.feasible);
  EXPECT_LT(pruned.simulations, full.simulations)
      << "behavioural duplicates must be skipped before they replay";
  EXPECT_GT(pruned.canonical_skips, 0u);
  EXPECT_EQ(pruned.simulations + pruned.canonical_skips, full.simulations)
      << "every skip must account for exactly one seed-enumeration replay";
  EXPECT_EQ(full.canonical_skips, 0u);
}

TEST(CanonicalExhaustive, BudgetBuysCoverageNotDuplicates) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(2000));
  const std::vector<TreeId> subspace = {TreeId::kA5, TreeId::kE2,
                                        TreeId::kD2};
  ExplorerOptions opts;
  opts.prune_soft = false;
  opts.cache = false;
  opts.canonical_prune = true;
  Explorer ex(trace, opts);
  const ExplorationResult unbounded = ex.exhaustive(subspace);
  // A budget of exactly the quotient size reaches the same winner even
  // though the raw cartesian product is far larger.
  const ExplorationResult tight =
      ex.exhaustive(subspace, unbounded.simulations);
  EXPECT_EQ(unbounded.best, tight.best);
}

// ---------------------------------------------------------------------------
// score() rides the engine and the shared cache
// ---------------------------------------------------------------------------

TEST(SharedCache, ScoreContributesAndReusesReplays) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(2000));
  ExplorerOptions opts;
  opts.shared_cache = std::make_shared<SharedScoreCache>();
  Explorer ex(trace, opts);
  const SimResult first = ex.score(alloc::drr_paper_config());
  EXPECT_EQ(opts.shared_cache->stats().insertions, 1u);
  const SimResult second = ex.score(alloc::drr_paper_config());
  EXPECT_EQ(first.peak_footprint, second.peak_footprint);
  EXPECT_EQ(first.avg_footprint, second.avg_footprint);
  const SharedScoreCache::Stats stats = opts.shared_cache->stats();
  EXPECT_EQ(stats.insertions, 1u) << "the second score must not replay";
  EXPECT_EQ(stats.cross_search_hits, 1u)
      << "each score() call is its own search session";
}

}  // namespace
}  // namespace dmm::core
