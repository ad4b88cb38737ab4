// The SearchStrategy seam (src/core/search.h):
//  * Explorer::explore / exhaustive / random_search are thin wrappers over
//    Greedy/Exhaustive/RandomSearch — golden logs captured from the
//    pre-refactor Explorer pin them bit for bit,
//  * BeamSearch(1) is bit-identical to explore(); width >= 2 escapes the
//    Fig. 4 ordering trap (myopic defaults + A3-first order) that greedy
//    falls into,
//  * every strategy is bit-identical across 1/2/4/8 threads and across
//    per-search / shared / persisted cache scopes (only the replay/hit
//    split may shift),
//  * AnnealingSearch is deterministic for a fixed seed, and golden pins fix
//    what seeds 1/5/17 (and a portfolio) land on, charge, and when — at
//    1/2/4/8 threads, so speculative pre-fetching changes none of it, nor
//    a two-phase design_manager() run, nor a step() slice's budget,
//  * random_search's opt-in canonical prune skips duplicate draws without
//    charging them,
//  * the B2/B3 single-pool alias audit: B3 collapses in canonical() where
//    the manager provably never reads it, B2 must stay distinct because
//    the linked-list pool lookup charges work the array lookup does not,
//  * a strategy that throws mid-run still persists the score cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmm/core/explorer.h"
#include "dmm/core/methodology.h"
#include "dmm/core/search.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

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

std::string steps_to_string(const ExplorationResult& r) {
  std::string out;
  for (const StepLog& s : r.steps) {
    out += tree_id(s.tree) + ":" + std::to_string(s.chosen) + " ";
  }
  return out;
}

/// Full bit-compare of two search results (the wall-clock field of
/// best_sim is measured, not replayed, so it is excluded by comparing
/// the deterministic fields explicitly).
void expect_identical(const ExplorationResult& a, const ExplorationResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.final_footprint, b.best_sim.final_footprint) << what;
  EXPECT_DOUBLE_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  EXPECT_EQ(a.evals_to_best, b.evals_to_best) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size())
        << what << " step " << i;
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      const CandidateScore& ca = a.steps[i].candidates[c];
      const CandidateScore& cb = b.steps[i].candidates[c];
      EXPECT_EQ(ca.leaf, cb.leaf) << what;
      EXPECT_EQ(ca.admissible, cb.admissible) << what;
      EXPECT_EQ(ca.peak_footprint, cb.peak_footprint) << what;
      EXPECT_DOUBLE_EQ(ca.avg_footprint, cb.avg_footprint) << what;
      EXPECT_EQ(ca.work_steps, cb.work_steps) << what;
      EXPECT_EQ(ca.failed_allocs, cb.failed_allocs) << what;
    }
  }
}

/// ... including the accounting split (replays vs hits).
void expect_identical_with_accounting(const ExplorationResult& a,
                                      const ExplorationResult& b,
                                      const std::string& what) {
  expect_identical(a, b, what);
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.canonical_skips, b.canonical_skips) << what;
}

class SearchStrategies : public ::testing::Test {
 protected:
  SearchStrategies() : trace_(variable_size_trace(4000)) {}
  AllocTrace trace_;
};

// ---------------------------------------------------------------------------
// Golden parity: the wrappers must reproduce the pre-refactor Explorer's
// results bit for bit.  These constants were captured from the monolithic
// explorer.cpp (PR 3 state + the B3 canonical collapse) on this exact
// trace; any drift here is a behaviour change, not a refactor.
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, GoldenExplorePaperOrder) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.explore(paper_order());
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
            "B1=single-pool B2=array B3=one B4=grow+shrink C1=best-fit "
            "C2=fifo D1=not-fixed D2=always E1=not-fixed E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2457600u);
  EXPECT_DOUBLE_EQ(r.best_sim.avg_footprint, 1402580.5393087734);
  EXPECT_EQ(r.best_sim.failed_allocs, 0u);
  EXPECT_EQ(r.work_steps, 151322u);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.simulations, 20u);
  EXPECT_EQ(r.cache_hits, 15u);
  EXPECT_EQ(r.canonical_skips, 0u);
  EXPECT_EQ(steps_to_string(r),
            "A2:1 A5:3 E2:2 D2:2 E1:0 D1:0 B4:2 B1:0 B2:0 B3:0 C1:2 C2:1 "
            "A1:1 A3:3 A4:3 ");
}

TEST_F(SearchStrategies, GoldenExploreFig4Order) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.explore(fig4_wrong_order());
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header A4=size+status A5=split+coalesce "
            "B1=single-pool B2=array B3=one B4=grow-only C1=best-fit "
            "C2=lifo D1=not-fixed D2=deferred E1=not-fixed E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2441216u);
  EXPECT_EQ(r.work_steps, 204045u);
  EXPECT_EQ(r.simulations, 25u);
  EXPECT_EQ(r.cache_hits, 14u);
  EXPECT_EQ(steps_to_string(r),
            "A3:1 A4:3 A2:1 A5:3 E2:2 D2:1 E1:0 D1:0 B4:1 B1:0 B2:0 B3:0 "
            "C1:2 C2:0 A1:1 ");
}

TEST_F(SearchStrategies, GoldenExhaustiveSubspace) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.exhaustive(high_impact_trees());
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
            "B1=single-pool B2=array B3=one B4=grow+shrink C1=best-fit "
            "C2=lifo D1=not-fixed D2=always E1=not-fixed E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2473984u);
  EXPECT_EQ(r.work_steps, 145426u);
  EXPECT_EQ(r.simulations, 270u);
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_TRUE(r.steps.empty());
}

TEST_F(SearchStrategies, GoldenRandomSearch) {
  Explorer ex(trace_);
  const ExplorationResult r = ex.random_search(60, 7);
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
            "B1=single-pool B2=linked-list B3=one B4=grow-only C1=best-fit "
            "C2=size-ordered D1=not-fixed D2=deferred E1=not-fixed "
            "E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2424832u);
  EXPECT_EQ(r.work_steps, 2481875u);
  EXPECT_EQ(r.simulations, 40u);
  EXPECT_EQ(r.cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// BeamSearch
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, BeamWidthOneBitIdenticalToExplore) {
  Explorer ex(trace_);
  const ExplorationResult greedy = ex.explore(paper_order());
  BeamSearch beam(1, paper_order());
  const ExplorationResult r = ex.run(beam);
  expect_identical_with_accounting(r, greedy, "beam:1 vs explore()");
}

TEST_F(SearchStrategies, BeamEscapesFig4OrderingTrap) {
  // The ablation's myopic designer: minimal-capability defaults mean each
  // tree is judged by local cost alone, so under the Fig. 4 wrong order
  // the greedy walk picks A3=none (0 header bytes) and propagation locks
  // split/coalesce to `never` — the trap of the paper's figure.  A beam
  // of width >= 2 keeps a header-carrying alternative alive until its
  // downstream payoff is visible and must land strictly below the trap.
  ExplorerOptions myopic;
  myopic.defaults = alloc::minimal_config();
  Explorer ex(trace_, myopic);
  const ExplorationResult greedy = ex.explore(fig4_wrong_order());
  EXPECT_EQ(greedy.best.block_tags, alloc::BlockTags::kNone)
      << "the trap must bite the myopic greedy walk for this test to mean "
         "anything";
  BeamSearch beam2(2, fig4_wrong_order());
  const ExplorationResult r2 = ex.run(beam2);
  EXPECT_LT(r2.best_sim.peak_footprint, greedy.best_sim.peak_footprint)
      << "width 2 must escape the Fig. 4 trap";
  BeamSearch beam4(4, fig4_wrong_order());
  const ExplorationResult r4 = ex.run(beam4);
  EXPECT_LE(r4.best_sim.peak_footprint, greedy.best_sim.peak_footprint);
}

// ---------------------------------------------------------------------------
// thread-count and cache-scope parity
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, AllStrategiesBitIdenticalAcrossThreadCounts) {
  std::vector<ExplorationResult> baselines;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ExplorerOptions opts;
    opts.num_threads = threads;
    Explorer ex(trace_, opts);
    std::vector<ExplorationResult> results;
    results.push_back(ex.explore(paper_order()));
    BeamSearch beam(2, paper_order());
    results.push_back(ex.run(beam));
    results.push_back(ex.exhaustive(high_impact_trees()));
    results.push_back(ex.random_search(40, 11));
    AnnealingOptions aopts;
    aopts.max_evals = 60;
    AnnealingSearch anneal(aopts);
    results.push_back(ex.run(anneal));
    if (threads == 1) {
      baselines = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), baselines.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_identical_with_accounting(
          results[i], baselines[i],
          "strategy " + std::to_string(i) + " at " + std::to_string(threads) +
              " threads");
    }
  }
}

TEST_F(SearchStrategies, CacheScopesShiftAccountingNotResults) {
  // Per-search cache vs shared cache vs no cache at all: the winner, step
  // logs, and total evaluation count are invariant; only the replay/hit
  // split moves.
  const auto run_all = [this](const ExplorerOptions& opts) {
    Explorer ex(trace_, opts);
    std::vector<ExplorationResult> out;
    BeamSearch beam(2, paper_order());
    out.push_back(ex.run(beam));
    AnnealingOptions aopts;
    aopts.max_evals = 60;
    AnnealingSearch anneal(aopts);
    out.push_back(ex.run(anneal));
    out.push_back(ex.exhaustive(high_impact_trees()));
    return out;
  };
  ExplorerOptions per_search;
  ExplorerOptions shared;
  shared.shared_cache = std::make_shared<SharedScoreCache>();
  ExplorerOptions uncached;
  uncached.cache = false;
  const auto a = run_all(per_search);
  const auto b = run_all(shared);
  const auto c = run_all(uncached);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string what = "strategy " + std::to_string(i);
    expect_identical(a[i], b[i], what + " shared-cache");
    expect_identical(a[i], c[i], what + " uncached");
    EXPECT_EQ(a[i].simulations + a[i].cache_hits,
              b[i].simulations + b[i].cache_hits)
        << what;
    EXPECT_EQ(a[i].simulations + a[i].cache_hits,
              c[i].simulations + c[i].cache_hits)
        << what;
  }
  // Later searches on the shared cache rode the earlier ones' replays.
  EXPECT_GT(b[2].cross_search_hits, 0u);
}

TEST_F(SearchStrategies, PersistedCacheKeepsResultsBitIdentical) {
  const std::string path =
      ::testing::TempDir() + "dmm_search_strategies_warm.snapshot";
  std::remove(path.c_str());
  ExplorerOptions cold_opts;
  cold_opts.cache_file = path;
  ExplorationResult cold;
  {
    Explorer ex(trace_, cold_opts);
    BeamSearch beam(2, paper_order());
    cold = ex.run(beam);
  }  // dtor saves the snapshot
  ExplorerOptions warm_opts;
  warm_opts.cache_file = path;
  Explorer ex(trace_, warm_opts);
  BeamSearch beam(2, paper_order());
  const ExplorationResult warm = ex.run(beam);
  expect_identical(warm, cold, "warm vs cold beam:2");
  EXPECT_EQ(warm.simulations, 0u)
      << "a warm run over the same trace must replay nothing";
  EXPECT_GT(warm.persisted_hits, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AnnealingSearch
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, AnnealingDeterministicForFixedSeed) {
  Explorer ex(trace_);
  AnnealingOptions opts;
  opts.max_evals = 80;
  opts.seed = 5;
  AnnealingSearch a(opts), b(opts);
  const ExplorationResult ra = ex.run(a);
  const ExplorationResult rb = ex.run(b);
  expect_identical_with_accounting(ra, rb, "anneal seed 5, twice");
  EXPECT_TRUE(ra.feasible);
  EXPECT_EQ(ra.simulations + ra.cache_hits, 80u)
      << "the budget is metered in evaluations";
}

// Golden annealing pins: what each seeded trajectory lands on, what it
// charged, and when it found its best.  Every field here must survive any
// change that only makes annealing cheaper (replay cutoffs, cache tiers):
// only the simulations/cache_hits *split* and replayed_events may move.
struct AnnealPin {
  const char* signature;
  std::size_t peak;
  double avg;
  std::uint64_t work;
  std::uint64_t evals_to_best;
  std::uint64_t canonical_skips;
  std::uint64_t evaluations;  ///< simulations + cache_hits
};

void expect_pin(const ExplorationResult& r, const AnnealPin& pin,
                const std::string& what) {
  EXPECT_EQ(alloc::signature(r.best), pin.signature) << what;
  EXPECT_EQ(r.best_sim.peak_footprint, pin.peak) << what;
  EXPECT_DOUBLE_EQ(r.best_sim.avg_footprint, pin.avg) << what;
  EXPECT_EQ(r.work_steps, pin.work) << what;
  EXPECT_EQ(r.evals_to_best, pin.evals_to_best) << what;
  EXPECT_EQ(r.canonical_skips, pin.canonical_skips) << what;
  EXPECT_EQ(r.simulations + r.cache_hits, pin.evaluations) << what;
  EXPECT_TRUE(r.feasible) << what;
}

AllocTrace drr_trace(std::size_t max_events) {
  AllocTrace t = workloads::record_trace(workloads::case_study("drr"), 1);
  if (t.size() > max_events) {
    t.events().resize(max_events);
    t.close_leaks();
  }
  return t;
}

TEST_F(SearchStrategies, GoldenAnnealPins) {
  // Default options (400 evaluations) per seed, on this fixture's trace and
  // on the DRR case study's Table 1 profile capped at 4,000 events.
  const AllocTrace drr = drr_trace(4000);
  const AnnealPin fixture_pins[] = {
      {"A1=size-bst A2=many A3=header+footer A4=size+status "
       "A5=split+coalesce B1=single-pool B2=linked-list B3=one "
       "B4=grow+shrink C1=exact-fit C2=size-ordered D1=not-fixed D2=always "
       "E1=not-fixed E2=always",
       2457600u, 1413880.7079377137, 46606u, 283u, 0u, 400u},
      {"A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
       "B1=single-pool B2=array B3=one B4=grow+shrink C1=best-fit "
       "C2=addr-ordered D1=not-fixed D2=always E1=not-fixed E2=always",
       2441216u, 1402213.4082795291, 283535u, 399u, 0u, 400u},
      {"A1=size-bst A2=many A3=header+footer A4=size+status "
       "A5=split+coalesce B1=single-pool B2=array B3=one B4=grow+shrink "
       "C1=best-fit C2=size-ordered D1=not-fixed D2=always E1=not-fixed "
       "E2=always",
       2457600u, 1413880.7079377137, 43973u, 392u, 0u, 400u},
  };
  const AnnealPin drr_pins[] = {
      {"A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
       "B1=single-pool B2=array B3=one B4=grow+shrink C1=exact-fit C2=lifo "
       "D1=not-fixed D2=always E1=not-fixed E2=always",
       131072u, 104310.94455066921, 19332u, 1u, 0u, 400u},
      {"A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
       "B1=single-pool B2=array B3=one B4=grow+shrink C1=exact-fit C2=lifo "
       "D1=not-fixed D2=always E1=not-fixed E2=always",
       131072u, 104310.94455066921, 19332u, 1u, 0u, 400u},
      {"A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
       "B1=single-pool B2=array B3=one B4=grow+shrink C1=first-fit "
       "C2=addr-ordered D1=not-fixed D2=always E1=not-fixed E2=always",
       131072u, 100340.25239005736, 38789u, 35u, 0u, 400u},
  };
  const unsigned seeds[] = {1u, 5u, 17u};
  // Every pin holds at every thread count, accounting included: the
  // speculative replays of 2+ runners commit only the sequential outcomes.
  std::vector<ExplorationResult> serial;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ExplorerOptions topts;
    topts.num_threads = threads;
    const std::string at = " @" + std::to_string(threads);
    std::vector<ExplorationResult> results;
    for (std::size_t i = 0; i < 3; ++i) {
      AnnealingOptions opts;
      opts.seed = seeds[i];
      const std::string what = "anneal:" + std::to_string(seeds[i]);
      AnnealingSearch fixture_sa(opts);
      results.push_back(Explorer(trace_, topts).run(fixture_sa));
      expect_pin(results.back(), fixture_pins[i], what + " fixture" + at);
      AnnealingSearch drr_sa(opts);
      results.push_back(Explorer(drr, topts).run(drr_sa));
      expect_pin(results.back(), drr_pins[i], what + " drr" + at);
      // Speculation really ran: the invariance is not a width-1 rerun.
      EXPECT_EQ(drr_sa.speculation().rounds > 0, threads > 1) << what << at;
    }
    ExplorerOptions opts = topts;
    opts.search = *parse_search_spec("portfolio:greedy+beam:4+anneal");
    results.push_back(Explorer(trace_, opts).run());
    expect_pin(results.back(),
               {"A1=size-bst A2=many A3=header+footer A4=size+status "
                "A5=split+coalesce B1=single-pool B2=linked-list B3=one "
                "B4=grow+shrink C1=exact-fit C2=size-ordered D1=not-fixed "
                "D2=always E1=not-fixed E2=always",
                2457600u, 1413880.7079377137, 46606u, 439u, 0u, 556u},
               "portfolio:greedy+beam:4+anneal" + at);
    if (threads == 1) {
      serial = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_identical_with_accounting(
          results[i], serial[i], "pin run " + std::to_string(i) + at);
    }
  }
}

TEST_F(SearchStrategies, AnnealStepSlicesNeverCommitPastTheirBudget) {
  // A portfolio deals annealing its budget in slices; speculation may
  // guess past a slice's edge but must never charge past it.  Odd slices
  // at 4 runners land on exactly the uninterrupted 1-runner trajectory.
  const std::unique_ptr<EvalEngine> serial_engine = make_engine(1);
  ExplorerOptions opts;
  SearchContext whole_ctx(trace_, trace_.fingerprint(), opts,
                          *serial_engine);
  AnnealingSearch whole;
  whole.run(whole_ctx);
  const ExplorationResult reference = whole_ctx.finish();

  const std::unique_ptr<EvalEngine> engine = make_engine(4);
  SearchContext ctx(trace_, trace_.fingerprint(), opts, *engine);
  AnnealingSearch sliced;
  sliced.reset();
  bool more = true;
  for (std::size_t turn = 0; more; ++turn) {
    const std::size_t slice = 1 + turn % 7;
    const std::uint64_t before = ctx.evaluations();
    more = sliced.step(ctx, slice);
    const std::uint64_t used = ctx.evaluations() - before;
    EXPECT_LE(used, slice) << "turn " << turn;
    if (more) {
      EXPECT_EQ(used, slice) << "turn " << turn;
    }
  }
  EXPECT_EQ(ctx.evaluations(), 400u);
  expect_identical_with_accounting(ctx.finish(), reference,
                                   "sliced anneal @4");

  // The portfolio pin's 556 evaluations, child by child, at 1 and 4.
  std::vector<ChildSearchReport> children[2];
  for (const unsigned threads : {1u, 4u}) {
    ExplorerOptions popts;
    popts.num_threads = threads;
    popts.search = *parse_search_spec("portfolio:greedy+beam:4+anneal");
    const ExplorationResult r = Explorer(trace_, popts).run();
    EXPECT_EQ(r.simulations + r.cache_hits, 556u) << threads;
    children[threads == 1 ? 0 : 1] = r.children;
  }
  ASSERT_EQ(children[0].size(), 3u);
  ASSERT_EQ(children[1].size(), 3u);
  EXPECT_EQ(children[0][2].evaluations, 400u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(children[1][c].evaluations, children[0][c].evaluations) << c;
    EXPECT_EQ(children[1][c].simulations, children[0][c].simulations) << c;
    EXPECT_EQ(children[1][c].found_best, children[0][c].found_best) << c;
  }
}

TEST(AnnealDesignManager, TwoPhaseDesignMatchesAcrossThreadCounts) {
  // render3d has two phases, so 4 threads run two concurrent lanes of two
  // runners each — two speculating searches at once.
  const AllocTrace trace =
      workloads::record_trace(workloads::case_study("render3d"), 1);
  ASSERT_EQ(trace.stats().phases, 2u);
  const auto design = [&](unsigned threads) {
    MethodologyOptions opts;
    opts.explorer_options.num_threads = threads;
    opts.explorer_options.search = *parse_search_spec("anneal");
    opts.explorer_options.search.anneal.max_evals = 150;
    return design_manager(trace, opts);
  };
  const MethodologyResult one = design(1);
  const MethodologyResult four = design(4);
  ASSERT_EQ(one.phase_configs.size(), 2u);
  ASSERT_EQ(four.phase_configs.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(four.phase_configs[p] == one.phase_configs[p]) << p;
    expect_identical_with_accounting(four.phase_results[p],
                                     one.phase_results[p],
                                     "render3d phase " + std::to_string(p));
  }
  EXPECT_EQ(four.total_simulations, one.total_simulations);
  EXPECT_EQ(four.total_cache_hits, one.total_cache_hits);
}

TEST(AnnealPeakCutoff, SitsWhereTheAcceptancePredicatesTurn) {
  // Checked against the predicates AnnealingSearch applies, not against
  // the log algebra that seeds the cutoff: above it the Metropolis test
  // rejects and candidate_better cannot prefer the proposal even with the
  // best tie-breaks (average footprint and work 0); at it, one of the two
  // still lets the proposal through.
  struct Case {
    double energy, temp, u, incumbent;
  };
  const Case cases[] = {
      {2457600, 245760, 0.5, 2457600},       // start of a run
      {2457600, 245760, 0.999, 2441216},     // u near 1: barely uphill
      {2457600, 245760, 1e-9, 2441216},      // u near 0: far uphill
      {131072, 0.0, 0.0, 131072},            // frozen: never uphill
      {131072, 1e-300, 0.3, 131072},         // temperature underflow
      {100000, 5000, 0.25, 150000},          // incumbent above the state
      {2473984, 81234.5, 0.61803, 2424832},  // fractional temperature
  };
  for (const Case& c : cases) {
    const std::string what = "energy " + std::to_string(c.energy) + " temp " +
                             std::to_string(c.temp) + " u " +
                             std::to_string(c.u);
    const std::size_t cutoff =
        anneal_peak_cutoff(c.energy, c.temp, c.u, c.incumbent);
    ASSERT_GT(cutoff, 0u) << what;
    const auto passes = [&](std::size_t peak) {
      const double p = static_cast<double>(peak);
      const double delta = p - c.energy;
      const bool accepted =
          delta <= 0.0 ||
          (c.temp > 0.0 && anneal_accepts_uphill(delta, c.temp, c.u));
      const bool may_displace =
          candidate_better(p, 0, 0.0, 0, c.incumbent, 0, 1000.0, 1000);
      return accepted || may_displace;
    };
    EXPECT_TRUE(passes(cutoff)) << what << " cutoff " << cutoff;
    EXPECT_FALSE(passes(cutoff + 1)) << what << " cutoff " << cutoff;
    EXPECT_FALSE(passes(cutoff + 1000)) << what;
  }
  // No cutoff where the outcome cannot be decided from a peak alone.
  EXPECT_EQ(anneal_peak_cutoff(1e30, 1e29, 0.5, 2457600), 0u)
      << "infeasible state";
  EXPECT_EQ(anneal_peak_cutoff(2457600, 245760, 0.5,
                               std::numeric_limits<double>::infinity()),
            0u)
      << "infeasible incumbent";
  EXPECT_EQ(anneal_peak_cutoff(2457600, 245760, 0.0, 2457600), 0u)
      << "u == 0 accepts every finite uphill move";
}

TEST_F(SearchStrategies, AnnealingStopsCertainRejectionsEarly) {
  // The cutoffs fire: fewer events replayed than whole replays would take,
  // and the stopped replays sit in the cache as lower-bound entries that a
  // second identical run is served from.
  const AllocTrace drr = drr_trace(4000);
  ExplorerOptions opts;
  opts.shared_cache = std::make_shared<SharedScoreCache>();
  Explorer ex(drr, opts);
  AnnealingOptions aopts;
  aopts.seed = 5;
  AnnealingSearch sa(aopts);
  const ExplorationResult first = ex.run(sa);
  EXPECT_LT(first.replayed_events, first.simulations * drr.size());
  const ExplorationResult again = ex.run(sa);
  expect_identical(again, first, "anneal:5 again on a warm cache");
  EXPECT_EQ(again.simulations, 0u);

  // A time-weighted objective replays every proposal whole.
  ExplorerOptions weighted;
  weighted.time_weight = 1.0;
  Explorer wex(drr, weighted);
  const ExplorationResult w = wex.run(sa);
  EXPECT_EQ(w.replayed_events, w.simulations * drr.size());
}

TEST_F(SearchStrategies, AnnealingFindsCompetitiveDesign) {
  // SA over the canonical quotient must land within 10% of the greedy
  // walk's peak on this trace at a modest budget — the point of the
  // strategy is order-independence, not luck.
  Explorer ex(trace_);
  const ExplorationResult greedy = ex.explore(paper_order());
  AnnealingOptions opts;
  opts.max_evals = 120;
  AnnealingSearch sa(opts);
  const ExplorationResult r = ex.run(sa);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(static_cast<double>(r.best_sim.peak_footprint),
            1.10 * static_cast<double>(greedy.best_sim.peak_footprint));
}

// ---------------------------------------------------------------------------
// random_search canonical prune (opt-in)
// ---------------------------------------------------------------------------

TEST(CanonicalPruneRandom, SkipsDuplicateDrawsWithoutCharge) {
  // Operational-only pruning leaves canonical aliases in the draw stream
  // (granted-but-never mechanisms, dead D1/E1/C2 leaves); the canonical
  // quotient is big, so collisions only show up at a few hundred draws —
  // a short trace keeps that affordable.
  const AllocTrace trace = variable_size_trace(400);
  ExplorerOptions base;
  base.prune_soft = false;
  Explorer plain(trace, base);
  const ExplorationResult off = plain.random_search(600, 21);
  EXPECT_GT(off.cache_hits, 0u)
      << "without the prune, duplicate draws are charged as cache hits";
  EXPECT_EQ(off.canonical_skips, 0u);

  ExplorerOptions pruned = base;
  pruned.canonical_prune_random = true;
  Explorer ex(trace, pruned);
  const ExplorationResult on = ex.random_search(600, 21);
  EXPECT_GT(on.canonical_skips, 0u) << "duplicate draws must be skipped";
  EXPECT_EQ(on.cache_hits, 0u)
      << "every charged evaluation is a fresh canonical vector";
  EXPECT_EQ(on.simulations, 600u)
      << "skips are free: the budget still buys distinct vectors";
  EXPECT_TRUE(on.feasible);
}

// ---------------------------------------------------------------------------
// B2/B3 single-pool alias audit (ROADMAP open item)
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, B3CollapsesWhereTheManagerNeverReadsIt) {
  // CustomManager consults pool_count only under per-size-class division
  // (static roster pre-creation and dynamic growth); single-pool managers
  // create pool 0 unconditionally and per-exact-size managers make pools
  // on demand.  canonical() therefore folds B3 to the rule-forced value.
  DmmConfig single = alloc::drr_paper_config();
  DmmConfig alias = single;
  alias.pool_count = alloc::PoolCount::kStaticMany;
  EXPECT_EQ(alloc::canonical(single), alloc::canonical(alias));

  DmmConfig exact = alloc::minimal_config();
  ASSERT_EQ(exact.pool_division, alloc::PoolDivision::kPoolPerExactSize);
  DmmConfig exact_alias = exact;
  exact_alias.pool_count = alloc::PoolCount::kOne;
  EXPECT_EQ(alloc::canonical(exact), alloc::canonical(exact_alias));

  // Under per-size-class division B3 is live and must survive.
  DmmConfig per_class = alloc::drr_paper_config();
  per_class.pool_division = alloc::PoolDivision::kPoolPerSizeClass;
  per_class.pool_count = alloc::PoolCount::kStaticMany;
  DmmConfig per_class_dyn = per_class;
  per_class_dyn.pool_count = alloc::PoolCount::kDynamic;
  EXPECT_NE(alloc::canonical(per_class), alloc::canonical(per_class_dyn));
}

TEST_F(SearchStrategies, B2SinglePoolAliasesStayDistinct) {
  // B2 = linked-list routes every request through find_pool's linear scan,
  // which charges routing_steps_ even when the list holds a single pool;
  // the array path charges nothing.  Identical allocation behaviour,
  // different work accounting — and work_steps is both the tie-break of
  // candidate_better and the time_weight objective term, so canonical()
  // must NOT unify the pair.
  DmmConfig array_cfg = alloc::drr_paper_config();
  DmmConfig list_cfg = array_cfg;
  list_cfg.pool_structure = alloc::PoolStructure::kLinkedList;
  EXPECT_NE(alloc::canonical(array_cfg), alloc::canonical(list_cfg));

  Explorer ex(trace_);
  std::uint64_t array_work = 0;
  std::uint64_t list_work = 0;
  const SimResult array_sim = ex.score(array_cfg, &array_work);
  const SimResult list_sim = ex.score(list_cfg, &list_work);
  EXPECT_EQ(array_sim.peak_footprint, list_sim.peak_footprint)
      << "the managers behave identically...";
  EXPECT_DOUBLE_EQ(array_sim.avg_footprint, list_sim.avg_footprint);
  EXPECT_GT(list_work, array_work)
      << "...but the linked-list lookup pays a routing step per request";
}

// ---------------------------------------------------------------------------
// strategy selection plumbing
// ---------------------------------------------------------------------------

TEST(SearchSpecParse, AcceptsTheCliGrammar) {
  const auto greedy = parse_search_spec("greedy");
  ASSERT_TRUE(greedy.has_value());
  EXPECT_EQ(greedy->kind, SearchSpec::Kind::kGreedy);

  const auto beam = parse_search_spec("beam:4");
  ASSERT_TRUE(beam.has_value());
  EXPECT_EQ(beam->kind, SearchSpec::Kind::kBeam);
  EXPECT_EQ(beam->beam_width, 4u);

  const auto anneal = parse_search_spec("anneal:17");
  ASSERT_TRUE(anneal.has_value());
  EXPECT_EQ(anneal->kind, SearchSpec::Kind::kAnneal);
  EXPECT_EQ(anneal->anneal.seed, 17u);

  const auto random = parse_search_spec("random:50:9");
  ASSERT_TRUE(random.has_value());
  EXPECT_EQ(random->kind, SearchSpec::Kind::kRandom);
  EXPECT_EQ(random->samples, 50u);
  EXPECT_EQ(random->seed, 9u);

  EXPECT_TRUE(parse_search_spec("exhaustive").has_value());

  EXPECT_FALSE(parse_search_spec("").has_value());
  EXPECT_FALSE(parse_search_spec("bogus").has_value());
  EXPECT_FALSE(parse_search_spec("beam").has_value());
  EXPECT_FALSE(parse_search_spec("beam:0").has_value());
  EXPECT_FALSE(parse_search_spec("beam:two").has_value());
  EXPECT_FALSE(parse_search_spec("random:0").has_value());
  EXPECT_FALSE(parse_search_spec("greedy:1").has_value());
  // Seeds must round-trip through `unsigned` — truncation would hand two
  // distinct seeds the same trajectory — and strtoull clamping at 2^64
  // must reject, not silently saturate.
  EXPECT_FALSE(parse_search_spec("anneal:4294967296").has_value());
  EXPECT_FALSE(parse_search_spec("random:10:4294967296").has_value());
  EXPECT_FALSE(
      parse_search_spec("beam:18446744073709551616").has_value());
  EXPECT_TRUE(parse_search_spec("anneal:4294967295").has_value());
}

TEST_F(SearchStrategies, ExplorerRunHonoursOptionsSearch) {
  ExplorerOptions opts;
  opts.search = *parse_search_spec("beam:2");
  Explorer ex(trace_, opts);
  const ExplorationResult via_options = ex.run();
  BeamSearch beam(2, paper_order());
  const ExplorationResult direct = ex.run(beam);
  expect_identical_with_accounting(via_options, direct,
                                   "opts.search vs explicit strategy");
}

// ---------------------------------------------------------------------------
// failure-path persistence (the scope-guard save)
// ---------------------------------------------------------------------------

class ThrowingStrategy final : public SearchStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  void run(SearchContext& ctx) override {
    (void)ctx.evaluate({{alloc::drr_paper_config(), 0}});
    throw std::runtime_error("searcher died mid-run");
  }
};

TEST_F(SearchStrategies, ThrowingStrategyStillPersistsPaidReplays) {
  const std::string path =
      ::testing::TempDir() + "dmm_search_strategies_throw.snapshot";
  std::remove(path.c_str());
  ExplorerOptions opts;
  opts.cache_file = path;
  Explorer ex(trace_, opts);
  ThrowingStrategy strategy;
  EXPECT_THROW((void)ex.run(strategy), std::runtime_error);
  // The snapshot must exist *now*, before the Explorer is destroyed: an
  // exception that escapes main() never unwinds, so the dtor save alone
  // would lose the replay.
  SharedScoreCache fresh;
  const SnapshotLoadResult loaded = fresh.load(path);
  EXPECT_TRUE(loaded.loaded) << loaded.reason;
  EXPECT_GE(loaded.entries_imported, 1u)
      << "the replay paid before the throw must be in the snapshot";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmm::core
