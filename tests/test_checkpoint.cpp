// Incremental replay: the full-skip store's consult-table analysis must be
// conservative (hard knobs and consulted soft knobs replay cold,
// never-consulted knobs full-skip) and skipped scores must be bit-identical
// to cold replays — searches with incremental replay on return the same
// results as with it off, across thread counts and cache scopes.

#include "dmm/core/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dmm/core/explorer.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

AllocTrace workload_trace(const std::string& name, std::size_t max_events) {
  AllocTrace t = workloads::record_trace(workloads::case_study(name), 7);
  if (t.size() > max_events) {
    t.events().resize(max_events);
    t.close_leaks();
  }
  std::string why;
  EXPECT_TRUE(t.validate(&why)) << why;
  return t;
}

/// Eight same-size allocations in phase 0, then a phase-1 tail that frees
/// and reallocates: interior blocks with live neighbours, so no merge is
/// possible before the teardown sweep.
AllocTrace two_phase_trace() {
  AllocTrace t;
  for (std::uint32_t id = 1; id <= 8; ++id) t.record_alloc(id, 64, 0);
  t.record_free(1, 1);        // event 8: first free (interior block)
  t.record_alloc(9, 64, 1);   // event 9: first fit consult
  t.record_free(2, 1);        // event 10
  t.record_alloc(10, 64, 1);  // event 11
  std::string why;
  EXPECT_TRUE(t.validate(&why)) << why;
  return t;
}

void expect_same_outcome(const EvalOutcome& a, const EvalOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.sim.peak_footprint, b.sim.peak_footprint) << what;
  EXPECT_EQ(a.sim.final_footprint, b.sim.final_footprint) << what;
  EXPECT_EQ(a.sim.avg_footprint, b.sim.avg_footprint) << what;
  EXPECT_EQ(a.sim.peak_live_bytes, b.sim.peak_live_bytes) << what;
  EXPECT_EQ(a.sim.failed_allocs, b.sim.failed_allocs) << what;
  EXPECT_EQ(a.sim.events, b.sim.events) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
}

// ---------------------------------------------------------------------------
// Consult-table corners
// ---------------------------------------------------------------------------

TEST(CheckpointStore, HardKnobInvalidatesEverything) {
  const AllocTrace trace = two_phase_trace();
  const std::uint64_t fp = trace.fingerprint();
  CheckpointStore store;
  const EvalOutcome base =
      score_candidate_incremental(trace, {alloc::drr_paper_config(), 0},
                                  store, fp, /*verify=*/false);
  EXPECT_FALSE(base.full_skip);
  DmmConfig hard = alloc::drr_paper_config();
  hard.block_structure = alloc::BlockStructure::kSizeBinaryTree;
  EXPECT_FALSE(store.plan(fp, alloc::canonical(hard)).full_skip);
}

TEST(CheckpointStore, KnobAffectingEventZeroColdReplays) {
  // The first event allocates 5000 bytes; a big-request threshold move
  // across 5000 re-routes it, so the stored result may not be reused.
  AllocTrace trace;
  trace.record_alloc(1, 5000, 0);
  trace.record_alloc(2, 64, 0);
  trace.record_free(1, 0);
  trace.record_free(2, 0);
  const std::uint64_t fp = trace.fingerprint();
  CheckpointStore store;
  DmmConfig base = alloc::drr_paper_config();
  base.big_request_bytes = 4096;
  (void)score_candidate_incremental(trace, {base, 0}, store, fp, false);

  DmmConfig straddling = base;
  straddling.big_request_bytes = 8192;  // moved range [4096, 8192) hits 5000
  EXPECT_FALSE(store.plan(fp, alloc::canonical(straddling)).full_skip);

  // A move that straddles no requested size never re-routes anything on
  // this trace: the stored final result is served outright.
  DmmConfig harmless = base;
  harmless.big_request_bytes = 2048;  // moved range [2048, 4096) is empty
  EXPECT_TRUE(store.plan(fp, alloc::canonical(harmless)).full_skip);
}

TEST(CheckpointStore, NeverConsultedKnobFullSkips) {
  // Allocation-only trace: the free list stays empty until the teardown
  // sweep, which never consults the fit knob — so a fit move (to a
  // different behavioural class) provably cannot change anything.
  AllocTrace t;
  for (std::uint32_t id = 1; id <= 16; ++id) t.record_alloc(id, 96, 0);
  const std::uint64_t fp = t.fingerprint();
  CheckpointStore store;
  const EvalOutcome base = score_candidate_incremental(
      t, {alloc::drr_paper_config(), 0}, store, fp, false);
  DmmConfig first_fit = alloc::drr_paper_config();
  first_fit.fit = alloc::FitAlgorithm::kFirstFit;
  ASSERT_NE(alloc::canonical(first_fit),
            alloc::canonical(alloc::drr_paper_config()));
  const EvalOutcome skipped =
      score_candidate_incremental(t, {first_fit, 1}, store, fp, false);
  EXPECT_TRUE(skipped.full_skip);
  EXPECT_EQ(skipped.replayed_events, 0u);
  EXPECT_EQ(store.stats().full_skips, 1u);
  expect_same_outcome(base, skipped, "full skip");
}

TEST(CheckpointStore, SiblingCandidatesReuseOneBaseline) {
  // Two siblings of the same baseline, each differing in one knob.  The fit
  // sibling full-skips outright: this trace never holds two free blocks at
  // once, so the fit policy is never consulted at all.  The coalesce
  // sibling cannot: the mid-trace frees release interior blocks with live
  // neighbours (no merge possible, so no consult), but the teardown sweep
  // does make coalesce decisions — so it replays cold and publishes a
  // second lineage.  Verify mode confirms the skip bit-identical.
  const AllocTrace trace = two_phase_trace();
  const std::uint64_t fp = trace.fingerprint();
  CheckpointStore store;
  (void)score_candidate_incremental(trace, {alloc::drr_paper_config(), 0},
                                    store, fp, false);
  DmmConfig sib_fit = alloc::drr_paper_config();
  sib_fit.fit = alloc::FitAlgorithm::kWorstFit;
  DmmConfig sib_coalesce = alloc::drr_paper_config();
  sib_coalesce.coalesce_when = alloc::CoalesceWhen::kDeferred;
  const EvalOutcome a =
      score_candidate_incremental(trace, {sib_fit, 1}, store, fp, true);
  const EvalOutcome b =
      score_candidate_incremental(trace, {sib_coalesce, 2}, store, fp, true);
  EXPECT_TRUE(a.full_skip);
  EXPECT_EQ(a.replayed_events, 0u);  // full skip: fit never consulted
  EXPECT_FALSE(b.full_skip);
  EXPECT_EQ(b.replayed_events, trace.size());  // coalesce consulted
  const CheckpointStore::Stats stats = store.stats();
  EXPECT_EQ(stats.cold_replays, 2u);
  EXPECT_EQ(stats.full_skips, 1u);
  EXPECT_EQ(stats.verified_ok, 1u);
  EXPECT_EQ(stats.verify_failures, 0u);
  // The coalesce sibling's cold replay is a lineage of its own now.
  EXPECT_TRUE(store.plan(fp, alloc::canonical(sib_coalesce)).full_skip);
}

// ---------------------------------------------------------------------------
// Search-level equivalence: incremental on == off, everywhere
// ---------------------------------------------------------------------------

void expect_same_search(const ExplorationResult& a, const ExplorationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what << ": best vector differs";
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.final_footprint, b.best_sim.final_footprint) << what;
  EXPECT_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.canonical_skips, b.canonical_skips) << what;
  EXPECT_EQ(a.evals_to_best, b.evals_to_best) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size());
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      const CandidateScore& ca = a.steps[i].candidates[c];
      const CandidateScore& cb = b.steps[i].candidates[c];
      EXPECT_EQ(ca.peak_footprint, cb.peak_footprint)
          << what << " step " << i << " cand " << c;
      EXPECT_EQ(ca.avg_footprint, cb.avg_footprint);
      EXPECT_EQ(ca.work_steps, cb.work_steps);
      EXPECT_EQ(ca.failed_allocs, cb.failed_allocs);
    }
  }
}

class IncrementalEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(IncrementalEquivalence, SearchesMatchAcrossThreadsAndCacheScopes) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 3000));
  SearchSpec spec;
  const std::string which = GetParam();
  if (which == "beam") {
    spec.kind = SearchSpec::Kind::kBeam;
    spec.beam_width = 2;
  } else if (which == "anneal") {
    spec.kind = SearchSpec::Kind::kAnneal;
    spec.anneal.max_evals = 80;
  }
  ExplorerOptions base_opts;
  base_opts.search = spec;
  ExplorationResult reference;
  {
    Explorer ex(trace, base_opts);
    reference = ex.run();
  }
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool shared : {false, true}) {
      ExplorerOptions opts = base_opts;
      opts.num_threads = threads;
      opts.incremental = true;
      opts.verify_incremental = true;  // every full skip cross-checked cold
      if (shared) opts.shared_cache = std::make_shared<SharedScoreCache>();
      Explorer ex(trace, opts);
      const ExplorationResult got = ex.run();
      expect_same_search(reference, got,
                         which + std::string(shared ? " shared" : " local") +
                             " @" + std::to_string(threads));
      // The Explorer creates a private store when none was injected.
      const std::shared_ptr<CheckpointStore>& store =
          ex.engine().checkpoint_store();
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->stats().verify_failures, 0u) << which << " @" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, IncrementalEquivalence,
                         ::testing::Values("greedy", "beam", "anneal"));

TEST(Incremental, CutoffJobsReplayColdAndLandAsLowerBounds) {
  // A job with a peak cutoff stops where its peak passes it, so it replays
  // cold even with a full-skip store configured; a same-vector exact job
  // in the same batch is not folded into it, and its exact score then
  // answers the next cutoff job from the cache.
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 3000));
  const DmmConfig cfg = alloc::drr_paper_config();
  SerialEngine reference;
  const EvalOutcome whole = reference.evaluate(*trace, {{cfg, 0}})[0];
  const std::size_t cutoff = whole.sim.peak_footprint / 2;

  SerialEngine engine;
  auto store = std::make_shared<CheckpointStore>();
  engine.configure_incremental(store, /*verify=*/true);
  (void)engine.evaluate(*trace, {{cfg, 0}});  // a baseline to skip from
  ScoreCache cache;
  const std::vector<EvalOutcome> batch =
      engine.evaluate(*trace, {{cfg, 0, cutoff}, {cfg, 1, 0}}, &cache);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].sim.stopped);
  EXPECT_FALSE(batch[0].full_skip);
  EXPECT_FALSE(batch[0].from_cache);
  EXPECT_GT(batch[0].sim.peak_footprint, cutoff);
  EXPECT_LT(batch[0].replayed_events, trace->size());
  EXPECT_FALSE(batch[1].sim.stopped);
  EXPECT_FALSE(batch[1].from_cache) << "another cutoff is another answer";
  expect_same_outcome(batch[1], whole, "exact job beside a cutoff job");

  const EvalOutcome hit =
      engine.evaluate(*trace, {{cfg, 2, cutoff}}, &cache)[0];
  EXPECT_TRUE(hit.from_cache);
  EXPECT_FALSE(hit.sim.stopped) << "the exact entry upgraded the bound";
  expect_same_outcome(hit, whole, "cutoff job served the exact score");
  EXPECT_EQ(store->stats().verify_failures, 0u);
}

TEST(Incremental, GreedyWalkFullSkipsFromTheLineageItStepsFrom) {
  // The greedy walk steps from each tree's winner; the next tree's
  // candidates differ from it in one knob group, and one of them on DRR
  // never consults its group — but only if the winner's lineage is still
  // stored when that candidate is planned (kMaxLineagesPerTrace).
  AllocTrace recorded =
      workloads::record_trace(workloads::case_study("drr"), 1);
  recorded.events().resize(6000);
  recorded.close_leaks();
  const auto trace = std::make_shared<const AllocTrace>(std::move(recorded));
  ExplorerOptions off;
  Explorer cold(trace, off);
  const ExplorationResult cold_result = cold.explore(paper_order());

  ExplorerOptions on;
  on.incremental = true;
  on.verify_incremental = true;
  Explorer inc(trace, on);
  const ExplorationResult inc_result = inc.explore(paper_order());
  expect_same_search(cold_result, inc_result, "incremental greedy");
  EXPECT_GE(inc_result.full_skips, 1u);
  const CheckpointStore::Stats stats = inc.engine().checkpoint_store()->stats();
  EXPECT_GE(stats.verified_ok, 1u);
  EXPECT_EQ(stats.verify_failures, 0u);
}

TEST(Incremental, BeamWalkFullSkipsReplayFewerEventsThanCold) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 3000));
  ExplorerOptions off;
  off.search.kind = SearchSpec::Kind::kBeam;
  off.search.beam_width = 2;
  Explorer cold(trace, off);
  const ExplorationResult cold_result = cold.run();
  EXPECT_EQ(cold_result.full_skips, 0u);
  EXPECT_EQ(cold_result.replayed_events,
            cold_result.simulations * trace->size());

  ExplorerOptions on = off;
  on.incremental = true;
  Explorer inc(trace, on);
  const ExplorationResult inc_result = inc.run();
  expect_same_search(cold_result, inc_result, "incremental beam:2");
  EXPECT_GT(inc_result.full_skips, 0u);
  EXPECT_LT(inc_result.replayed_events, cold_result.replayed_events);
  EXPECT_EQ(inc_result.replayed_events,
            (inc_result.simulations - inc_result.full_skips) * trace->size());
}

}  // namespace
}  // namespace dmm::core
