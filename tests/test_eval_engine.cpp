// The evaluation-engine contract: serial and thread-pool backends must be
// interchangeable — same best vector, same step logs, same accounting —
// and the ScoreCache must only ever skip work, never change answers.

#include "dmm/core/eval_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "dmm/core/explorer.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

/// Recorded workload trace, truncated so one explore stays test-sized.
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

void expect_identical(const ExplorationResult& a, const ExplorationResult& b,
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
  EXPECT_EQ(a.cross_search_hits, b.cross_search_hits) << what;
  EXPECT_EQ(a.canonical_skips, b.canonical_skips) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size());
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      const CandidateScore& ca = a.steps[i].candidates[c];
      const CandidateScore& cb = b.steps[i].candidates[c];
      EXPECT_EQ(ca.leaf, cb.leaf);
      EXPECT_EQ(ca.admissible, cb.admissible);
      EXPECT_EQ(ca.peak_footprint, cb.peak_footprint)
          << what << " step " << i << " cand " << c;
      EXPECT_EQ(ca.avg_footprint, cb.avg_footprint);
      EXPECT_EQ(ca.work_steps, cb.work_steps);
      EXPECT_EQ(ca.failed_allocs, cb.failed_allocs);
    }
  }
}

// ---------------------------------------------------------------------------
// DmmConfig hash / equality / canonicalization laws
// ---------------------------------------------------------------------------

TEST(DmmConfigHash, EqualConfigsHashEqual) {
  const DmmConfig a = alloc::drr_paper_config();
  const DmmConfig b = alloc::drr_paper_config();
  EXPECT_EQ(a, b);
  EXPECT_EQ(alloc::hash_value(a), alloc::hash_value(b));
  EXPECT_EQ(alloc::DmmConfigHash{}(a), alloc::hash_value(a));
}

TEST(DmmConfigHash, FieldChangesChangeTheHash) {
  const DmmConfig base = alloc::drr_paper_config();
  DmmConfig m = base;
  m.fit = alloc::FitAlgorithm::kBestFit;
  EXPECT_NE(base, m);
  EXPECT_NE(alloc::hash_value(base), alloc::hash_value(m));
  m = base;
  m.chunk_bytes *= 2;
  EXPECT_NE(alloc::hash_value(base), alloc::hash_value(m));
}

TEST(DmmConfigCanonical, IsIdempotentAndPreservesLeaves) {
  const DmmConfig cfg = alloc::minimal_config();
  const DmmConfig once = alloc::canonical(cfg);
  EXPECT_EQ(once, alloc::canonical(once));
  for (TreeId t : all_trees()) {
    EXPECT_EQ(get_leaf(cfg, t), get_leaf(once, t)) << tree_id(t);
  }
}

TEST(DmmConfigCanonical, DeadKnobsCollapse) {
  // minimal_config never splits: the deferred-split threshold cannot
  // influence the manager, so the canonical forms must collide.
  DmmConfig a = alloc::minimal_config();
  DmmConfig b = a;
  b.deferred_split_min = 12345;
  ASSERT_NE(a, b);
  EXPECT_EQ(alloc::canonical(a), alloc::canonical(b));

  // The DRR vector splits and coalesces unbounded: max_class_log2 is dead.
  DmmConfig c = alloc::drr_paper_config();
  DmmConfig d = c;
  d.max_class_log2 = 20;
  EXPECT_EQ(alloc::canonical(c), alloc::canonical(d));

  // ... but a *live* knob must survive canonicalization.
  DmmConfig e = c;
  e.chunk_bytes *= 4;
  EXPECT_NE(alloc::canonical(c), alloc::canonical(e));
}

TEST(DmmConfigCanonical, EffectiveMechanismPairsCollapse) {
  // The manager gates each mechanism on A5 *and* its schedule, so a
  // granted-but-never-scheduled mechanism and a scheduled-but-absent one
  // both build the manager with the mechanism off.
  DmmConfig off = alloc::minimal_config();  // kNone / never / never
  DmmConfig granted_idle = off;
  granted_idle.flexible = alloc::FlexibleBlockSize::kSplitOnly;
  DmmConfig scheduled_absent = off;
  scheduled_absent.split_when = alloc::SplitWhen::kAlways;
  EXPECT_EQ(alloc::canonical(off), alloc::canonical(granted_idle));
  EXPECT_EQ(alloc::canonical(off), alloc::canonical(scheduled_absent));
  // An actually-running mechanism must NOT collapse to off.
  DmmConfig running = off;
  running.flexible = alloc::FlexibleBlockSize::kSplitOnly;
  running.split_when = alloc::SplitWhen::kAlways;
  EXPECT_NE(alloc::canonical(off), alloc::canonical(running));
}

TEST(DmmConfigCanonical, SortedStructuresAbsorbFreeListOrder) {
  // FreeIndex overrides C2 for self-ordering DDTs; the leaf is dead there.
  DmmConfig sorted = alloc::drr_paper_config();
  sorted.block_structure = alloc::BlockStructure::kSizeBinaryTree;
  sorted.fit = alloc::FitAlgorithm::kBestFit;
  DmmConfig lifo = sorted;
  lifo.order = alloc::FreeListOrder::kLIFO;
  DmmConfig fifo = sorted;
  fifo.order = alloc::FreeListOrder::kFIFO;
  EXPECT_EQ(alloc::canonical(lifo), alloc::canonical(fifo));
  // On a plain list the discipline is live.
  DmmConfig list_lifo = alloc::drr_paper_config();
  list_lifo.order = alloc::FreeListOrder::kLIFO;
  DmmConfig list_fifo = alloc::drr_paper_config();
  list_fifo.order = alloc::FreeListOrder::kFIFO;
  EXPECT_NE(alloc::canonical(list_lifo), alloc::canonical(list_fifo));
}

// ---------------------------------------------------------------------------
// ScoreCache
// ---------------------------------------------------------------------------

TEST(ScoreCache, LookupInsertRoundTrip) {
  ScoreCache cache;
  const DmmConfig cfg = alloc::drr_paper_config();
  EXPECT_EQ(cache.lookup(cfg), nullptr);
  SimResult sim;
  sim.peak_footprint = 42;
  cache.insert(cfg, {sim, 7});
  const ScoreCache::Entry* hit = cache.lookup(cfg);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sim.peak_footprint, 42u);
  EXPECT_EQ(hit->work_steps, 7u);
  // Behaviourally identical config (dead knob differs) must hit too.
  DmmConfig alias = cfg;
  alias.max_class_log2 = 20;
  EXPECT_NE(cache.lookup(alias), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ScoreCache, ExplorerHitAccounting) {
  const AllocTrace trace = workload_trace("drr", 4000);
  ExplorerOptions with_cache;
  with_cache.cache = true;
  ExplorerOptions without_cache;
  without_cache.cache = false;
  Explorer cached(trace, with_cache);
  Explorer uncached(trace, without_cache);
  const ExplorationResult on = cached.explore();
  const ExplorationResult off = uncached.explore();
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_GT(on.cache_hits, 0u)
      << "the greedy walk's repaired completions must collide";
  // The cache may only *skip* replays, never add or change evaluations.
  EXPECT_EQ(on.simulations + on.cache_hits, off.simulations);
  EXPECT_EQ(on.best, off.best);
  EXPECT_EQ(on.best_sim.peak_footprint, off.best_sim.peak_footprint);
}

// ---------------------------------------------------------------------------
// Engine interchangeability
// ---------------------------------------------------------------------------

TEST(EvalEngine, DirectBatchMatchesSerial) {
  const AllocTrace trace = workload_trace("drr", 3000);
  std::vector<EvalJob> jobs;
  DmmConfig cfg = alloc::minimal_config();
  jobs.push_back({cfg, 0});
  cfg.fit = alloc::FitAlgorithm::kBestFit;
  jobs.push_back({cfg, 1});
  jobs.push_back({alloc::drr_paper_config(), 2});
  jobs.push_back({alloc::drr_paper_config(), 3});  // duplicate

  SerialEngine serial;
  ThreadPoolEngine pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  ScoreCache cache_a, cache_b;
  const std::vector<EvalOutcome> a = serial.evaluate(trace, jobs, &cache_a);
  const std::vector<EvalOutcome> b = pool.evaluate(trace, jobs, &cache_b);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(a[i].tag, jobs[i].tag);
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].sim.peak_footprint, b[i].sim.peak_footprint) << i;
    EXPECT_EQ(a[i].work_steps, b[i].work_steps) << i;
    EXPECT_EQ(a[i].from_cache, b[i].from_cache) << i;
  }
  // The in-batch duplicate must be deduped identically by both engines.
  EXPECT_FALSE(a[2].from_cache);
  EXPECT_TRUE(a[3].from_cache);
  EXPECT_EQ(cache_a.size(), 3u);
  EXPECT_EQ(cache_b.size(), 3u);
}

/// @p n distinct decision vectors (no two share a canonical form).
std::vector<EvalJob> distinct_jobs(std::size_t n) {
  std::vector<EvalJob> jobs;
  const alloc::FitAlgorithm fits[] = {alloc::FitAlgorithm::kFirstFit,
                                      alloc::FitAlgorithm::kBestFit,
                                      alloc::FitAlgorithm::kWorstFit};
  for (std::size_t i = 0; i < n; ++i) {
    DmmConfig cfg = alloc::drr_paper_config();
    cfg.fit = fits[i % 3];
    cfg.chunk_bytes *= 1 + i / 3;
    jobs.push_back({cfg, i});
  }
  return jobs;
}

void expect_same_outcomes(const std::vector<EvalOutcome>& a,
                          const std::vector<EvalOutcome>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag) << what << " job " << i;
    EXPECT_EQ(a[i].from_cache, b[i].from_cache) << what << " job " << i;
    EXPECT_EQ(a[i].sim.peak_footprint, b[i].sim.peak_footprint)
        << what << " job " << i;
    EXPECT_EQ(a[i].sim.avg_footprint, b[i].sim.avg_footprint)
        << what << " job " << i;
    EXPECT_EQ(a[i].sim.failed_allocs, b[i].sim.failed_allocs)
        << what << " job " << i;
    EXPECT_EQ(a[i].work_steps, b[i].work_steps) << what << " job " << i;
  }
}

TEST(EvalEngine, OneJobAndOversubscribedSessionsMatchSerial) {
  // The coordinating thread runs jobs while it drains: a one-job session
  // may run entirely inline, a long one is split between it and the
  // workers.  Either way the outcomes are the serial ones.
  const AllocTrace trace = workload_trace("drr", 2000);
  const std::vector<EvalJob> many = distinct_jobs(20);
  const std::vector<EvalJob> one(many.begin(), many.begin() + 1);
  SerialEngine serial;
  const std::vector<EvalOutcome> serial_one = serial.evaluate(trace, one);
  const std::vector<EvalOutcome> serial_many = serial.evaluate(trace, many);
  for (const unsigned threads : {2u, 4u, 8u}) {
    ThreadPoolEngine pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    const std::string what = std::to_string(threads) + " threads";
    expect_same_outcomes(serial_one, pool.evaluate(trace, one), what);
    expect_same_outcomes(serial_many, pool.evaluate(trace, many), what);
    ScoreCache cache;
    ScoreCache serial_cache;
    expect_same_outcomes(serial.evaluate(trace, many, &serial_cache),
                         pool.evaluate(trace, many, &cache), what + " cached");
  }
}

TEST(EvalEngine, BackToBackTinySessionsStressTheHelperPath) {
  const AllocTrace trace = workload_trace("drr", 200);
  const std::vector<EvalJob> jobs = distinct_jobs(6);
  SerialEngine serial;
  const std::vector<EvalOutcome> expected = serial.evaluate(trace, jobs);
  ThreadPoolEngine pool(4);
  for (int session = 0; session < 300; ++session) {
    // Sessions of 1..3 jobs: shorter than the pool, so the caller and the
    // woken workers race for every job.
    const std::size_t begin = static_cast<std::size_t>(session) % 4;
    const std::size_t len = 1 + static_cast<std::size_t>(session) % 3;
    const std::vector<EvalJob> batch(jobs.begin() + begin,
                                     jobs.begin() + begin + len);
    const std::vector<EvalOutcome> want(expected.begin() + begin,
                                        expected.begin() + begin + len);
    expect_same_outcomes(want, pool.evaluate(trace, batch),
                         "session " + std::to_string(session));
  }
}

TEST(EvalEngine, StreamPollProgressesWithoutADrainAtTwoThreads) {
  // Two runners = one worker + the caller.  The caller only runs jobs
  // inside a drain, so polling alone must be served by the worker.
  const AllocTrace trace = workload_trace("drr", 1000);
  const std::vector<EvalJob> jobs = distinct_jobs(3);
  ThreadPoolEngine pool(2);
  pool.stream_begin(trace);
  for (const EvalJob& job : jobs) pool.stream_submit(job);
  std::vector<EvalOutcome> polled;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (polled.size() < jobs.size() &&
         std::chrono::steady_clock::now() < deadline) {
    for (EvalOutcome& out : pool.stream_poll()) polled.push_back(out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(polled.size(), jobs.size()) << "poll made no progress";
  EXPECT_TRUE(pool.stream_drain().empty());
  SerialEngine serial;
  expect_same_outcomes(serial.evaluate(trace, jobs), polled, "polled");
}

TEST(EvalEngine, CutoffJobsReplayColdAndLandAsLowerBounds) {
  // A job with a peak cutoff stops where its peak passes it and is not
  // served from the cache; a same-vector exact job in the same batch is
  // not folded into it, and its exact score then answers the next cutoff
  // job from the cache.
  const AllocTrace trace = workload_trace("drr", 3000);
  const DmmConfig cfg = alloc::drr_paper_config();
  SerialEngine engine;
  const EvalOutcome whole = engine.evaluate(trace, {{cfg, 0}})[0];
  const std::size_t cutoff = whole.sim.peak_footprint / 2;
  const auto expect_whole = [&](const EvalOutcome& out, const char* what) {
    EXPECT_FALSE(out.sim.stopped) << what;
    EXPECT_EQ(out.sim.peak_footprint, whole.sim.peak_footprint) << what;
    EXPECT_EQ(out.sim.final_footprint, whole.sim.final_footprint) << what;
    EXPECT_EQ(out.sim.avg_footprint, whole.sim.avg_footprint) << what;
    EXPECT_EQ(out.sim.events, whole.sim.events) << what;
    EXPECT_EQ(out.work_steps, whole.work_steps) << what;
  };

  ScoreCache cache;
  const std::vector<EvalOutcome> batch =
      engine.evaluate(trace, {{cfg, 0, cutoff}, {cfg, 1, 0}}, &cache);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].sim.stopped);
  EXPECT_FALSE(batch[0].from_cache);
  EXPECT_GT(batch[0].sim.peak_footprint, cutoff);
  EXPECT_LT(batch[0].replayed_events, trace.size());
  EXPECT_FALSE(batch[1].from_cache) << "another cutoff is another answer";
  expect_whole(batch[1], "exact job beside a cutoff job");

  const EvalOutcome hit = engine.evaluate(trace, {{cfg, 2, cutoff}}, &cache)[0];
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.replayed_events, 0u);
  expect_whole(hit, "cutoff job served the exact score");
}

class EngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminism, ExploreIsBitIdenticalAcrossThreadCounts) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace(GetParam(), 5000));
  ExplorationResult serial_result;
  {
    ExplorerOptions opts;
    opts.num_threads = 1;
    Explorer ex(trace, opts);
    serial_result = ex.explore();
    EXPECT_EQ(ex.engine().name(), "serial");
  }
  for (const unsigned threads : {2u, 4u, 8u}) {
    ExplorerOptions opts;
    opts.num_threads = threads;
    Explorer ex(trace, opts);
    EXPECT_EQ(ex.engine().name(), "thread-pool");
    const ExplorationResult parallel_result = ex.explore();
    expect_identical(serial_result, parallel_result,
                     std::string(GetParam()) + " @" +
                         std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EngineDeterminism,
                         ::testing::Values("drr", "render3d"));

TEST(EvalEngine, ExhaustiveAndRandomMatchAcrossEngines) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 3000));
  ExplorerOptions serial_opts;
  ExplorerOptions pool_opts;
  pool_opts.num_threads = 4;
  Explorer serial(trace, serial_opts);
  Explorer pool(trace, pool_opts);
  const std::vector<TreeId> subspace = {TreeId::kA2, TreeId::kA5,
                                        TreeId::kE2};
  expect_identical(serial.exhaustive(subspace), pool.exhaustive(subspace),
                   "exhaustive");
  expect_identical(serial.random_search(40, 11), pool.random_search(40, 11),
                   "random");
}

TEST(EvalEngine, SharedTraceIsNotCopied) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 2000));
  Explorer a(trace);
  Explorer b(trace);
  EXPECT_EQ(a.shared_trace().get(), trace.get());
  EXPECT_EQ(b.shared_trace().get(), trace.get());
  EXPECT_EQ(&a.trace(), &b.trace());
}

}  // namespace
}  // namespace dmm::core
