// The streaming-session contract: submit/poll/drain must be bit-identical
// to one batch evaluate() call — same outcomes, same order, same
// from_cache split — on every engine, at every thread count, with or
// without a cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dmm/core/eval_engine.h"
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

/// A small job mix with behavioural variety: distinct configs, an exact
/// duplicate, and a pair that only differ in a canonically-dead knob (the
/// dedup layer must fold those too).
std::vector<EvalJob> mixed_jobs() {
  std::vector<EvalJob> jobs;
  DmmConfig cfg = alloc::minimal_config();
  jobs.push_back({cfg, 0});
  cfg.fit = alloc::FitAlgorithm::kBestFit;
  jobs.push_back({cfg, 1});
  jobs.push_back({alloc::drr_paper_config(), 2});
  jobs.push_back({alloc::drr_paper_config(), 3});  // exact duplicate
  DmmConfig worst = alloc::drr_paper_config();
  worst.fit = alloc::FitAlgorithm::kWorstFit;
  jobs.push_back({worst, 4});
  DmmConfig deferred = alloc::drr_paper_config();
  deferred.coalesce_when = alloc::CoalesceWhen::kDeferred;
  jobs.push_back({deferred, 5});
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
    EXPECT_EQ(a[i].sim.final_footprint, b[i].sim.final_footprint)
        << what << " job " << i;
    EXPECT_EQ(a[i].sim.avg_footprint, b[i].sim.avg_footprint)
        << what << " job " << i;
    EXPECT_EQ(a[i].sim.failed_allocs, b[i].sim.failed_allocs)
        << what << " job " << i;
    EXPECT_EQ(a[i].work_steps, b[i].work_steps) << what << " job " << i;
  }
}

std::unique_ptr<EvalEngine> make_engine(unsigned threads) {
  if (threads <= 1) return std::make_unique<SerialEngine>();
  return std::make_unique<ThreadPoolEngine>(threads);
}

// ---------------------------------------------------------------------------
// Streaming == batch, across engines, thread counts, and cache presence
// ---------------------------------------------------------------------------

class StreamEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamEquivalence, SubmitPollDrainMatchesBatchEvaluate) {
  const unsigned threads = GetParam();
  const AllocTrace trace = workload_trace("drr", 2000);
  const std::vector<EvalJob> jobs = mixed_jobs();

  SerialEngine reference;
  ScoreCache ref_cache;
  const std::vector<EvalOutcome> batch =
      reference.evaluate(trace, jobs, &ref_cache);

  for (const bool with_cache : {false, true}) {
    const std::string what = "threads=" + std::to_string(threads) +
                             (with_cache ? " cached" : " uncached");
    const std::unique_ptr<EvalEngine> engine = make_engine(threads);
    ScoreCache cache;
    engine->stream_begin(trace, with_cache ? &cache : nullptr);
    std::vector<EvalOutcome> streamed;
    for (const EvalJob& job : jobs) {
      engine->stream_submit(job);
      // Opportunistic polling mid-stream must only ever return a prefix
      // of finished outcomes, never reorder or invent one.
      for (EvalOutcome& out : engine->stream_poll()) {
        streamed.push_back(std::move(out));
      }
    }
    for (EvalOutcome& out : engine->stream_drain()) {
      streamed.push_back(std::move(out));
    }
    if (with_cache) {
      expect_same_outcomes(batch, streamed, what);
      EXPECT_EQ(cache.size(), ref_cache.size()) << what;
    } else {
      // Without a cache every job replays; scores still match job-wise.
      ASSERT_EQ(streamed.size(), jobs.size()) << what;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(streamed[i].tag, jobs[i].tag) << what;
        EXPECT_EQ(streamed[i].sim.peak_footprint, batch[i].sim.peak_footprint)
            << what << " job " << i;
        EXPECT_EQ(streamed[i].work_steps, batch[i].work_steps)
            << what << " job " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, StreamEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------------
// Ordering and the cache/dup protocol
// ---------------------------------------------------------------------------

TEST(AsyncEngine, PollEmitsOutcomesInSubmitOrder) {
  // Heavily interleaved submit/poll on a pooled engine: the concatenation
  // of every poll plus the final drain must be exactly the submit order,
  // whatever the workers' completion order was.
  const AllocTrace trace = workload_trace("drr", 1500);
  ThreadPoolEngine engine(4);
  ScoreCache cache;
  engine.stream_begin(trace, &cache);
  const std::vector<EvalJob> jobs = mixed_jobs();
  std::vector<std::uint64_t> tags;
  for (int round = 0; round < 3; ++round) {
    for (const EvalJob& job : jobs) {
      engine.stream_submit(
          {job.cfg, job.tag + static_cast<std::uint64_t>(round) * 100});
      for (const EvalOutcome& out : engine.stream_poll()) {
        tags.push_back(out.tag);
      }
    }
  }
  for (const EvalOutcome& out : engine.stream_drain()) tags.push_back(out.tag);
  ASSERT_EQ(tags.size(), jobs.size() * 3);
  std::size_t i = 0;
  for (int round = 0; round < 3; ++round) {
    for (const EvalJob& job : jobs) {
      EXPECT_EQ(tags[i], job.tag + static_cast<std::uint64_t>(round) * 100)
          << "position " << i;
      ++i;
    }
  }
}

TEST(AsyncEngine, CacheHitsAndInSessionDuplicatesAreServedWithoutReplay) {
  const AllocTrace trace = workload_trace("drr", 1500);
  SerialEngine engine;
  ScoreCache cache;
  // Pre-warm the cache with the paper config.
  (void)engine.evaluate(trace, {{alloc::drr_paper_config(), 0}}, &cache);
  const std::size_t warm = cache.size();

  DmmConfig fresh = alloc::drr_paper_config();
  fresh.fit = alloc::FitAlgorithm::kFirstFit;
  engine.stream_begin(trace, &cache);
  engine.stream_submit({alloc::drr_paper_config(), 10});  // cache hit
  engine.stream_submit({fresh, 11});                      // genuine replay
  engine.stream_submit({fresh, 12});                      // in-session dup
  const std::vector<EvalOutcome> out = engine.stream_drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].from_cache);
  EXPECT_FALSE(out[1].from_cache);
  EXPECT_TRUE(out[2].from_cache);
  // The dup serves the same score as its owner.
  EXPECT_EQ(out[1].sim.peak_footprint, out[2].sim.peak_footprint);
  EXPECT_EQ(out[1].work_steps, out[2].work_steps);
  EXPECT_EQ(cache.size(), warm + 1);
}

}  // namespace
}  // namespace dmm::core
