#include "dmm/core/phase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>

#include "dmm/alloc/policy_core.h"
#include "dmm/core/simulator.h"
#include "dmm/sysmem/system_arena.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

// Two behaviourally distinct phases: small packets then large buffers.
AllocTrace two_phase_trace(std::size_t per_phase) {
  AllocTrace t;
  std::mt19937 rng(7);
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < per_phase; ++i) {
    const std::uint32_t a = id++;
    t.record_alloc(a, 40 + rng() % 64);
    if (i % 2 == 1) t.record_free(a);
  }
  for (std::size_t i = 0; i < per_phase; ++i) {
    const std::uint32_t a = id++;
    t.record_alloc(a, 16384 + rng() % 8192);
    t.record_free(a);
  }
  t.close_leaks();
  return t;
}

TEST(PhaseDetector, SinglePhaseForUniformBehaviour) {
  AllocTrace t;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    t.record_alloc(i, 64);
    t.record_free(i);
  }
  const auto spans = detect_phases(t);
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first_event, 0u);
  EXPECT_EQ(spans[0].last_event, t.size() - 1);
}

TEST(PhaseDetector, FindsTheBehaviourShift) {
  const AllocTrace t = two_phase_trace(4000);
  PhaseDetectorOptions opts;
  opts.window = 1024;
  const auto spans = detect_phases(t, opts);
  ASSERT_GE(spans.size(), 2u) << "small-packet vs big-buffer phases";
  // The boundary must fall near the behavioural switch (the first phase
  // emits 1.5 events per object, the second 2).
  const std::size_t switch_event = 4000 + 2000;  // allocs + odd frees
  const std::size_t boundary = spans[1].first_event;
  EXPECT_NEAR(static_cast<double>(boundary),
              static_cast<double>(switch_event), 1500.0);
}

TEST(PhaseDetector, SpansTileTheTrace) {
  const AllocTrace t = two_phase_trace(3000);
  const auto spans = detect_phases(t);
  std::size_t expect_start = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].first_event, expect_start);
    EXPECT_EQ(spans[i].phase, i);
    expect_start = spans[i].last_event + 1;
  }
  EXPECT_EQ(expect_start, t.size());
}

TEST(PhaseDetector, ApplyPhasesRewritesEvents) {
  AllocTrace t = two_phase_trace(3000);
  const auto spans = detect_phases(t);
  apply_phases(t, spans);
  EXPECT_EQ(t.stats().phases, spans.size());
  EXPECT_TRUE(t.validate());
}

TEST(SplitByPhase, ObjectsFollowTheirAllocationPhase) {
  AllocTrace t;
  t.record_alloc(0, 100, 0);
  t.record_alloc(1, 200, 0);
  t.record_alloc(2, 300, 1);
  t.record_free(1, 1);  // allocated in phase 0, freed in phase 1
  t.record_free(2, 1);
  t.record_free(0, 1);
  const auto subs = split_by_phase(t);
  ASSERT_EQ(subs.size(), 2u);
  // Phase 0 sub-trace owns objects 0 and 1 including their frees.
  EXPECT_EQ(subs[0].stats().allocs, 2u);
  EXPECT_EQ(subs[0].stats().frees, 2u);
  EXPECT_EQ(subs[1].stats().allocs, 1u);
  EXPECT_EQ(subs[1].stats().frees, 1u);
  EXPECT_TRUE(subs[0].validate());
  EXPECT_TRUE(subs[1].validate());
}

TEST(SplitByPhase, SubTraceDemandSumsCoverTotal) {
  const AllocTrace t = two_phase_trace(2000);
  AllocTrace annotated = t;
  apply_phases(annotated, detect_phases(annotated));
  const auto subs = split_by_phase(annotated);
  std::uint64_t allocs = 0;
  for (const auto& s : subs) allocs += s.stats().allocs;
  EXPECT_EQ(allocs, t.stats().allocs);
}

/// The per-phase event streams of split_by_phase, with the original ids.
std::vector<AllocTrace> split_keeping_ids(const AllocTrace& trace) {
  std::uint16_t max_phase = 0;
  for (const AllocEvent& e : trace.events()) {
    max_phase = std::max(max_phase, e.phase);
  }
  std::vector<AllocTrace> out(static_cast<std::size_t>(max_phase) + 1);
  std::unordered_map<std::uint32_t, std::uint16_t> owner;
  for (const AllocEvent& e : trace.events()) {
    if (e.op == AllocEvent::Op::kAlloc) {
      owner[e.id] = e.phase;
      out[e.phase].record_alloc(e.id, e.size, e.phase);
    } else if (auto it = owner.find(e.id); it != owner.end()) {
      out[it->second].record_free(e.id, e.phase);
      owner.erase(it);
    }
  }
  return out;
}

struct Replay {
  SimResult sim;
  std::uint64_t work_steps = 0;
};

Replay replay(const AllocTrace& trace, const alloc::DmmConfig& cfg) {
  sysmem::SystemArena arena;
  alloc::PolicyCore core(arena, cfg, "phase", /*strict_accounting=*/false);
  const SimResult sim = simulate(trace, core);
  return {sim, core.work_steps()};
}

TEST(SplitByPhase, SubTraceIdsAreDenseAndReplayLikeTheOriginalIds) {
  // Sparse ids (every phase draws from one id space), an id reused after
  // its free, frees that cross phases, and leaks for the teardown sweep.
  AllocTrace sparse;
  for (std::uint32_t i = 0; i < 600; ++i) {
    const std::uint16_t phase = i < 400 ? 0 : 1;
    sparse.record_alloc(i * 7, 24 + (i * 37) % 200, phase);
    if (i % 3 == 0) sparse.record_free(i * 7, phase);
  }
  sparse.record_free(7, 1);         // phase-0 object freed in phase 1
  sparse.record_alloc(7, 96, 1);    // reused id, now owned by phase 1
  sparse.record_free(12345, 1);     // free of an id never allocated
  AllocTrace render3d =
      workloads::record_trace(workloads::case_study("render3d"), 3);

  for (const AllocTrace* t : {&sparse, &render3d}) {
    const std::vector<AllocTrace> subs = split_by_phase(*t);
    const std::vector<AllocTrace> kept = split_keeping_ids(*t);
    ASSERT_EQ(subs.size(), kept.size());
    ASSERT_GE(subs.size(), 2u);
    for (std::size_t p = 0; p < subs.size(); ++p) {
      const std::string what = "phase " + std::to_string(p);
      ASSERT_EQ(subs[p].size(), kept[p].size()) << what;
      EXPECT_TRUE(subs[p].validate()) << what;
      const TraceIdBounds bounds = subs[p].id_bounds();
      EXPECT_LT(bounds.max_id, bounds.allocs) << what << ": ids not dense";
      for (const alloc::DmmConfig& cfg :
           {alloc::drr_paper_config(), alloc::minimal_config()}) {
        const Replay a = replay(subs[p], cfg);
        const Replay b = replay(kept[p], cfg);
        EXPECT_EQ(a.sim.peak_footprint, b.sim.peak_footprint) << what;
        EXPECT_EQ(a.sim.final_footprint, b.sim.final_footprint) << what;
        EXPECT_EQ(a.sim.avg_footprint, b.sim.avg_footprint) << what;
        EXPECT_EQ(a.sim.peak_live_bytes, b.sim.peak_live_bytes) << what;
        EXPECT_EQ(a.sim.failed_allocs, b.sim.failed_allocs) << what;
        EXPECT_EQ(a.sim.events, b.sim.events) << what;
        EXPECT_EQ(a.work_steps, b.work_steps) << what;
      }
    }
  }
}

}  // namespace
}  // namespace dmm::core
