#include "dmm/core/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dmm/alloc/custom_manager.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/constraints.h"
#include "dmm/core/explorer.h"
#include "dmm/managers/kingsley.h"
#include "dmm/managers/lea.h"
#include "dmm/managers/registry.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

AllocTrace wave_trace(int objects, std::uint32_t size) {
  AllocTrace t;
  for (int i = 0; i < objects; ++i) {
    t.record_alloc(static_cast<std::uint32_t>(i), size);
  }
  for (int i = 0; i < objects; ++i) {
    t.record_free(static_cast<std::uint32_t>(i));
  }
  return t;
}

TEST(Simulator, PeakFootprintCoversDemand) {
  const AllocTrace t = wave_trace(100, 1000);
  sysmem::SystemArena arena;
  alloc::CustomManager mgr(arena, alloc::drr_paper_config());
  const SimResult r = simulate(t, mgr);
  EXPECT_EQ(r.events, 200u);
  EXPECT_EQ(r.peak_live_bytes, 100u * 1000);
  EXPECT_GE(r.peak_footprint, r.peak_live_bytes);
  EXPECT_GE(r.overhead_factor(), 1.0);
  EXPECT_EQ(r.failed_allocs, 0u);
}

TEST(Simulator, GrowShrinkEndsAtZeroFinalFootprint) {
  const AllocTrace t = wave_trace(100, 1000);
  const SimResult r = simulate_fresh(t, [](sysmem::SystemArena& a) {
    return std::make_unique<alloc::CustomManager>(
        a, alloc::drr_paper_config());
  });
  EXPECT_EQ(r.final_footprint, 0u);
}

TEST(Simulator, KingsleyKeepsFinalFootprintAtPeak) {
  const AllocTrace t = wave_trace(100, 1000);
  const SimResult r = simulate_fresh(t, [](sysmem::SystemArena& a) {
    return std::make_unique<managers::KingsleyAllocator>(a);
  });
  EXPECT_EQ(r.final_footprint, r.peak_footprint);
}

TEST(Simulator, TimelineSamplesAreMonotoneInEvents) {
  const AllocTrace t = wave_trace(500, 100);
  std::vector<TimelinePoint> timeline;
  (void)simulate_fresh(
      t,
      [](sysmem::SystemArena& a) {
        return std::make_unique<managers::LeaAllocator>(a);
      },
      &timeline, /*timeline_stride=*/100);
  ASSERT_GE(timeline.size(), 10u);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].event, timeline[i - 1].event);
  }
  EXPECT_EQ(timeline.back().event, 1000u) << "final state always sampled";
}

TEST(Simulator, ZeroTimelineStrideSamplesFinalPointOnly) {
  // Regression: a timeline with stride 0 used to evaluate `events % 0`
  // (undefined behaviour).  Stride 0 now means "final point only".
  const AllocTrace t = wave_trace(100, 64);
  std::vector<TimelinePoint> timeline;
  const SimResult r = simulate_fresh(
      t,
      [](sysmem::SystemArena& a) {
        return std::make_unique<alloc::CustomManager>(
            a, alloc::drr_paper_config());
      },
      &timeline, /*timeline_stride=*/0);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline.back().event, r.events);
  EXPECT_EQ(timeline.back().footprint, r.final_footprint);
}

TEST(Simulator, TimelineShowsLeaPlateauVsCustomDecay) {
  // The Fig. 5 mechanism in miniature: after the free wave, Lea's
  // footprint stays at the plateau, the custom manager's returns to ~0.
  const AllocTrace t = wave_trace(300, 512);
  std::vector<TimelinePoint> lea_tl;
  std::vector<TimelinePoint> custom_tl;
  (void)simulate_fresh(
      t,
      [](sysmem::SystemArena& a) {
        return std::make_unique<managers::LeaAllocator>(a);
      },
      &lea_tl, 50);
  (void)simulate_fresh(
      t,
      [](sysmem::SystemArena& a) {
        return std::make_unique<alloc::CustomManager>(
            a, alloc::drr_paper_config());
      },
      &custom_tl, 50);
  EXPECT_GT(lea_tl.back().footprint, 0u);
  EXPECT_EQ(custom_tl.back().footprint, 0u);
}

TEST(Simulator, FailedAllocationsAreCountedAndSkipped) {
  AllocTrace t;
  for (int i = 0; i < 100; ++i) {
    t.record_alloc(static_cast<std::uint32_t>(i), 64 * 1024);
  }
  for (int i = 0; i < 100; ++i) {
    t.record_free(static_cast<std::uint32_t>(i));
  }
  sysmem::SystemArena arena(/*capacity_bytes=*/1 << 20);  // 1 MiB budget
  alloc::CustomManager mgr(arena, alloc::drr_paper_config());
  const SimResult r = simulate(t, mgr);
  EXPECT_GT(r.failed_allocs, 0u) << "100 x 64 KiB cannot fit in 1 MiB";
  EXPECT_LT(r.failed_allocs, 100u) << "some allocations must succeed";
  EXPECT_LE(r.peak_footprint, 1u << 20);
}

TEST(Simulator, AverageFootprintBetweenZeroAndPeak) {
  const AllocTrace t = wave_trace(200, 256);
  const SimResult r = simulate_fresh(t, [](sysmem::SystemArena& a) {
    return std::make_unique<alloc::CustomManager>(
        a, alloc::drr_paper_config());
  });
  EXPECT_GT(r.avg_footprint, 0.0);
  EXPECT_LE(r.avg_footprint, static_cast<double>(r.peak_footprint));
}

TEST(Simulator, DeterministicAcrossRuns) {
  const AllocTrace t = wave_trace(200, 777);
  auto factory = [](sysmem::SystemArena& a) {
    return std::make_unique<alloc::CustomManager>(
        a, alloc::drr_paper_config());
  };
  const SimResult a = simulate_fresh(t, factory);
  const SimResult b = simulate_fresh(t, factory);
  EXPECT_EQ(a.peak_footprint, b.peak_footprint);
  EXPECT_EQ(a.final_footprint, b.final_footprint);
  EXPECT_EQ(a.avg_footprint, b.avg_footprint);
}

// ---------------------------------------------------------------------------
// Recycled arena slabs: a replay must not depend on what the slab held
// ---------------------------------------------------------------------------

/// Leaves a slab full of 0xA5 in this thread's slab cache, so the next
/// arena built on this thread starts on dirty memory; returns its base.
const std::byte* park_dirty_slab() {
  sysmem::SystemArena arena;
  const std::size_t bytes = sysmem::SystemArena::kSlabResidentBytes;
  std::byte* p = arena.request(bytes);
  std::memset(p, 0xA5, bytes);
  arena.release(p);
  return arena.slab_base();
}

struct Replay {
  SimResult sim;
  std::uint64_t work_steps = 0;  ///< policy core only
  const std::byte* slab = nullptr;
};

/// Replays @p t through @p manager ("designed" = the policy core built from
/// @p designed) on a new arena of the calling thread.
Replay replay(const AllocTrace& t, const std::string& manager,
              const alloc::DmmConfig& designed) {
  Replay r;
  sysmem::SystemArena arena;
  if (manager == "designed") {
    alloc::PolicyCore core(arena, designed, "designed",
                           /*strict_accounting=*/false);
    r.sim = simulate(t, core);
    r.work_steps = core.work_steps();
  } else {
    const std::unique_ptr<alloc::Allocator> m =
        managers::make_manager(manager, arena);
    r.sim = simulate(t, *m);
  }
  r.slab = arena.slab_base();
  return r;
}

TEST(Simulator, ReplayOnARecycledDirtySlabMatchesAFreshThread) {
  for (const workloads::Workload& w : workloads::case_studies()) {
    AllocTrace t = workloads::record_trace(w, 3);
    if (t.size() > 20000) {
      t.events().resize(20000);
      t.close_leaks();
    }
    ExplorerOptions opts;
    const alloc::DmmConfig designed = Explorer(t, opts).explore().best;
    for (const char* manager :
         {"designed", "kingsley", "lea", "regions", "obstacks"}) {
      const std::string what = w.name + " / " + manager;
      const std::byte* dirty = park_dirty_slab();
      const Replay recycled = replay(t, manager, designed);
      ASSERT_EQ(recycled.slab, dirty) << what << ": replay got a clean slab";
      Replay fresh;
      std::thread([&] { fresh = replay(t, manager, designed); }).join();
      ASSERT_LE(fresh.sim.peak_footprint,
                sysmem::SystemArena::kSlabResidentBytes)
          << what << ": footprint exceeds the dirtied prefix";
      EXPECT_EQ(recycled.sim.peak_footprint, fresh.sim.peak_footprint)
          << what;
      EXPECT_EQ(recycled.sim.final_footprint, fresh.sim.final_footprint)
          << what;
      EXPECT_EQ(recycled.sim.avg_footprint, fresh.sim.avg_footprint) << what;
      EXPECT_EQ(recycled.sim.peak_live_bytes, fresh.sim.peak_live_bytes)
          << what;
      EXPECT_EQ(recycled.sim.failed_allocs, fresh.sim.failed_allocs) << what;
      EXPECT_EQ(recycled.sim.events, fresh.sim.events) << what;
      EXPECT_EQ(recycled.work_steps, fresh.work_steps) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Peak cutoff: a replay stops where its running peak passes the cutoff
// ---------------------------------------------------------------------------

struct CutReplay {
  SimResult sim;
  std::uint64_t work_steps = 0;
  std::size_t live_bytes_after = 0;   ///< manager's live bytes on return
  std::size_t live_chunks_after = 0;  ///< arena grants once it is destroyed
};

CutReplay replay_with_cutoff(const AllocTrace& t, const alloc::DmmConfig& cfg,
                             std::size_t cutoff,
                             std::vector<TimelinePoint>* timeline = nullptr) {
  CutReplay r;
  sysmem::SystemArena arena;
  {
    alloc::PolicyCore core(arena, cfg, "designed",
                           /*strict_accounting=*/false);
    SimReplayOptions opts;
    opts.peak_cutoff = cutoff;
    opts.timeline = timeline;
    opts.timeline_stride = 1;
    r.sim = simulate(t, core, opts);
    r.work_steps = core.work_steps();
    r.live_bytes_after = core.stats().live_bytes;
  }
  r.live_chunks_after = arena.live_chunks();
  return r;
}

void expect_same_sim(const CutReplay& a, const CutReplay& b,
                     const std::string& what) {
  EXPECT_EQ(a.sim.peak_footprint, b.sim.peak_footprint) << what;
  EXPECT_EQ(a.sim.final_footprint, b.sim.final_footprint) << what;
  EXPECT_EQ(a.sim.avg_footprint, b.sim.avg_footprint) << what;
  EXPECT_EQ(a.sim.peak_live_bytes, b.sim.peak_live_bytes) << what;
  EXPECT_EQ(a.sim.failed_allocs, b.sim.failed_allocs) << what;
  EXPECT_EQ(a.sim.events, b.sim.events) << what;
  EXPECT_EQ(a.sim.stopped, b.sim.stopped) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
}

TEST(Simulator, PeakCutoffStopsAtTheFirstEventAboveIt) {
  const DecidedMask none{};
  // A shrinking manager (the footprint falls back below its running peak)
  // and the default completion, on every case study.
  const alloc::DmmConfig configs[] = {
      alloc::drr_paper_config(),
      Constraints::repair(alloc::DmmConfig{}, none)};
  for (const workloads::Workload& w : workloads::case_studies()) {
    AllocTrace t = workloads::record_trace(w, 3);
    if (t.size() > 5000) {
      t.events().resize(5000);
      t.close_leaks();
    }
    for (std::size_t c = 0; c < 2; ++c) {
      const std::string what = w.name + " config " + std::to_string(c);
      std::vector<TimelinePoint> timeline;
      const CutReplay full = replay_with_cutoff(t, configs[c], 0, &timeline);
      ASSERT_FALSE(full.sim.stopped) << what;
      ASSERT_EQ(timeline.size(), full.sim.events + 1) << what;
      // Running maximum after each event, and the distinct peak levels.
      std::vector<std::size_t> running(full.sim.events);
      std::vector<std::size_t> levels;
      for (std::size_t i = 0; i < running.size(); ++i) {
        running[i] = std::max(i == 0 ? 0 : running[i - 1],
                              timeline[i].footprint);
        if (levels.empty() || running[i] > levels.back()) {
          levels.push_back(running[i]);
        }
      }
      ASSERT_EQ(levels.back(), full.sim.peak_footprint) << what;
      ASSERT_GE(levels.size(), 3u) << what << ": too few peak levels";

      // Cutoffs at and just below a spread of peak levels.
      std::vector<std::size_t> cutoffs;
      for (std::size_t k = 1; k < 6; ++k) {
        const std::size_t level = levels[k * (levels.size() - 1) / 6];
        cutoffs.push_back(level);
        cutoffs.push_back(level - 1);
      }
      for (const std::size_t cutoff : cutoffs) {
        const std::string at = what + " cutoff " + std::to_string(cutoff);
        std::size_t stop = 0;
        while (timeline[stop].footprint <= cutoff) ++stop;
        double sum = 0.0;
        for (std::size_t i = 0; i <= stop; ++i) {
          sum += static_cast<double>(timeline[i].footprint);
        }
        const CutReplay cut = replay_with_cutoff(t, configs[c], cutoff);
        EXPECT_TRUE(cut.sim.stopped) << at;
        EXPECT_EQ(cut.sim.events, stop + 1) << at;
        EXPECT_EQ(cut.sim.peak_footprint, running[stop]) << at;
        EXPECT_GT(cut.sim.peak_footprint, cutoff) << at;
        EXPECT_EQ(cut.sim.avg_footprint,
                  sum / static_cast<double>(stop + 1))
            << at;
        EXPECT_EQ(cut.live_bytes_after, 0u) << at << ": teardown skipped";
        EXPECT_EQ(cut.live_chunks_after, 0u) << at;
      }
      // A cutoff the replay never passes changes nothing.
      for (const std::size_t cutoff :
           {full.sim.peak_footprint, full.sim.peak_footprint + 1,
            std::size_t{1} << 40}) {
        expect_same_sim(replay_with_cutoff(t, configs[c], cutoff), full,
                        what + " cutoff >= peak");
      }
      EXPECT_EQ(full.live_chunks_after, 0u) << what;
    }
  }
}

}  // namespace
}  // namespace dmm::core
