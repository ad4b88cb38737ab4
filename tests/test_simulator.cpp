#include "dmm/core/simulator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dmm/alloc/custom_manager.h"
#include "dmm/alloc/policy_core.h"
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

}  // namespace
}  // namespace dmm::core
