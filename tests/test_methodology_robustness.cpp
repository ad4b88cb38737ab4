// Robustness of the methodology: the paper designs the custom manager
// from profiled behaviour and deploys it on *future* inputs.  These tests
// check that a manager designed on one seed generalises to unseen seeds,
// that the phase machinery actually pays off where it should, and that
// searching the phases concurrently changes no result.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dmm/core/methodology.h"
#include "dmm/managers/registry.h"
#include "dmm/workloads/workload.h"

namespace dmm {
namespace {

TEST(MethodologyRobustness, DesignGeneralizesToUnseenSeeds) {
  // Design on seed 1; on seeds 2..5 the custom manager must still beat
  // every baseline of its Table 1 column (the paper's deployment story).
  for (const workloads::Workload& w : workloads::case_studies()) {
    const core::AllocTrace trace = workloads::record_trace(w, 1);
    const core::MethodologyResult design = core::design_manager(trace);
    for (unsigned seed = 2; seed <= 5; ++seed) {
      sysmem::SystemArena custom_arena;
      {
        auto mgr = design.make_manager(custom_arena);
        w.run(*mgr, seed);
      }
      for (const std::string& baseline : w.table1_baselines) {
        sysmem::SystemArena arena;
        {
          auto mgr = managers::make_manager(baseline, arena);
          w.run(*mgr, seed);
        }
        // Allow 5% slack: the unseen seed may shift the peak slightly.
        EXPECT_LE(custom_arena.peak_footprint(),
                  arena.peak_footprint() * 105 / 100)
            << w.name << " seed " << seed << " vs " << baseline;
      }
    }
  }
}

TEST(MethodologyRobustness, PerPhaseDesignBeatsSinglePhaseOnRender) {
  // The render workload has two genuinely different phases; explore it
  // once with phase annotations (global manager) and once with phases
  // erased (single atomic manager).  The per-phase design must not lose.
  const workloads::Workload& render = workloads::case_study("render3d");
  core::AllocTrace trace = workloads::record_trace(render, 1);
  ASSERT_EQ(trace.stats().phases, 2u);

  const core::MethodologyResult phased = core::design_manager(trace);
  ASSERT_EQ(phased.phase_configs.size(), 2u);

  core::AllocTrace flat = trace;
  for (core::AllocEvent& e : flat.events()) e.phase = 0;
  const core::MethodologyResult single = core::design_manager(flat);
  ASSERT_EQ(single.phase_configs.size(), 1u);

  sysmem::SystemArena phased_arena;
  {
    auto mgr = phased.make_manager(phased_arena);
    (void)core::simulate(trace, *mgr);
  }
  sysmem::SystemArena single_arena;
  {
    auto mgr = single.make_manager(single_arena);
    (void)core::simulate(flat, *mgr);
  }
  EXPECT_LE(phased_arena.peak_footprint(),
            single_arena.peak_footprint() * 105 / 100)
      << "phase-aware design must be at least competitive";
}

TEST(MethodologyRobustness, DesignIsDeterministic) {
  const workloads::Workload& drr = workloads::case_study("drr");
  const core::AllocTrace trace = workloads::record_trace(drr, 1);
  const core::MethodologyResult a = core::design_manager(trace);
  const core::MethodologyResult b = core::design_manager(trace);
  ASSERT_EQ(a.phase_configs.size(), b.phase_configs.size());
  for (std::size_t i = 0; i < a.phase_configs.size(); ++i) {
    EXPECT_TRUE(a.phase_configs[i] == b.phase_configs[i]);
  }
}

/// Three phases with distinct size mixes, each freeing what it allocated.
core::AllocTrace three_phase_trace() {
  core::AllocTrace t;
  std::mt19937 rng(11);
  const std::uint32_t sizes[3][3] = {
      {24, 40, 64}, {512, 900, 1500}, {64, 2048, 7000}};
  std::uint32_t next_id = 0;
  for (std::uint16_t phase = 0; phase < 3; ++phase) {
    std::vector<std::uint32_t> live;
    for (int i = 0; i < 1200; ++i) {
      if (live.empty() || rng() % 3 != 0) {
        t.record_alloc(next_id, sizes[phase][rng() % 3] + rng() % 32, phase);
        live.push_back(next_id++);
      } else {
        const std::size_t k = rng() % live.size();
        t.record_free(live[k], phase);
        live[k] = live.back();
        live.pop_back();
      }
    }
    for (const std::uint32_t id : live) t.record_free(id, phase);
  }
  return t;
}

TEST(MethodologyRobustness, ConcurrentPhasesMatchTheSequentialDesign) {
  // Phases search concurrently (up to num_threads at once, runners split
  // between them); every per-phase result and the run's accounting must
  // equal the one-thread, one-phase-at-a-time run.
  const core::AllocTrace trace = three_phase_trace();
  ASSERT_EQ(trace.stats().phases, 3u);
  const auto design = [&](unsigned threads) {
    core::MethodologyOptions opts;
    opts.explorer_options.num_threads = threads;
    opts.explorer_options.search = *core::parse_search_spec("anneal");
    opts.explorer_options.search.anneal.max_evals = 60;
    opts.explorer_options.shared_cache =
        std::make_shared<core::SharedScoreCache>();
    opts.validate = true;
    opts.validation_max_evals = 40;
    return core::design_manager(trace, opts);
  };
  const core::MethodologyResult serial = design(1);
  ASSERT_EQ(serial.phase_configs.size(), 3u);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    const std::string what = std::to_string(threads) + " threads";
    const core::MethodologyResult r = design(threads);
    ASSERT_EQ(r.phase_configs.size(), 3u) << what;
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_TRUE(r.phase_configs[p] == serial.phase_configs[p]) << what;
      const core::ExplorationResult& a = r.phase_results[p];
      const core::ExplorationResult& b = serial.phase_results[p];
      EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
      EXPECT_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
      EXPECT_EQ(a.evals_to_best, b.evals_to_best) << what;
      EXPECT_EQ(a.simulations, b.simulations) << what;
      EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
      EXPECT_TRUE(r.validation_results[p].best ==
                  serial.validation_results[p].best)
          << what;
    }
    EXPECT_EQ(r.total_simulations, serial.total_simulations) << what;
    EXPECT_EQ(r.total_cache_hits, serial.total_cache_hits) << what;
    EXPECT_EQ(r.total_cross_search_hits, serial.total_cross_search_hits)
        << what;
  }
}

TEST(MethodologyRobustness, DesignedManagerSurvivesBudgetPressure) {
  // Deploy the designed manager under an arena budget just above the
  // trace's own peak demand: it must complete without failures.
  const workloads::Workload& drr = workloads::case_study("drr");
  const core::AllocTrace trace = workloads::record_trace(drr, 1);
  const core::MethodologyResult design = core::design_manager(trace);
  sysmem::SystemArena probe;
  std::size_t needed = 0;
  {
    auto mgr = design.make_manager(probe);
    needed = core::simulate(trace, *mgr).peak_footprint;
  }
  sysmem::SystemArena tight(needed + 64 * 1024);
  auto mgr = design.make_manager(tight);
  const core::SimResult sim = core::simulate(trace, *mgr);
  EXPECT_EQ(sim.failed_allocs, 0u);
}

}  // namespace
}  // namespace dmm
