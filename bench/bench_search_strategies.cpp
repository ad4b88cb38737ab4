// Search-strategy ablation over the SearchStrategy seam (core/search.h):
// for every case-study workload, run each searcher against one shared
// score cache and report best-peak and evals-to-best (evaluations charged
// when the winner was recorded) — then reproduce the Fig. 4 ordering trap
// with a *myopic* explorer (minimal-capability defaults, A3-first order)
// and check that a beam of width >= 2 escapes it.
//
// Annealing speculation, per workload: default annealing (seed 1, 400
// evaluations) timed at 1 and 4 engine threads on fresh caches (min of
// kRepeats interleaved runs), the 4-thread run's committed steps per
// round and discarded speculative replays, and whether both runs agree
// bit for bit (thread_identical).  Then the best-peak-versus-evaluations
// curve of seeds 1/5/17: the trajectory does not depend on the budget, so
// runs at max_evals = 25, 50, ..., 400 on one cache per seed trace it,
// beside the greedy walk's peak.
//
// Emits BENCH_search.json; the exit code gates beam(2) <= greedy on the
// trap and thread_identical on every workload, which CI enforces (the
// timings are reported, never gated).
//
// Optional argv[1]: cap on trace events (0 = full trace); `--out PATH`
// relocates the JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dmm/core/explorer.h"

namespace {

/// Timed runs per thread count of the speculation comparison.
constexpr int kRepeats = 3;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every deterministic field of two search results, the accounting split
/// included (wall-clock fields excluded).
bool same_result(const dmm::core::ExplorationResult& a,
                 const dmm::core::ExplorationResult& b) {
  return a.best == b.best &&
         a.best_sim.peak_footprint == b.best_sim.peak_footprint &&
         a.best_sim.avg_footprint == b.best_sim.avg_footprint &&
         a.best_sim.failed_allocs == b.best_sim.failed_allocs &&
         a.work_steps == b.work_steps && a.evals_to_best == b.evals_to_best &&
         a.simulations == b.simulations && a.cache_hits == b.cache_hits &&
         a.canonical_skips == b.canonical_skips && a.feasible == b.feasible;
}

struct SpeculationNumbers {
  double wall_1t = 0.0;  ///< min over kRepeats
  double wall_4t = 0.0;
  dmm::core::AnnealingSearch::SpeculationStats stats;  ///< 4-thread run
  bool thread_identical = true;
};

/// Default annealing at 1 and 4 engine threads, fresh per-search caches.
SpeculationNumbers measure_speculation(
    const std::shared_ptr<const dmm::core::AllocTrace>& trace) {
  SpeculationNumbers n;
  dmm::core::ExplorationResult reference;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const unsigned threads : {1u, 4u}) {
      dmm::core::ExplorerOptions opts;
      opts.num_threads = threads;
      dmm::core::Explorer ex(trace, opts);
      dmm::core::AnnealingSearch anneal;
      const double t0 = now_seconds();
      const dmm::core::ExplorationResult r = ex.run(anneal);
      const double wall = now_seconds() - t0;
      double& best = threads == 1 ? n.wall_1t : n.wall_4t;
      best = rep == 0 ? wall : std::min(best, wall);
      if (threads == 1 && rep == 0) reference = r;
      if (threads == 4) n.stats = anneal.speculation();
      n.thread_identical = n.thread_identical && same_result(r, reference);
    }
  }
  return n;
}

constexpr unsigned kCurveSeeds[] = {1u, 5u, 17u};
constexpr std::size_t kCurveStep = 25;
constexpr std::size_t kCurvePoints = 16;  // max_evals 25 .. 400

/// Best peak after 25, 50, ..., 400 evaluations for one seed: each budget
/// is a separate run on one shared cache, so every run replays only the
/// evaluations the previous one did not reach.
std::vector<std::size_t> anneal_curve(
    const std::shared_ptr<const dmm::core::AllocTrace>& trace, unsigned seed) {
  dmm::core::ExplorerOptions opts;
  opts.num_threads = 4;
  opts.shared_cache = std::make_shared<dmm::core::SharedScoreCache>();
  dmm::core::Explorer ex(trace, opts);
  std::vector<std::size_t> peaks;
  for (std::size_t k = 1; k <= kCurvePoints; ++k) {
    dmm::core::AnnealingOptions aopts;
    aopts.seed = seed;
    aopts.max_evals = k * kCurveStep;
    dmm::core::AnnealingSearch anneal(aopts);
    peaks.push_back(ex.run(anneal).best_sim.peak_footprint);
  }
  return peaks;
}

struct StrategyRow {
  std::string name;
  dmm::core::ExplorationResult result;
};

void print_row(const StrategyRow& row) {
  std::printf("%-14s %14zu %8llu %9llu %9s\n", row.name.c_str(),
              row.result.best_sim.peak_footprint,
              static_cast<unsigned long long>(row.result.simulations +
                                              row.result.cache_hits),
              static_cast<unsigned long long>(row.result.evals_to_best),
              row.result.feasible ? "yes" : "NO");
}

void json_row(std::FILE* json, bool first, const StrategyRow& row) {
  std::fprintf(json,
               "%s\n        {\"search\": \"%s\", \"peak\": %zu, "
               "\"evals\": %llu, \"evals_to_best\": %llu, "
               "\"replays\": %llu, \"feasible\": %s}",
               first ? "" : ",", row.name.c_str(),
               row.result.best_sim.peak_footprint,
               static_cast<unsigned long long>(row.result.simulations +
                                               row.result.cache_hits),
               static_cast<unsigned long long>(row.result.evals_to_best),
               static_cast<unsigned long long>(row.result.simulations),
               row.result.feasible ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;
  using core::TreeId;

  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_search.json");

  std::printf("Search-strategy ablation (one shared score cache per "
              "workload)\n");
  bench::print_rule('=');

  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"search_strategies\",\n");
  std::fprintf(json, "  \"workloads\": [");

  bool first_workload = true;
  bool fig4_gate_passed = true;
  bool thread_gate_passed = true;
  for (const workloads::Workload& w : workloads::case_studies()) {
    core::AllocTrace recorded = workloads::record_trace(w, 1);
    bench::cap_events(recorded, args.max_events);
    const auto trace =
        std::make_shared<const core::AllocTrace>(std::move(recorded));
    std::printf("\n== %s (%zu events) ==\n", w.name.c_str(), trace->size());
    std::printf("%-14s %14s %8s %9s %9s\n", "strategy", "best peak (B)",
                "evals", "to-best", "feasible");
    bench::print_rule();

    // One cache serves every strategy on this trace, so the later rows
    // ride the earlier rows' replays; evals (replays + hits) stays the
    // honest per-strategy cost either way.
    core::ExplorerOptions opts;
    opts.shared_cache = std::make_shared<core::SharedScoreCache>();
    core::Explorer ex(trace, opts);

    std::vector<StrategyRow> rows;
    rows.push_back({"greedy", ex.explore(core::paper_order())});
    // Streaming budgets: 4x the greedy walk's evaluations — enough room
    // for the order-free searchers to move, still smoke-run fast.
    const std::size_t budget =
        4 * (rows[0].result.simulations + rows[0].result.cache_hits);
    for (const std::size_t width : {2u, 4u}) {
      core::BeamSearch beam(width, core::paper_order());
      rows.push_back({beam.name(), ex.run(beam)});
    }
    {
      core::AnnealingOptions aopts;
      aopts.max_evals = budget;
      core::AnnealingSearch anneal(aopts);
      rows.push_back({anneal.name(), ex.run(anneal)});
    }
    rows.push_back({"random", ex.random_search(budget, /*seed=*/42)});
    rows.push_back({"exhaustive", ex.exhaustive(core::high_impact_trees())});
    for (const StrategyRow& row : rows) print_row(row);

    // --- the Fig. 4 trap, executably adversarial ------------------------
    // Myopic defaults judge each tree by local cost alone; under the
    // A3-first order the greedy walk picks A3=none and propagation locks
    // split/coalesce to `never`.  A beam keeps the header branch alive.
    core::ExplorerOptions myopic;
    myopic.defaults = alloc::minimal_config();
    myopic.shared_cache = std::make_shared<core::SharedScoreCache>();
    core::Explorer trap_ex(trace, myopic);
    const core::ExplorationResult trap_greedy =
        trap_ex.explore(core::fig4_wrong_order());
    core::BeamSearch trap_beam(2, core::fig4_wrong_order());
    const core::ExplorationResult trap_beam2 = trap_ex.run(trap_beam);
    const bool escaped = trap_beam2.best_sim.peak_footprint <=
                         trap_greedy.best_sim.peak_footprint;
    fig4_gate_passed = fig4_gate_passed && escaped;
    std::printf("fig4 trap (myopic, %s): greedy peak %zu, beam:2 peak %zu "
                "(%+.1f%%) -> %s\n",
                core::order_to_string(core::fig4_wrong_order()).c_str(),
                trap_greedy.best_sim.peak_footprint,
                trap_beam2.best_sim.peak_footprint,
                100.0 *
                    (static_cast<double>(trap_beam2.best_sim.peak_footprint) -
                     static_cast<double>(trap_greedy.best_sim.peak_footprint)) /
                    static_cast<double>(trap_greedy.best_sim.peak_footprint),
                escaped ? "escaped" : "STUCK — gate fails");

    // --- annealing speculation and the best-peak curve ------------------
    const SpeculationNumbers spec = measure_speculation(trace);
    thread_gate_passed = thread_gate_passed && spec.thread_identical;
    const double per_round =
        spec.stats.rounds == 0 ? 0.0
                               : static_cast<double>(spec.stats.committed) /
                                     static_cast<double>(spec.stats.rounds);
    std::printf("anneal 400 evals: %.4fs @1 thread, %.4fs @4 threads "
                "(%.2fx); %.2f committed/round over %llu rounds, %llu of "
                "%llu speculative replays discarded; %s\n",
                spec.wall_1t, spec.wall_4t,
                spec.wall_4t > 0.0 ? spec.wall_1t / spec.wall_4t : 0.0,
                per_round, static_cast<unsigned long long>(spec.stats.rounds),
                static_cast<unsigned long long>(spec.stats.discarded),
                static_cast<unsigned long long>(spec.stats.replays),
                spec.thread_identical ? "thread-identical"
                                      : "THREAD COUNTS DISAGREE — gate fails");
    std::vector<std::vector<std::size_t>> curves;
    for (const unsigned seed : kCurveSeeds) {
      curves.push_back(anneal_curve(trace, seed));
      std::printf("anneal:%u best peak @25..400 evals:", seed);
      for (const std::size_t peak : curves.back()) std::printf(" %zu", peak);
      std::printf(" (greedy %zu)\n", rows[0].result.best_sim.peak_footprint);
    }

    std::fprintf(json, "%s\n    {\n      \"workload\": \"%s\",\n",
                 first_workload ? "" : ",", w.name.c_str());
    std::fprintf(json, "      \"events\": %zu,\n", trace->size());
    std::fprintf(json, "      \"strategies\": [");
    bool first_row = true;
    for (const StrategyRow& row : rows) {
      json_row(json, first_row, row);
      first_row = false;
    }
    std::fprintf(json, "\n      ],\n");
    std::fprintf(json,
                 "      \"anneal_speculation\": {\"evals\": 400, "
                 "\"wall_1t_s\": %.5f, \"wall_4t_s\": %.5f, "
                 "\"rounds\": %llu, \"committed\": %llu, "
                 "\"committed_per_round\": %.3f, \"replays\": %llu, "
                 "\"discarded\": %llu, \"thread_identical\": %s},\n",
                 spec.wall_1t, spec.wall_4t,
                 static_cast<unsigned long long>(spec.stats.rounds),
                 static_cast<unsigned long long>(spec.stats.committed),
                 per_round, static_cast<unsigned long long>(spec.stats.replays),
                 static_cast<unsigned long long>(spec.stats.discarded),
                 spec.thread_identical ? "true" : "false");
    std::fprintf(json,
                 "      \"anneal_curve\": {\"greedy_peak\": %zu, "
                 "\"evals_step\": %zu, \"seeds\": [",
                 rows[0].result.best_sim.peak_footprint, kCurveStep);
    for (std::size_t c = 0; c < curves.size(); ++c) {
      std::fprintf(json, "%s{\"seed\": %u, \"best_peak\": [",
                   c == 0 ? "" : ", ", kCurveSeeds[c]);
      for (std::size_t k = 0; k < curves[c].size(); ++k) {
        std::fprintf(json, "%s%zu", k == 0 ? "" : ", ", curves[c][k]);
      }
      std::fprintf(json, "]}");
    }
    std::fprintf(json, "]},\n");
    std::fprintf(json,
                 "      \"fig4_trap\": {\"greedy_peak\": %zu, "
                 "\"beam2_peak\": %zu, \"escaped\": %s}\n    }",
                 trap_greedy.best_sim.peak_footprint,
                 trap_beam2.best_sim.peak_footprint,
                 escaped ? "true" : "false");
    first_workload = false;
  }

  std::fprintf(json,
               "\n  ],\n  \"fig4_gate_passed\": %s,\n"
               "  \"anneal_thread_identical\": %s\n}\n",
               fig4_gate_passed ? "true" : "false",
               thread_gate_passed ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", args.out.c_str());
  if (!fig4_gate_passed) {
    std::fprintf(stderr,
                 "FAIL: BeamSearch(2) did not match or beat greedy on the "
                 "Fig. 4 adversarial order\n");
    return 1;
  }
  if (!thread_gate_passed) {
    std::fprintf(stderr,
                 "FAIL: annealing at 4 threads diverged from 1 thread\n");
    return 1;
  }
  return 0;
}
