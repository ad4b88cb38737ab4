// Incremental-replay ablation (core/checkpoint.h): for every case-study
// workload, run each searcher cold and with the full-skip store and report
// how many trace events each actually replayed, how many evaluations were
// served a stored final result (full skips), and wall time.  A second
// scenario scores a post-search sensitivity sweep — the knob ladder a
// designer runs around the chosen vector — where full skips dominate and
// the savings are large.  A third times the dense-id flat-vector live map
// against the hash-map path on the same event sequence (ids dense vs.
// scattered).
//
// Every wall time is the minimum over kRepeats interleaved cold/incremental
// runs.  A comparison's noise band is the larger of its two sides' spreads
// (max - min over those runs), so the band is this machine's own measured
// jitter, not a guess.
//
// Emits BENCH_incremental.json.  The exit code gates, and CI enforces:
//   * every searcher finds the same best vector with incremental on, and
//     the verify_incremental passes (greedy walks, sweeps) stay clean,
//   * every searcher's incremental wall time is no worse than cold beyond
//     the noise band,
//   * the DRR sensitivity sweep replays >= 3x fewer events than cold and
//     runs >= 3x faster by wall time,
//   * the DRR greedy walk's verify pass checks at least one full skip
//     (verified_ok > 0), so verify_clean means something on a walk too.
//
// Optional argv[1]: cap on trace events (0 = full trace); `--out PATH`
// relocates the JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dmm/core/checkpoint.h"
#include "dmm/core/explorer.h"

namespace {

using namespace dmm;

/// Timed runs per side of every cold-vs-incremental comparison.
constexpr int kRepeats = 5;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Min and max wall time over one side's repeats.
struct WallRange {
  double min = 0.0;
  double max = 0.0;
  int runs = 0;

  void add(double wall) {
    min = runs == 0 ? wall : std::min(min, wall);
    max = runs == 0 ? wall : std::max(max, wall);
    ++runs;
  }
  [[nodiscard]] double spread() const { return max - min; }
};

/// Measured noise band of a cold-vs-incremental pair.
double noise_band(const WallRange& cold, const WallRange& inc) {
  return std::max(cold.spread(), inc.spread());
}

/// The wall-clock gate: incremental's best run is no worse than cold's
/// beyond the noise band.
bool within_noise(const WallRange& cold, const WallRange& inc) {
  return inc.min <= cold.min + noise_band(cold, inc);
}

struct SearcherNumbers {
  std::string name;
  core::ExplorationResult cold;
  core::ExplorationResult inc;
  WallRange cold_wall;
  WallRange inc_wall;
  std::uint64_t verified_ok = 0;
  std::uint64_t verify_failures = 0;
  bool best_agrees = false;
};

/// Runs @p run_search cold and incrementally on fresh Explorers (fresh
/// local caches, fresh full-skip store: the numbers are one searcher's
/// own, not a warm-cache artefact), kRepeats times each, interleaved.
template <typename RunFn>
SearcherNumbers measure(const std::shared_ptr<const core::AllocTrace>& trace,
                        const std::string& name, bool verify_greedy,
                        const RunFn& run_search) {
  SearcherNumbers n;
  n.name = name;
  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      core::ExplorerOptions opts;
      opts.num_threads = 1;
      core::Explorer ex(trace, opts);
      const double t0 = now_seconds();
      n.cold = run_search(ex);
      n.cold_wall.add(now_seconds() - t0);
    }
    {
      core::ExplorerOptions opts;
      opts.num_threads = 1;
      opts.incremental = true;
      core::Explorer ex(trace, opts);
      const double t0 = now_seconds();
      n.inc = run_search(ex);
      n.inc_wall.add(now_seconds() - t0);
    }
  }
  n.best_agrees = n.cold.best == n.inc.best &&
                  n.cold.best_sim.peak_footprint ==
                      n.inc.best_sim.peak_footprint;
  if (verify_greedy) {
    // Dedicated pass with verify_incremental: every full skip is
    // cross-checked bit-for-bit against a cold replay (untimed — verify
    // replays everything twice by design).
    core::ExplorerOptions opts;
    opts.num_threads = 1;
    opts.incremental = true;
    opts.verify_incremental = true;
    core::Explorer ex(trace, opts);
    const core::ExplorationResult verified = run_search(ex);
    n.best_agrees = n.best_agrees && verified.best == n.cold.best;
    const core::CheckpointStore::Stats stats =
        ex.engine().checkpoint_store()->stats();
    n.verified_ok = stats.verified_ok;
    n.verify_failures = stats.verify_failures;
  }
  return n;
}

/// The post-search threshold sweep: "how far can the large-object
/// threshold move before behaviour changes?" — the question a designer
/// asks right after the search picks a vector.  Most rungs never touch
/// the trace's request sizes, so the consult table and the trace-pure
/// size check prove whole replays away (full skips); a rung that does
/// straddle a live size replays cold and becomes a baseline itself.
/// Variants that canonicalize onto an already-seen behaviour are dropped —
/// in-session dedup would serve those for free anyway, and the sweep
/// should credit full skips, not dedup.
std::vector<alloc::DmmConfig> sensitivity_variants(
    const alloc::DmmConfig& base) {
  std::vector<alloc::DmmConfig> out;
  std::vector<alloc::DmmConfig> canon_seen = {alloc::canonical(base)};
  const auto add = [&](alloc::DmmConfig v) {
    const alloc::DmmConfig c = alloc::canonical(v);
    for (const alloc::DmmConfig& seen : canon_seen) {
      if (seen == c) return;
    }
    canon_seen.push_back(c);
    out.push_back(v);
  };
  for (const std::size_t big :
       {std::size_t{4} * 1024, std::size_t{16} * 1024, std::size_t{32} * 1024,
        std::size_t{64} * 1024, std::size_t{128} * 1024,
        std::size_t{256} * 1024, std::size_t{512} * 1024}) {
    alloc::DmmConfig v = base;
    v.big_request_bytes = big;
    add(v);
  }
  for (const std::size_t min :
       {std::size_t{512}, std::size_t{1024}, std::size_t{4096}}) {
    alloc::DmmConfig v = base;
    v.deferred_split_min = min;
    add(v);
  }
  return out;
}

struct SweepNumbers {
  std::size_t evals = 0;
  std::uint64_t cold_events = 0;
  std::uint64_t inc_events = 0;
  std::uint64_t full_skips = 0;
  std::uint64_t verify_failures = 0;
  WallRange cold_wall;
  WallRange inc_wall;
  [[nodiscard]] double speedup() const {
    return inc_events == 0 ? 0.0
                           : static_cast<double>(cold_events) /
                                 static_cast<double>(inc_events);
  }
  [[nodiscard]] double wall_speedup() const {
    return inc_wall.min <= 0.0 ? 0.0 : cold_wall.min / inc_wall.min;
  }
};

SweepNumbers run_sweep(const core::AllocTrace& trace,
                       const alloc::DmmConfig& base) {
  std::vector<core::EvalJob> jobs = {{base, 0}};
  for (const alloc::DmmConfig& v : sensitivity_variants(base)) {
    jobs.push_back({v, jobs.size()});
  }
  SweepNumbers s;
  s.evals = jobs.size();
  s.cold_events = jobs.size() * trace.events().size();
  // Scores the sweep on a fresh engine (a null store replays cold) and
  // returns {wall seconds, replayed events}.
  const auto run = [&](std::shared_ptr<core::CheckpointStore> store,
                       bool verify) {
    core::SerialEngine engine;
    engine.configure_incremental(std::move(store), verify);
    const double t0 = now_seconds();
    const std::vector<core::EvalOutcome> outs = engine.evaluate(trace, jobs);
    const double wall = now_seconds() - t0;
    std::uint64_t events = 0;
    for (const core::EvalOutcome& out : outs) events += out.replayed_events;
    return std::make_pair(wall, events);
  };
  for (int rep = 0; rep < kRepeats; ++rep) {
    s.cold_wall.add(run(nullptr, false).first);
    auto store = std::make_shared<core::CheckpointStore>();
    const auto [wall, events] = run(store, false);
    s.inc_wall.add(wall);
    s.inc_events = events;
    s.full_skips = store->stats().full_skips;
  }
  // Untimed verify pass: every full skip also replays cold.
  auto verify_store = std::make_shared<core::CheckpointStore>();
  (void)run(verify_store, true);
  s.verify_failures = verify_store->stats().verify_failures;
  return s;
}

/// Same logical event sequence twice: ids 0..N-1 (dense flat-vector path)
/// versus ids scattered by a large odd stride (hash-map fallback).  The
/// allocator sees identical request sizes and lifetimes either way, so the
/// wall-time delta is the live-map data structure alone.
struct LiveMapNumbers {
  std::uint64_t events = 0;
  double dense_wall = 0.0;
  double hash_wall = 0.0;
};

LiveMapNumbers run_livemap(std::size_t objects) {
  LiveMapNumbers n;
  const auto build = [&](bool dense_ids) {
    core::AllocTrace t;
    for (std::size_t i = 0; i < objects; ++i) {
      const auto id = static_cast<std::uint32_t>(dense_ids ? i : i * 2099 + 7);
      t.record_alloc(id, 64 + static_cast<std::uint32_t>(i % 7) * 32);
      if (i >= 8) {
        const std::size_t j = i - 8;
        t.record_free(
            static_cast<std::uint32_t>(dense_ids ? j : j * 2099 + 7));
      }
    }
    t.close_leaks();
    return t;
  };
  const auto time_replay = [&](const core::AllocTrace& t) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_seconds();
      (void)core::simulate_fresh(t, [](sysmem::SystemArena& a) {
        return std::make_unique<alloc::CustomManager>(
            a, alloc::drr_paper_config());
      });
      const double wall = now_seconds() - t0;
      if (rep == 0 || wall < best) best = wall;
    }
    return best;
  };
  const core::AllocTrace dense = build(true);
  const core::AllocTrace sparse = build(false);
  n.events = dense.size();
  n.dense_wall = time_replay(dense);
  n.hash_wall = time_replay(sparse);
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_incremental.json");

  std::printf("Incremental replay ablation (full-skip store, 1 thread, "
              "wall = min of %d runs)\n",
              kRepeats);
  bench::print_rule('=');

  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"incremental\",\n");
  std::fprintf(json, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(json, "  \"workloads\": [");

  bool agree_gate = true;
  bool verify_gate = true;
  bool wall_gate = true;
  bool drr_sweep_gate = false;
  bool drr_sweep_wall_gate = false;
  bool drr_greedy_verified_gate = false;
  bool first_workload = true;
  for (const workloads::Workload& w : workloads::case_studies()) {
    core::AllocTrace recorded = workloads::record_trace(w, 1);
    bench::cap_events(recorded, args.max_events);
    const auto trace =
        std::make_shared<const core::AllocTrace>(std::move(recorded));
    std::printf("\n== %s (%zu events) ==\n", w.name.c_str(), trace->size());
    std::printf("%-8s %11s %11s %6s %5s %8s %8s %8s\n", "strategy",
                "cold events", "inc events", "saved", "skips", "cold s",
                "inc s", "band s");
    bench::print_rule();

    std::vector<SearcherNumbers> rows;
    rows.push_back(measure(trace, "greedy", /*verify_greedy=*/true,
                           [](core::Explorer& ex) {
                             return ex.explore(core::paper_order());
                           }));
    rows.push_back(measure(trace, "beam:2", /*verify_greedy=*/false,
                           [](core::Explorer& ex) {
                             core::BeamSearch beam(2, core::paper_order());
                             return ex.run(beam);
                           }));
    const std::size_t budget =
        2 * (rows[0].cold.simulations + rows[0].cold.cache_hits);
    rows.push_back(measure(trace, "anneal", /*verify_greedy=*/false,
                           [budget](core::Explorer& ex) {
                             core::AnnealingOptions aopts;
                             aopts.max_evals = budget;
                             core::AnnealingSearch anneal(aopts);
                             return ex.run(anneal);
                           }));

    for (const SearcherNumbers& n : rows) {
      const double saved =
          n.cold.replayed_events == 0
              ? 0.0
              : 100.0 *
                    (static_cast<double>(n.cold.replayed_events) -
                     static_cast<double>(n.inc.replayed_events)) /
                    static_cast<double>(n.cold.replayed_events);
      const bool in_band = within_noise(n.cold_wall, n.inc_wall);
      std::printf("%-8s %11llu %11llu %5.1f%% %5llu %7.4fs %7.4fs %7.4fs%s%s\n",
                  n.name.c_str(),
                  static_cast<unsigned long long>(n.cold.replayed_events),
                  static_cast<unsigned long long>(n.inc.replayed_events),
                  saved, static_cast<unsigned long long>(n.inc.full_skips),
                  n.cold_wall.min, n.inc_wall.min,
                  noise_band(n.cold_wall, n.inc_wall),
                  n.best_agrees ? "" : "  BEST DISAGREES — gate fails",
                  in_band ? "" : "  SLOWER THAN COLD — gate fails");
      agree_gate = agree_gate && n.best_agrees;
      verify_gate = verify_gate && n.verify_failures == 0;
      wall_gate = wall_gate && in_band;
    }

    // Threshold sweep around the greedy winner: the full-skip store's
    // home turf — most rungs never touch the trace's behaviour, so whole
    // replays collapse into full skips.
    const SweepNumbers sweep = run_sweep(*trace, rows[0].inc.best);
    std::printf("sensitivity sweep: %zu evals, %llu cold vs %llu inc events "
                "(%.1fx), %llu skips; %.4fs cold vs %.4fs inc (%.1fx)\n",
                sweep.evals,
                static_cast<unsigned long long>(sweep.cold_events),
                static_cast<unsigned long long>(sweep.inc_events),
                sweep.speedup(),
                static_cast<unsigned long long>(sweep.full_skips),
                sweep.cold_wall.min, sweep.inc_wall.min, sweep.wall_speedup());
    verify_gate = verify_gate && sweep.verify_failures == 0;
    if (w.name == "drr") {
      drr_sweep_gate = sweep.speedup() >= 3.0;
      drr_sweep_wall_gate = sweep.wall_speedup() >= 3.0;
      drr_greedy_verified_gate = rows[0].verified_ok > 0;
    }

    std::fprintf(json, "%s\n    {\n      \"workload\": \"%s\",\n",
                 first_workload ? "" : ",", w.name.c_str());
    std::fprintf(json, "      \"events\": %zu,\n", trace->size());
    std::fprintf(json, "      \"searchers\": [");
    bool first_row = true;
    for (const SearcherNumbers& n : rows) {
      std::fprintf(
          json,
          "%s\n        {\"search\": \"%s\", \"cold_replayed_events\": %llu, "
          "\"inc_replayed_events\": %llu, \"full_skips\": %llu, "
          "\"cold_wall_s\": %.5f, \"inc_wall_s\": %.5f, "
          "\"noise_band_s\": %.5f, \"inc_within_noise\": %s, "
          "\"best_agrees\": %s, \"verified_ok\": %llu, "
          "\"verify_failures\": %llu}",
          first_row ? "" : ",", n.name.c_str(),
          static_cast<unsigned long long>(n.cold.replayed_events),
          static_cast<unsigned long long>(n.inc.replayed_events),
          static_cast<unsigned long long>(n.inc.full_skips), n.cold_wall.min,
          n.inc_wall.min, noise_band(n.cold_wall, n.inc_wall),
          within_noise(n.cold_wall, n.inc_wall) ? "true" : "false",
          n.best_agrees ? "true" : "false",
          static_cast<unsigned long long>(n.verified_ok),
          static_cast<unsigned long long>(n.verify_failures));
      first_row = false;
    }
    std::fprintf(json, "\n      ],\n");
    std::fprintf(json,
                 "      \"sensitivity_sweep\": {\"evals\": %zu, "
                 "\"cold_events\": %llu, \"inc_events\": %llu, "
                 "\"speedup\": %.2f, \"full_skips\": %llu, "
                 "\"cold_wall_s\": %.5f, \"inc_wall_s\": %.5f, "
                 "\"wall_speedup\": %.2f, \"verify_failures\": %llu}\n    }",
                 sweep.evals,
                 static_cast<unsigned long long>(sweep.cold_events),
                 static_cast<unsigned long long>(sweep.inc_events),
                 sweep.speedup(),
                 static_cast<unsigned long long>(sweep.full_skips),
                 sweep.cold_wall.min, sweep.inc_wall.min, sweep.wall_speedup(),
                 static_cast<unsigned long long>(sweep.verify_failures));
    first_workload = false;
  }
  std::fprintf(json, "\n  ],\n");

  const LiveMapNumbers lm = run_livemap(50'000);
  std::printf("\nlive-map backend (%llu events): dense flat %.3fs vs hash "
              "%.3fs (%.2fx)\n",
              static_cast<unsigned long long>(lm.events), lm.dense_wall,
              lm.hash_wall,
              lm.dense_wall > 0.0 ? lm.hash_wall / lm.dense_wall : 0.0);
  std::fprintf(json,
               "  \"livemap\": {\"events\": %llu, \"dense_wall_s\": %.4f, "
               "\"hash_wall_s\": %.4f},\n",
               static_cast<unsigned long long>(lm.events), lm.dense_wall,
               lm.hash_wall);

  const bool all_gates = agree_gate && verify_gate && wall_gate &&
                         drr_sweep_gate && drr_sweep_wall_gate &&
                         drr_greedy_verified_gate;
  std::fprintf(json,
               "  \"gates\": {\"best_agrees\": %s, \"verify_clean\": %s, "
               "\"inc_wall_within_noise\": %s, \"drr_sweep_3x\": %s, "
               "\"drr_sweep_3x_wall\": %s, \"drr_greedy_verified\": %s, "
               "\"passed\": %s}\n}\n",
               agree_gate ? "true" : "false", verify_gate ? "true" : "false",
               wall_gate ? "true" : "false", drr_sweep_gate ? "true" : "false",
               drr_sweep_wall_gate ? "true" : "false",
               drr_greedy_verified_gate ? "true" : "false",
               all_gates ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", args.out.c_str());
  if (!all_gates) {
    std::fprintf(stderr,
                 "FAIL: incremental gates (best_agrees=%d verify_clean=%d "
                 "inc_wall_within_noise=%d drr_sweep_3x=%d "
                 "drr_sweep_3x_wall=%d drr_greedy_verified=%d)\n",
                 agree_gate, verify_gate, wall_gate, drr_sweep_gate,
                 drr_sweep_wall_gate, drr_greedy_verified_gate);
    return 1;
  }
  return 0;
}
