#include "dmm/core/methodology.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dmm/alloc/policy_core.h"

namespace dmm::core {

std::unique_ptr<alloc::Allocator> MethodologyResult::make_manager(
    sysmem::SystemArena& arena, bool strict_accounting) const {
  // Adapter note: this hands back the bare policy core (see
  // alloc/policy_core.h) for in-process, single-threaded use — replay
  // parity with the search's scoring replays is the contract.  For live
  // concurrent traffic, export the configs and construct a
  // runtime::DesignedAllocator instead.
  if (phase_configs.size() == 1) {
    return std::make_unique<alloc::PolicyCore>(
        arena, phase_configs[0], "custom", strict_accounting);
  }
  return std::make_unique<GlobalManager>(arena, phase_configs,
                                         "custom-global", strict_accounting);
}

MethodologyResult design_manager(const AllocTrace& trace,
                                 const MethodologyOptions& options) {
  MethodologyResult result;
  AllocTrace working = trace;
  if (options.detect_phases) {
    result.phases = detect_phases(working, options.phase_options);
    apply_phases(working, result.phases);
  } else {
    // Respect the annotations already in the trace.
    const TraceStats stats = working.stats();
    std::size_t begin = 0;
    for (std::uint16_t p = 0; p < stats.phases; ++p) {
      std::size_t end = begin;
      for (std::size_t i = begin; i < working.events().size(); ++i) {
        if (working.events()[i].phase == p) end = i;
      }
      result.phases.push_back({p, begin, end});
      begin = end + 1;
    }
  }
  // One atomic manager per phase, explored independently (Sec. 3.3): each
  // phase's sub-trace contains the objects allocated in that phase,
  // including their (possibly later) frees.
  const std::vector<AllocTrace> sub_traces = split_by_phase(working);
  // Cache persistence for the whole run: load the snapshot once up front
  // (not per phase — each phase has its own trace fingerprint, but they
  // all live in the one file) and save once after the last search, so a
  // repeated design run replays nothing it has already scored.  The
  // per-phase Explorers see a plain shared cache and stay persistence-
  // unaware here; ExplorerOptions::cache_file remains the single-search
  // variant of the same knob.
  ExplorerOptions explorer_options = options.explorer_options;
  std::shared_ptr<SharedScoreCache> persisted;
  if (!options.cache_file.empty() && explorer_options.cache) {
    if (explorer_options.shared_cache == nullptr) {
      explorer_options.shared_cache = std::make_shared<SharedScoreCache>();
    }
    persisted = explorer_options.shared_cache;
    (void)persisted->load(options.cache_file);
  }
  if (explorer_options.cache && !explorer_options.cache_file.empty() &&
      explorer_options.shared_cache == nullptr) {
    // Per-Explorer persistence: one cache for every phase, so each
    // phase's save writes every phase's entries, whichever lands last.
    explorer_options.shared_cache = std::make_shared<SharedScoreCache>();
  }
  const std::size_t n = sub_traces.size();
  result.phase_configs.assign(n, options.explorer_options.defaults);
  result.phase_results.resize(n);
  if (options.validate) result.validation_results.resize(n);
  std::vector<std::size_t> work;  // phases with allocations to design
  for (std::size_t p = 0; p < n; ++p) {
    if (!sub_traces[p].empty()) work.push_back(p);
  }
  // The phases search concurrently: up to num_threads at once, the
  // runners split between them, each phase's results written to its own
  // slots.  Phases have distinct trace fingerprints, so a shared cache
  // never lets one phase's replays answer another's, and every result
  // (accounting included) is the one a sequential run produces.
  unsigned threads = explorer_options.num_threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const unsigned lanes = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(threads, work.size())));
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto lane = [&](unsigned runners) {
    for (std::size_t k = next.fetch_add(1); k < work.size() && !failed;
         k = next.fetch_add(1)) {
      const std::size_t p = work[k];
      try {
        ExplorerOptions lane_options = explorer_options;
        lane_options.num_threads = runners;
        Explorer explorer(sub_traces[p], lane_options);
        // The per-phase searcher is pluggable (explorer_options.search):
        // greedy stays the default and the published flow; beam/anneal/...
        // drop in through the same strategy seam.
        const std::unique_ptr<SearchStrategy> strategy = make_strategy(
            lane_options.search, options.order, options.validation_trees);
        result.phase_results[p] = explorer.run(*strategy);
        result.phase_configs[p] = result.phase_results[p].best;
        if (options.validate) {
          // Ground-truth pass over the high-impact subspace.  Runs after
          // the walk, so the walk's outcome is byte-for-byte what it would
          // be without validation; with a shared cache the two searches
          // reuse each other's replays (reported as cross-search hits).
          result.validation_results[p] = explorer.exhaustive(
              options.validation_trees, options.validation_max_evals);
        }
      } catch (...) {
        errors[p] = std::current_exception();
        failed = true;
      }
    }
  };
  const auto runners = [&](unsigned i) {
    return threads / lanes + (i < threads % lanes ? 1 : 0);
  };
  std::vector<std::thread> helpers;
  try {
    for (unsigned i = 1; i < lanes; ++i) helpers.emplace_back(lane, runners(i));
  } catch (...) {
    // No thread to spare: the lanes already running take the phases.
  }
  lane(runners(0));
  for (std::thread& helper : helpers) helper.join();
  // Every phase task has finished: persist what the searches replayed —
  // also when one failed, since an exception escaping main() never
  // unwinds, so a destructor-based guard alone would lose it — and then
  // rethrow the first failure in phase order.
  if (persisted != nullptr) (void)persisted->save(options.cache_file);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  const auto charge = [&result](const ExplorationResult& r) {
    result.total_simulations += r.simulations;
    result.total_cache_hits += r.cache_hits;
    result.total_cross_search_hits += r.cross_search_hits;
    result.total_persisted_hits += r.persisted_hits;
  };
  for (std::size_t p : work) {
    charge(result.phase_results[p]);
    if (options.validate) charge(result.validation_results[p]);
  }
  return result;
}

FamilyDesignResult design_manager_family(const std::vector<AllocTrace>& traces,
                                         const FamilyDesignOptions& options) {
  // Family inputs are caller data (CLI lists, recorded files) — validate
  // loudly instead of designing against a half-read family.
  if (traces.empty()) {
    throw std::invalid_argument(
        "design_manager_family: the trace family is empty");
  }
  if (!options.weights.empty() && options.weights.size() != traces.size()) {
    throw std::invalid_argument(
        "design_manager_family: " + std::to_string(options.weights.size()) +
        " weights for " + std::to_string(traces.size()) + " traces");
  }

  std::vector<FamilyEvalMember> members;
  members.reserve(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    FamilyEvalMember m;
    // Aliasing, non-owning: the caller's vector outlives this call and a
    // full case-study trace is millions of events — copying every member
    // would double the trace memory before any search work starts.
    m.trace = std::shared_ptr<const AllocTrace>(
        std::shared_ptr<const AllocTrace>(), &traces[i]);
    m.fingerprint = m.trace->fingerprint();
    m.weight = options.weights.empty() ? 1.0 : options.weights[i];
    members.push_back(std::move(m));
  }

  // Cache persistence mirrors design_manager(): one load up front, one
  // save at the end — and on the failure path, because an exception
  // escaping main() never unwinds a scope guard.
  ExplorerOptions explorer_options = options.explorer_options;
  if (explorer_options.cache && explorer_options.shared_cache == nullptr) {
    // No cache injected: a private run-scoped cache still lets the
    // per-trace breakdown below ride the search's member replays instead
    // of re-replaying the winner on every trace (minutes each on full
    // case-study traces).
    explorer_options.shared_cache = std::make_shared<SharedScoreCache>();
  }
  std::shared_ptr<SharedScoreCache> persisted;
  if (!options.cache_file.empty() && explorer_options.cache) {
    persisted = explorer_options.shared_cache;
    (void)persisted->load(options.cache_file);
  }
  const auto save_cache = [&] {
    if (persisted != nullptr) (void)persisted->save(options.cache_file);
  };

  FamilyDesignResult result;
  const std::unique_ptr<EvalEngine> engine =
      make_engine(explorer_options.num_threads);
  try {
    SearchContext ctx(members, options.aggregate, explorer_options, *engine);
    const std::unique_ptr<SearchStrategy> strategy = make_strategy(
        explorer_options.search, options.order, options.validation_trees);
    strategy->run(ctx);
    // Warm-start candidates compete *after* the search (an ordered walk's
    // final crowning would clobber anything offered before it): the family
    // best is the fold over the search's offers and every seed, in order.
    if (!options.seed_candidates.empty()) {
      std::vector<EvalJob> jobs;
      jobs.reserve(options.seed_candidates.size());
      for (std::size_t k = 0; k < options.seed_candidates.size(); ++k) {
        jobs.push_back({options.seed_candidates[k], k});
      }
      for (const EvalOutcome& out : ctx.evaluate(jobs)) {
        if (ctx.offer_best(options.seed_candidates[out.tag], out)) {
          result.best_seed = static_cast<int>(out.tag);
        }
      }
      if (result.best_seed >= 0) {
        // A seed displaced the search's best: the portfolio's per-child
        // found_best flag and the winning walk's step log no longer
        // describe `best` — clear them instead of publishing a false
        // attribution.
        for (ChildSearchReport& child : ctx.result().children) {
          child.found_best = false;
        }
        ctx.result().steps.clear();
      }
    }
    result.search = ctx.finish();
    result.best = result.search.best;
    result.feasible = result.search.feasible;
    result.aggregate_objective =
        candidate_objective(explorer_options, result.search.best_sim,
                            result.search.work_steps);

    // Per-trace breakdown: the winner replayed on each member, served from
    // the member-level cache entries the search already paid for.
    for (const FamilyEvalMember& m : members) {
      FamilyTraceReport report;
      report.fingerprint = m.fingerprint;
      std::vector<EvalOutcome> out;
      if (explorer_options.cache && explorer_options.shared_cache != nullptr) {
        SharedScoreCache::Session session =
            explorer_options.shared_cache->begin_search(m.fingerprint);
        out = engine->evaluate(*m.trace, {{result.best, 0}}, &session);
      } else {
        out = engine->evaluate(*m.trace, {{result.best, 0}}, nullptr);
      }
      report.sim = out[0].sim;
      report.work_steps = out[0].work_steps;
      result.per_trace.push_back(report);
    }
  } catch (...) {
    save_cache();
    throw;
  }
  save_cache();
  return result;
}

}  // namespace dmm::core
