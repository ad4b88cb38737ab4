#include "dmm/core/explorer.h"

#include "dmm/core/search.h"

namespace dmm::core {

using alloc::DmmConfig;

Explorer::Explorer(AllocTrace trace, ExplorerOptions opts)
    : Explorer(std::make_shared<const AllocTrace>(std::move(trace)), opts) {}

Explorer::Explorer(std::shared_ptr<const TraceSource> trace,
                   ExplorerOptions opts)
    : trace_(std::move(trace)),
      trace_fingerprint_(trace_->fingerprint()),
      opts_(opts),
      engine_(make_engine(opts.num_threads)) {
  // Warm-start from a snapshot: scores persist under the shared cache, so
  // configuring a cache_file without one injects a private cache.  Loading
  // is idempotent (existing keys win) and rejection leaves the cache cold —
  // a snapshot can only ever remove replays, never change results.
  if (opts_.cache && !opts_.cache_file.empty()) {
    if (opts_.shared_cache == nullptr) {
      opts_.shared_cache = std::make_shared<SharedScoreCache>();
    }
    (void)opts_.shared_cache->load(opts_.cache_file);
  }
}

Explorer::~Explorer() { save_cache_file(); }

void Explorer::save_cache_file() const {
  if (opts_.cache && !opts_.cache_file.empty() &&
      opts_.shared_cache != nullptr) {
    (void)opts_.shared_cache->save(opts_.cache_file);
  }
}

ExplorationResult Explorer::run(SearchStrategy& strategy) {
  SearchContext ctx(*trace_, trace_fingerprint_, opts_, *engine_);
  try {
    strategy.run(ctx);
  } catch (...) {
    // A strategy that dies mid-run must not discard the replays the
    // shared cache already absorbed: the destructor's save cannot be
    // relied on here (an exception escaping main() skips unwinding
    // entirely), so persist before rethrowing.
    save_cache_file();
    throw;
  }
  return ctx.finish();
}

ExplorationResult Explorer::run() {
  const std::unique_ptr<SearchStrategy> strategy = make_strategy(opts_.search);
  return run(*strategy);
}

ExplorationResult Explorer::explore(const std::vector<TreeId>& order) {
  GreedySearch strategy(order);
  return run(strategy);
}

ExplorationResult Explorer::exhaustive(const std::vector<TreeId>& trees,
                                       std::size_t max_evals) {
  ExhaustiveSearch strategy(trees, max_evals);
  return run(strategy);
}

ExplorationResult Explorer::random_search(std::size_t samples, unsigned seed) {
  RandomSearch strategy(samples, seed);
  return run(strategy);
}

SimResult Explorer::score(const DmmConfig& cfg,
                          std::uint64_t* work_steps) const {
  // Same evaluate() caching protocol as the search strategies — lookup,
  // replay on miss, insert — so a shared cache both serves and learns
  // one-off scores.  The batch runs on a stack-local serial engine, not
  // the pooled engine_: the pool's per-batch state is not reentrant,
  // and score() must stay safe to call from any thread (the shared
  // cache and score_candidate both are).
  SerialEngine engine;
  SearchContext ctx(*trace_, trace_fingerprint_, opts_, engine);
  const std::vector<EvalOutcome> out = ctx.evaluate({{cfg, 0}});
  if (work_steps != nullptr) *work_steps = out[0].work_steps;
  return out[0].sim;
}

}  // namespace dmm::core
