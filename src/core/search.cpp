#include "dmm/core/search.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>

namespace dmm::core {

using alloc::DmmConfig;

namespace {

/// Batch size for the streaming strategies (exhaustive / random search):
/// large enough to keep a pool busy, small enough that the evaluation
/// budget is respected closely.  Deliberately independent of the engine's
/// thread count so the simulations/cache_hits accounting never varies
/// with it.
constexpr std::size_t kStreamBatch = 64;

/// Unbiased draw in [0, n) by rejection.  `rng() % n` over-samples low
/// leaves (2^32 is not a multiple of most leaf counts), and
/// std::uniform_int_distribution's algorithm is implementation-defined —
/// the same seed would sample different vectors on different standard
/// libraries.  This is both unbiased and reproducible everywhere.
int uniform_leaf(std::mt19937& rng, int n) {
  const std::uint32_t bound = static_cast<std::uint32_t>(n);
  const std::uint32_t residue = (0u - bound) % bound;  // 2^32 mod bound
  for (;;) {
    const std::uint32_t v = rng();
    // Accept below the largest multiple of bound (2^32 - residue).
    if (residue == 0 || v < 0u - residue) {
      return static_cast<int>(v % bound);
    }
  }
}

/// candidate_better's primary tier: finite objectives more than 1% apart.
bool outside_tie_band(double obj_a, double obj_b) {
  return std::abs(obj_a - obj_b) > 0.01 * std::min(obj_a, obj_b);
}

/// True iff @p cfg passes the rule set at the search's pruning level.
bool passes_rules(const ExplorerOptions& opts, const DmmConfig& cfg) {
  for (const alloc::RuleViolation& v : alloc::check_rules(cfg)) {
    if (v.hard || opts.prune_soft) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// shared scoring pieces
// ---------------------------------------------------------------------------

double candidate_objective(const ExplorerOptions& opts, const SimResult& sim,
                           std::uint64_t work) {
  if (sim.failed_allocs > 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(sim.peak_footprint) +
         opts.time_weight * static_cast<double>(work);
}

bool candidate_better(double obj_a, std::uint64_t failed_a, double avg_a,
                      std::uint64_t work_a, double obj_b,
                      std::uint64_t failed_b, double avg_b,
                      std::uint64_t work_b) {
  // Infinite objectives first: the 1%-band arithmetic below is only
  // meaningful on finite peaks (inf - inf is NaN, and every comparison
  // against NaN is false — which used to drop straight through to the
  // avg-footprint tier and let an infeasible vector win ties).
  const bool finite_a = std::isfinite(obj_a);
  const bool finite_b = std::isfinite(obj_b);
  if (finite_a != finite_b) return finite_a;
  if (!finite_a) {
    // Both infeasible: rank by distance to feasibility so the reported
    // least-bad vector is deterministic and meaningful.
    if (failed_a != failed_b) return failed_a < failed_b;
  } else if (outside_tie_band(obj_a, obj_b)) {
    return obj_a < obj_b;
  }
  const double avg_tol = 0.01 * std::min(avg_a, avg_b);
  if (std::abs(avg_a - avg_b) > avg_tol) return avg_a < avg_b;
  return work_a < work_b;
}

bool BestTracker::offer(const ExplorerOptions& opts, const EvalOutcome& out) {
  const double o = candidate_objective(opts, out.sim, out.work_steps);
  if (any && !candidate_better(o, out.sim.failed_allocs,
                               out.sim.avg_footprint, out.work_steps, obj,
                               failed, avg, work)) {
    return false;
  }
  obj = o;
  failed = out.sim.failed_allocs;
  avg = out.sim.avg_footprint;
  work = out.work_steps;
  any = true;
  return true;
}

// ---------------------------------------------------------------------------
// SearchContext
// ---------------------------------------------------------------------------

SearchContext::CacheBinding::CacheBinding(const ExplorerOptions& opts,
                                          std::uint64_t trace_fingerprint) {
  if (!opts.cache) return;
  if (opts.shared_cache != nullptr) {
    session.emplace(opts.shared_cache->begin_search(trace_fingerprint));
    ptr = &*session;
  } else {
    ptr = &local;
  }
}

SearchContext::SearchContext(const TraceSource& trace,
                             std::uint64_t trace_fingerprint,
                             const ExplorerOptions& opts, EvalEngine& engine)
    : trace_(&trace),
      opts_(opts),
      engine_(engine),
      cache_(opts, trace_fingerprint) {}

SearchContext::SearchContext(std::vector<FamilyEvalMember> family,
                             FamilyAggregate aggregate,
                             const ExplorerOptions& opts, EvalEngine& engine)
    : family_(std::move(family)),
      aggregate_(aggregate),
      opts_(opts),
      engine_(engine),
      // The aggregate-level binding: folded family scores cached under the
      // trace-set fingerprint, next to (never colliding with) the
      // per-member entries.
      cache_(opts, family_fingerprint(family_, aggregate)) {
  member_caches_.reserve(family_.size());
  for (const FamilyEvalMember& m : family_) {
    member_caches_.push_back(
        std::make_unique<CacheBinding>(opts, m.fingerprint));
  }
}

void SearchContext::account(const EvalOutcome& out) {
  if (out.from_cache) {
    ++result_.cache_hits;
  } else {
    ++result_.simulations;
  }
  result_.replayed_events += out.replayed_events;
}

std::vector<EvalOutcome> SearchContext::evaluate(
    const std::vector<EvalJob>& jobs) {
  if (trace_ == nullptr) return evaluate_family(jobs);
  std::vector<EvalOutcome> outcomes =
      engine_.evaluate(*trace_, jobs, cache_.ptr);
  for (const EvalOutcome& out : outcomes) account(out);
  charged_ += outcomes.size();
  return outcomes;
}

void SearchContext::speculate_begin() {
  engine_.speculate_begin(*trace_);
  speculating_ = true;
}

std::size_t SearchContext::speculate(const EvalJob& job) {
  if (cache_.ptr != nullptr &&
      cache_.ptr->probe_canonical(alloc::canonical(job.cfg),
                                  job.peak_cutoff)) {
    return kNoReplay;  // served at commit
  }
  return engine_.speculate_submit(job);
}

void SearchContext::discard(std::size_t replay) {
  if (replay != kNoReplay) engine_.speculate_cancel(replay);
}

EvalOutcome SearchContext::commit(const EvalJob& job, std::size_t replay) {
  if (!speculating_) return evaluate({job})[0];
  // The engine's protocol for a one-job batch, run here in commit order.
  const DmmConfig canon = alloc::canonical(job.cfg);
  CandidateCache::Entry hit;
  EvalOutcome out;
  if (cache_.ptr != nullptr &&
      cache_.ptr->lookup_canonical(canon, &hit, job.peak_cutoff)) {
    discard(replay);
    out.sim = hit.sim;
    out.work_steps = hit.work_steps;
    out.from_cache = true;
  } else {
    if (replay == kNoReplay) replay = engine_.speculate_submit(job);
    out = engine_.speculate_wait(replay);
    if (cache_.ptr != nullptr) {
      cache_.ptr->insert_canonical(canon, {out.sim, out.work_steps});
    }
  }
  out.tag = job.tag;
  account(out);
  ++charged_;
  return out;
}

std::uint64_t SearchContext::speculate_end() {
  speculating_ = false;
  return engine_.speculate_end();
}

void SearchContext::submit(const EvalJob& job) {
  if (trace_ == nullptr) {
    // Family mode: member scoring folds whole batches — buffer for drain().
    stream_pending_.push_back(job);
    return;
  }
  if (!stream_open_) {
    engine_.stream_begin(*trace_, cache_.ptr);
    stream_open_ = true;
  }
  engine_.stream_submit(job);
}

std::vector<EvalOutcome> SearchContext::poll() {
  if (!stream_open_) return {};
  std::vector<EvalOutcome> outcomes = engine_.stream_poll();
  for (const EvalOutcome& out : outcomes) account(out);
  charged_ += outcomes.size();
  return outcomes;
}

std::vector<EvalOutcome> SearchContext::drain() {
  if (trace_ == nullptr) {
    std::vector<EvalJob> jobs = std::move(stream_pending_);
    stream_pending_.clear();
    if (jobs.empty()) return {};
    return evaluate_family(jobs);
  }
  if (!stream_open_) return {};
  std::vector<EvalOutcome> outcomes = engine_.stream_drain();
  for (const EvalOutcome& out : outcomes) account(out);
  charged_ += outcomes.size();
  stream_open_ = false;
  return outcomes;
}

std::vector<EvalOutcome> SearchContext::evaluate_family(
    const std::vector<EvalJob>& jobs) {
  std::vector<EvalOutcome> outcomes(jobs.size());
  // Aggregate-level cache pass: a hit skips every member evaluation and
  // counts one cache hit; misses are collected (by canonical form, the
  // same one the member engines will use) for member scoring.
  std::vector<alloc::DmmConfig> canon;
  canon.reserve(jobs.size());
  for (const EvalJob& job : jobs) canon.push_back(alloc::canonical(job.cfg));
  std::vector<std::size_t> miss;
  std::vector<EvalJob> miss_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    CandidateCache::Entry hit;
    if (cache_.ptr != nullptr && cache_.ptr->lookup_canonical(canon[i], &hit)) {
      outcomes[i].tag = jobs[i].tag;
      outcomes[i].sim = hit.sim;
      outcomes[i].work_steps = hit.work_steps;
      outcomes[i].from_cache = true;
      // A whole-candidate hit, counted apart from cache_hits: that counter
      // stays in per-member units, this one in candidates.
      ++result_.family_hits;
      continue;
    }
    miss_jobs.push_back({canon[i], miss.size()});
    miss.push_back(i);
  }
  if (!miss.empty()) {
    // Score the misses on every member — each member batch goes through
    // that member's own cache binding, so family replays land in (and are
    // served from) the same per-trace entries single-trace searches use.
    std::vector<std::vector<EvalOutcome>> per_member;
    per_member.reserve(family_.size());
    for (std::size_t m = 0; m < family_.size(); ++m) {
      per_member.push_back(engine_.evaluate(*family_[m].trace, miss_jobs,
                                            member_caches_[m]->ptr));
      for (const EvalOutcome& out : per_member.back()) account(out);
    }
    std::vector<EvalOutcome> member_slice(family_.size());
    for (std::size_t k = 0; k < miss.size(); ++k) {
      for (std::size_t m = 0; m < family_.size(); ++m) {
        member_slice[m] = per_member[m][k];
      }
      const EvalOutcome agg = aggregate_family(jobs[miss[k]].tag,
                                               member_slice, family_,
                                               aggregate_);
      if (cache_.ptr != nullptr) {
        cache_.ptr->insert_canonical(canon[miss[k]],
                                     {agg.sim, agg.work_steps});
      }
      outcomes[miss[k]] = agg;
    }
  }
  charged_ += jobs.size();
  return outcomes;
}

bool SearchContext::offer_best(const DmmConfig& cfg, const EvalOutcome& out) {
  if (!tracker_.offer(opts_, out)) return false;
  result_.best = cfg;
  result_.best_sim = out.sim;
  result_.work_steps = out.work_steps;
  result_.evals_to_best = evaluations();
  return true;
}

void SearchContext::set_best(const DmmConfig& cfg, const EvalOutcome& out) {
  if (competitive_) {
    // Portfolio racing: an ordered walk's final completion competes with
    // the other children's offers instead of overriding them.
    (void)offer_best(cfg, out);
    return;
  }
  tracker_.obj = candidate_objective(opts_, out.sim, out.work_steps);
  tracker_.failed = out.sim.failed_allocs;
  tracker_.avg = out.sim.avg_footprint;
  tracker_.work = out.work_steps;
  tracker_.any = true;
  result_.best = cfg;
  result_.best_sim = out.sim;
  result_.work_steps = out.work_steps;
  result_.evals_to_best = evaluations();
}

bool SearchContext::canonical_duplicate(const DmmConfig& cfg) {
  if (canonical_seen_.insert(alloc::canonical(cfg)).second) return false;
  ++result_.canonical_skips;
  return true;
}

ExplorationResult SearchContext::finish() {
  result_.feasible = tracker_.feasible();
  result_.cross_search_hits =
      cache_.session ? cache_.session->cross_search_hits() : 0;
  result_.persisted_hits =
      cache_.session ? cache_.session->persisted_hits() : 0;
  // Family mode: the member sessions served hits of their own.
  for (const std::unique_ptr<CacheBinding>& member : member_caches_) {
    if (member->session) {
      result_.cross_search_hits += member->session->cross_search_hits();
      result_.persisted_hits += member->session->persisted_hits();
    }
  }
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// GreedySearch — the ordered traversal of Sec. 4.2
// ---------------------------------------------------------------------------

GreedySearch::GreedySearch(std::vector<TreeId> order)
    : order_(std::move(order)) {}

void GreedySearch::run(SearchContext& ctx) {
  const ExplorerOptions& opts = ctx.options();
  ExplorationResult& result = ctx.result();
  DmmConfig cfg = opts.defaults;
  DecidedMask decided{};
  for (TreeId tree : order_) {
    StepLog step;
    step.tree = tree;
    // Submit-as-generated: each admissible leaf's repaired completion is
    // handed to the engine the moment it exists, so worker threads replay
    // early candidates while the walk is still repairing later ones.
    // Outcomes come back in submit order, so the fold below is the same
    // left fold a batched evaluate() would feed.
    for (int leaf = 0; leaf < leaf_count(tree); ++leaf) {
      CandidateScore cand;
      cand.leaf = leaf;
      cand.admissible =
          Constraints::admissible(cfg, decided, tree, leaf, opts.prune_soft);
      if (cand.admissible) {
        DmmConfig probe = cfg;
        set_leaf(probe, tree, leaf);
        DecidedMask probe_decided = decided;
        probe_decided[static_cast<std::size_t>(tree)] = true;
        ctx.submit({Constraints::repair(probe, probe_decided),
                    static_cast<std::uint64_t>(leaf)});
      }
      step.candidates.push_back(cand);
    }
    const std::vector<EvalOutcome> outcomes = ctx.drain();
    BestTracker best;
    int best_leaf = -1;
    for (const EvalOutcome& out : outcomes) {
      CandidateScore& cand = step.candidates[out.tag];
      cand.peak_footprint = out.sim.peak_footprint;
      cand.avg_footprint = out.sim.avg_footprint;
      cand.work_steps = out.work_steps;
      cand.failed_allocs = out.sim.failed_allocs;
      if (best.offer(opts, out)) best_leaf = static_cast<int>(out.tag);
    }
    if (best_leaf < 0) {
      // No admissible leaf: keep the default (cannot happen with a
      // coherent rule set; guarded for robustness).
      best_leaf = get_leaf(cfg, tree);
    }
    set_leaf(cfg, tree, best_leaf);
    decided[static_cast<std::size_t>(tree)] = true;
    step.chosen = best_leaf;
    result.steps.push_back(std::move(step));
  }
  const DmmConfig final_cfg = Constraints::repair(cfg, decided);
  const std::vector<EvalOutcome> final_out = ctx.evaluate({{final_cfg, 0}});
  ctx.set_best(final_cfg, final_out[0]);
}

// ---------------------------------------------------------------------------
// BeamSearch — k partial vectors survive each tree
// ---------------------------------------------------------------------------

BeamSearch::BeamSearch(std::size_t width, std::vector<TreeId> order)
    : width_(width == 0 ? 1 : width), order_(std::move(order)) {}

std::string BeamSearch::name() const {
  return "beam:" + std::to_string(width_);
}

void BeamSearch::run(SearchContext& ctx) {
  const ExplorerOptions& opts = ctx.options();

  // One surviving partial vector.  All beams decide the same trees in the
  // same order, so the decided mask is shared per step and two beams are
  // equal iff their cfgs are — and since every child extends a *distinct*
  // parent with one more leaf, children are automatically distinct too.
  struct Beam {
    DmmConfig cfg{};
    std::vector<StepLog> steps;
  };
  std::vector<Beam> beams(1);
  beams[0].cfg = opts.defaults;
  DecidedMask decided{};

  for (TreeId tree : order_) {
    // Expand every beam (in rank order) by every admissible leaf; one
    // batch scores them all, so the accounting matches the greedy walk's
    // one-batch-per-tree shape and width 1 is bit-identical to it.
    struct Expansion {
      std::size_t beam = 0;
      int leaf = -1;
      DmmConfig child{};
    };
    std::vector<Expansion> expansions;
    std::vector<StepLog> beam_steps(beams.size());
    for (std::size_t b = 0; b < beams.size(); ++b) {
      StepLog& step = beam_steps[b];
      step.tree = tree;
      for (int leaf = 0; leaf < leaf_count(tree); ++leaf) {
        CandidateScore cand;
        cand.leaf = leaf;
        cand.admissible = Constraints::admissible(beams[b].cfg, decided, tree,
                                                  leaf, opts.prune_soft);
        if (cand.admissible) {
          DmmConfig child = beams[b].cfg;
          set_leaf(child, tree, leaf);
          DecidedMask probe_decided = decided;
          probe_decided[static_cast<std::size_t>(tree)] = true;
          // The child *is* the probe before repair: the partial vector
          // with this leaf committed.  Submitted as generated (see the
          // greedy walk); drain() returns submit order, matching tags.
          ctx.submit({Constraints::repair(child, probe_decided),
                      expansions.size()});
          expansions.push_back({b, leaf, child});
        }
        step.candidates.push_back(cand);
      }
    }
    const std::vector<EvalOutcome> outcomes = ctx.drain();
    std::vector<const EvalOutcome*> scored(expansions.size(), nullptr);
    for (const EvalOutcome& out : outcomes) {
      const Expansion& e = expansions[out.tag];
      CandidateScore& cand = beam_steps[e.beam].candidates[e.leaf];
      cand.peak_footprint = out.sim.peak_footprint;
      cand.avg_footprint = out.sim.avg_footprint;
      cand.work_steps = out.work_steps;
      cand.failed_allocs = out.sim.failed_allocs;
      scored[out.tag] = &out;
    }

    // Rank by repeated left-fold extraction: winner #1 is exactly the
    // greedy choice, winner #2 the fold's best over what remains, and so
    // on.  (candidate_better's 1%-tie band is not a strict weak ordering,
    // so a comparison sort would be UB — the fold never needs one.)
    std::vector<std::size_t> ranked;
    std::vector<bool> taken(expansions.size(), false);
    while (ranked.size() < width_) {
      BestTracker fold;
      std::size_t win = expansions.size();
      for (std::size_t i = 0; i < expansions.size(); ++i) {
        if (taken[i] || scored[i] == nullptr) continue;
        if (fold.offer(opts, *scored[i])) win = i;
      }
      if (win == expansions.size()) break;
      taken[win] = true;
      ranked.push_back(win);
    }

    std::vector<Beam> next;
    next.reserve(ranked.size());
    for (std::size_t idx : ranked) {
      const Expansion& e = expansions[idx];
      Beam child;
      child.cfg = e.child;
      child.steps = beams[e.beam].steps;
      StepLog step = beam_steps[e.beam];
      step.chosen = e.leaf;
      child.steps.push_back(std::move(step));
      next.push_back(std::move(child));
    }
    if (next.empty()) {
      // No admissible leaf on any beam: keep each beam's default leaf
      // (cannot happen with a coherent rule set; guarded like the greedy
      // walk's fallback).
      for (std::size_t b = 0; b < beams.size(); ++b) {
        StepLog step = std::move(beam_steps[b]);
        step.chosen = get_leaf(beams[b].cfg, tree);
        beams[b].steps.push_back(std::move(step));
      }
      next = std::move(beams);
    }
    beams = std::move(next);
    decided[static_cast<std::size_t>(tree)] = true;
  }

  // Final pass: score every surviving beam's repaired completion in rank
  // order and crown the fold winner.  With width 1 this is the greedy
  // walk's single final evaluation.
  std::vector<EvalJob> final_jobs;
  final_jobs.reserve(beams.size());
  std::vector<DmmConfig> final_cfgs;
  final_cfgs.reserve(beams.size());
  for (std::size_t b = 0; b < beams.size(); ++b) {
    final_cfgs.push_back(Constraints::repair(beams[b].cfg, decided));
    final_jobs.push_back({final_cfgs.back(), b});
  }
  std::size_t winner = 0;
  for (const EvalOutcome& out : ctx.evaluate(final_jobs)) {
    if (ctx.offer_best(final_cfgs[out.tag], out)) winner = out.tag;
  }
  if (!beams.empty()) {
    ctx.result().steps = std::move(beams[winner].steps);
  }
}

// ---------------------------------------------------------------------------
// ExhaustiveSearch — canonical-quotient odometer
// ---------------------------------------------------------------------------

ExhaustiveSearch::ExhaustiveSearch(std::vector<TreeId> trees,
                                   std::size_t max_evals)
    : trees_(std::move(trees)), max_evals_(max_evals) {}

void ExhaustiveSearch::run(SearchContext& ctx) {
  reset();
  while (step(ctx, max_evals_)) {
  }
}

bool ExhaustiveSearch::step(SearchContext& ctx, std::size_t eval_budget) {
  const ExplorerOptions& opts = ctx.options();
  if (!begun_) {
    begun_ = true;
    done_ = false;
    leaf_.assign(trees_.size(), 0);
    charged_ = 0;
  }
  DecidedMask decided{};
  for (TreeId t : trees_) decided[static_cast<std::size_t>(t)] = true;

  // This turn's slice: the caller's budget capped at our own remainder.
  const std::uint64_t budget =
      std::min<std::uint64_t>(eval_budget, max_evals_ - charged_);
  std::uint64_t stepped = 0;
  while (!done_ && stepped < budget) {
    // Collect the next window of valid vectors, then score it as one batch.
    std::vector<EvalJob> jobs;
    std::vector<DmmConfig> cfgs;
    while (!done_ && jobs.size() < kStreamBatch &&
           stepped + jobs.size() < budget) {
      DmmConfig cfg = opts.defaults;
      for (std::size_t i = 0; i < trees_.size(); ++i) {
        set_leaf(cfg, trees_[i], leaf_[i]);
      }
      cfg = Constraints::repair(cfg, decided);
      // Canonical quotient of the cartesian product: a vector whose
      // repaired canonical form was already enumerated builds a
      // behaviourally identical manager, so it is skipped before a job is
      // built and never charged to the evaluation budget.
      const bool valid =
          passes_rules(opts, cfg) &&
          !(opts.canonical_prune && ctx.canonical_duplicate(cfg));
      if (valid) {
        jobs.push_back({cfg, jobs.size()});
        cfgs.push_back(cfg);
      }
      // odometer increment
      std::size_t pos = 0;
      for (;;) {
        if (pos == trees_.size()) {
          done_ = true;
          break;
        }
        if (++leaf_[pos] < leaf_count(trees_[pos])) break;
        leaf_[pos] = 0;
        ++pos;
      }
    }
    stepped += jobs.size();
    for (const EvalOutcome& out : ctx.evaluate(jobs)) {
      (void)ctx.offer_best(cfgs[out.tag], out);
    }
  }
  charged_ += stepped;
  return !done_ && charged_ < max_evals_;
}

// ---------------------------------------------------------------------------
// RandomSearch — uniform full-vector sampling
// ---------------------------------------------------------------------------

RandomSearch::RandomSearch(std::size_t samples, unsigned seed)
    : samples_(samples), seed_(seed) {}

void RandomSearch::run(SearchContext& ctx) {
  reset();
  while (step(ctx, samples_)) {
  }
}

bool RandomSearch::step(SearchContext& ctx, std::size_t eval_budget) {
  const ExplorerOptions& opts = ctx.options();
  if (!begun_) {
    begun_ = true;
    rng_.seed(seed_);
    attempts_ = 0;
    charged_ = 0;
  }
  // Budget = number of *evaluations* (replays + cache hits), matching the
  // ordered traversal's accounting; invalid draws are rejected without
  // charge (bounded).
  const std::size_t max_attempts = samples_ * 500 + 1000;
  const std::uint64_t budget =
      std::min<std::uint64_t>(eval_budget, samples_ - charged_);
  std::uint64_t stepped = 0;
  while (attempts_ < max_attempts && stepped < budget) {
    std::vector<EvalJob> jobs;
    std::vector<DmmConfig> cfgs;
    while (attempts_ < max_attempts && stepped + jobs.size() < budget &&
           jobs.size() < kStreamBatch) {
      ++attempts_;
      DmmConfig cfg = opts.defaults;
      for (TreeId t : all_trees()) {
        set_leaf(cfg, t, uniform_leaf(rng_, leaf_count(t)));
      }
      if (!passes_rules(opts, cfg)) continue;
      jobs.push_back({cfg, jobs.size()});
      cfgs.push_back(cfg);
    }
    stepped += jobs.size();
    for (const EvalOutcome& out : ctx.evaluate(jobs)) {
      (void)ctx.offer_best(cfgs[out.tag], out);
    }
  }
  charged_ += stepped;
  return attempts_ < max_attempts && charged_ < samples_;
}

// ---------------------------------------------------------------------------
// AnnealingSearch — deterministic SA over the canonical quotient
// ---------------------------------------------------------------------------

namespace {

/// Every infeasible vector's energy is at least this; feasible ones are
/// peaks (plus the time_weight term), far below it.
constexpr double kInfeasibleEnergy = 1e30;

/// Scalar energy SA minimises: the shared candidate objective for
/// feasible vectors; infeasible ones sit beyond every feasible energy,
/// ordered by how far from feasibility they are.
double anneal_energy(const ExplorerOptions& opts, const EvalOutcome& out) {
  const double obj = candidate_objective(opts, out.sim, out.work_steps);
  if (std::isfinite(obj)) return obj;
  return kInfeasibleEnergy + 1e24 * static_cast<double>(out.sim.failed_allocs);
}

/// Portable uniform in [0,1): mt19937's output sequence is fully
/// specified, so the trajectory is identical on every stdlib.
double uniform_unit(std::mt19937& rng) {
  return std::ldexp(static_cast<double>(rng()), -32);
}

/// The smallest whole peak at or above @p lowest for which @p rejected
/// holds, searched outward from @p estimate; @p rejected must be monotone
/// (once true, true for every larger peak).  0 when the estimate is
/// unusable or off by more than a few bytes — the caller then replays
/// exactly, which is always correct.
template <typename Pred>
double first_rejected_peak(double estimate, double lowest, Pred rejected) {
  constexpr double kMaxPeak = 0x1p52;  // whole numbers stay exact below
  constexpr int kMaxSteps = 64;
  if (!(estimate < kMaxPeak) || !(lowest < kMaxPeak)) return 0.0;
  double peak = std::max(std::ceil(estimate), lowest);
  for (int i = 0; !rejected(peak); ++i) {
    if (i == kMaxSteps) return 0.0;
    peak += 1.0;
  }
  for (int i = 0; peak > lowest && rejected(peak - 1.0); ++i) {
    if (i == kMaxSteps) return 0.0;
    peak -= 1.0;
  }
  return peak;
}

}  // namespace

bool anneal_accepts_uphill(double delta, double temp, double u) {
  return u < std::exp(-delta / temp);
}

std::size_t anneal_peak_cutoff(double energy, double temp, double u,
                               double incumbent) {
  if (!std::isfinite(energy) || !std::isfinite(incumbent) ||
      energy >= kInfeasibleEnergy) {
    return 0;
  }
  // Rejection: a peak above the current energy is uphill, and an uphill
  // move is rejected at temp <= 0 or when the Metropolis test fails.  The
  // test passes iff delta < -temp * ln(u), which seeds the search; the
  // predicate itself decides.
  const auto rejected = [&](double peak) {
    const double delta = peak - energy;
    return delta > 0.0 &&
           !(temp > 0.0 && anneal_accepts_uphill(delta, temp, u));
  };
  const double lowest = std::floor(energy) + 1.0;
  const double estimate = temp > 0.0 ? energy - temp * std::log(u) : lowest;
  const double reject_at = first_rejected_peak(estimate, lowest, rejected);
  // No displacement: candidate_better prefers a peak more than 1% above
  // the incumbent in no tier.
  const auto worse = [&](double peak) {
    return peak > incumbent && outside_tie_band(peak, incumbent);
  };
  const double worse_at = first_rejected_peak(
      1.01 * incumbent, std::floor(incumbent) + 1.0, worse);
  if (reject_at == 0.0 || worse_at == 0.0) return 0;
  return static_cast<std::size_t>(std::max(reject_at, worse_at)) - 1;
}

AnnealingSearch::AnnealingSearch(AnnealingOptions opts) : anneal_(opts) {}

namespace {

/// One proposal drawn from a walk: the next vector, the rng after its
/// draws, and the canonical no-ops skipped on the way.
struct Proposal {
  DmmConfig next{};
  std::mt19937 rng;
  std::uint64_t canonical_skips = 0;
  bool found = false;
};

/// Pure proposal step: mutate one tree of @p state to a different leaf,
/// let repair() nudge only the trees a violated rule drags along (the
/// mutated tree alone counts as decided, so e.g. flipping A5 pulls its
/// schedules with it instead of dying on the A5<->E2/D2 coherence rules),
/// then map into the quotient.  Dead-leaf mutations are canonical no-ops:
/// skipped unscored and counted.  Not found after 256 draws: frozen.
Proposal propose(const ExplorerOptions& opts, const DmmConfig& state,
                 std::mt19937 rng) {
  DmmConfig next{};
  std::uint64_t skips = 0;
  bool found = false;
  for (int attempt = 0; attempt < 256 && !found; ++attempt) {
    DmmConfig probe = state;
    const TreeId tree = all_trees()[static_cast<std::size_t>(
        uniform_leaf(rng, kTreeCount))];
    const int n = leaf_count(tree);
    const int cur = get_leaf(probe, tree);
    set_leaf(probe, tree, (cur + 1 + uniform_leaf(rng, n - 1)) % n);
    DecidedMask mutated{};
    mutated[static_cast<std::size_t>(tree)] = true;
    probe = Constraints::repair(probe, mutated);
    if (!passes_rules(opts, probe)) continue;
    probe = alloc::canonical(probe);
    if (probe == state) {
      ++skips;
      continue;
    }
    next = probe;
    found = true;
  }
  // Built whole: a default-constructed mt19937 would seed itself first.
  return {next, rng, skips, found};
}

/// The job the sequential loop scores for proposal @p p from @p walk.
/// Peak cutoff: every input of the proposal's fate but its own score is
/// known now — the energy, the temperature, the incumbent, and the
/// uniform the uphill test would draw (peeked from a copy of the rng).
/// Past the cutoff the replay stops; the move is then certainly rejected
/// and cannot be a new best.  Peak-only objectives on one trace: anything
/// else replays exactly.
EvalJob proposal_job(const SearchContext& ctx,
                     const AnnealingSearch::Walk& walk, const Proposal& p,
                     std::uint64_t tag) {
  std::size_t cutoff = 0;
  if (ctx.options().time_weight == 0.0 && !ctx.family()) {
    std::mt19937 peek = p.rng;
    const double u = walk.temp > 0.0 ? uniform_unit(peek) : 0.0;
    cutoff = anneal_peak_cutoff(walk.energy, walk.temp, u,
                                ctx.incumbent_objective());
  }
  return {p.next, tag, cutoff};
}

/// Geometric cooling after every evaluated proposal.
void cool(AnnealingSearch::Walk& walk, const AnnealingOptions& anneal) {
  if (++walk.since_cool >= anneal.moves_per_temp) {
    walk.since_cool = 0;
    walk.temp *= anneal.cooling;
  }
}

}  // namespace

void AnnealingSearch::run(SearchContext& ctx) {
  reset();
  while (step(ctx, anneal_.max_evals)) {
  }
}

AnnealingSearch::Branch AnnealingSearch::advance(SearchContext& ctx,
                                                 const DmmConfig& next,
                                                 const std::mt19937& rng,
                                                 const EvalOutcome& out) {
  walk_.rng = rng;
  Branch branch = kReject;
  if (out.sim.stopped) {
    // A certain rejection; the uphill test still consumes its draw so
    // the trajectory matches a whole replay's.
    if (walk_.temp > 0.0) (void)walk_.rng();
  } else {
    (void)ctx.offer_best(next, out);
    const double next_energy = anneal_energy(ctx.options(), out);
    const double delta = next_energy - walk_.energy;
    if (delta <= 0.0) {
      branch = kAccept;
    } else if (walk_.temp > 0.0 &&
               anneal_accepts_uphill(delta, walk_.temp,
                                     uniform_unit(walk_.rng))) {
      branch = kUphill;
    }
    if (branch != kReject) {
      walk_.state = next;
      walk_.energy = next_energy;
    }
  }
  cool(walk_, anneal_);
  ++branch_counts_[branch];
  branch_events_[branch] += out.from_cache ? 0 : out.sim.events;
  return branch;
}

/// One guessed step of the trajectory: the walk it predicts, the proposal
/// and job drawn from it, its speculative replay, and the guesses grown
/// from each of its branches.
struct AnnealingSearch::Node {
  Node(Walk w, Proposal p) : walk(std::move(w)), proposal(std::move(p)) {}

  Walk walk;
  Proposal proposal;
  EvalJob job;
  std::size_t replay = SearchContext::kNoReplay;
  std::unique_ptr<Node> child[kBranches];
};

std::unique_ptr<AnnealingSearch::Node> AnnealingSearch::guess(
    SearchContext& ctx, Walk walk, bool speculating) {
  Proposal p = propose(ctx.options(), walk.state, walk.rng);
  auto node = std::make_unique<Node>(std::move(walk), std::move(p));
  if (node->proposal.found) {
    node->job = proposal_job(ctx, node->walk, node->proposal, 0);
    if (speculating) node->replay = ctx.speculate(node->job);
  }
  return node;
}

void AnnealingSearch::discard(SearchContext& ctx, std::unique_ptr<Node> node) {
  if (node == nullptr) return;
  ctx.discard(node->replay);
  for (std::unique_ptr<Node>& child : node->child) {
    discard(ctx, std::move(child));
  }
}

void AnnealingSearch::grow(SearchContext& ctx, Node& root, std::size_t width,
                           std::uint64_t depth_cap) {
  // A guess saves the time its replay overlaps its parent's, so guesses
  // rank by path probability times the mean replay length of the branch
  // into them (an accepted parent replays whole, a rejected one usually
  // stops early), both measured over the committed steps.
  double rate[kBranches];
  double overlap[kBranches];
  const double total = static_cast<double>(
      branch_counts_[kReject] + branch_counts_[kAccept] +
      branch_counts_[kUphill] + kBranches);
  for (int b = 0; b < kBranches; ++b) {
    rate[b] = static_cast<double>(branch_counts_[b] + 1) / total;
    overlap[b] = static_cast<double>(branch_events_[b] + 1) /
                 static_cast<double>(branch_counts_[b] + 1);
  }
  // Guesses the cache answers are free, but each costs a proposal.
  constexpr std::size_t kMaxGuesses = 4;
  struct Slot {
    Node* node;
    double prob;
    std::uint64_t depth;
  };
  for (;;) {
    // The tree's replaying guesses, and its most valuable missing branch.
    std::vector<Slot> nodes = {{&root, 1.0, 0}};
    std::size_t replaying = 0;
    Node* best = nullptr;
    int best_branch = 0;
    double best_value = -1.0;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const Slot at = nodes[k];
      if (!at.node->proposal.found) continue;
      // A guess the cache answers holds no runner.
      if (at.node->replay != SearchContext::kNoReplay) ++replaying;
      for (int b = 0; b < kBranches; ++b) {
        if (b == kUphill && !(at.node->walk.temp > 0.0)) continue;
        const double prob = at.prob * rate[b];
        if (at.node->child[b] != nullptr) {
          nodes.push_back({at.node->child[b].get(), prob, at.depth + 1});
        } else if (at.depth + 1 < depth_cap && prob * overlap[b] > best_value) {
          best = at.node;
          best_branch = b;
          best_value = prob * overlap[b];
        }
      }
    }
    if (replaying >= width || nodes.size() >= kMaxGuesses * width ||
        best == nullptr) {
      return;
    }
    // The branch's walk, with energy and incumbent predicted unchanged.
    Walk walk = best->walk;
    walk.rng = best->proposal.rng;
    if (best_branch == kReject ? walk.temp > 0.0 : best_branch == kUphill) {
      (void)walk.rng();  // the uphill test's u
    }
    if (best_branch != kReject) walk.state = best->proposal.next;
    cool(walk, anneal_);
    best->child[best_branch] = guess(ctx, std::move(walk), true);
  }
}

bool AnnealingSearch::step(SearchContext& ctx, std::size_t eval_budget) {
  const ExplorerOptions& opts = ctx.options();
  std::uint64_t stepped = 0;
  if (!begun_) {
    begun_ = true;
    frozen_ = false;
    charged_ = 0;
    std::fill(std::begin(branch_counts_), std::end(branch_counts_), 0);
    std::fill(std::begin(branch_events_), std::end(branch_events_), 0);
    speculation_ = {};
    walk_.rng.seed(anneal_.seed);
    walk_.since_cool = 0;

    // Start state: the repaired defaults — with nothing decided, repair()
    // completes them into a valid vector — mapped into the quotient.
    const DecidedMask none{};
    walk_.state = alloc::canonical(Constraints::repair(opts.defaults, none));
    const std::vector<EvalOutcome> out = ctx.evaluate({{walk_.state, 0}});
    (void)ctx.offer_best(walk_.state, out[0]);
    walk_.energy = anneal_energy(opts, out[0]);
    walk_.temp = anneal_.initial_temp * std::max(1.0, walk_.energy);
    ++charged_;
    ++stepped;
  }

  // One replaying guess per engine runner; family mode stays at width 1.
  const std::size_t width = ctx.family() ? 1 : std::max(1u, ctx.runners());
  const bool speculating = width > 1;
  if (speculating) ctx.speculate_begin();
  std::uint64_t used = 0;
  std::unique_ptr<Node> root;
  while (!frozen_ && charged_ < anneal_.max_evals && stepped < eval_budget) {
    // The job the sequential loop builds here.  A guess commits only if
    // it is exactly this job; otherwise the whole guessed tree goes.
    if (root != nullptr) {
      Proposal p = propose(opts, walk_.state, walk_.rng);
      const EvalJob job = proposal_job(ctx, walk_, p, 0);
      if (!p.found || job.cfg != root->job.cfg ||
          job.peak_cutoff != root->job.peak_cutoff) {
        discard(ctx, std::move(root));
      } else {
        // The guess's outcome is this step's; what grows from it now
        // starts from the committed walk and its own draws.
        root->walk = walk_;
        root->proposal = std::move(p);
      }
    }
    if (root == nullptr) {
      root = guess(ctx, walk_, speculating);
      if (speculating) ++speculation_.rounds;
    }
    const Proposal& p = root->proposal;
    ctx.result().canonical_skips += p.canonical_skips;
    if (!p.found) {
      frozen_ = true;  // no admissible neighbour in 256 draws
      break;
    }
    if (speculating) {
      grow(ctx, *root, width,
           std::min<std::uint64_t>(anneal_.max_evals - charged_,
                                   eval_budget - stepped));
    }
    const EvalOutcome out = ctx.commit(root->job, root->replay);
    if (root->replay != SearchContext::kNoReplay && !out.from_cache) ++used;
    ++charged_;
    ++stepped;
    if (speculating) ++speculation_.committed;
    const Branch branch = advance(ctx, p.next, p.rng, out);
    std::unique_ptr<Node> next = std::move(root->child[branch]);
    discard(ctx, std::move(root));
    root = std::move(next);
  }
  discard(ctx, std::move(root));
  if (speculating) {
    const std::uint64_t replays = ctx.speculate_end();
    speculation_.replays += replays;
    speculation_.discarded += replays - used;
  }
  return !frozen_ && charged_ < anneal_.max_evals;
}

// ---------------------------------------------------------------------------
// PortfolioSearch — race child strategies round-robin on one context
// ---------------------------------------------------------------------------

PortfolioSearch::PortfolioSearch(std::vector<SearchSpec> children,
                                 std::size_t budget, std::vector<TreeId> order,
                                 std::vector<TreeId> trees)
    : budget_(budget) {
  children_.reserve(children.size());
  for (const SearchSpec& spec : children) {
    children_.push_back(make_strategy(spec, order, trees));
  }
}

std::string PortfolioSearch::name() const {
  std::string n = "portfolio:";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i != 0) n += '+';
    n += children_[i]->name();
  }
  return n;
}

void PortfolioSearch::run(SearchContext& ctx) {
  // Racing semantics: every child offers into one shared incumbent, so an
  // ordered walk's final crowning must compete, not clobber.
  ctx.set_competitive(true);
  ExplorationResult& result = ctx.result();
  result.children.assign(children_.size(), {});
  std::vector<std::vector<StepLog>> child_steps(children_.size());
  std::vector<char> alive(children_.size(), 1);
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->reset();
    result.children[i].name = children_[i]->name();
  }

  // Deal the overall budget round-robin in kSliceEvals slices: child i
  // steps, its actual consumption is charged against the pot, and the
  // turn passes on.  Streaming children pause exactly at the slice edge;
  // ordered walks are indivisible and spend their natural cost in their
  // first (only) turn.  Everything here is a pure function of the specs
  // and the budget — no wall clock, no thread count.
  std::uint64_t remaining = budget_ == 0
                                ? std::numeric_limits<std::uint64_t>::max()
                                : budget_;
  std::size_t best_child = children_.size();  // none yet
  std::uint64_t last_best_mark = result.evals_to_best;
  bool any_alive = !children_.empty();
  while (any_alive && remaining > 0) {
    any_alive = false;
    bool progressed = false;
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (!alive[i]) continue;
      const std::uint64_t slice =
          std::min<std::uint64_t>(kSliceEvals, remaining);
      if (slice == 0) break;
      ChildSearchReport& attr = result.children[i];
      const std::uint64_t evals_before = ctx.evaluations();
      const std::uint64_t sims_before = result.simulations;
      const std::uint64_t hits_before = result.cache_hits;
      // Isolate this child's step logs: greedy appends to result.steps and
      // beam replaces it wholesale, so the shared vector is parked and a
      // fresh one handed to the child.
      std::vector<StepLog> parked = std::move(result.steps);
      result.steps.clear();
      const bool more = children_[i]->step(ctx, slice);
      for (StepLog& log : result.steps) {
        child_steps[i].push_back(std::move(log));
      }
      result.steps = std::move(parked);
      const std::uint64_t used = ctx.evaluations() - evals_before;
      attr.evaluations += used;
      attr.simulations += result.simulations - sims_before;
      attr.cache_hits += result.cache_hits - hits_before;
      if (result.evals_to_best != last_best_mark) {
        // The incumbent was displaced during this child's turn — offers
        // always land at a strictly higher charge count than any earlier
        // turn's, so the mark is unambiguous.
        last_best_mark = result.evals_to_best;
        best_child = i;
      }
      remaining -= std::min(used, remaining);
      progressed = progressed || used > 0 || !more;
      if (!more) alive[i] = false;
      any_alive = any_alive || alive[i];
    }
    // Safety valve: a full round where every child claimed more work but
    // charged nothing would spin forever.
    if (!progressed) break;
  }
  if (best_child < children_.size()) {
    result.children[best_child].found_best = true;
    result.steps = std::move(child_steps[best_child]);
  }
}

// ---------------------------------------------------------------------------
// strategy selection
// ---------------------------------------------------------------------------

const std::vector<TreeId>& high_impact_trees() {
  static const std::vector<TreeId> kTrees = {TreeId::kA2, TreeId::kA5,
                                             TreeId::kE2, TreeId::kD2,
                                             TreeId::kB4, TreeId::kC1};
  return kTrees;
}

/// Parses a whole non-negative number; nullopt on any other input,
/// including values strtoull would clamp (a seed of 2^64 must be a
/// rejected spec, not a silently different one).
std::optional<std::uint64_t> parse_number(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const std::uint64_t value = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return value;
}

namespace {

/// A seed must round-trip through the `unsigned` the searchers take —
/// truncating would hand two distinct seeds the same trajectory.
std::optional<unsigned> parse_seed(const std::string& s) {
  const auto value = parse_number(s);
  if (!value || *value > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

}  // namespace

std::optional<SearchSpec> parse_search_spec(const std::string& text) {
  // Portfolio first: its tail is a '+'-separated list of child specs that
  // themselves contain colons, so it cannot go through the generic colon
  // split below.  Grammar: portfolio[:BUDGET]:CHILD+CHILD[+CHILD...].
  if (text.rfind("portfolio:", 0) == 0) {
    SearchSpec spec;
    spec.kind = SearchSpec::Kind::kPortfolio;
    std::string rest = text.substr(std::string("portfolio:").size());
    // An all-digits segment before another ':' is the overall budget — a
    // child spec never starts with a digit, so the form is unambiguous.
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos &&
        rest.find_first_not_of("0123456789") >= colon) {
      const auto budget = parse_number(rest.substr(0, colon));
      if (!budget || *budget == 0 ||
          *budget > std::numeric_limits<std::size_t>::max()) {
        return std::nullopt;
      }
      spec.portfolio_budget = static_cast<std::size_t>(*budget);
      rest = rest.substr(colon + 1);
    }
    std::size_t begin = 0;
    for (;;) {
      const std::size_t plus = rest.find('+', begin);
      const auto child = parse_search_spec(rest.substr(begin, plus - begin));
      // No nesting: a portfolio child must name a concrete searcher.
      if (!child || child->kind == SearchSpec::Kind::kPortfolio) {
        return std::nullopt;
      }
      spec.children.push_back(*child);
      if (plus == std::string::npos) break;
      begin = plus + 1;
    }
    return spec;
  }
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t colon = text.find(':', begin);
    parts.push_back(text.substr(begin, colon - begin));
    if (colon == std::string::npos) break;
    begin = colon + 1;
  }
  SearchSpec spec;
  if (parts[0] == "greedy") {
    if (parts.size() != 1) return std::nullopt;
    spec.kind = SearchSpec::Kind::kGreedy;
  } else if (parts[0] == "beam") {
    if (parts.size() != 2) return std::nullopt;
    const auto width = parse_number(parts[1]);
    if (!width || *width == 0) return std::nullopt;
    spec.kind = SearchSpec::Kind::kBeam;
    spec.beam_width = static_cast<std::size_t>(*width);
  } else if (parts[0] == "anneal") {
    if (parts.size() > 2) return std::nullopt;
    if (parts.size() == 2) {
      const auto seed = parse_seed(parts[1]);
      if (!seed) return std::nullopt;
      spec.anneal.seed = *seed;
    }
    spec.kind = SearchSpec::Kind::kAnneal;
  } else if (parts[0] == "exhaustive") {
    if (parts.size() > 2) return std::nullopt;
    if (parts.size() == 2) {
      // Optional evaluation budget: SearchSpec.max_evals was always there,
      // the grammar just never exposed it.
      const auto budget = parse_number(parts[1]);
      if (!budget || *budget == 0 ||
          *budget > std::numeric_limits<std::size_t>::max()) {
        return std::nullopt;
      }
      spec.max_evals = static_cast<std::size_t>(*budget);
    }
    spec.kind = SearchSpec::Kind::kExhaustive;
  } else if (parts[0] == "random") {
    if (parts.size() > 3) return std::nullopt;
    if (parts.size() >= 2) {
      const auto n = parse_number(parts[1]);
      if (!n || *n == 0) return std::nullopt;
      spec.samples = static_cast<std::size_t>(*n);
    }
    if (parts.size() == 3) {
      const auto seed = parse_seed(parts[2]);
      if (!seed) return std::nullopt;
      spec.seed = *seed;
    }
    spec.kind = SearchSpec::Kind::kRandom;
  } else {
    return std::nullopt;
  }
  return spec;
}

std::unique_ptr<SearchStrategy> make_strategy(const SearchSpec& spec,
                                              const std::vector<TreeId>& order,
                                              const std::vector<TreeId>& trees) {
  switch (spec.kind) {
    case SearchSpec::Kind::kGreedy:
      return std::make_unique<GreedySearch>(order);
    case SearchSpec::Kind::kBeam:
      return std::make_unique<BeamSearch>(spec.beam_width, order);
    case SearchSpec::Kind::kAnneal:
      return std::make_unique<AnnealingSearch>(spec.anneal);
    case SearchSpec::Kind::kExhaustive:
      return std::make_unique<ExhaustiveSearch>(trees, spec.max_evals);
    case SearchSpec::Kind::kRandom:
      return std::make_unique<RandomSearch>(spec.samples, spec.seed);
    case SearchSpec::Kind::kPortfolio:
      return std::make_unique<PortfolioSearch>(spec.children,
                                               spec.portfolio_budget, order,
                                               trees);
  }
  return std::make_unique<GreedySearch>(order);
}

}  // namespace dmm::core
