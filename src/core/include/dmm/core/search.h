#ifndef DMM_CORE_SEARCH_H
#define DMM_CORE_SEARCH_H

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/constraints.h"
#include "dmm/core/eval_engine.h"
#include "dmm/core/order.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

// ===========================================================================
// The search layer: everything between "a trace to optimise for" and "the
// best decision vector we found".  A SearchStrategy encodes *where to look*
// (greedy walk, beam, exhaustive odometer, random sampling, annealing); the
// SearchContext it runs against owns everything the strategies share — job
// batching into the EvalEngine, candidate_better-based best tracking, the
// per-search/shared/persisted cache accounting, the canonical seen-set, and
// ExplorationResult assembly — so a new searcher is ~100 lines of "propose
// vectors, offer outcomes", not a fork of the Explorer.
// ===========================================================================

/// Knobs of the simulated-annealing searcher (AnnealingSearch).  The
/// cooling schedule is geometric: the temperature starts at
/// `initial_temp x max(1, energy of the start vector)` and is multiplied
/// by `cooling` after every `moves_per_temp` evaluated proposals, so the
/// trajectory is a pure function of (trace, options, seed).
struct AnnealingOptions {
  /// Evaluation budget (replays + cache hits), matching the other
  /// searchers' accounting; proposal attempts rejected before scoring
  /// (rule-invalid or canonical no-ops) are not charged.
  std::size_t max_evals = 400;
  /// Seeds the mt19937 driving tree/leaf choice and uphill acceptance —
  /// the whole trajectory is deterministic for a fixed seed.
  unsigned seed = 1;
  double initial_temp = 0.10;      ///< T0 as a fraction of the start energy
  double cooling = 0.95;           ///< geometric factor per cooling step
  std::size_t moves_per_temp = 8;  ///< evaluated proposals between coolings
};

/// Parsed strategy selection, the CLI's `--search` value:
///   greedy | beam:K | anneal[:SEED] | exhaustive[:N] | random[:N[:SEED]]
///   | portfolio[:BUDGET]:CHILD+CHILD[+CHILD...]
/// Ordered strategies (greedy, beam) traverse the order the caller passes
/// to make_strategy(); exhaustive enumerates the caller's tree subspace.
/// A portfolio composes child specs (any non-portfolio form, '+'-separated)
/// raced round-robin against one shared score cache; the optional BUDGET
/// caps the portfolio's total evaluations (children also honour their own
/// budgets, e.g. `random:500`'s sample count).
struct SearchSpec {
  enum class Kind { kGreedy, kBeam, kAnneal, kExhaustive, kRandom,
                    kPortfolio };
  Kind kind = Kind::kGreedy;
  std::size_t beam_width = 2;      ///< kBeam
  AnnealingOptions anneal{};       ///< kAnneal
  std::size_t max_evals = 100000;  ///< kExhaustive budget
  std::size_t samples = 200;       ///< kRandom budget
  unsigned seed = 1;               ///< kRandom seed
  /// kPortfolio: the raced child specs (never kPortfolio themselves) and
  /// the overall evaluation budget (0 = unlimited: every child runs to its
  /// own budget or natural end).
  std::vector<SearchSpec> children;
  std::size_t portfolio_budget = 0;
};

/// Options steering the search (paper Sec. 4/5).
struct ExplorerOptions {
  /// Values undecided trees hold before repair; also the seed vector.
  /// Capability-max by default: when a tree is scored, the still-undecided
  /// trees complete it with *supporting* choices (constraint repair), so a
  /// leaf is judged by the best manager family it can lead to — the way
  /// the paper's Sec. 5 walk reasons ("many block sizes ... because the
  /// application requests blocks that vary greatly").  The Fig. 4 trap is
  /// about a *myopic* designer deciding A3 by local cost; the ablation
  /// bench models that explicitly (alloc::minimal_config() defaults +
  /// fig4_wrong_order()) rather than through these defaults.
  alloc::DmmConfig defaults{};
  /// Reject incoherent (soft-violating) combinations, not just inoperable
  /// ones.
  bool prune_soft = true;
  /// Secondary objective weight: score = peak + time_weight * work_steps.
  /// 0 keeps the paper's pure-footprint objective (work only tie-breaks).
  double time_weight = 0.0;
  /// Candidate-evaluation parallelism: 1 = in-thread serial engine,
  /// N > 1 = ThreadPoolEngine with N runners (the calling thread plus
  /// N - 1 workers), 0 = one runner per hardware thread.  Results are
  /// bit-identical regardless of this value.
  unsigned num_threads = 1;
  /// Memoize candidate scores for the duration of one search call —
  /// repaired completions collide often in the greedy walk, and a hit
  /// skips a whole trace replay.
  bool cache = true;
  /// Cross-search score cache shared between searches, explorers, and
  /// threads (keyed by trace fingerprint x canonical vector).  When set
  /// (and `cache` is on) it replaces the per-search ScoreCache: every
  /// search of a design_manager() run — each phase's greedy walk plus the
  /// exhaustive/random validation passes — reuses the others' replays.
  /// Search outcomes (best, step logs) are bit-identical either way; only
  /// the simulations/cache_hits split shifts as more replays are reused.
  std::shared_ptr<SharedScoreCache> shared_cache;
  /// Persist the shared score cache across processes.  When non-empty
  /// (and `cache` is on), the Explorer loads this snapshot at
  /// construction — creating `shared_cache` first if none was injected —
  /// and saves the cache back at destruction (write-temp-then-rename, so
  /// concurrent sessions last-writer-win).  The cache is also saved when
  /// a search throws mid-run, so the replays already paid for survive
  /// even if the exception never unwinds the Explorer.  A missing,
  /// truncated, corrupted, or version-mismatched snapshot is rejected
  /// whole and the cache starts cold; hits served from imported entries
  /// are reported as ExplorationResult::persisted_hits.
  std::string cache_file;
  /// exhaustive(): enumerate the canonical quotient space — skip any
  /// odometer vector whose repaired canonical form was already enumerated
  /// this run, so the cartesian product collapses to behaviourally
  /// distinct managers and max_evals buys real coverage.
  bool canonical_prune = true;
  /// The strategy Explorer::run() (no arguments) executes; the CLIs'
  /// `--search` flag and MethodologyOptions land here.  The explicit
  /// explore()/exhaustive()/random_search() calls ignore it.
  SearchSpec search{};
};

/// Score of one candidate leaf during a traversal step.
struct CandidateScore {
  int leaf = -1;
  bool admissible = false;
  std::size_t peak_footprint = 0;
  double avg_footprint = 0.0;
  std::uint64_t work_steps = 0;
  std::uint64_t failed_allocs = 0;
};

/// One decided tree: which leaf won and what every candidate scored.
struct StepLog {
  TreeId tree{};
  int chosen = -1;
  std::vector<CandidateScore> candidates;
};

/// Per-child attribution of a portfolio run: what one raced child strategy
/// consumed and whether the portfolio's final best was recorded during one
/// of its turns.
struct ChildSearchReport {
  std::string name;                ///< child strategy name ("beam:4", ...)
  /// Budget charges this child consumed: one per candidate it had scored
  /// (== simulations + cache_hits in single-trace mode; in family mode a
  /// candidate is one charge however many member traces it replays).
  std::uint64_t evaluations = 0;
  std::uint64_t simulations = 0;   ///< trace replays it actually paid for
  std::uint64_t cache_hits = 0;    ///< evaluations a score cache answered
  bool found_best = false;         ///< the final best came from this child
};

/// Outcome of a search over the decision space.
struct ExplorationResult {
  alloc::DmmConfig best{};
  SimResult best_sim{};
  /// True iff `best` replayed the whole trace without a failed allocation.
  /// When false no candidate was feasible: `best` is only the least-bad
  /// vector (fewest failures), not a usable design.
  bool feasible = false;
  std::uint64_t work_steps = 0;     ///< manager work during best replay
  std::vector<StepLog> steps;       ///< ordered-traversal log (if used)
  std::uint64_t simulations = 0;    ///< trace replays actually executed
  std::uint64_t cache_hits = 0;     ///< evaluations served by a score cache
  /// Subset of cache_hits paid for by a *different* search on the shared
  /// cache (always 0 with the per-search cache).
  std::uint64_t cross_search_hits = 0;
  /// Subset of cache_hits served from snapshot entries a previous process
  /// replayed (ExplorerOptions::cache_file / SharedScoreCache::load);
  /// disjoint from cross_search_hits.
  std::uint64_t persisted_hits = 0;
  /// Family mode only: evaluations served *whole* from the aggregate-level
  /// cache (keyed by the trace-set fingerprint) — counted in candidates,
  /// not member touches, and disjoint from cache_hits, which stays in
  /// per-member units.  Always 0 in single-trace mode.
  std::uint64_t family_hits = 0;
  /// Vectors skipped as canonical duplicates of an already-seen one:
  /// exhaustive() under canonical_prune, and annealing proposals that
  /// mutated a dead leaf (a no-op in the canonical quotient).  Skips are
  /// never charged to the evaluation budget.
  std::uint64_t canonical_skips = 0;
  /// Evaluations (replays + cache hits) charged up to and including the
  /// batch in which the winning vector was recorded — the benches'
  /// "evals-to-best".  Streaming searches improve mid-run; ordered walks
  /// commit their completion only at the end, so theirs equals the total.
  std::uint64_t evals_to_best = 0;
  /// Trace events actually replayed across all simulations: the full
  /// event count for a cold replay, the prefix up to the stop for an
  /// annealing replay past its peak cutoff, zero for cache hits.  Without
  /// the cutoffs this is simulations x trace length; the gap is the replay
  /// work they saved.  It never affects a score.
  std::uint64_t replayed_events = 0;
  /// Per-child attribution of a PortfolioSearch run, in child order
  /// (empty for every other strategy).  `steps` holds the winning child's
  /// ordered-walk log when that child is an ordered strategy.
  std::vector<ChildSearchReport> children;
};

/// Lexicographic candidate comparison shared by every search mode: primary
/// objective (peak footprint, optionally time-weighted), then average
/// footprint — the paper's "returned back to the system for other
/// applications" benefit — then manager work.  Peaks within 1% count as
/// tied: the paper reports <2% run-to-run variation (Sec. 5), so
/// differences at that scale are placement noise, not design signal.
///
/// Infinite objectives (infeasible candidates) are handled explicitly: a
/// feasible candidate always beats an infeasible one, and two infeasible
/// ones rank by failed-allocation count (closest to feasible first) — the
/// naive `abs(obj_a - obj_b) > 0.01 * min(...)` would be NaN when both
/// objectives are +inf and silently fall through to the footprint tiers.
[[nodiscard]] bool candidate_better(double obj_a, std::uint64_t failed_a,
                                    double avg_a, std::uint64_t work_a,
                                    double obj_b, std::uint64_t failed_b,
                                    double avg_b, std::uint64_t work_b);

/// The primary objective of one scored candidate: peak footprint plus the
/// optional time_weight * work term; +inf for infeasible replays.
[[nodiscard]] double candidate_objective(const ExplorerOptions& opts,
                                         const SimResult& sim,
                                         std::uint64_t work);

/// Running "best so far" over a stream of outcomes, processed in job
/// order — the selection is a strict left fold, which is what keeps the
/// winner independent of how the engine scheduled the replays.
struct BestTracker {
  double obj = 0;
  std::uint64_t failed = 0;
  double avg = 0;
  std::uint64_t work = 0;
  bool any = false;

  /// True iff @p out displaces the incumbent.
  bool offer(const ExplorerOptions& opts, const EvalOutcome& out);

  /// The incumbent replayed the trace without a failed allocation.
  [[nodiscard]] bool feasible() const { return any && failed == 0; }
};

/// What every SearchStrategy runs against: one search call's worth of the
/// machinery the strategies would otherwise each reimplement.
///
///   * evaluate() — batches jobs into the EvalEngine through the right
///     cache scope (injected shared cache's session / search-local
///     ScoreCache / none) and charges simulations vs cache_hits.
///   * offer_best()/set_best() — candidate_better-based incumbent
///     tracking, recording best/best_sim/work_steps/evals_to_best.
///   * canonical_duplicate() — the canonical seen-set behind the quotient
///     prunes, counting canonical_skips.
///   * speculate()/commit() — replays that charge nothing until committed
///     in trajectory order (AnnealingSearch's pre-fetch).
///   * finish() — harvests the cache session's cross-search/persisted hit
///     counters and assembles the ExplorationResult.
///
/// A context is single-use and single-threaded, like the search call that
/// owns it (parallelism lives inside the engine).
///
/// A context evaluates against either ONE trace (the classic constructor)
/// or a *family* of traces: in family mode every job is scored on every
/// member (each member evaluation rides the per-trace score-cache entries
/// single-trace searches share) and folded by the configured aggregate,
/// with the aggregated score itself cached under family_fingerprint().
/// One family evaluation charges ONE evaluation to the budget
/// (evaluations()).  Accounting units: simulations/cache_hits count
/// per-member replays and hits; a candidate served whole from the
/// aggregate-level cache skips its member evaluations entirely and is
/// counted (in candidates) as ExplorationResult::family_hits instead —
/// so a warm family run reports fewer member touches than a cold one,
/// but never a different result.
class SearchContext {
 public:
  SearchContext(const TraceSource& trace, std::uint64_t trace_fingerprint,
                const ExplorerOptions& opts, EvalEngine& engine);
  /// Family mode: @p family must be non-empty; member fingerprints are the
  /// members' TraceSource::fingerprint values.
  SearchContext(std::vector<FamilyEvalMember> family,
                FamilyAggregate aggregate, const ExplorerOptions& opts,
                EvalEngine& engine);

  [[nodiscard]] const ExplorerOptions& options() const { return opts_; }
  /// True in family mode (every job scored on every member trace).
  [[nodiscard]] bool family() const { return trace_ == nullptr; }
  /// The incumbent's primary objective (candidate_objective): +inf while
  /// no candidate was offered or the incumbent is infeasible.
  [[nodiscard]] double incumbent_objective() const {
    return tracker_.any ? tracker_.obj
                        : std::numeric_limits<double>::infinity();
  }
  /// Single-trace mode: the trace; family mode: the first member.
  [[nodiscard]] const TraceSource& trace() const {
    return trace_ != nullptr ? *trace_ : *family_[0].trace;
  }

  /// Scores a batch through the engine and cache; outcomes come back in
  /// job order, replays/hits charged to the result.
  [[nodiscard]] std::vector<EvalOutcome> evaluate(
      const std::vector<EvalJob>& jobs);

  /// Streaming evaluation: submit() hands one job to the engine
  /// immediately — workers start replaying it while the strategy is still
  /// generating siblings — poll() returns whatever finished outcomes form
  /// a ready prefix (submit order, maybe empty), and drain() blocks for
  /// the rest and closes the stream.  Outcomes are emitted, charged, and
  /// cache-inserted in submit order, so a submit-per-job + drain sequence
  /// is bit-identical to one evaluate() call on the same jobs — including
  /// the simulations/cache_hits split.  In family mode submissions are
  /// buffered and drain() folds them as one evaluate_family() batch
  /// (family scoring needs whole batches; poll() stays empty), so
  /// strategies stream unconditionally.  Do not call evaluate() while a
  /// stream is open (i.e. between the first submit() and the drain()).
  void submit(const EvalJob& job);
  [[nodiscard]] std::vector<EvalOutcome> poll();
  [[nodiscard]] std::vector<EvalOutcome> drain();

  /// Speculation (AnnealingSearch's pre-fetch), single-trace mode only.
  /// Between speculate_begin() and speculate_end(), speculate() hands a
  /// job to the engine to replay on a free runner without inserting into
  /// the score cache or changing any counter; nothing is charged until
  /// commit().  Do not call
  /// evaluate() or submit() while speculating.
  static constexpr std::size_t kNoReplay =
      std::numeric_limits<std::size_t>::max();
  void speculate_begin();
  /// Starts a speculative replay of @p job and returns its handle, or
  /// kNoReplay when the cache already answers the job (a read-only probe:
  /// no hit is counted).
  [[nodiscard]] std::size_t speculate(const EvalJob& job);
  /// Withdraws a speculative replay whose outcome will not be used.
  void discard(std::size_t replay);
  /// Charges @p job exactly as evaluate({job}) would, in the order the
  /// caller commits: a cache hit is charged as a hit and served the cached
  /// entry (lower-bound entries included; @p replay is discarded); a miss
  /// is served by @p replay — waiting for it, or replaying now when it is
  /// kNoReplay — inserted, and charged as a simulation.  Outside a session
  /// @p replay must be kNoReplay and this is evaluate({job}).
  [[nodiscard]] EvalOutcome commit(const EvalJob& job, std::size_t replay);
  /// Closes the session; returns how many speculative replays ran.
  std::uint64_t speculate_end();

  /// Runners of the engine behind this context (EvalEngine::threads()).
  [[nodiscard]] unsigned runners() const { return engine_.threads(); }

  /// Evaluations charged so far — the budget every streaming strategy
  /// meters against.  One charge per scored candidate: replay-or-hit in
  /// single-trace mode, one whole-family fold in family mode.
  [[nodiscard]] std::uint64_t evaluations() const { return charged_; }

  /// Offers a scored full vector to the incumbent (left fold over calls);
  /// true iff it displaced the best, which records cfg/sim/work.
  bool offer_best(const alloc::DmmConfig& cfg, const EvalOutcome& out);

  /// Unconditionally crowns @p cfg (an ordered walk's final completion).
  /// Under set_competitive() the crowning is demoted to an offer_best()
  /// so a portfolio child cannot clobber a better sibling result.
  void set_best(const alloc::DmmConfig& cfg, const EvalOutcome& out);

  /// Racing mode (PortfolioSearch): strategies that unconditionally crown
  /// their completion (the ordered walks) instead *offer* it against the
  /// shared incumbent.
  void set_competitive(bool competitive) { competitive_ = competitive; }

  /// True (and counts a canonical_skip) iff @p cfg's canonical form was
  /// already recorded this search; records it otherwise.
  bool canonical_duplicate(const alloc::DmmConfig& cfg);

  /// The in-progress result — strategies append step logs here.
  [[nodiscard]] ExplorationResult& result() { return result_; }

  /// Assembles and returns the final result (call exactly once).
  [[nodiscard]] ExplorationResult finish();

 private:
  /// The cache one search evaluates against: the injected shared cache's
  /// session when configured, a search-local ScoreCache otherwise,
  /// nothing when caching is off.
  struct CacheBinding {
    ScoreCache local;
    std::optional<SharedScoreCache::Session> session;
    CandidateCache* ptr = nullptr;

    CacheBinding(const ExplorerOptions& opts, std::uint64_t trace_fingerprint);
  };

  [[nodiscard]] std::vector<EvalOutcome> evaluate_family(
      const std::vector<EvalJob>& jobs);

  /// Per-outcome accounting shared by evaluate()/poll()/drain(): the
  /// simulations vs cache_hits split plus the replayed-event count.
  void account(const EvalOutcome& out);

  const TraceSource* trace_ = nullptr;  ///< single-trace mode; else family_
  std::vector<FamilyEvalMember> family_;
  FamilyAggregate aggregate_ = FamilyAggregate::kMaxPeak;
  const ExplorerOptions& opts_;
  EvalEngine& engine_;
  /// Single-trace mode: the one score-cache binding.  Family mode: the
  /// *aggregate-level* binding, keyed by family_fingerprint().
  CacheBinding cache_;
  /// Family mode only: one binding per member, keyed by that member's
  /// trace fingerprint — the entries single-trace searches share.
  std::vector<std::unique_ptr<CacheBinding>> member_caches_;
  BestTracker tracker_;
  ExplorationResult result_;
  std::uint64_t charged_ = 0;
  bool stream_open_ = false;
  bool speculating_ = false;
  /// Family-mode streaming: jobs buffered between submit() and drain().
  std::vector<EvalJob> stream_pending_;
  bool competitive_ = false;
  std::unordered_set<alloc::DmmConfig, alloc::DmmConfigHash> canonical_seen_;
};

/// A search algorithm over the decision space: proposes candidate vectors
/// and offers their outcomes to the context.  Implementations own *where
/// to look*; the context owns scoring, accounting, and result assembly.
/// Run one via Explorer::run().
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// Short id for logs/benches ("greedy", "beam:4", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  virtual void run(SearchContext& ctx) = 0;

  /// Discards any in-progress step() state so the next step() starts a
  /// fresh search.  run() implementations call this on entry; a driver
  /// stepping strategies directly (PortfolioSearch) calls it once up
  /// front.  No-op for strategies without resumable state.
  virtual void reset() {}

  /// Sliced execution for drivers that interleave strategies: charge
  /// at most @p eval_budget more evaluations against @p ctx (and never
  /// more than the strategy's own remaining budget), then return true iff
  /// the search can still make progress.  The streaming strategies
  /// (exhaustive, random, annealing) pause and resume exactly; ordered
  /// walks are indivisible, so the default completes run() in the first
  /// step — possibly overshooting the slice — and returns false.
  virtual bool step(SearchContext& ctx, std::size_t eval_budget) {
    (void)eval_budget;
    run(ctx);
    return false;
  }
};

/// The paper's greedy ordered traversal (Sec. 4.2): decide trees in order,
/// scoring each admissible leaf by replaying the trace on the repaired
/// completion.  Explorer::explore() runs exactly this strategy.
class GreedySearch final : public SearchStrategy {
 public:
  explicit GreedySearch(std::vector<TreeId> order = paper_order());
  [[nodiscard]] std::string name() const override { return "greedy"; }
  void run(SearchContext& ctx) override;

 private:
  std::vector<TreeId> order_;
};

/// Width-k generalization of the greedy walk: at every tree the k best
/// partial vectors (ranked by candidate_better over their expansions, in
/// job order) survive, so a locally second-best leaf — the Fig. 4
/// example's A3=header against the myopically cheaper A3=none — stays
/// alive until its downstream payoff is visible.  Width 1 is bit-identical
/// to GreedySearch; the step log reports the winning beam's path.
class BeamSearch final : public SearchStrategy {
 public:
  explicit BeamSearch(std::size_t width,
                      std::vector<TreeId> order = paper_order());
  [[nodiscard]] std::string name() const override;
  void run(SearchContext& ctx) override;

 private:
  std::size_t width_;
  std::vector<TreeId> order_;
};

/// Exhaustive odometer over the given trees' cartesian product (other
/// trees repaired from defaults), enumerating the canonical quotient when
/// ExplorerOptions::canonical_prune is on.  Explorer::exhaustive().
class ExhaustiveSearch final : public SearchStrategy {
 public:
  ExhaustiveSearch(std::vector<TreeId> trees, std::size_t max_evals);
  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  void run(SearchContext& ctx) override;
  void reset() override { begun_ = false; }
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

 private:
  std::vector<TreeId> trees_;
  std::size_t max_evals_;
  // step() state: the odometer position and the budget already charged.
  bool begun_ = false;
  bool done_ = false;
  std::vector<int> leaf_;
  std::uint64_t charged_ = 0;
};

/// Uniform random sampling of full decision vectors, with replacement
/// (invalid draws are rejected without charge).  Explorer::random_search().
class RandomSearch final : public SearchStrategy {
 public:
  RandomSearch(std::size_t samples, unsigned seed);
  [[nodiscard]] std::string name() const override { return "random"; }
  void run(SearchContext& ctx) override;
  void reset() override { begun_ = false; }
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

 private:
  std::size_t samples_;
  unsigned seed_;
  // step() state: the draw stream position and the budget already charged.
  bool begun_ = false;
  std::mt19937 rng_;
  std::size_t attempts_ = 0;
  std::uint64_t charged_ = 0;
};

/// Seeded, deterministic simulated annealing over the canonical quotient.
///
/// State is a full *canonical* decision vector.  A move mutates one tree
/// to a different leaf, minimally repairs the trees a violated rule drags
/// along (Constraints::repair with only the mutated tree decided — the
/// "decide A5, schedules follow" coupling that makes single-leaf moves
/// able to cross mechanism boundaries at all), canonicalizes, and skips
/// canonical no-ops (dead-leaf mutations) unscored.  Energy is the shared
/// candidate objective, with infeasible vectors ranked beyond any feasible
/// one by failed-alloc count.  Cooling is AnnealingOptions' geometric
/// schedule; uphill moves are accepted iff u < exp(-delta/T) with u drawn
/// from the seeded mt19937 (consumed only on uphill proposals), so a fixed
/// seed fixes the whole trajectory on every platform.
///
/// Each proposal's replay carries a peak cutoff (anneal_peak_cutoff,
/// EvalJob::peak_cutoff): everything that decides the move except its own
/// peak — energy, temperature, the u it would draw (peeked from a copy of
/// the rng), the incumbent — is known before the replay, and a peak only
/// grows during one.  A replay that passes the cutoff stops there; the
/// move is treated as the rejection it certainly is (u is still drawn, no
/// offer is made), so trajectories, charges and evals_to_best are exactly
/// those of whole replays and only the replay work shrinks.  Time-weighted
/// objectives, family mode, and an infeasible state or incumbent replay
/// exactly (cutoff 0).
///
/// Speculation (pre-fetching, after Witte et al. and Brockwell): while a
/// step's replay runs, the replays of the steps that may follow it run on
/// the other engine runners.  Guesses form a tree grown from the committed
/// walk: a step rejects (state kept, u drawn when T > 0), accepts with
/// delta <= 0 (no u) or accepts uphill (u drawn), and a child's cutoff is
/// predicted as if energy and incumbent stay put.  Missing branches are
/// added best first — path probability (branch rates of the committed
/// steps) times the mean replay length of the branch into them, since a
/// guess saves what it overlaps of its parent's replay — until one guess
/// per runner (SearchContext::runners()) is replaying.  Steps commit in
/// trajectory order under one rule: a guess commits only if its job is
/// exactly the EvalJob (same cfg and peak_cutoff) the sequential loop
/// builds at that point; otherwise the whole tree is discarded and a new
/// one grown (a round, in speculation()).  Replays are deterministic, so
/// every committed outcome is the sequential one: trajectory, best,
/// charges, evals_to_best and canonical_skips are the same at every thread
/// count.  No guess reaches past max_evals or a step()'s eval_budget.  At
/// one runner no guess is made: the plain sequential loop.  Family mode
/// always runs at width 1: its jobs replay with no cutoff and fold whole
/// batches, and it is not in any speed-critical path.  Discarded work is
/// counted in speculation(), never in the ExplorationResult.
class AnnealingSearch final : public SearchStrategy {
 public:
  /// Speculation counters of the current (or last) run; all zero at one
  /// runner.  `replays` and `discarded` depend on timing.
  struct SpeculationStats {
    std::uint64_t rounds = 0;     ///< trees grown from the committed walk
    std::uint64_t committed = 0;  ///< evaluations committed by them
    std::uint64_t replays = 0;    ///< speculative replays started
    std::uint64_t discarded = 0;  ///< ... whose outcome no commit used
  };

  explicit AnnealingSearch(AnnealingOptions opts = {});
  [[nodiscard]] std::string name() const override { return "anneal"; }
  void run(SearchContext& ctx) override;
  void reset() override { begun_ = false; }
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

  [[nodiscard]] const SpeculationStats& speculation() const {
    return speculation_;
  }

  /// One point of the trajectory: everything the next step reads besides
  /// the incumbent.
  struct Walk {
    alloc::DmmConfig state{};
    double energy = 0.0;
    double temp = 0.0;
    std::size_t since_cool = 0;
    std::mt19937 rng;
  };

 private:
  /// How a committed step left the state (kAccept: delta <= 0, no u
  /// drawn; kUphill: accepted uphill); indexes branch_counts_.
  enum Branch : std::uint8_t { kReject, kAccept, kUphill, kBranches };

  struct Node;

  /// Applies @p out (the scored proposal @p next, drawn leaving @p rng) to
  /// the committed walk, offering it to the incumbent; returns the branch.
  Branch advance(SearchContext& ctx, const alloc::DmmConfig& next,
                 const std::mt19937& rng, const EvalOutcome& out);
  /// A guess at the step from @p walk, its replay started when
  /// @p speculating.
  std::unique_ptr<Node> guess(SearchContext& ctx, Walk walk,
                              bool speculating);
  /// Adds the most probable missing branches under @p root until @p width
  /// guesses replay or none lies within @p depth_cap steps.
  void grow(SearchContext& ctx, Node& root, std::size_t width,
            std::uint64_t depth_cap);
  /// Withdraws the replays of a guessed subtree and frees it.
  static void discard(SearchContext& ctx, std::unique_ptr<Node> node);

  AnnealingOptions anneal_;
  // step() state: the committed walk, the budget already charged, and the
  // branch counts that shape the speculation tree.
  bool begun_ = false;
  bool frozen_ = false;
  Walk walk_;
  std::uint64_t charged_ = 0;
  std::uint64_t branch_counts_[kBranches] = {};
  std::uint64_t branch_events_[kBranches] = {};  ///< events replayed
  SpeculationStats speculation_;
};

/// AnnealingSearch's uphill test: a move raising the energy by @p delta > 0
/// at temperature @p temp > 0 is accepted iff @p u < exp(-delta / temp),
/// u uniform in [0, 1).
[[nodiscard]] bool anneal_accepts_uphill(double delta, double temp, double u);

/// The peak cutoff of one annealing proposal under a pure-footprint
/// objective: the smallest peak P such that every peak above P is certain
/// to be rejected from a state of energy @p energy at temperature @p temp
/// (with @p u the uniform the uphill test would draw; unused at temp <= 0)
/// and cannot displace an incumbent of objective @p incumbent under
/// candidate_better's 1% tie band.  0 (replay exactly) when the state or
/// the incumbent is infeasible or no such peak is representable.  The
/// bound comes from the acceptance predicates themselves, not from their
/// algebra: at P + 1 both reject, at P one of them does not.
[[nodiscard]] std::size_t anneal_peak_cutoff(double energy, double temp,
                                             double u, double incumbent);

/// The high-impact subspace the exhaustive validator enumerates by
/// default (also MethodologyOptions::validation_trees' default).
[[nodiscard]] const std::vector<TreeId>& high_impact_trees();

/// Races several child strategies against one SearchContext — one shared
/// score cache, one shared canonical seen-set, one shared incumbent (the
/// context runs in competitive mode, so an ordered child's final crowning
/// is an *offer*, never a clobber).  The overall evaluation budget is
/// dealt in round-robin slices of kSliceEvals: each alive child in turn
/// steps for at most one slice (streaming children pause and resume
/// exactly; ordered walks are indivisible and complete in their first
/// turn, overshooting the slice by their natural cost) until the budget is
/// spent or every child has finished its own budget.  The schedule is a
/// pure function of (specs, budget), so portfolio results are bit-identical
/// across thread counts and cache scopes.  Per-child consumption and which
/// child produced the final best are reported in
/// ExplorationResult::children.
class PortfolioSearch final : public SearchStrategy {
 public:
  /// The evaluation slice one child is dealt per round-robin turn.
  static constexpr std::size_t kSliceEvals = 64;

  /// @param children  child specs (must not be portfolios themselves —
  ///                  parse_search_spec never produces nested ones).
  /// @param budget    overall evaluation budget; 0 = unlimited (children
  ///                  stop at their own budgets / natural ends).
  explicit PortfolioSearch(std::vector<SearchSpec> children,
                           std::size_t budget = 0,
                           std::vector<TreeId> order = paper_order(),
                           std::vector<TreeId> trees = high_impact_trees());
  [[nodiscard]] std::string name() const override;
  void run(SearchContext& ctx) override;

 private:
  std::vector<std::unique_ptr<SearchStrategy>> children_;
  std::size_t budget_;
};

/// Strict digits-only parse of a whole non-negative number, shared by the
/// spec grammar and the CLIs/benches: nullopt on empty input, any
/// non-digit character (signs, whitespace, hex, trailing junk), and on
/// values that overflow uint64 — where strtoull would silently clamp to
/// ULLONG_MAX and atoi would return garbage.
[[nodiscard]] std::optional<std::uint64_t> parse_number(
    const std::string& text);

/// Parses a `--search` value; nullopt (with no side effects) on syntax or
/// range errors.  Accepted forms: "greedy", "beam:K" (K >= 1), "anneal",
/// "anneal:SEED", "exhaustive", "exhaustive:N" (N >= 1 caps the
/// enumeration budget), "random", "random:N", "random:N:SEED", and
/// "portfolio[:BUDGET]:CHILD+CHILD[+CHILD...]" where each CHILD is any
/// non-portfolio form and BUDGET (>= 1) caps the portfolio's total
/// evaluations.
[[nodiscard]] std::optional<SearchSpec> parse_search_spec(
    const std::string& text);

/// Builds the strategy @p spec names.  @p order steers the ordered
/// strategies (greedy, beam); @p trees is the exhaustive subspace.  Both
/// are forwarded to every child of a portfolio spec.
[[nodiscard]] std::unique_ptr<SearchStrategy> make_strategy(
    const SearchSpec& spec, const std::vector<TreeId>& order = paper_order(),
    const std::vector<TreeId>& trees = high_impact_trees());

}  // namespace dmm::core

#endif  // DMM_CORE_SEARCH_H
