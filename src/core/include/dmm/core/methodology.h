#ifndef DMM_CORE_METHODOLOGY_H
#define DMM_CORE_METHODOLOGY_H

#include <memory>
#include <vector>

#include "dmm/core/explorer.h"
#include "dmm/core/global_manager.h"
#include "dmm/core/phase.h"

namespace dmm::core {

/// Options of the end-to-end methodology run.
struct MethodologyOptions {
  /// Re-detect phases from the trace; when false, the phase annotations
  /// already present in the trace (profiler markers) are used as-is.
  bool detect_phases = false;
  PhaseDetectorOptions phase_options{};
  /// Steers every per-phase search.  Set explorer_options.shared_cache to
  /// serve the whole run — all phase walks plus the validation passes —
  /// from one cross-search score cache.  `explorer_options.search` picks
  /// the per-phase strategy (greedy by default; beam/anneal/exhaustive/
  /// random via the same SearchSpec the CLIs' --search flag parses);
  /// ordered strategies traverse `order`, the exhaustive one enumerates
  /// `validation_trees`.
  ExplorerOptions explorer_options{};
  /// Traversal order (defaults to the published one).
  std::vector<TreeId> order = paper_order();
  /// Cross-check each phase's greedy walk against the exhaustive searcher
  /// over validation_trees (the paper's greedy-vs-ground-truth
  /// comparison).  With a shared cache the validator reuses the walk's
  /// replays and only pays for vectors the walk never visited.
  bool validate = false;
  /// High-impact subspace the validator enumerates (canonical quotient).
  std::vector<TreeId> validation_trees = high_impact_trees();
  /// Evaluation budget of each per-phase validation pass.
  std::size_t validation_max_evals = 100000;
  /// Persist the run's shared score cache across processes.  When
  /// non-empty (and explorer_options.cache is on), design_manager() loads
  /// this snapshot before the first phase — creating
  /// explorer_options.shared_cache first if none was injected, so one
  /// cache still serves every walk and validation pass — and saves it
  /// back atomically after the last.  A rejected snapshot (truncated,
  /// corrupted, version mismatch) just means a cold start; warm hits are
  /// reported as MethodologyResult::total_persisted_hits.
  std::string cache_file;
};

/// Everything the methodology produces for one application.
struct MethodologyResult {
  std::vector<PhaseSpan> phases;
  /// One decision vector per phase — the atomic DM managers (Sec. 3.3).
  std::vector<alloc::DmmConfig> phase_configs;
  /// Per-phase exploration logs (decision walks as in Sec. 5).
  std::vector<ExplorationResult> phase_results;
  /// Per-phase exhaustive validation passes (empty unless
  /// MethodologyOptions::validate; entries for empty phases are default).
  std::vector<ExplorationResult> validation_results;
  std::uint64_t total_simulations = 0;
  /// Evaluations a score cache answered without a replay, across every
  /// search of the run (walks and validation passes).
  std::uint64_t total_cache_hits = 0;
  /// Subset of total_cache_hits served from entries another search of the
  /// shared cache replayed — 0 unless explorer_options.shared_cache is
  /// set.  With it, the validator typically rides the walk's replays.
  std::uint64_t total_cross_search_hits = 0;
  /// Subset of total_cache_hits served from snapshot entries a previous
  /// process replayed (MethodologyOptions::cache_file); disjoint from
  /// total_cross_search_hits.
  std::uint64_t total_persisted_hits = 0;

  /// Instantiates the designed manager over @p arena: a single atomic
  /// CustomManager for single-phase applications, a GlobalManager
  /// otherwise.
  [[nodiscard]] std::unique_ptr<alloc::Allocator> make_manager(
      sysmem::SystemArena& arena, bool strict_accounting = true) const;
};

/// The paper's flow in one call: (profile already done — @p trace),
/// detect/respect phases, traverse the ordered trees per phase, and return
/// the atomic decision vectors plus a factory for the global manager.
///
/// Phases are designed independently (Sec. 3.3), so up to
/// explorer_options.num_threads of them search at once, the engine runners
/// split between them (1 thread: one phase at a time).  Results are
/// assembled in phase order and equal the sequential run's, accounting
/// included.  Every phase task is joined before the cache is saved or a
/// phase's exception is rethrown (the first in phase order).
///
/// This is the single-trace adapter under the unified request surface:
/// api::run_design_request() (dmm/api/design_api.h) bridges a
/// DesignRequest onto exactly this call, and tests/test_api_request.cpp
/// pins the two bit-for-bit at 1/2/4/8 threads.  Prefer a DesignRequest
/// when the ask comes from a CLI, the dmm_serve daemon, or anywhere the
/// knobs should be validated and serialized as one value.
[[nodiscard]] MethodologyResult design_manager(
    const AllocTrace& trace, const MethodologyOptions& options = {});

// ---------------------------------------------------------------------------
// Family design: one decision vector for a *set* of traces.  The paper
// designs one custom manager from a single profiled run; a deployed
// manager serves whatever input mix the application actually sees, so the
// family mode searches the same decision space against every trace at once
// (see FamilyAggregate for the fold) instead of overfitting to one.
// ---------------------------------------------------------------------------

/// Options of a design_manager_family() run.
struct FamilyDesignOptions {
  /// Steers the one family-wide search: `search` picks the strategy (the
  /// same SearchSpec grammar as the CLIs' --search flag, portfolios
  /// included), `shared_cache` lets the run ride and feed a cross-search
  /// score cache (per-trace member entries are shared with single-trace
  /// searches over the same traces).  In family mode an evaluation budget
  /// (anneal/random/exhaustive/portfolio budgets) is counted in *family*
  /// evaluations — one per candidate, however many member traces it
  /// replays.
  ExplorerOptions explorer_options{};
  /// Traversal order of ordered strategies (defaults to the published one).
  std::vector<TreeId> order = paper_order();
  /// Subspace an exhaustive strategy/child enumerates.
  std::vector<TreeId> validation_trees = high_impact_trees();
  /// How per-trace scores fold into the objective the search minimises.
  FamilyAggregate aggregate = FamilyAggregate::kMaxPeak;
  /// kWeightedSum member weights; empty = 1.0 each.  Anything else must
  /// match the trace count (std::invalid_argument otherwise).
  std::vector<double> weights;
  /// Extra candidate vectors scored on the aggregate after the search and
  /// offered to the incumbent — seeding with each trace's solo-designed
  /// best guarantees the family result is never worse (beyond the
  /// comparator's 1% tie band) than deploying any one of them family-wide.
  /// Offered after the search, not before: an ordered walk crowns its own
  /// completion and would clobber a pre-offered seed.
  std::vector<alloc::DmmConfig> seed_candidates;
  /// Persist the run's shared score cache across processes (same contract
  /// as MethodologyOptions::cache_file): loaded once up front, saved once
  /// at the end — and on the failure path — with rejected snapshots
  /// meaning a cold start, never an error.
  std::string cache_file;
};

/// How the family-designed vector behaves on one member trace.
struct FamilyTraceReport {
  std::uint64_t fingerprint = 0;  ///< AllocTrace::fingerprint of the member
  SimResult sim{};                ///< the family vector replayed on it
  std::uint64_t work_steps = 0;
  [[nodiscard]] bool feasible() const { return sim.failed_allocs == 0; }
};

/// Everything design_manager_family() produces.
struct FamilyDesignResult {
  /// The one vector designed for the whole family.
  alloc::DmmConfig best{};
  /// Feasible on *every* member trace.
  bool feasible = false;
  /// The aggregate objective of `best` (candidate_objective over the
  /// folded outcome: worst-case peak under kMaxPeak, weighted-sum peak
  /// under kWeightedSum).
  double aggregate_objective = 0.0;
  /// Index into FamilyDesignOptions::seed_candidates of the seed that
  /// ended up as `best`, or -1 when the search's own result won.  When a
  /// seed wins, the search log's per-child attribution and step log are
  /// cleared — no child found the best.
  int best_seed = -1;
  /// The family-space search log: accounting counts *member* replays and
  /// hits, evals_to_best counts family evaluations, and `children` carries
  /// portfolio attribution when the strategy was one.
  ExplorationResult search;
  /// Per-member breakdown of `best`, in trace order.
  std::vector<FamilyTraceReport> per_trace;
};

/// Designs one decision vector for the whole trace family: every candidate
/// is scored on every trace and folded by options.aggregate, so the winner
/// is the vector that serves the *family* best, not any single profile.
/// Phases are not split in family mode — the result is one atomic manager.
/// Throws std::invalid_argument on an empty family or a weight list whose
/// size does not match the trace count.
///
/// Like design_manager(), this is an adapter under the unified request
/// surface: a multi-trace api::DesignRequest bridges onto exactly this
/// call (aggregate objective included), pinned bit-for-bit by
/// tests/test_api_request.cpp.
[[nodiscard]] FamilyDesignResult design_manager_family(
    const std::vector<AllocTrace>& traces,
    const FamilyDesignOptions& options = {});

}  // namespace dmm::core

#endif  // DMM_CORE_METHODOLOGY_H
