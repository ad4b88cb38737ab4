#include "dmm/core/checkpoint.h"

#include <algorithm>
#include <utility>

#include "dmm/alloc/policy_core.h"

namespace dmm::core {

namespace {

/// Knobs that shape construction, layout, routing, or sizing globally:
/// any difference rules a full skip out.
bool hard_mismatch(const alloc::DmmConfig& a, const alloc::DmmConfig& b) {
  using alloc::PoolAdaptivity;
  if (a.block_structure != b.block_structure ||
      a.block_sizes != b.block_sizes || a.block_tags != b.block_tags ||
      a.recorded_info != b.recorded_info ||
      a.pool_division != b.pool_division ||
      a.pool_structure != b.pool_structure || a.pool_count != b.pool_count ||
      a.chunk_bytes != b.chunk_bytes ||
      a.static_pool_bytes != b.static_pool_bytes ||
      a.max_class_log2 != b.max_class_log2) {
    return true;
  }
  // Static preallocation changes the constructor itself (the up-front
  // grant), so crossing into or out of it is a hard difference; grow vs
  // grow-and-shrink only differs at empty-chunk decisions (kShrink group).
  if (a.adaptivity != b.adaptivity &&
      (a.adaptivity == PoolAdaptivity::kStaticPreallocated ||
       b.adaptivity == PoolAdaptivity::kStaticPreallocated)) {
    return true;
  }
  return false;
}

/// Behavioural equivalence classes of the fit knob, conditioned on the
/// structure it scans (see FreeIndex::list_take/tree_take): on a size tree
/// every fit but worst resolves to "smallest block >= need"; on a
/// size-sorted list first/best/exact all take the first fitting block with
/// the same scan; best and exact share one code path everywhere.  Two
/// configs whose classes match make identical choices *and* charge
/// identical scan_steps, so a fit move within a class never diverges.
int fit_class(const alloc::DmmConfig& c) {
  using alloc::BlockStructure;
  using alloc::FitAlgorithm;
  using alloc::FreeListOrder;
  const bool tree = c.block_structure == BlockStructure::kSizeBinaryTree;
  const bool sorted =
      c.block_structure == BlockStructure::kSinglySortedBySize ||
      c.block_structure == BlockStructure::kDoublySortedBySize ||
      c.order == FreeListOrder::kSizeOrdered;
  switch (c.fit) {
    case FitAlgorithm::kWorstFit:
      return 1;
    case FitAlgorithm::kNextFit:
      return tree ? 0 : 2;
    case FitAlgorithm::kFirstFit:
      return (tree || sorted) ? 0 : 4;
    case FitAlgorithm::kBestFit:
    case FitAlgorithm::kExactFit:
      return (tree || sorted) ? 0 : 3;
  }
  return -1;
}

}  // namespace

bool CheckpointStore::may_diverge(const TraceEntry& entry,
                                  const Lineage& lineage,
                                  const alloc::DmmConfig& canon) {
  using alloc::ConsultGroup;
  const alloc::DmmConfig& base = lineage.canon;
  if (base == canon) return false;
  if (hard_mismatch(base, canon)) return true;
  const auto consulted = [&lineage](ConsultGroup g) {
    return lineage.consult.was_consulted(g);
  };
  if (base.flexible != canon.flexible &&
      (consulted(ConsultGroup::kSplit) || consulted(ConsultGroup::kCoalesce))) {
    return true;
  }
  if ((base.split_sizes != canon.split_sizes ||
       base.split_when != canon.split_when ||
       base.deferred_split_min != canon.deferred_split_min) &&
      consulted(ConsultGroup::kSplit)) {
    return true;
  }
  if ((base.coalesce_sizes != canon.coalesce_sizes ||
       base.coalesce_when != canon.coalesce_when) &&
      consulted(ConsultGroup::kCoalesce)) {
    return true;
  }
  if (base.order != canon.order && consulted(ConsultGroup::kOrder)) {
    return true;
  }
  if (base.fit != canon.fit && fit_class(base) != fit_class(canon) &&
      consulted(ConsultGroup::kFit)) {
    return true;
  }
  if (base.adaptivity != canon.adaptivity &&
      consulted(ConsultGroup::kShrink)) {
    return true;
  }
  if (base.big_request_bytes != canon.big_request_bytes) {
    // Trace-pure check: the threshold only matters for request sizes that
    // land between the two values; routing diverges iff the trace
    // allocates one.
    const std::uint64_t lo =
        std::min(base.big_request_bytes, canon.big_request_bytes);
    const std::uint64_t hi =
        std::max(base.big_request_bytes, canon.big_request_bytes);
    const auto it = std::lower_bound(entry.alloc_sizes.begin(),
                                     entry.alloc_sizes.end(), lo);
    if (it != entry.alloc_sizes.end() && *it < hi) return true;
  }
  return false;
}

void CheckpointStore::prepare_trace(std::uint64_t trace_fingerprint,
                                    const TraceSource& trace) {
  const std::lock_guard<std::mutex> lock(m_);
  TraceEntry& entry = traces_[trace_fingerprint];
  if (entry.prepared) return;
  entry.prepared = true;
  std::vector<std::uint64_t>& sizes = entry.alloc_sizes;
  const std::unique_ptr<TraceCursor> cur = trace.cursor();
  const AllocEvent* run = nullptr;
  std::size_t n = 0;
  while ((n = cur->next(&run)) != 0) {
    for (std::size_t k = 0; k < n; ++k) {
      const AllocEvent& e = run[k];
      if (e.op != AllocEvent::Op::kAlloc) continue;
      // allocate() floors zero-byte requests to one byte before routing.
      sizes.push_back(e.size == 0 ? 1 : e.size);
    }
    // Dedup after every run: a mapped trace's list then holds its distinct
    // sizes plus at most one block's worth, never one entry per event.
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  }
}

CheckpointStore::Plan CheckpointStore::plan(std::uint64_t trace_fingerprint,
                                            const alloc::DmmConfig& canon) {
  const std::lock_guard<std::mutex> lock(m_);
  TraceEntry& entry = traces_[trace_fingerprint];
  ++use_tick_;
  Plan out;
  for (const auto& lptr : entry.lineages) {
    Lineage& lineage = *lptr;
    if (may_diverge(entry, lineage, canon)) continue;
    // Never consulted a differing knob, teardown included: the stored
    // final result IS this candidate's result.
    lineage.last_used = use_tick_;
    out.full_skip = true;
    out.final_sim = lineage.final_sim;
    out.final_work = lineage.final_work;
    full_skips_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  cold_replays_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void CheckpointStore::publish(std::uint64_t trace_fingerprint,
                              const alloc::DmmConfig& canon,
                              const alloc::ConsultSink& consult,
                              const SimResult& final_sim,
                              std::uint64_t final_work) {
  const std::lock_guard<std::mutex> lock(m_);
  TraceEntry& entry = traces_[trace_fingerprint];
  for (const auto& lptr : entry.lineages) {
    if (lptr->canon == canon) return;  // first publisher wins
  }
  ++use_tick_;
  auto lineage = std::make_unique<Lineage>();
  lineage->canon = canon;
  lineage->consult = consult;
  lineage->final_sim = final_sim;
  lineage->final_work = final_work;
  lineage->last_used = use_tick_;
  if (entry.lineages.size() >= kMaxLineagesPerTrace) {
    auto victim = std::min_element(
        entry.lineages.begin(), entry.lineages.end(),
        [](const auto& a, const auto& b) { return a->last_used < b->last_used; });
    entry.lineages.erase(victim);
  }
  entry.lineages.push_back(std::move(lineage));
}

void CheckpointStore::note_verified(bool ok) {
  if (ok) {
    verified_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    verify_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

CheckpointStore::Stats CheckpointStore::stats() const {
  Stats s;
  s.cold_replays = cold_replays_.load(std::memory_order_relaxed);
  s.full_skips = full_skips_.load(std::memory_order_relaxed);
  s.verified_ok = verified_ok_.load(std::memory_order_relaxed);
  s.verify_failures = verify_failures_.load(std::memory_order_relaxed);
  return s;
}

void CheckpointStore::clear() {
  const std::lock_guard<std::mutex> lock(m_);
  traces_.clear();
}

namespace {

/// Cold replay that records the consult table and publishes the resulting
/// lineage.
EvalOutcome replay_cold_publishing(const TraceSource& trace,
                                   const EvalJob& job,
                                   CheckpointStore& store,
                                   std::uint64_t trace_fingerprint) {
  EvalOutcome out;
  out.tag = job.tag;
  sysmem::SystemArena arena;
  // Replay adapter: the bare policy core (see alloc/policy_core.h), the
  // same one score_candidate replays — the runtime front's caches are
  // invisible here by design.
  alloc::PolicyCore mgr(arena, job.cfg, "candidate",
                        /*strict_accounting=*/false);
  alloc::ConsultSink sink;
  SimReplayOptions opts;
  opts.consult = &sink;
  out.sim = simulate(trace, mgr, opts);
  out.work_steps = mgr.work_steps();
  out.replayed_events = out.sim.events;
  store.publish(trace_fingerprint, alloc::canonical(job.cfg), sink, out.sim,
                out.work_steps);
  return out;
}

}  // namespace

EvalOutcome score_candidate_incremental(const TraceSource& trace,
                                        const EvalJob& job,
                                        CheckpointStore& store,
                                        std::uint64_t trace_fingerprint,
                                        bool verify) {
  store.prepare_trace(trace_fingerprint, trace);
  const CheckpointStore::Plan plan =
      store.plan(trace_fingerprint, alloc::canonical(job.cfg));
  if (!plan.full_skip) {
    return replay_cold_publishing(trace, job, store, trace_fingerprint);
  }
  EvalOutcome skip;
  skip.tag = job.tag;
  skip.sim = plan.final_sim;
  skip.work_steps = plan.final_work;
  skip.full_skip = true;
  if (!verify) return skip;
  // Verification: the stored result must be bit-identical to a cold replay
  // in every deterministic field (wall time excluded).  The cold result is
  // returned either way, so verify runs never depend on the incremental
  // machinery for correctness.
  EvalOutcome cold = score_candidate(trace, job);
  const bool equal = cold.sim.peak_footprint == skip.sim.peak_footprint &&
                     cold.sim.final_footprint == skip.sim.final_footprint &&
                     cold.sim.avg_footprint == skip.sim.avg_footprint &&
                     cold.sim.peak_live_bytes == skip.sim.peak_live_bytes &&
                     cold.sim.failed_allocs == skip.sim.failed_allocs &&
                     cold.sim.events == skip.sim.events &&
                     cold.work_steps == skip.work_steps;
  store.note_verified(equal);
  if (equal) {
    cold.replayed_events = 0;
    cold.full_skip = true;
  }
  return cold;
}

}  // namespace dmm::core
