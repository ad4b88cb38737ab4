#ifndef DMM_ALLOC_KNOBS_H
#define DMM_ALLOC_KNOBS_H

#include <cstddef>

#include "dmm/alloc/config.h"
#include "dmm/alloc/consult.h"

namespace dmm::alloc {

// ---------------------------------------------------------------------------
// Typed knob accessors: the consult-soundness layer.
//
// The incremental replay's full skip (core/checkpoint.h) is sound only if
// every runtime read of a *soft* decision knob on an allocator decision
// path is paired with a `note_consult()` of that knob's ConsultGroup.  Before this layer
// that pairing was a convention enforced by review: eight hand-placed hooks
// against dozens of raw `cfg_.` field reads.  Now it is structural:
//
//   * `KnobView` is the ONLY sanctioned way to read a soft knob inside the
//     allocator (`custom_manager.cpp` / `pool.cpp` / `free_index.cpp`).
//     Every accessor notes its statically-assigned ConsultGroup before
//     returning the value, so a read without a consult cannot be written.
//     Callers in turn must only read at genuine decision points — i.e.
//     places where the value could change observable behaviour — which the
//     refactored call sites guarantee by gating the *read itself* (e.g. the
//     ordering knob is read only when a second block joins a free index).
//
//   * `HardKnobs` exposes the structure-defining knobs that the full-skip
//     store treats as hard (any difference rules a full skip out — see
//     `hard_mismatch` in core/checkpoint.cpp) plus the trace-pure
//     big-request threshold.  Reads through it do not consult: candidates
//     differing in a hard knob never share a stored result.
//
// `tools/dmm_lint` closes the loop: raw `DmmConfig` field reads outside
// this header and a short whitelist (canonical/hash/validation code) are
// lint errors, so a new knob read must come through one of these views.
// ---------------------------------------------------------------------------

/// Read-only view of the hard (structure-defining) knobs of a decision
/// vector.  These shape construction, layout, routing or sizing globally;
/// the full-skip store never shares a stored result across configs that
/// differ in any of them, so reading them is consult-free.
///
/// The view holds a pointer: it must not outlive the config it wraps.
class HardKnobs {
 public:
  explicit HardKnobs(const DmmConfig& cfg) : cfg_(&cfg) {}

  // Category A structure (trees A1-A4).
  [[nodiscard]] BlockStructure block_structure() const {
    return cfg_->block_structure;
  }
  [[nodiscard]] BlockSizes block_sizes() const { return cfg_->block_sizes; }
  [[nodiscard]] BlockTags block_tags() const { return cfg_->block_tags; }
  [[nodiscard]] RecordedInfo recorded_info() const {
    return cfg_->recorded_info;
  }

  // Category B pool organisation (trees B1-B3).
  [[nodiscard]] PoolDivision pool_division() const {
    return cfg_->pool_division;
  }
  [[nodiscard]] PoolStructure pool_structure() const {
    return cfg_->pool_structure;
  }
  [[nodiscard]] PoolCount pool_count() const { return cfg_->pool_count; }

  /// B4 = static preallocation changes the constructor itself (the
  /// up-front grant), so crossing into or out of it is a hard difference;
  /// the grow vs grow-and-shrink distinction stays soft (kShrink group,
  /// see KnobView::releases_empty_chunks).
  [[nodiscard]] bool static_preallocated() const {
    return cfg_->adaptivity == PoolAdaptivity::kStaticPreallocated;
  }

  // Numeric sizing knobs.
  [[nodiscard]] std::size_t chunk_bytes() const { return cfg_->chunk_bytes; }
  [[nodiscard]] std::size_t static_pool_bytes() const {
    return cfg_->static_pool_bytes;
  }
  [[nodiscard]] unsigned max_class_log2() const {
    return cfg_->max_class_log2;
  }
  /// Trace-pure: a threshold move only matters for request sizes landing
  /// between the two values, which the full-skip planner checks against
  /// the trace itself (alloc_sizes) — no runtime consult needed.
  [[nodiscard]] std::size_t big_request_bytes() const {
    return cfg_->big_request_bytes;
  }

 private:
  const DmmConfig* cfg_;
};

/// Read-only view of the soft decision knobs.  Every accessor notes its
/// ConsultGroup on the active ConsultSink (a no-op outside instrumented
/// replays) *before* returning the value: reading a soft knob IS consulting
/// it.  Call sites must therefore read only at genuine decision points —
/// the group-per-accessor mapping below mirrors `may_diverge` in
/// core/checkpoint.cpp exactly.
///
///   kFit      — fit()
///   kOrder    — order()
///   kSplit    — splitting_granted(), split_when(), split_sizes(),
///               deferred_split_min()
///   kCoalesce — coalescing_granted(), coalesce_when(), coalesce_sizes()
///   kShrink   — releases_empty_chunks()
///
/// A5 (flexible) gates both mechanisms, so it has no raw accessor: the two
/// derived predicates each note the group of the decision they serve, which
/// is why `divergence_event` lowers an A5 move to min(kSplit, kCoalesce).
///
/// The view holds a pointer: it must not outlive the config it wraps.
class KnobView {
 public:
  explicit KnobView(const DmmConfig& cfg) : cfg_(&cfg) {}

  /// C1 — which free block to take when candidates could differ.
  [[nodiscard]] FitAlgorithm fit() const {
    note_consult(ConsultGroup::kFit);
    return cfg_->fit;
  }

  /// C2 — where a freed block is filed in a non-empty index.
  [[nodiscard]] FreeListOrder order() const {
    note_consult(ConsultGroup::kOrder);
    return cfg_->order;
  }

  /// A5, split side — does the vector grant the splitting mechanism?
  [[nodiscard]] bool splitting_granted() const {
    note_consult(ConsultGroup::kSplit);
    return cfg_->flexible == FlexibleBlockSize::kSplitOnly ||
           cfg_->flexible == FlexibleBlockSize::kSplitAndCoalesce;
  }
  /// E2 — when splitting runs.
  [[nodiscard]] SplitWhen split_when() const {
    note_consult(ConsultGroup::kSplit);
    return cfg_->split_when;
  }
  /// E1 — which remainder sizes a split may produce.
  [[nodiscard]] SplitSizes split_sizes() const {
    note_consult(ConsultGroup::kSplit);
    return cfg_->split_sizes;
  }
  /// Deferred-splitting pressure threshold (fixed "via simulation", Sec. 5).
  [[nodiscard]] std::size_t deferred_split_min() const {
    note_consult(ConsultGroup::kSplit);
    return cfg_->deferred_split_min;
  }

  /// A5, coalesce side — does the vector grant the coalescing mechanism?
  [[nodiscard]] bool coalescing_granted() const {
    note_consult(ConsultGroup::kCoalesce);
    return cfg_->flexible == FlexibleBlockSize::kCoalesceOnly ||
           cfg_->flexible == FlexibleBlockSize::kSplitAndCoalesce;
  }
  /// D2 — when coalescing runs.
  [[nodiscard]] CoalesceWhen coalesce_when() const {
    note_consult(ConsultGroup::kCoalesce);
    return cfg_->coalesce_when;
  }
  /// D1 — which merged sizes coalescing may produce.
  [[nodiscard]] CoalesceSizes coalesce_sizes() const {
    note_consult(ConsultGroup::kCoalesce);
    return cfg_->coalesce_sizes;
  }

  /// B4, shrink side — is an empty chunk returned to the arena (vs kept)?
  /// Only the grow-only / grow-and-shrink distinction is soft; the static
  /// case is hard (HardKnobs::static_preallocated) and never reaches a
  /// shrink decision because a static pool cannot grow or release.
  [[nodiscard]] bool releases_empty_chunks() const {
    note_consult(ConsultGroup::kShrink);
    return cfg_->adaptivity == PoolAdaptivity::kGrowAndShrink;
  }

 private:
  const DmmConfig* cfg_;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_KNOBS_H
