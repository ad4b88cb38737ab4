#ifndef DMM_ALLOC_KNOBS_H
#define DMM_ALLOC_KNOBS_H

#include <cstddef>

#include "dmm/alloc/config.h"

namespace dmm::alloc {

/// Read-only view of a decision vector's knobs, as the allocator reads
/// them on its decision paths (`custom_manager.cpp` / `pool.cpp` /
/// `free_index.cpp`).  Most accessors return the raw field; the derived
/// predicates encode the A5 (flexible block size) and B4 (pool
/// adaptivity) semantics in one place.
///
/// The view holds a pointer: it must not outlive the config it wraps.
class KnobView {
 public:
  explicit KnobView(const DmmConfig& cfg) : cfg_(&cfg) {}

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

  /// B4 = static preallocation: the pool is granted up front and never
  /// grows or releases.
  [[nodiscard]] bool static_preallocated() const {
    return cfg_->adaptivity == PoolAdaptivity::kStaticPreallocated;
  }
  /// B4, shrink side — is an empty chunk returned to the arena (vs kept)?
  /// A static pool never reaches a shrink decision: it cannot grow or
  /// release.
  [[nodiscard]] bool releases_empty_chunks() const {
    return cfg_->adaptivity == PoolAdaptivity::kGrowAndShrink;
  }

  // Numeric sizing knobs.
  [[nodiscard]] std::size_t chunk_bytes() const { return cfg_->chunk_bytes; }
  [[nodiscard]] std::size_t static_pool_bytes() const {
    return cfg_->static_pool_bytes;
  }
  [[nodiscard]] unsigned max_class_log2() const {
    return cfg_->max_class_log2;
  }
  [[nodiscard]] std::size_t big_request_bytes() const {
    return cfg_->big_request_bytes;
  }

  /// C1 — which free block to take when candidates could differ.
  [[nodiscard]] FitAlgorithm fit() const { return cfg_->fit; }

  /// C2 — where a freed block is filed in a non-empty index.
  [[nodiscard]] FreeListOrder order() const { return cfg_->order; }

  /// A5, split side — does the vector grant the splitting mechanism?
  [[nodiscard]] bool splitting_granted() const {
    return cfg_->flexible == FlexibleBlockSize::kSplitOnly ||
           cfg_->flexible == FlexibleBlockSize::kSplitAndCoalesce;
  }
  /// E2 — when splitting runs.
  [[nodiscard]] SplitWhen split_when() const { return cfg_->split_when; }
  /// E1 — which remainder sizes a split may produce.
  [[nodiscard]] SplitSizes split_sizes() const { return cfg_->split_sizes; }
  /// Deferred-splitting pressure threshold (fixed "via simulation", Sec. 5).
  [[nodiscard]] std::size_t deferred_split_min() const {
    return cfg_->deferred_split_min;
  }

  /// A5, coalesce side — does the vector grant the coalescing mechanism?
  [[nodiscard]] bool coalescing_granted() const {
    return cfg_->flexible == FlexibleBlockSize::kCoalesceOnly ||
           cfg_->flexible == FlexibleBlockSize::kSplitAndCoalesce;
  }
  /// D2 — when coalescing runs.
  [[nodiscard]] CoalesceWhen coalesce_when() const {
    return cfg_->coalesce_when;
  }
  /// D1 — which merged sizes coalescing may produce.
  [[nodiscard]] CoalesceSizes coalesce_sizes() const {
    return cfg_->coalesce_sizes;
  }

 private:
  const DmmConfig* cfg_;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_KNOBS_H
