#ifndef DMM_ALLOC_FREE_INDEX_H
#define DMM_ALLOC_FREE_INDEX_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/knobs.h"

namespace dmm::alloc {

/// Free-block structure of a pool: the runtime realisation of tree A1
/// (block structure DDT), honouring tree C2 (free-list ordering) and
/// serving tree C1 (fit algorithms).
///
/// All link words live *inside the payload of the free blocks themselves*
/// (in-band), so the index adds no per-block footprint beyond the minimum
/// free-block size — exactly how the paper's managers are built.
///
/// Block sizes come either from the block header (tree A4) or from the
/// pool's fixed block size when blocks carry no tags — the index reads
/// them directly through the layout, keeping the hot path call-free.
///
/// The C1/C2 knobs are read through KnobView (see knobs.h), and only at
/// genuine decision points: the ordering knob when a block joins a
/// non-empty index, the fit knob when at least two candidate blocks
/// coexist (one, for trees, whose policies already diverge on a single
/// node).
///
/// The index counts traversal steps (`scan_steps`) as an
/// architecture-neutral work measure used by the performance benches.
class FreeIndex {
 public:
  /// Config-driven mode, for pools executing a decision vector.
  /// @param ddt         tree A1 leaf (fixed at construction)
  /// @param knobs       knob view serving C1/C2 reads (must outlive
  ///                    the index; self-ordering DDTs override its C2)
  /// @param layout      block layout (header offset and size field)
  /// @param fixed_size  pool's fixed block size; 0 = read from headers
  FreeIndex(BlockStructure ddt, KnobView knobs, const BlockLayout& layout,
            std::size_t fixed_size);

  /// Pinned-policy mode, for fixed reference managers (Lea/Kingsley) and
  /// unit tests whose policies are compile-time constants rather than
  /// DmmConfig knobs: the ordering is given here, the fit per call
  /// through the explicit take_fit overload.
  FreeIndex(BlockStructure ddt, FreeListOrder pinned_order,
            const BlockLayout& layout, std::size_t fixed_size);

  FreeIndex(const FreeIndex&) = delete;
  FreeIndex& operator=(const FreeIndex&) = delete;

  /// Bytes of in-payload link space the DDT needs per free block.
  [[nodiscard]] static std::size_t link_bytes(BlockStructure ddt);

  /// Threads @p block into the structure.
  void insert(std::byte* block);

  /// Unthreads @p block.  Aborts if the block is not present (tripwire).
  void remove(std::byte* block);

  /// Finds a block satisfying @p need bytes per the C1 fit knob, unthreads
  /// and returns it; nullptr if no free block fits.  Reads the knob iff
  /// the policy could matter (two coexisting blocks; one for trees).
  /// Config-driven mode only — aborts on a pinned-policy index.
  [[nodiscard]] std::byte* take_fit(std::size_t need);

  /// Explicit-policy take for pinned-policy indexes (and tests probing a
  /// specific fit).  Reads no knob.
  [[nodiscard]] std::byte* take_fit(std::size_t need, FitAlgorithm fit);

  /// Unthreads and returns any block (used when draining a pool).
  [[nodiscard]] std::byte* pop_any();

  /// Linear/structural membership test — O(n), for tests and tripwires.
  [[nodiscard]] bool contains(const std::byte* block) const;

  /// Visits every free block (unspecified order).
  void for_each(const std::function<void(std::byte*)>& fn) const;

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint64_t scan_steps() const { return scan_steps_; }

  [[nodiscard]] BlockStructure structure() const { return ddt_; }
  /// Effective C2 discipline: the config's ordering knob, overridden to
  /// size-ordered by self-ordering DDTs.
  [[nodiscard]] FreeListOrder order() const { return discipline(); }

 private:
  // --- in-payload node overlays ---
  struct ListNode;  // next [, prev]
  struct TreeNode;  // left, right, parent

  [[nodiscard]] ListNode* list_node(std::byte* b) const;
  [[nodiscard]] TreeNode* tree_node(std::byte* b) const;
  [[nodiscard]] std::size_t size_of(const std::byte* b) const {
    return fixed_size_ != 0 ? fixed_size_ : layout_.read_size(b);
  }
  [[nodiscard]] bool doubly_linked() const;
  [[nodiscard]] bool sorted_by_size() const;
  [[nodiscard]] FreeListOrder discipline() const;

  // list primitives
  void list_push_front(std::byte* b);
  void list_push_back(std::byte* b);
  void list_insert_sorted(std::byte* b, bool by_size);
  void list_unlink(std::byte* b, std::byte* prev_hint);
  [[nodiscard]] std::byte* list_prev_of(std::byte* b) const;  // O(n) for SLL
  [[nodiscard]] std::byte* list_take(std::size_t need, FitAlgorithm fit);

  // tree primitives (BST keyed by (size, address))
  void tree_insert(std::byte* b);
  void tree_remove(std::byte* b);
  [[nodiscard]] std::byte* tree_take(std::size_t need, FitAlgorithm fit);
  [[nodiscard]] bool tree_key_less(const std::byte* a,
                                   const std::byte* b) const;

  BlockStructure ddt_;
  /// Engaged in config-driven mode; pinned-policy indexes use
  /// pinned_order_ and the explicit-fit overload instead.
  std::optional<KnobView> knobs_;
  FreeListOrder pinned_order_ = FreeListOrder::kLIFO;
  std::size_t link_offset_;
  BlockLayout layout_;
  std::size_t fixed_size_;

  std::byte* head_ = nullptr;
  std::byte* tail_ = nullptr;
  std::byte* cursor_ = nullptr;  ///< next-fit roving pointer
  std::byte* root_ = nullptr;    ///< BST root
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  mutable std::uint64_t scan_steps_ = 0;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_FREE_INDEX_H
