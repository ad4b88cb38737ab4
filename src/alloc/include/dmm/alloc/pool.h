#ifndef DMM_ALLOC_POOL_H
#define DMM_ALLOC_POOL_H

#include <cstddef>
#include <functional>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/free_index.h"
#include "dmm/alloc/knobs.h"

namespace dmm::alloc {

/// One memory pool (the paper's "memory region"): a set of chunks plus a
/// free structure, executing the block-level mechanisms of the decision
/// vector — carving, fit (C1/C2 via FreeIndex), splitting (E1/E2) and
/// coalescing (D1/D2) — within its chunks.
///
/// Pools are *fixed-size* (every block has the same total size; size and
/// status can then be inferred from pool membership alone — the escape
/// hatch the Fig. 3 interdependency needs when A3 = none) or
/// *variable-size* (sizes read from block headers; requires A4 size info).
///
/// Growth/shrink traffic with the arena goes through the owner-provided
/// hooks so the manager can centralise chunk indexing and accounting.
/// Chunk services a Pool needs from its owning manager.  A plain virtual
/// interface (not std::function) — these sit on the allocation hot path.
class PoolHost {
 public:
  virtual ~PoolHost() = default;
  /// Obtains a fresh chunk whose data area holds >= min_data_bytes.
  virtual ChunkHeader* pool_grow(std::size_t min_data_bytes) = 0;
  /// Returns an empty chunk to the arena.
  virtual void pool_release(ChunkHeader* chunk) = 0;
  /// Resolves the chunk containing a block (manager's ChunkIndex).
  [[nodiscard]] virtual ChunkHeader* pool_find_chunk(const void* p) = 0;
  /// Shared mechanism counters (splits/coalesces/...).
  [[nodiscard]] virtual AllocatorStats& pool_stats() = 0;
};

class Pool {
 public:
  /// @param fixed_block_size  0 = variable-size pool; otherwise every
  ///        block in the pool has exactly this total size.
  Pool(const DmmConfig& cfg, const BlockLayout& layout,
       std::size_t fixed_block_size, PoolHost& host);

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool();

  /// Allocates a block of @p block_size total bytes (header included).
  /// For fixed pools @p block_size must equal fixed_block_size().
  /// Returns the block base (not the payload), or nullptr if the pool
  /// cannot grow.
  [[nodiscard]] std::byte* allocate_block(std::size_t block_size);

  /// Releases a block back to the pool.  @p chunk must be the chunk that
  /// contains it (the manager resolves it through its ChunkIndex).
  void free_block(std::byte* block, std::size_t block_size,
                  ChunkHeader* chunk);

  /// Deferred-coalescing sweep over all chunks: merges every run of
  /// adjacent free blocks and retreats wilderness over trailing runs.
  /// Returns the number of merges performed.
  std::size_t coalesce_sweep();

  /// Grows the pool by one chunk holding at least @p data_bytes of data
  /// without allocating from it (used for static preallocation).
  /// Returns the chunk, or nullptr if the arena refuses.
  ChunkHeader* grow_reserve(std::size_t data_bytes);

  /// Size of the block starting at @p block, via header or fixed size.
  [[nodiscard]] std::size_t block_size_of(const std::byte* block) const;

  [[nodiscard]] std::size_t fixed_block_size() const { return fixed_size_; }
  [[nodiscard]] bool is_fixed() const { return fixed_size_ != 0; }
  [[nodiscard]] FreeIndex& index() { return index_; }
  [[nodiscard]] const FreeIndex& index() const { return index_; }
  [[nodiscard]] ChunkHeader* chunks() const { return chunks_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::size_t live_blocks() const { return live_blocks_; }

  /// Walks every carved block of @p chunk in address order.
  void walk_chunk(ChunkHeader* chunk,
                  const std::function<void(std::byte*, std::size_t, bool)>&
                      fn) const;  // (block, size, is_free)

  /// Consistency tripwire used by tests: verifies that carved blocks tile
  /// each chunk exactly and that free bookkeeping matches the index.
  void check_integrity() const;

 private:
  [[nodiscard]] std::byte* carve(std::size_t block_size);
  /// Splits @p block (size @p have) for a @p need -byte allocation; the
  /// remainder becomes a free block.  Returns the allocated part's size.
  std::size_t split_block(std::byte* block, std::size_t have,
                          std::size_t need, ChunkHeader* chunk);
  [[nodiscard]] std::size_t try_coalesce(std::byte*& block, std::size_t size,
                                         ChunkHeader* chunk);
  void make_free(std::byte* block, std::size_t size, ChunkHeader* chunk);
  void mark_allocated(std::byte* block, std::size_t size, ChunkHeader* chunk);
  void release_chunk_if_empty(ChunkHeader* chunk);
  void set_prev_free_of_next(std::byte* block, std::size_t size,
                             ChunkHeader* chunk, bool prev_free);
  [[nodiscard]] bool split_allowed(std::size_t have, std::size_t need) const;
  [[nodiscard]] bool remainder_ok(std::size_t remainder) const;

  KnobView knobs_;   ///< the decision vector's knobs (see knobs.h)
  BlockLayout layout_;
  std::size_t fixed_size_;
  std::size_t min_block_;
  PoolHost& host_;
  FreeIndex index_;
  ChunkHeader* chunks_ = nullptr;   ///< doubly-linked chunk list
  ChunkHeader* carve_chunk_ = nullptr;  ///< chunk currently bump-carved
  std::size_t chunk_count_ = 0;
  std::size_t live_blocks_ = 0;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_POOL_H
