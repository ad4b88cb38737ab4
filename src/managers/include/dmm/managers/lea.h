#ifndef DMM_MANAGERS_LEA_H
#define DMM_MANAGERS_LEA_H

#include <array>
#include <string>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/free_index.h"

namespace dmm::managers {

/// Lea-style allocator (simplified dlmalloc) — the Linux-lineage
/// general-purpose manager of the paper's comparison (Sec. 2/5).
///
/// Structure follows the dlmalloc 2.6 line the paper benchmarked, as
/// characterised in Sec. 5: "huge free-lists of unused blocks ... coalesce
/// and split seldomly":
///   * boundary tags: every block carries a size/status header; free
///     blocks replicate the size in a trailing footer,
///   * 32 exact-spaced small bins (32..280 bytes, step 8) holding
///     doubly-linked LIFO lists, plus one size-sorted large bin (best fit),
///   * *deferred* coalescing: frees go straight to their bin; adjacent
///     free blocks are merged only by a whole-heap sweep triggered when a
///     request cannot be served from the bins or the wilderness —
///     the "seldom" of the paper,
///   * splitting on allocation when the remainder is viable,
///   * requests above the mmap threshold get dedicated chunks returned to
///     the system on free; everything else is retained — dlmalloc trims
///     only the heap top, which our chunked core models by never
///     releasing pool chunks.
///
/// The retention policy is precisely why its Fig. 5 curve plateaus at the
/// high-water mark while the custom manager's tracks the live data.
class LeaAllocator : public alloc::Allocator {
 public:
  explicit LeaAllocator(sysmem::SystemArena& arena,
                        std::size_t chunk_bytes = 64 * 1024,
                        std::size_t mmap_threshold = 256 * 1024);
  ~LeaAllocator() override;

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return "Lea"; }

  [[nodiscard]] std::uint64_t work_steps() const;

 private:
  static constexpr std::size_t kSmallBins = 32;
  static constexpr std::size_t kMinBlock = 32;   // header + 2 links + footer
  static constexpr std::size_t kSmallStep = 8;
  // Small bin i holds blocks of exactly kMinBlock + i*kSmallStep bytes.
  [[nodiscard]] static constexpr int small_bin_for(std::size_t block_size) {
    const std::size_t top = kMinBlock + (kSmallBins - 1) * kSmallStep;
    if (block_size > top) return -1;
    return static_cast<int>((block_size - kMinBlock) / kSmallStep);
  }

  [[nodiscard]] std::size_t block_size_for(std::size_t payload) const;
  [[nodiscard]] std::byte* take_from_bins(std::size_t block_size);
  void put_in_bin(std::byte* block, std::size_t size);
  void unbin(std::byte* block, std::size_t size);
  [[nodiscard]] std::byte* carve(std::size_t block_size);
  /// Deferred coalescing: merges every adjacent free run in every chunk
  /// (and retreats wilderness over trailing runs).  Returns merge count.
  std::size_t coalesce_sweep();

  std::size_t chunk_bytes_;
  std::size_t mmap_threshold_;
  alloc::BlockLayout layout_;
  alloc::ChunkIndex chunk_index_{*arena_};
  std::array<std::unique_ptr<alloc::FreeIndex>, kSmallBins> small_bins_;
  std::unique_ptr<alloc::FreeIndex> large_bin_;
  alloc::ChunkHeader* chunks_ = nullptr;
  alloc::ChunkHeader* carve_chunk_ = nullptr;
};

}  // namespace dmm::managers

#endif  // DMM_MANAGERS_LEA_H
