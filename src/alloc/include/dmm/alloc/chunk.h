#ifndef DMM_ALLOC_CHUNK_H
#define DMM_ALLOC_CHUNK_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dmm/sysmem/system_arena.h"

namespace dmm::alloc {

class Pool;

/// In-band header at the start of every chunk a manager obtains from the
/// SystemArena.  Blocks are carved from the *data area* behind the header;
/// the not-yet-carved tail is the chunk's "wilderness":
///
///   [ChunkHeader | carved blocks ........ | wilderness ............ ]
///   base          data()                   base+bump                end()
///
/// The header is part of the chunk, so pool bookkeeping is charged to the
/// footprint exactly like the paper's "organization overhead".
struct alignas(16) ChunkHeader {
  std::size_t chunk_size = 0;   ///< total bytes including this header
  std::size_t bump = 0;         ///< offset of the wilderness start
  std::size_t live_blocks = 0;  ///< allocated (not freed) blocks inside
  Pool* owner = nullptr;        ///< owning pool; nullptr = dedicated chunk
  ChunkHeader* next = nullptr;  ///< pool's chunk list
  ChunkHeader* prev = nullptr;

  [[nodiscard]] std::byte* base() { return reinterpret_cast<std::byte*>(this); }
  [[nodiscard]] const std::byte* base() const {
    return reinterpret_cast<const std::byte*>(this);
  }
  [[nodiscard]] std::byte* data() { return base() + sizeof(ChunkHeader); }
  [[nodiscard]] const std::byte* data() const {
    return base() + sizeof(ChunkHeader);
  }
  [[nodiscard]] std::byte* end() { return base() + chunk_size; }
  [[nodiscard]] const std::byte* end() const { return base() + chunk_size; }
  [[nodiscard]] std::byte* wilderness() { return base() + bump; }
  [[nodiscard]] std::size_t wilderness_bytes() const {
    return chunk_size - bump;
  }
  [[nodiscard]] std::size_t data_bytes() const {
    return chunk_size - sizeof(ChunkHeader);
  }
  /// True iff @p p points inside this chunk's data area.
  [[nodiscard]] bool contains(const void* p) const {
    auto* q = static_cast<const std::byte*>(p);
    return q >= data() && q < end();
  }

  void init(std::size_t total_size, Pool* pool) {
    chunk_size = total_size;
    bump = sizeof(ChunkHeader);
    live_blocks = 0;
    owner = pool;
    next = prev = nullptr;
  }
};

static_assert(sizeof(ChunkHeader) % 16 == 0,
              "chunk header must preserve block alignment");

/// Address index over live chunks: pointer -> owning chunk, in O(1).
///
/// Every chunk is an arena grant, so its base sits at a slab offset that is
/// a multiple of the arena's page size (and of its 16-byte carve grain).
/// The index is a page table over the slab: one entry per granule of
/// max(page size, 16) bytes, each naming the chunk that covers it.  It
/// grows with the slab extent the chunks reach, never with the arena's
/// reservation.  A production allocator derives the chunk base by address
/// masking instead; this is bookkeeping the real system gets for free and
/// is therefore not charged to the footprint.
class ChunkIndex {
 public:
  explicit ChunkIndex(const sysmem::SystemArena& arena)
      : arena_(&arena), shift_(granule_shift(arena.page_size())) {}

  void add(ChunkHeader* chunk) {
    const std::size_t first = granule_of(chunk->base());
    const std::size_t last = granule_of(chunk->end() - 1);
    if (last >= table_.size()) table_.resize(last + 1, nullptr);
    std::fill(&table_[first], &table_[last] + 1, chunk);
    ++size_;
  }

  void remove(ChunkHeader* chunk) {
    const std::size_t first = granule_of(chunk->base());
    const std::size_t last = granule_of(chunk->end() - 1);
    std::fill(&table_[first], &table_[last] + 1, nullptr);
    --size_;
  }

  /// Chunk whose [base, end) range contains @p p, or nullptr.
  [[nodiscard]] ChunkHeader* find(const void* p) const {
    const std::byte* slab = arena_->slab_base();
    if (slab == nullptr) return nullptr;
    // dmm-lint: allow(ptr-order): slab-relative offset, not an ordering
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    // dmm-lint: allow(ptr-order): slab-relative offset, not an ordering
    const std::uintptr_t offset = addr - reinterpret_cast<std::uintptr_t>(slab);
    const std::uintptr_t granule = offset >> shift_;
    if (granule >= table_.size()) return nullptr;
    ChunkHeader* c = table_[granule];
    // The last granule of a chunk may extend past its end when the page
    // size is below the 16-byte grain.
    if (c == nullptr || static_cast<const std::byte*>(p) >= c->end()) {
      return nullptr;
    }
    return c;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  [[nodiscard]] static unsigned granule_shift(std::size_t page_size) {
    const std::size_t granule = std::max<std::size_t>(page_size, 16);
    return static_cast<unsigned>(std::countr_zero(granule));
  }

  [[nodiscard]] std::size_t granule_of(const std::byte* p) const {
    return static_cast<std::size_t>(p - arena_->slab_base()) >> shift_;
  }

  const sysmem::SystemArena* arena_;
  unsigned shift_;
  std::vector<ChunkHeader*> table_;  ///< granule -> covering chunk
  std::size_t size_ = 0;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CHUNK_H
