#include "dmm/alloc/pool.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

#include "dmm/alloc/size_class.h"

namespace dmm::alloc {

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::alloc::Pool fatal: %s\n", what);
  std::abort();
}

bool is_class_size(std::size_t s) { return s != 0 && (s & (s - 1)) == 0; }
}  // namespace

Pool::Pool(const DmmConfig& cfg, const BlockLayout& layout,
           std::size_t fixed_block_size, PoolHost& host)
    : knobs_(cfg),
      layout_(layout),
      fixed_size_(fixed_block_size),
      min_block_(layout.min_block_size(
          FreeIndex::link_bytes(knobs_.block_structure()))),
      host_(host),
      index_(knobs_.block_structure(), knobs_, layout, fixed_block_size) {
  if (fixed_size_ != 0 && fixed_size_ < min_block_) {
    die("fixed block size below the minimum viable free-block size");
  }
}

Pool::~Pool() {
  // Hand every chunk back so the arena's leak tripwire stays green.
  ChunkHeader* c = chunks_;
  while (c != nullptr) {
    ChunkHeader* next = c->next;
    host_.pool_release(c);
    c = next;
  }
}

std::size_t Pool::block_size_of(const std::byte* block) const {
  if (fixed_size_ != 0) return fixed_size_;
  const std::size_t sz = layout_.read_size(block);
  if (sz == 0) die("variable-size pool without size information in blocks");
  return sz;
}

bool Pool::remainder_ok(std::size_t remainder) const {
  if (remainder < min_block_) return false;
  if (knobs_.split_sizes() == SplitSizes::kBoundedByClass) {
    return is_class_size(remainder) &&
           remainder <= (std::size_t{1} << knobs_.max_class_log2());
  }
  return true;
}

bool Pool::split_allowed(std::size_t have, std::size_t need) const {
  if (is_fixed()) return false;  // fixed pools never split (sizes invariant)
  if (!knobs_.splitting_granted()) return false;
  switch (knobs_.split_when()) {
    case SplitWhen::kNever:
      return false;
    case SplitWhen::kDeferred:
      // Deferred splitting: only bother for remainders large enough to
      // matter (the pressure threshold fixed "via simulation", Sec. 5).
      return have - need >= knobs_.deferred_split_min();
    case SplitWhen::kAlways:
      return have - need >= min_block_;
  }
  return false;
}

std::size_t Pool::split_block(std::byte* block, std::size_t have,
                              std::size_t need, ChunkHeader* chunk) {
  const std::size_t remainder = have - need;
  std::size_t rem_size = remainder;
  if (knobs_.split_sizes() == SplitSizes::kBoundedByClass) {
    // E1 bounded: the produced block must be one of the fixed class sizes;
    // round the remainder down and leave the gap glued to the allocated
    // part (internal fragmentation — the cost of bounding E1).
    rem_size = std::size_t{1} << (std::bit_width(remainder) - 1);
    const std::size_t cap = std::size_t{1} << knobs_.max_class_log2();
    if (rem_size > cap) rem_size = cap;
  }
  if (!remainder_ok(rem_size)) return have;
  std::byte* rem_block = block + (have - rem_size);
  make_free(rem_block, rem_size, chunk);
  ++host_.pool_stats().splits;
  return have - rem_size;  // size the allocated part keeps
}

ChunkHeader* Pool::grow_reserve(std::size_t data_bytes) {
  ChunkHeader* fresh = host_.pool_grow(data_bytes);
  if (fresh == nullptr) return nullptr;  // arena budget exhausted
  fresh->owner = this;
  fresh->next = chunks_;
  fresh->prev = nullptr;
  if (chunks_ != nullptr) chunks_->prev = fresh;
  chunks_ = fresh;
  ++chunk_count_;
  carve_chunk_ = fresh;
  ++host_.pool_stats().chunks_grown;
  return fresh;
}

std::byte* Pool::carve(std::size_t block_size) {
  if (carve_chunk_ == nullptr ||
      carve_chunk_->wilderness_bytes() < block_size) {
    carve_chunk_ = nullptr;
    for (ChunkHeader* c = chunks_; c != nullptr; c = c->next) {
      if (c->wilderness_bytes() >= block_size) {
        carve_chunk_ = c;
        break;
      }
    }
  }
  if (carve_chunk_ == nullptr && grow_reserve(block_size) == nullptr) {
    return nullptr;
  }
  std::byte* block = carve_chunk_->wilderness();
  carve_chunk_->bump += block_size;
  return block;
}

std::byte* Pool::allocate_block(std::size_t block_size) {
  if (fixed_size_ != 0 && block_size != fixed_size_) {
    die("fixed-size pool asked for a foreign block size");
  }
  std::byte* block = index_.take_fit(block_size);
  // Coalescing decision point (alloc side): a failed fit over a non-empty
  // variable index is where a deferred-coalescing config would defragment.
  // With an empty index a sweep is a no-op, so the count guard changes no
  // behaviour.
  if (block == nullptr && !is_fixed() && index_.count() > 0 &&
      knobs_.coalescing_granted() &&
      knobs_.coalesce_when() == CoalesceWhen::kDeferred) {
    // Deferred coalescing: defragment only when the request would
    // otherwise force the pool to grow.
    if (coalesce_sweep() > 0) {
      block = index_.take_fit(block_size);
    }
  }
  std::size_t final_size = block_size;
  ChunkHeader* chunk = nullptr;
  if (block != nullptr) {
    chunk = host_.pool_find_chunk(block);
    const std::size_t have = block_size_of(block);
    final_size = have;
    // Splitting decision point: a reused block larger than the request is
    // where the E-knobs (and A5) choose whether to carve a remainder.
    if (have > block_size && split_allowed(have, block_size)) {
      final_size = split_block(block, have, block_size, chunk);
    }
  } else {
    block = carve(block_size);
    if (block == nullptr) return nullptr;
    chunk = carve_chunk_;
  }
  mark_allocated(block, final_size, chunk);
  return block;
}

void Pool::free_block(std::byte* block, std::size_t block_size,
                      ChunkHeader* chunk) {
  if (chunk == nullptr || chunk->owner != this) {
    die("free_block: chunk does not belong to this pool");
  }
  // Coalescing decision point (free side): the D/A5 knob reads are gated on
  // a merge with a neighbour or the wilderness actually being possible —
  // freeing a block with no free neighbour behaves identically under every
  // D-knob (try_coalesce would fall straight through), so it must not pin
  // the divergence analysis to the first free.
  bool merge_possible = false;
  if (!is_fixed()) {
    std::byte* next = block + block_size;
    merge_possible = next == chunk->wilderness();
    if (!merge_possible && next < chunk->wilderness() &&
        layout_.records_status() && layout_.read_free(next)) {
      merge_possible = true;
    }
    if (!merge_possible && layout_.has_footer() &&
        layout_.read_prev_free(block)) {
      merge_possible = true;
    }
  }
  --live_blocks_;
  --chunk->live_blocks;
  std::size_t size = block_size;
  if (merge_possible && knobs_.coalescing_granted() &&
      knobs_.coalesce_when() == CoalesceWhen::kAlways) {
    size = try_coalesce(block, size, chunk);
  }
  make_free(block, size, chunk);
  release_chunk_if_empty(chunk);
}

std::size_t Pool::try_coalesce(std::byte*& block, std::size_t size,
                               ChunkHeader* chunk) {
  const std::size_t cap = std::size_t{1} << knobs_.max_class_log2();
  const CoalesceSizes coalesce_sizes = knobs_.coalesce_sizes();
  auto merge_allowed = [&](std::size_t merged) {
    if (coalesce_sizes == CoalesceSizes::kNotFixed) return true;
    // D1 bounded: only class-valid merged sizes up to the ceiling.
    return is_class_size(merged) && merged <= cap;
  };
  // Forward: absorb the successor while it is free.
  for (;;) {
    std::byte* next = block + size;
    if (next >= chunk->wilderness()) break;
    if (!layout_.read_free(next)) break;
    const std::size_t nsz = block_size_of(next);
    if (!merge_allowed(size + nsz)) break;
    index_.remove(next);
    size += nsz;
    ++host_.pool_stats().coalesces;
  }
  // Backward: follow the boundary footer while the predecessor is free.
  if (layout_.has_footer()) {
    while (layout_.read_prev_free(block)) {
      const std::size_t psz = layout_.read_footer_size(block);
      if (psz == 0 || block - psz < chunk->data()) break;
      std::byte* prev = block - psz;
      if (!merge_allowed(size + psz)) break;
      index_.remove(prev);
      // Inherit the predecessor's own prev-free bit for the loop test.
      const bool prev_prev_free = layout_.read_prev_free(prev);
      block = prev;
      size += psz;
      ++host_.pool_stats().coalesces;
      if (!prev_prev_free) break;
    }
  }
  return size;
}

void Pool::make_free(std::byte* block, std::size_t size, ChunkHeader* chunk) {
  // Immediate-coalescing configs retreat the wilderness here instead of
  // threading a trailing free block — a D-knob decision point that is also
  // reached from split_block's remainder, so the knob reads sit under
  // exactly the block-touches-wilderness gate.
  if (!is_fixed() && block + size == chunk->wilderness()) {
    if (knobs_.coalescing_granted() &&
        knobs_.coalesce_when() == CoalesceWhen::kAlways) {
      // Merge into the wilderness instead of threading a trailing free
      // block — this is what lets an adaptive pool ever become empty.
      chunk->bump -= size;
      ++host_.pool_stats().coalesces;
      return;
    }
  }
  layout_.write_header(block, size, /*free=*/true, /*prev_free=*/false);
  layout_.write_footer(block, size);
  set_prev_free_of_next(block, size, chunk, true);
  index_.insert(block);
}

void Pool::mark_allocated(std::byte* block, std::size_t size,
                          ChunkHeader* chunk) {
  layout_.write_header(block, size, /*free=*/false, /*prev_free=*/false);
  set_prev_free_of_next(block, size, chunk, false);
  ++live_blocks_;
  ++chunk->live_blocks;
}

void Pool::set_prev_free_of_next(std::byte* block, std::size_t size,
                                 ChunkHeader* chunk, bool prev_free) {
  std::byte* next = block + size;
  if (next < chunk->wilderness()) layout_.set_prev_free(next, prev_free);
}

void Pool::release_chunk_if_empty(ChunkHeader* chunk) {
  // Shrink decision point: an empty chunk is where the B4 adaptivity knob
  // decides between returning memory and keeping it cached.
  if (chunk->live_blocks != 0) return;
  if (!knobs_.releases_empty_chunks()) return;
  // Drain the chunk's free blocks (all of its blocks) from the index, then
  // hand it back.  A plain walk: this runs on every empty-chunk release,
  // too often for walk_chunk's indirect call per block.
  std::byte* const end = chunk->wilderness();
  for (std::byte* pos = chunk->data(); pos < end;) {
    const std::size_t sz = block_size_of(pos);
    if (sz == 0 || pos + sz > end) die("walk_chunk: corrupt block grid");
    index_.remove(pos);
    pos += sz;
  }
  if (carve_chunk_ == chunk) carve_chunk_ = nullptr;
  if (chunk->prev != nullptr) chunk->prev->next = chunk->next;
  if (chunk->next != nullptr) chunk->next->prev = chunk->prev;
  if (chunks_ == chunk) chunks_ = chunk->next;
  --chunk_count_;
  ++host_.pool_stats().chunks_released;
  host_.pool_release(chunk);
}

void Pool::walk_chunk(
    ChunkHeader* chunk,
    const std::function<void(std::byte*, std::size_t, bool)>& fn) const {
  std::byte* pos = chunk->data();
  std::byte* end = chunk->wilderness();
  while (pos < end) {
    const std::size_t sz = block_size_of(pos);
    if (sz == 0 || pos + sz > end) die("walk_chunk: corrupt block grid");
    fn(pos, sz, layout_.read_free(pos));
    pos += sz;
  }
}

std::size_t Pool::coalesce_sweep() {
  std::size_t merges = 0;
  const std::size_t cap = std::size_t{1} << knobs_.max_class_log2();
  const CoalesceSizes coalesce_sizes = knobs_.coalesce_sizes();
  auto merged_ok = [&](std::size_t s) {
    if (coalesce_sizes == CoalesceSizes::kNotFixed) return true;
    return is_class_size(s) && s <= cap;
  };
  for (ChunkHeader* chunk = chunks_; chunk != nullptr; chunk = chunk->next) {
    std::byte* pos = chunk->data();
    std::byte* run_start = nullptr;
    std::size_t run_size = 0;
    std::size_t run_blocks = 0;
    bool prev_free = false;

    auto flush_run = [&](bool into_wilderness) {
      if (run_start == nullptr) return;
      if (into_wilderness) {
        chunk->bump -= run_size;
        merges += run_blocks;  // blocks absorbed by the wilderness
      } else if (run_blocks > 1 && merged_ok(run_size)) {
        layout_.write_header(run_start, run_size, true, false);
        layout_.write_footer(run_start, run_size);
        index_.insert(run_start);
        merges += run_blocks - 1;
      } else {
        // Re-thread the run unmerged (single block, or D1 forbids).
        std::byte* p = run_start;
        std::size_t left = run_size;
        while (left > 0) {
          const std::size_t sz = block_size_of(p);
          index_.insert(p);
          p += sz;
          left -= sz;
        }
      }
      run_start = nullptr;
      run_size = 0;
      run_blocks = 0;
    };

    while (pos < chunk->wilderness()) {
      const std::size_t sz = block_size_of(pos);
      const bool is_free = layout_.read_free(pos);
      if (is_free) {
        index_.remove(pos);
        if (run_start == nullptr) run_start = pos;
        run_size += sz;
        ++run_blocks;
        prev_free = true;
      } else {
        flush_run(false);
        layout_.set_prev_free(pos, prev_free);
        prev_free = false;
      }
      pos += sz;
      // flush_run(false) may have re-threaded blocks; pos is unaffected.
      if (is_free && pos == chunk->wilderness()) {
        flush_run(/*into_wilderness=*/true);
      }
    }
    flush_run(false);
  }
  host_.pool_stats().coalesces += merges;
  return merges;
}

void Pool::check_integrity() const {
  std::size_t free_blocks_walked = 0;
  std::size_t free_bytes_walked = 0;
  std::size_t live_walked = 0;
  for (ChunkHeader* chunk = chunks_; chunk != nullptr; chunk = chunk->next) {
    if (chunk->owner != this) die("integrity: chunk owner mismatch");
    std::size_t live_in_chunk = 0;
    walk_chunk(chunk, [&](std::byte* b, std::size_t sz, bool is_free) {
      if (layout_.records_status()) {
        if (is_free) {
          ++free_blocks_walked;
          free_bytes_walked += sz;
          if (!index_.contains(b)) die("integrity: free block not indexed");
        } else {
          ++live_in_chunk;
        }
      }
    });
    if (layout_.records_status() && live_in_chunk != chunk->live_blocks) {
      die("integrity: chunk live_blocks mismatch");
    }
    live_walked += live_in_chunk;
  }
  if (layout_.records_status()) {
    if (free_blocks_walked != index_.count()) {
      die("integrity: index count mismatch");
    }
    if (free_bytes_walked != index_.bytes()) {
      die("integrity: index bytes mismatch");
    }
    if (live_walked != live_blocks_) die("integrity: pool live mismatch");
  }
}

}  // namespace dmm::alloc
