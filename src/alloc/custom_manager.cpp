#include "dmm/alloc/custom_manager.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "dmm/alloc/config_rules.h"
#include "dmm/alloc/size_class.h"

namespace dmm::alloc {

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::alloc::CustomManager fatal: %s\n", what);
  std::abort();
}
}  // namespace

CustomManager::CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                             std::string name, bool strict_accounting)
    : Allocator(arena),
      cfg_(cfg),
      layout_(BlockLayout::from(cfg)),
      link_bytes_(FreeIndex::link_bytes(knobs_.block_structure())),
      name_(std::move(name)),
      strict_(strict_accounting) {
  if (auto why = unsupported_reason(cfg)) {
    std::fprintf(stderr, "CustomManager: unsupported decision vector: %s\n",
                 why->c_str());
    std::abort();
  }
  if (knobs_.pool_division() == PoolDivision::kPoolPerSizeClass) {
    class_slot_.assign(SizeClass::kCount, -1);
    if (knobs_.pool_count() == PoolCount::kStaticMany) {
      // Pre-create the full class roster (pools only; chunks on demand).
      for (unsigned i = 0; i < SizeClass::kCount; ++i) {
        make_pool(i, class_pool_block_size(i));
      }
    }
  }
  if (knobs_.pool_division() == PoolDivision::kSinglePool) {
    Pool* p = make_pool(0, 0);
    if (knobs_.static_preallocated()) {
      // One up-front grant; afterwards the pool may never grow again.
      if (p->grow_reserve(knobs_.static_pool_bytes()) == nullptr) {
        die("static preallocation exceeds the arena budget");
      }
      static_exhausted_ = true;
    }
  }
}

CustomManager::~CustomManager() {
  // Pools release their chunks in their destructors; dedicated chunks and
  // cached big chunks are ours to return.
  pools_.clear();
  for (ChunkHeader* c : big_cache_) {
    chunk_index_.remove(c);
    arena_->release(c->base());
  }
  // Any still-live dedicated chunk is an application leak; release it so
  // the arena tripwire reports it deterministically in tests via
  // live_chunks() before destruction instead of aborting here.
}

// ---------------------------------------------------------------------------
// chunk traffic
// ---------------------------------------------------------------------------

ChunkHeader* CustomManager::pool_grow(std::size_t min_data_bytes) {
  if (static_exhausted_) return nullptr;
  std::size_t total = sizeof(ChunkHeader) + min_data_bytes;
  const std::size_t chunk_bytes = knobs_.chunk_bytes();
  if (total < chunk_bytes) total = chunk_bytes;
  std::size_t granted = 0;
  std::byte* base = arena_->request(total, &granted);
  if (base == nullptr) return nullptr;
  auto* chunk = reinterpret_cast<ChunkHeader*>(base);
  chunk->init(granted, nullptr);
  chunk_index_.add(chunk);
  return chunk;
}

void CustomManager::pool_release(ChunkHeader* chunk) {
  chunk_index_.remove(chunk);
  arena_->release(chunk->base());
}

Pool* CustomManager::make_pool(std::size_t key,
                               std::size_t fixed_block_size) {
  // The derived-to-private-base conversion must happen here, inside the
  // class scope, not inside std::make_unique.
  PoolHost& host = *this;
  pools_.push_back(
      {key, std::make_unique<Pool>(cfg_, layout_, fixed_block_size, host)});
  const std::size_t slot = pools_.size() - 1;
  if (knobs_.pool_division() == PoolDivision::kPoolPerSizeClass &&
      knobs_.pool_structure() == PoolStructure::kArray) {
    class_slot_[key] = static_cast<int>(slot);
  } else if (knobs_.pool_division() == PoolDivision::kPoolPerExactSize &&
             knobs_.pool_structure() == PoolStructure::kArray) {
    exact_slot_[key] = slot;
  }
  return pools_.back().pool.get();
}

Pool* CustomManager::find_pool(std::size_t key) {
  if (knobs_.pool_structure() == PoolStructure::kArray) {
    if (knobs_.pool_division() == PoolDivision::kPoolPerSizeClass) {
      const int slot = class_slot_[key];
      return slot < 0 ? nullptr
                      : pools_[static_cast<std::size_t>(slot)].pool.get();
    }
    if (knobs_.pool_division() == PoolDivision::kPoolPerExactSize) {
      auto it = exact_slot_.find(key);
      return it == exact_slot_.end() ? nullptr : pools_[it->second].pool.get();
    }
    return pools_.empty() ? nullptr : pools_[0].pool.get();
  }
  // B2 = linked list: linear scan, charged to the work counter.
  for (PoolEntry& e : pools_) {
    ++routing_steps_;
    if (e.key == key) return e.pool.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// request sizing and routing
// ---------------------------------------------------------------------------

std::size_t CustomManager::block_size_for_request(std::size_t payload) const {
  if (payload == 0) payload = 1;
  std::size_t p = align_up(payload);
  if (knobs_.block_sizes() == BlockSizes::kFixedClasses) {
    p = SizeClass::round_to_class(p);
  }
  return layout_.block_size_for(p, link_bytes_);
}

std::size_t CustomManager::class_pool_block_size(unsigned idx) const {
  // Fixed class pools hold blocks sized for the class's payload ceiling;
  // variable class pools (A2 = many) hold the class's payload range.
  return pool_blocks_fixed(cfg_)
             ? layout_.block_size_for(SizeClass::size_of(idx), link_bytes_)
             : 0;
}

CustomManager::Route CustomManager::route(std::size_t request) {
  switch (knobs_.pool_division()) {
    case PoolDivision::kSinglePool:
      return {find_pool(0), block_size_for_request(request)};
    case PoolDivision::kPoolPerSizeClass: {
      const unsigned idx = SizeClass::index_for(align_up(request));
      Pool* p = find_pool(idx);
      if (p == nullptr && knobs_.pool_count() == PoolCount::kDynamic) {
        p = make_pool(idx, class_pool_block_size(idx));
      }
      const std::size_t bs = (p != nullptr && p->is_fixed())
                                 ? p->fixed_block_size()
                                 : block_size_for_request(request);
      return {p, bs};
    }
    case PoolDivision::kPoolPerExactSize: {
      const std::size_t bs = block_size_for_request(request);
      Pool* p = find_pool(bs);
      if (p == nullptr) p = make_pool(bs, bs);
      return {p, bs};
    }
  }
  return {nullptr, 0};
}

// ---------------------------------------------------------------------------
// the malloc/free surface
// ---------------------------------------------------------------------------

void* CustomManager::allocate(std::size_t bytes) {
  const std::size_t request = bytes == 0 ? 1 : bytes;
  if (!knobs_.static_preallocated() && request >= knobs_.big_request_bytes()) {
    return big_allocate(request);
  }
  const Route r = route(request);
  if (r.pool == nullptr) {
    ++stats_.failed_allocs;
    return nullptr;
  }
  std::byte* block = r.pool->allocate_block(r.block_size);
  if (block == nullptr) {
    ++stats_.failed_allocs;
    return nullptr;
  }
  void* payload = layout_.payload(block);
  // Non-strict accounting books block capacity (the pool may have handed
  // out a larger, unsplit block); deallocate mirrors this exactly.
  note_alloc(strict_ ? request
                     : layout_.live_payload(r.pool->block_size_of(block)));
  if (strict_) {
    auto [it, inserted] = requested_.emplace(payload, request);
    if (!inserted) die("allocator handed out a live pointer twice");
  }
  return payload;
}

void CustomManager::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  ChunkHeader* chunk = chunk_index_.find(ptr);
  if (chunk == nullptr) die("deallocate: pointer not owned by this manager");
  std::size_t request_hint = 0;
  if (strict_) {
    auto it = requested_.find(ptr);
    if (it == requested_.end()) die("deallocate: double free or wild free");
    request_hint = it->second;
    requested_.erase(it);
  }
  if (chunk->owner == nullptr) {
    const std::size_t payload =
        strict_ ? request_hint
                : layout_.live_payload(chunk->chunk_size - sizeof(ChunkHeader));
    note_free(payload);
    big_deallocate(chunk, ptr);
    return;
  }
  Pool* pool = chunk->owner;
  std::byte* block = layout_.block_of(ptr);
  const std::size_t block_size = pool->block_size_of(block);
  note_free(strict_ ? request_hint : layout_.live_payload(block_size));
  pool->free_block(block, block_size, chunk);
}

// ---------------------------------------------------------------------------
// dedicated-chunk path for big requests
// ---------------------------------------------------------------------------

void* CustomManager::big_allocate(std::size_t payload) {
  const std::size_t need =
      layout_.block_size_for(align_up(payload), link_bytes_);
  ChunkHeader* chunk = nullptr;
  // Reuse a cached dedicated chunk when the manager never shrinks.
  for (std::size_t i = 0; i < big_cache_.size(); ++i) {
    ++routing_steps_;
    ChunkHeader* c = big_cache_[i];
    if (c->data_bytes() >= need) {
      chunk = c;
      big_cache_[i] = big_cache_.back();
      big_cache_.pop_back();
      big_cache_bytes_ -= c->chunk_size;
      break;
    }
  }
  if (chunk == nullptr) {
    std::size_t granted = 0;
    std::byte* base = arena_->request(sizeof(ChunkHeader) + need, &granted);
    if (base == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
    chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    chunk_index_.add(chunk);
    ++stats_.chunks_grown;
  }
  chunk->live_blocks = 1;
  chunk->bump = chunk->chunk_size;  // the whole data area is the block
  std::byte* block = chunk->data();
  layout_.write_header(block, chunk->data_bytes(), /*free=*/false);
  void* p = layout_.payload(block);
  note_alloc(strict_ ? payload : layout_.live_payload(chunk->data_bytes()));
  if (strict_) {
    auto [it, inserted] = requested_.emplace(p, payload);
    if (!inserted) die("allocator handed out a live pointer twice");
  }
  return p;
}

void CustomManager::big_deallocate(ChunkHeader* chunk, void* ptr) {
  if (layout_.block_of(static_cast<std::byte*>(ptr)) != chunk->data() ||
      chunk->live_blocks != 1) {
    die("big_deallocate: pointer does not match its dedicated chunk");
  }
  chunk->live_blocks = 0;
  // Shrink decision point: B4 decides between releasing and caching the
  // now-empty dedicated chunk — the accessor read notes kShrink here.
  if (knobs_.releases_empty_chunks()) {
    ++stats_.chunks_released;
    pool_release(chunk);
  } else {
    big_cache_.push_back(chunk);
    big_cache_bytes_ += chunk->chunk_size;
  }
}

// ---------------------------------------------------------------------------

std::size_t CustomManager::usable_size(const void* ptr) const {
  ChunkHeader* chunk = chunk_index_.find(ptr);
  if (chunk == nullptr) die("usable_size: pointer not owned by this manager");
  if (chunk->owner == nullptr) {
    return layout_.live_payload(chunk->data_bytes());
  }
  const std::byte* block = layout_.block_of(ptr);
  return layout_.live_payload(chunk->owner->block_size_of(block));
}

std::uint64_t CustomManager::work_steps() const {
  std::uint64_t steps = routing_steps_;
  for (const PoolEntry& e : pools_) steps += e.pool->index().scan_steps();
  return steps;
}

CustomManager::FootprintBreakdown CustomManager::breakdown() const {
  FootprintBreakdown b;
  b.footprint = arena_->footprint();
  b.live_payload = stats_.live_bytes;
  b.header_overhead = stats_.live_blocks * layout_.header_bytes();
  for (const PoolEntry& e : pools_) {
    b.free_cached += e.pool->index().bytes();
    for (ChunkHeader* c = e.pool->chunks(); c != nullptr; c = c->next) {
      b.chunk_headers += sizeof(ChunkHeader);
      b.wilderness += c->wilderness_bytes();
    }
  }
  // Dedicated live chunks contribute their header too.
  b.chunk_headers +=
      (chunk_index_.size() -
       (b.chunk_headers / sizeof(ChunkHeader)) - big_cache_.size()) *
      sizeof(ChunkHeader);
  b.big_cache = big_cache_bytes_;
  // Page-rounding slack of the arena is attributed to the wilderness of
  // nothing in particular; fold it into internal fragmentation (residue).
  return b;
}

void CustomManager::check_integrity() const {
  for (const PoolEntry& e : pools_) e.pool->check_integrity();
  if (strict_ && requested_.size() != stats_.live_blocks) {
    die("integrity: live block count diverged from pointer registry");
  }
}

}  // namespace dmm::alloc
