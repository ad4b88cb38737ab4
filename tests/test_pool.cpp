// Direct Pool-level tests: carving, splitting, coalescing (immediate and
// deferred), wilderness retreat, empty-chunk release — through a fake
// PoolHost so every chunk interaction is visible.  Also the ChunkIndex
// page table the hosts resolve blocks through.

#include "dmm/alloc/pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "dmm/alloc/size_class.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::alloc {
namespace {

class FakeHost : public PoolHost {
 public:
  explicit FakeHost(std::size_t chunk_bytes = 16 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  ~FakeHost() override {
    // Pools release through pool_release; anything left is a test bug
    // surfaced by the arena's live_chunks() check in the test body.
  }

  ChunkHeader* pool_grow(std::size_t min_data_bytes) override {
    std::size_t total = sizeof(ChunkHeader) + min_data_bytes;
    if (total < chunk_bytes_) total = chunk_bytes_;
    std::size_t granted = 0;
    std::byte* base = arena_.request(total, &granted);
    if (base == nullptr) return nullptr;
    auto* chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    index_.add(chunk);
    ++grows;
    return chunk;
  }

  void pool_release(ChunkHeader* chunk) override {
    index_.remove(chunk);
    arena_.release(chunk->base());
    ++releases;
  }

  ChunkHeader* pool_find_chunk(const void* p) override {
    return index_.find(p);
  }

  AllocatorStats& pool_stats() override { return stats; }

  sysmem::SystemArena& arena() { return arena_; }

  AllocatorStats stats;
  int grows = 0;
  int releases = 0;

 private:
  std::size_t chunk_bytes_;
  sysmem::SystemArena arena_;
  ChunkIndex index_{arena_};
};

DmmConfig variable_cfg() {
  DmmConfig c = drr_paper_config();
  c.chunk_bytes = 16 * 1024;
  return c;
}

TEST(Pool, CarvesFromWildernessAndGrowsOnDemand) {
  FakeHost host;
  const DmmConfig cfg = variable_cfg();
  {
    Pool pool(cfg, BlockLayout::from(cfg), 0, host);
    std::vector<std::byte*> blocks;
    // 16 KiB chunk minus header = 16336; 100 x 160-byte blocks need two.
    for (int i = 0; i < 110; ++i) {
      std::byte* b = pool.allocate_block(160);
      ASSERT_NE(b, nullptr);
      blocks.push_back(b);
    }
    EXPECT_EQ(host.grows, 2);
    EXPECT_EQ(pool.live_blocks(), 110u);
    pool.check_integrity();
    ChunkHeader* chunk = host.pool_find_chunk(blocks[0]);
    for (std::byte* b : blocks) {
      pool.free_block(b, pool.block_size_of(b),
                      host.pool_find_chunk(b));
    }
    (void)chunk;
  }
  EXPECT_EQ(host.arena().live_chunks(), 0u);
}

TEST(Pool, ImmediateCoalesceMergesRunsBidirectionally) {
  FakeHost host;
  const DmmConfig cfg = variable_cfg();
  Pool pool(cfg, BlockLayout::from(cfg), 0, host);
  // a | b | c | barrier — free a, c, then b: b must bridge a and c.
  std::byte* a = pool.allocate_block(256);
  std::byte* b = pool.allocate_block(256);
  std::byte* c = pool.allocate_block(256);
  std::byte* barrier = pool.allocate_block(256);
  ChunkHeader* chunk = host.pool_find_chunk(a);
  pool.free_block(a, 256, chunk);
  pool.free_block(c, 256, chunk);
  EXPECT_EQ(pool.index().count(), 2u);
  pool.free_block(b, 256, chunk);
  EXPECT_EQ(pool.index().count(), 1u) << "a+b+c merged into one block";
  EXPECT_EQ(pool.index().bytes(), 768u);
  pool.check_integrity();
  pool.free_block(barrier, 256, chunk);
}

TEST(Pool, WildernessRetreatInsteadOfTrailingFreeBlock) {
  FakeHost host;
  const DmmConfig cfg = variable_cfg();
  Pool pool(cfg, BlockLayout::from(cfg), 0, host);
  std::byte* a = pool.allocate_block(256);
  std::byte* b = pool.allocate_block(256);  // b touches the wilderness
  ChunkHeader* chunk = host.pool_find_chunk(a);
  const std::size_t bump_before = chunk->bump;
  pool.free_block(b, 256, chunk);
  EXPECT_EQ(chunk->bump, bump_before - 256) << "bump retreats over b";
  EXPECT_EQ(pool.index().count(), 0u) << "no free block threaded";
  pool.free_block(a, 256, chunk);
}

TEST(Pool, EmptyChunkReleasedOnlyWithGrowShrink) {
  for (PoolAdaptivity adaptivity :
       {PoolAdaptivity::kGrowOnly, PoolAdaptivity::kGrowAndShrink}) {
    FakeHost host;
    DmmConfig cfg = variable_cfg();
    cfg.adaptivity = adaptivity;
    Pool pool(cfg, BlockLayout::from(cfg), 0, host);
    std::byte* a = pool.allocate_block(512);
    ChunkHeader* chunk = host.pool_find_chunk(a);
    pool.free_block(a, 512, chunk);
    if (adaptivity == PoolAdaptivity::kGrowAndShrink) {
      EXPECT_EQ(host.releases, 1) << "empty chunk goes back";
      EXPECT_EQ(pool.chunk_count(), 0u);
    } else {
      EXPECT_EQ(host.releases, 0) << "grow-only retains";
      EXPECT_EQ(pool.chunk_count(), 1u);
    }
  }
}

TEST(Pool, DeferredSweepBridgesScatteredFrees) {
  FakeHost host;
  DmmConfig cfg = variable_cfg();
  cfg.coalesce_when = CoalesceWhen::kDeferred;
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;
  Pool pool(cfg, BlockLayout::from(cfg), 0, host);
  std::vector<std::byte*> blocks;
  for (int i = 0; i < 32; ++i) blocks.push_back(pool.allocate_block(256));
  ChunkHeader* chunk = host.pool_find_chunk(blocks[0]);
  // Free all but the last (it guards the wilderness edge).
  for (int i = 0; i < 31; ++i) {
    pool.free_block(blocks[static_cast<std::size_t>(i)], 256, chunk);
  }
  EXPECT_EQ(pool.index().count(), 31u) << "deferred: nothing merged yet";
  const std::size_t merges = pool.coalesce_sweep();
  EXPECT_GT(merges, 0u);
  EXPECT_EQ(pool.index().count(), 1u) << "one 31-block run";
  EXPECT_EQ(pool.index().bytes(), 31u * 256);
  pool.check_integrity();
  pool.free_block(blocks[31], 256, chunk);
}

TEST(Pool, FixedPoolServesUniformBlocks) {
  FakeHost host;
  DmmConfig cfg = fig4_wrong_order_config();  // no tags, fixed pools
  cfg.chunk_bytes = 16 * 1024;
  Pool pool(cfg, BlockLayout::from(cfg), /*fixed_block_size=*/128, host);
  std::byte* a = pool.allocate_block(128);
  std::byte* b = pool.allocate_block(128);
  EXPECT_EQ(pool.block_size_of(a), 128u) << "size from pool membership";
  EXPECT_EQ(b - a, 128) << "uniform grid";
  ChunkHeader* chunk = host.pool_find_chunk(a);
  pool.free_block(a, 128, chunk);
  std::byte* c = pool.allocate_block(128);
  EXPECT_EQ(c, a) << "free list recycles the slot";
  pool.free_block(b, 128, chunk);
  pool.free_block(c, 128, chunk);
}

TEST(Pool, SplitHonoursMinimumViableRemainder) {
  FakeHost host;
  const DmmConfig cfg = variable_cfg();
  const BlockLayout layout = BlockLayout::from(cfg);
  Pool pool(cfg, layout, 0, host);
  std::byte* big = pool.allocate_block(512);
  std::byte* barrier = pool.allocate_block(64);
  ChunkHeader* chunk = host.pool_find_chunk(big);
  pool.free_block(big, 512, chunk);
  // Request leaving a remainder below min_block: no split, whole block.
  const std::size_t min_block =
      layout.min_block_size(FreeIndex::link_bytes(cfg.block_structure));
  std::byte* taken = pool.allocate_block(512 - min_block + 8);
  EXPECT_EQ(taken, big);
  EXPECT_EQ(pool.block_size_of(taken), 512u)
      << "sliver remainders stay attached (internal fragmentation)";
  pool.free_block(taken, 512, chunk);
  pool.free_block(barrier, 64, chunk);
}

TEST(Pool, BoundedSplitProducesClassSizedRemainders) {
  FakeHost host;
  DmmConfig cfg = variable_cfg();
  cfg.split_sizes = SplitSizes::kBoundedByClass;
  Pool pool(cfg, BlockLayout::from(cfg), 0, host);
  std::byte* big = pool.allocate_block(1000);
  std::byte* barrier = pool.allocate_block(64);
  ChunkHeader* chunk = host.pool_find_chunk(big);
  pool.free_block(big, 1000, chunk);
  // 1000-block for a 200 request: remainder 800 rounds down to 512.
  std::byte* taken = pool.allocate_block(200);
  EXPECT_EQ(taken, big);
  EXPECT_EQ(pool.block_size_of(taken), 1000u - 512u)
      << "E1 bounded: remainder is the class size 512, gap stays attached";
  EXPECT_EQ(pool.index().bytes(), 512u);
  std::byte* rem = pool.index().take_fit(512, FitAlgorithm::kBestFit);
  ASSERT_NE(rem, nullptr);
  pool.index().insert(rem);
  pool.free_block(taken, pool.block_size_of(taken), chunk);
  pool.free_block(barrier, 64, chunk);
}

TEST(Pool, GrowReserveProvisionsWithoutAllocating) {
  FakeHost host;
  const DmmConfig cfg = variable_cfg();
  Pool pool(cfg, BlockLayout::from(cfg), 0, host);
  ASSERT_NE(pool.grow_reserve(64 * 1024), nullptr);
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_GE(host.arena().footprint(), 64u * 1024);
  std::byte* b = pool.allocate_block(1024);
  EXPECT_EQ(host.grows, 1) << "the reserve serves the allocation";
  pool.free_block(b, 1024, host.pool_find_chunk(b));
}

TEST(ChunkIndex, ResolvesEveryByteOfAChunk) {
  // A page below the 16-byte carve grain: a chunk's last granule then
  // reaches past its end.
  sysmem::SystemArena arena(0, 8);
  ChunkIndex index(arena);
  int outside = 0;
  EXPECT_EQ(index.find(&outside), nullptr) << "no slab mapped yet";
  std::vector<ChunkHeader*> chunks;
  for (const std::size_t size : {120, 64, 4096}) {
    std::size_t granted = 0;
    std::byte* base = arena.request(size, &granted);
    ASSERT_NE(base, nullptr);
    auto* c = reinterpret_cast<ChunkHeader*>(base);
    c->init(granted, nullptr);
    chunks.push_back(c);
  }
  // Indexed out of address order.
  for (const std::size_t i : {2, 0, 1}) index.add(chunks[i]);
  EXPECT_EQ(index.size(), 3u);
  for (ChunkHeader* c : chunks) {
    EXPECT_EQ(index.find(c->base()), c);
    EXPECT_EQ(index.find(c->end() - 1), c);
  }
  EXPECT_EQ(index.find(chunks[0]->end()), nullptr) << "grain padding";
  EXPECT_EQ(index.find(chunks[2]->end()), nullptr) << "past the last chunk";
  EXPECT_EQ(index.find(&outside), nullptr);

  index.remove(chunks[1]);
  EXPECT_EQ(index.find(chunks[1]->base()), nullptr);
  EXPECT_EQ(index.find(chunks[0]->base()), chunks[0]);
  EXPECT_EQ(index.size(), 2u);
  for (ChunkHeader* c : chunks) arena.release(c->base());
}

}  // namespace
}  // namespace dmm::alloc
