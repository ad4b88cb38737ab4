#include "dmm/sysmem/system_arena.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DMM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DMM_TEST_ASAN 1
#endif
#endif

namespace dmm::sysmem {
namespace {

TEST(SystemArena, RoundsRequestsToPageSize) {
  SystemArena arena;
  EXPECT_EQ(arena.rounded(1), 4096u);
  EXPECT_EQ(arena.rounded(4096), 4096u);
  EXPECT_EQ(arena.rounded(4097), 8192u);
  EXPECT_EQ(arena.rounded(0), 4096u);
}

TEST(SystemArena, CustomPageSize) {
  SystemArena arena(0, 256);
  EXPECT_EQ(arena.rounded(1), 256u);
  EXPECT_EQ(arena.rounded(257), 512u);
}

TEST(SystemArena, TracksFootprintAndPeak) {
  SystemArena arena;
  std::size_t granted = 0;
  std::byte* a = arena.request(1000, &granted);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(granted, 4096u);
  EXPECT_EQ(arena.footprint(), 4096u);
  std::byte* b = arena.request(5000);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.footprint(), 4096u + 8192u);
  EXPECT_EQ(arena.peak_footprint(), 4096u + 8192u);
  arena.release(a);
  EXPECT_EQ(arena.footprint(), 8192u);
  EXPECT_EQ(arena.peak_footprint(), 4096u + 8192u) << "peak must not shrink";
  arena.release(b);
  EXPECT_EQ(arena.footprint(), 0u);
  EXPECT_EQ(arena.live_chunks(), 0u);
}

TEST(SystemArena, PeakResetsToCurrentOnDemand) {
  SystemArena arena;
  std::byte* a = arena.request(8192);
  std::byte* b = arena.request(8192);
  arena.release(b);
  arena.reset_peak();
  EXPECT_EQ(arena.peak_footprint(), 8192u);
  arena.release(a);
}

TEST(SystemArena, CapacityBudgetRejectsOverflow) {
  SystemArena arena(16 * 1024);
  std::byte* a = arena.request(8 * 1024);
  ASSERT_NE(a, nullptr);
  std::byte* b = arena.request(8 * 1024);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.request(1), nullptr) << "budget exhausted";
  EXPECT_EQ(arena.stats().failed_requests, 1u);
  arena.release(a);
  EXPECT_NE(a = arena.request(4 * 1024), nullptr) << "freed budget reusable";
  arena.release(a);
  arena.release(b);
}

TEST(SystemArena, OwnershipQueries) {
  SystemArena arena;
  std::byte* a = arena.request(100);
  EXPECT_TRUE(arena.owns(a));
  EXPECT_EQ(arena.grant_size(a), 4096u);
  EXPECT_FALSE(arena.owns(a + 1)) << "owns() is exact-base only";
  arena.release(a);
  EXPECT_FALSE(arena.owns(a));
  EXPECT_EQ(arena.grant_size(a), 0u);
}

TEST(SystemArena, ObserverSeesEveryFootprintChange) {
  SystemArena arena;
  std::vector<long long> deltas;
  arena.set_observer([&](const ArenaStats&, long long d) {
    deltas.push_back(d);
  });
  std::byte* a = arena.request(1);
  std::byte* b = arena.request(4097);
  arena.release(a);
  arena.release(b);
  ASSERT_EQ(deltas.size(), 4u);
  EXPECT_EQ(deltas[0], 4096);
  EXPECT_EQ(deltas[1], 8192);
  EXPECT_EQ(deltas[2], -4096);
  EXPECT_EQ(deltas[3], -8192);
}

TEST(SystemArena, StatsCountersAreMonotone) {
  SystemArena arena;
  std::byte* a = arena.request(100);
  std::byte* b = arena.request(100);
  arena.release(a);
  const ArenaStats& s = arena.stats();
  EXPECT_EQ(s.request_count, 2u);
  EXPECT_EQ(s.release_count, 1u);
  EXPECT_EQ(s.total_requested, 8192u);
  EXPECT_EQ(s.total_released, 4096u);
  EXPECT_EQ(s.live_grants(), 1u);
  arena.release(b);
}

TEST(SystemArena, GrantsAreMaxAligned) {
  SystemArena arena;
  for (int i = 0; i < 8; ++i) {
    std::byte* p = arena.request(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  alignof(std::max_align_t),
              0u);
    arena.release(p);
  }
}

// ---------------------------------------------------------------------------
// Slab recycling
// ---------------------------------------------------------------------------

/// True while @p slab_base (page-aligned) is still mapped in this process.
bool is_mapped(const std::byte* slab_base) {
  unsigned char resident = 0;
  return ::mincore(const_cast<std::byte*>(slab_base), 1, &resident) == 0;
}

/// Runs @p fn on a new thread, whose slab cache starts empty, and joins.
template <typename Fn>
void on_fresh_thread(Fn fn) {
  std::thread(std::move(fn)).join();
}

/// Leaves a slab full of 0xA5 in this thread's cache, for the next arena
/// built on this thread; returns its base.
const std::byte* park_dirty_slab() {
  SystemArena arena;
  std::byte* p = arena.request(SystemArena::kSlabResidentBytes);
  std::memset(p, 0xA5, SystemArena::kSlabResidentBytes);
  arena.release(p);
  return arena.slab_base();
}

/// A fixed request/release history; returns every grant's slab offset.
std::vector<std::size_t> carve_offsets(SystemArena& arena) {
  std::vector<std::size_t> offsets;
  std::vector<std::byte*> live;
  for (std::size_t i = 0; i < 24; ++i) {
    std::byte* p = arena.request(((i * 7) % 5 + 1) * 3000);
    offsets.push_back(static_cast<std::size_t>(p - arena.slab_base()));
    live.push_back(p);
    if (i % 3 == 2) {
      arena.release(live[i / 2]);
      live[i / 2] = nullptr;
    }
  }
  for (std::byte* p : live) {
    if (p != nullptr) arena.release(p);
  }
  return offsets;
}

TEST(SystemArenaRecycling, NextArenaOnTheThreadReusesTheSlab) {
  on_fresh_thread([] {
    const std::byte* dirty = park_dirty_slab();
    SystemArena arena;
    std::byte* p = arena.request(4096);
    EXPECT_EQ(arena.slab_base(), dirty);
    // The reused slab is not scrubbed: what the last arena wrote is there.
    EXPECT_EQ(p[0], std::byte{0xA5});
    arena.release(p);
  });
}

TEST(SystemArenaRecycling, RecycledArenaCarvesTheSameOffsetsAsAFreshOne) {
  std::vector<std::size_t> fresh;
  on_fresh_thread([&] {
    SystemArena arena;
    fresh = carve_offsets(arena);
  });
  std::vector<std::size_t> recycled;
  on_fresh_thread([&] {
    const std::byte* dirty = park_dirty_slab();
    SystemArena arena;
    recycled = carve_offsets(arena);
    EXPECT_EQ(arena.slab_base(), dirty);
  });
  EXPECT_EQ(fresh, recycled);
}

/// True while the page at @p page (page-aligned) is resident.
bool is_resident(const std::byte* page) {
  unsigned char resident = 0;
  return ::mincore(const_cast<std::byte*>(page), 1, &resident) == 0 &&
         (resident & 1) != 0;
}

TEST(SystemArenaRecycling, CachedSlabKeepsOnlyItsResidentPrefix) {
  on_fresh_thread([] {
    const std::size_t cap = SystemArena::kSlabResidentBytes;
    const std::byte* base = nullptr;
    {
      SystemArena arena;
      std::byte* p = arena.request(2 * cap);
      std::memset(p, 0xA5, 2 * cap);
      base = arena.slab_base();
      EXPECT_TRUE(is_resident(base + cap));
      arena.release(p);
    }
    EXPECT_TRUE(is_mapped(base)) << "slab parked in the cache";
    EXPECT_TRUE(is_resident(base + cap - 4096));
    EXPECT_FALSE(is_resident(base + cap)) << "pages past the cap dropped";
  });
}

TEST(SystemArenaRecycling, CacheIsBoundedAndUnmappedAtThreadExit) {
  std::vector<const std::byte*> bases;
  on_fresh_thread([&] {
    std::vector<std::unique_ptr<SystemArena>> arenas;
    for (std::size_t i = 0; i <= SystemArena::kCachedSlabsPerThread; ++i) {
      arenas.push_back(std::make_unique<SystemArena>());
      arenas.back()->release(arenas.back()->request(1));
      bases.push_back(arenas.back()->slab_base());
    }
    // Destroyed first to last: the last one finds the cache full.
    for (std::unique_ptr<SystemArena>& arena : arenas) arena.reset();
    for (std::size_t i = 0; i < SystemArena::kCachedSlabsPerThread; ++i) {
      EXPECT_TRUE(is_mapped(bases[i])) << "cached slab " << i;
    }
    EXPECT_FALSE(is_mapped(bases.back())) << "overflow slab must be unmapped";
  });
  for (const std::byte* base : bases) EXPECT_FALSE(is_mapped(base));
}

TEST(SystemArenaRecycling, ArenaDestroyedOnAnotherThreadJoinsThatCache) {
  auto arena = std::make_unique<SystemArena>();
  const std::byte* base = nullptr;
  on_fresh_thread([&] {
    std::byte* p = arena->request(10000);
    std::memset(p, 0x5A, 10000);
    arena->release(p);
    base = arena->slab_base();
  });
  on_fresh_thread([&] {
    arena.reset();
    SystemArena next;
    std::vector<std::size_t> offsets = carve_offsets(next);
    EXPECT_EQ(next.slab_base(), base) << "slab joins the destroying thread";
    EXPECT_EQ(offsets.front(), 0u);
  });
  EXPECT_FALSE(is_mapped(base));
}

TEST(SystemArenaRecycling, ConcurrentChurnKeepsOffsetsDeterministic) {
  std::vector<std::size_t> expected;
  on_fresh_thread([&] {
    SystemArena arena;
    expected = carve_offsets(arena);
  });
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        // Alternate one and two live arenas so both cache slots cycle.
        SystemArena arena;
        if (carve_offsets(arena) != expected) ++mismatches[t];
        if (round % 2 == 1) {
          SystemArena second;
          if (carve_offsets(second) != expected) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

/// Owns an arena from a thread_local that is constructed before the
/// thread's slab cache, so it is destroyed after the cache is torn down.
struct LateArenaOwner {
  std::unique_ptr<SystemArena> arena;
};
thread_local LateArenaOwner t_late_owner;

TEST(SystemArenaRecycling, ArenaOutlivingTheThreadCacheIsUnmapped) {
  const std::byte* late = nullptr;
  const std::byte* cached = nullptr;
  on_fresh_thread([&] {
    t_late_owner.arena = std::make_unique<SystemArena>();
    t_late_owner.arena->release(t_late_owner.arena->request(1));
    late = t_late_owner.arena->slab_base();
    SystemArena other;
    other.release(other.request(1));
    cached = other.slab_base();
  });
  ASSERT_NE(late, cached);
  EXPECT_FALSE(is_mapped(cached)) << "thread exit unmaps the cache";
  EXPECT_FALSE(is_mapped(late)) << "a dead cache must not take the slab";
}

#if DMM_TEST_ASAN
TEST(SystemArenaRecyclingDeathTest, ReadThroughDestroyedArenaTripsAsan) {
  EXPECT_DEATH(
      {
        auto arena = std::make_unique<SystemArena>();
        std::byte* p = arena->request(64);
        p[0] = std::byte{1};
        arena->release(p);
        arena.reset();  // the slab is cached, still mapped, and poisoned
        const volatile std::byte* dangling = p;
        std::byte sink = *dangling;
        (void)sink;
      },
      "use-after-poison");
}
#else
TEST(SystemArenaRecyclingDeathTest, ReadThroughDestroyedArenaTripsAsan) {
  GTEST_SKIP() << "only meaningful under AddressSanitizer";
}
#endif

}  // namespace
}  // namespace dmm::sysmem
