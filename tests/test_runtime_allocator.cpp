// The deployable runtime front (runtime/designed_allocator.h): malloc/
// free/realloc semantics, thread-cache behaviour, the cache-off replay
// parity that anchors bench_runtime's peak gate, and the concurrent
// integrity stress the TSan job runs.

#include "dmm/runtime/designed_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"
#include "dmm/workloads/workload.h"

namespace dmm::runtime {
namespace {

TEST(DesignedAllocator, MallocFreeBasics) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(100);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 100u);
  std::memset(p, 0xAB, 100);
  a.free(p);
  a.free(nullptr);  // no-op per the malloc contract
}

TEST(DesignedAllocator, ZeroByteRequestYieldsAUniqueBlock) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(0);
  void* q = a.malloc(0);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_NE(p, q);
  a.free(p);
  a.free(q);
}

TEST(DesignedAllocator, UsableSizeIsZeroForForeignPointers) {
  DesignedAllocator a(alloc::drr_paper_config());
  int local = 0;
  EXPECT_EQ(a.usable_size(&local), 0u);
  EXPECT_EQ(a.usable_size(nullptr), 0u);
}

TEST(DesignedAllocator, UsableSizeIsZeroForCachedAndInteriorPointers) {
  DesignedAllocator a(alloc::drr_paper_config());
  auto* p = static_cast<std::byte*>(a.malloc(128));
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 128u);
  EXPECT_EQ(a.usable_size(p + 16), 0u) << "interior pointer";
  EXPECT_EQ(a.usable_size(p + 3), 0u) << "misaligned pointer";
  a.free(p);  // parks the block in the thread cache
  EXPECT_EQ(a.usable_size(p), 0u) << "a cached block is not live";
  void* q = a.malloc(128);
  ASSERT_EQ(q, p);
  EXPECT_GE(a.usable_size(q), 128u);
  a.free(q);
}

TEST(DesignedAllocator, ReallocGrowsPreservingContents) {
  DesignedAllocator a(alloc::drr_paper_config());
  char* p = static_cast<char*>(a.malloc(64));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 64; ++i) p[i] = static_cast<char>(i);
  char* q = static_cast<char*>(a.realloc(p, 4096));
  ASSERT_NE(q, nullptr);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(q[i], static_cast<char>(i)) << "byte " << i;
  }
  a.free(q);
}

TEST(DesignedAllocator, ReallocNullptrActsAsMalloc) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.realloc(nullptr, 128);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 128u);
  a.free(p);
}

TEST(DesignedAllocator, ReallocToZeroFrees) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.realloc(p, 0), nullptr);
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.alloc_count, t.free_count);
  EXPECT_EQ(t.bytes_live, 0u);
}

TEST(DesignedAllocator, ReallocWithinCapacityStaysInPlace) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(200);
  ASSERT_NE(p, nullptr);
  const std::size_t cap = a.usable_size(p);
  // Shrinking (and growing back within the granted capacity) must not
  // move the block.
  EXPECT_EQ(a.realloc(p, 50), p);
  EXPECT_EQ(a.realloc(p, cap), p);
  a.free(p);
}

TEST(DesignedAllocator, FreedBlockIsServedBackFromTheThreadCache) {
  DesignedAllocator a(alloc::drr_paper_config());
  // A class-sized request: the granted capacity files into the same bin
  // the next request of that size pops from.
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  ASSERT_GE(a.usable_size(p), 128u);
  a.free(p);
  void* q = a.malloc(128);
  EXPECT_EQ(q, p) << "same size class, same thread: cache must serve it";
  EXPECT_EQ(a.telemetry().cache_hits, 1u);
  a.free(q);
}

TEST(DesignedAllocator, CacheNeverServesABlockTooSmallForTheRequest) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* small = a.malloc(32);
  ASSERT_NE(small, nullptr);
  a.free(small);
  void* big = a.malloc(4000);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(a.usable_size(big), 4000u);
  a.free(big);
}

TEST(DesignedAllocator, TrimReturnsTheCallingThreadsCache) {
  DesignedAllocator a(alloc::drr_paper_config());
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(a.malloc(64));
  for (void* p : blocks) a.free(p);
  a.trim();
  // After a trim the cache is empty: the next alloc is a core miss.
  const std::uint64_t hits_before = a.telemetry().cache_hits;
  void* p = a.malloc(64);
  EXPECT_EQ(a.telemetry().cache_hits, hits_before);
  a.free(p);
}

TEST(DesignedAllocator, DisabledCacheForwardsEverythingToTheCore) {
  RuntimeOptions opts;
  opts.thread_cache_bytes = 0;
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  void* p = a.malloc(100);
  ASSERT_NE(p, nullptr);
  a.free(p);
  void* q = a.malloc(100);
  ASSERT_NE(q, nullptr);
  a.free(q);
  EXPECT_EQ(a.telemetry().cache_hits, 0u);
}

TEST(DesignedAllocator, TelemetryTracksLiveBytesAndPeak) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(1000);
  void* q = a.malloc(500);
  TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.alloc_count, 2u);
  EXPECT_EQ(t.bytes_live, 1500u);
  EXPECT_EQ(t.peak_bytes_live, 1500u);
  a.free(q);
  t = a.telemetry();
  EXPECT_EQ(t.bytes_live, 1000u);
  EXPECT_EQ(t.peak_bytes_live, 1500u) << "peak is monotone";
  a.free(p);
  t = a.telemetry();
  EXPECT_EQ(t.bytes_live, 0u);
  EXPECT_EQ(t.free_count, 2u);
}

/// Replays @p trace through the front (id -> pointer map like the
/// simulator's), returning the arena peak the deployment actually imposed.
std::size_t replay_through_front(const core::AllocTrace& trace,
                                 DesignedAllocator& a) {
  std::unordered_map<std::uint32_t, void*> live;
  for (const core::AllocEvent& e : trace.events()) {
    if (e.op == core::AllocEvent::Op::kAlloc) {
      void* p = a.malloc(e.size);
      if (p != nullptr) live[e.id] = p;
    } else {
      const auto it = live.find(e.id);
      if (it != live.end()) {
        a.free(it->second);
        live.erase(it);
      }
    }
  }
  for (const auto& [id, p] : live) a.free(p);
  return a.telemetry().arena.peak_footprint;
}

TEST(DesignedAllocator, CacheOffReplayMatchesTheSimulatedPeakExactly) {
  // The determinism escape hatch: with caching disabled the front forwards
  // calls 1:1 to the policy core, so a single-threaded replay must hit the
  // arena in exactly the simulator's order — equal peaks to the byte.
  // This is the designed-bound gate bench_runtime enforces in CI.
  core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  if (trace.events().size() > 20000) {
    trace.events().resize(20000);
    trace.close_leaks();
  }
  const alloc::DmmConfig cfg = alloc::drr_paper_config();

  sysmem::SystemArena arena;
  alloc::PolicyCore core(arena, cfg, "parity", /*strict_accounting=*/false);
  const core::SimResult sim = core::simulate(trace, core);

  RuntimeOptions opts;
  opts.thread_cache_bytes = 0;
  DesignedAllocator front(cfg, opts);
  const std::size_t deployed_peak = replay_through_front(trace, front);

  EXPECT_EQ(deployed_peak, sim.peak_footprint);
}

TEST(DesignedAllocator, CrossThreadFreeIsSafe) {
  DesignedAllocator a(alloc::drr_paper_config());
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) {
    void* p = a.malloc(64 + 8 * static_cast<std::size_t>(i));
    ASSERT_NE(p, nullptr);
    blocks.push_back(p);
  }
  std::thread t([&a, &blocks] {
    for (void* p : blocks) a.free(p);
  });
  t.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
}

TEST(DesignedAllocator, ThreadExitDrainsItsCacheBackToTheAllocator) {
  DesignedAllocator a(alloc::drr_paper_config());
  std::thread t([&a] {
    std::vector<void*> blocks;
    for (int i = 0; i < 32; ++i) blocks.push_back(a.malloc(128));
    for (void* p : blocks) a.free(p);
    // Thread exits with a warm cache; the TLS destructor must flush it.
  });
  t.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
  // The allocator can be destroyed and reused after the thread is gone —
  // covered by leaving scope here and by the stress below.
}

TEST(DesignedAllocator, ConcurrentIntegrityStress) {
  // The TSan workhorse: several threads hammer malloc/free/realloc with a
  // per-block fill pattern; any lost update, double serve, or overlap
  // corrupts a pattern and fails loudly.
  DesignedAllocator a(alloc::drr_paper_config());
  constexpr unsigned kThreads = 4;
  constexpr int kSteps = 4000;
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&a, tid] {
      std::vector<std::pair<unsigned char*, std::size_t>> live;
      unsigned rng = 97 * (tid + 1);
      const auto fill = [tid](unsigned char* p, std::size_t n) {
        std::memset(p, 0x40 + static_cast<int>(tid), n);
      };
      const auto check = [tid](const unsigned char* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(p[i], 0x40 + tid) << "corrupted block";
        }
      };
      for (int step = 0; step < kSteps; ++step) {
        rng = rng * 1664525u + 1013904223u;
        const unsigned action = rng % 8;
        if (live.empty() || action < 4) {
          const std::size_t n = 8 + rng % 3000;
          auto* p = static_cast<unsigned char*>(a.malloc(n));
          if (p != nullptr) {
            fill(p, n);
            live.emplace_back(p, n);
          }
        } else if (action < 7) {
          const std::size_t at = rng % live.size();
          check(live[at].first, live[at].second);
          a.free(live[at].first);
          live[at] = live.back();
          live.pop_back();
        } else {
          const std::size_t at = rng % live.size();
          check(live[at].first, live[at].second);
          const std::size_t n = 8 + rng % 6000;
          auto* p = static_cast<unsigned char*>(
              a.realloc(live[at].first, n));
          if (p != nullptr) {
            fill(p, n);
            live[at] = {p, n};
          }
        }
      }
      for (const auto& [p, n] : live) {
        check(p, n);
        a.free(p);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count) << "no allocation lost";
  EXPECT_EQ(snap.bytes_live, 0u);
}

TEST(DesignedAllocator, CrossThreadHandoffStress) {
  // Every thread hands a share of its blocks to the next one, which checks
  // the fill and frees them into its own cache; its later mallocs then pop
  // blocks other threads allocated, and realloc moves or resizes blocks in
  // between.  A lost update in the block table or a cache serving a block
  // twice breaks some fill pattern.
  DesignedAllocator a(alloc::drr_paper_config());
  constexpr unsigned kThreads = 4;
  constexpr int kSteps = 6000;
  struct Block {
    unsigned char* ptr;
    std::size_t size;
    unsigned char tag;
  };
  struct Inbox {
    std::mutex mu;
    std::vector<Block> blocks;
  };
  std::vector<Inbox> inboxes(kThreads);
  const auto check = [](const Block& b) {
    for (std::size_t i = 0; i < b.size; ++i) {
      ASSERT_EQ(b.ptr[i], b.tag) << "corrupted block";
    }
  };
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      const auto tag = static_cast<unsigned char>(0x60 + tid);
      std::vector<Block> live;
      unsigned rng = 31 * (tid + 7);
      const auto drain_inbox = [&] {
        std::vector<Block> received;
        {
          const std::lock_guard<std::mutex> lock(inboxes[tid].mu);
          received.swap(inboxes[tid].blocks);
        }
        for (const Block& b : received) {
          check(b);
          a.free(b.ptr);
        }
      };
      for (int step = 0; step < kSteps; ++step) {
        rng = rng * 1664525u + 1013904223u;
        const unsigned action = (rng >> 8) % 10;
        if (live.empty() || action < 4) {
          const std::size_t n = 1 + (rng >> 12) % 600;
          auto* p = static_cast<unsigned char*>(a.malloc(n));
          ASSERT_NE(p, nullptr);
          std::memset(p, tag, n);
          live.push_back({p, n, tag});
        } else if (action < 6) {
          const std::size_t at = (rng >> 12) % live.size();
          Inbox& next = inboxes[(tid + 1) % kThreads];
          {
            const std::lock_guard<std::mutex> lock(next.mu);
            next.blocks.push_back(live[at]);
          }
          live[at] = live.back();
          live.pop_back();
        } else if (action < 8) {
          const std::size_t at = (rng >> 12) % live.size();
          check(live[at]);
          a.free(live[at].ptr);
          live[at] = live.back();
          live.pop_back();
        } else {
          Block& b = live[(rng >> 12) % live.size()];
          check(b);
          const std::size_t n = 1 + (rng >> 4) % 1200;
          auto* p = static_cast<unsigned char*>(a.realloc(b.ptr, n));
          ASSERT_NE(p, nullptr);
          for (std::size_t i = 0; i < std::min(n, b.size); ++i) {
            ASSERT_EQ(p[i], tag) << "realloc lost contents";
          }
          std::memset(p, tag, n);
          b = {p, n, tag};
        }
        if (step % 64 == 0) drain_inbox();
      }
      for (const Block& b : live) {
        check(b);
        a.free(b.ptr);
      }
      drain_inbox();
    });
  }
  for (std::thread& w : workers) w.join();
  // Blocks handed over after their receiver's last drain.
  for (Inbox& inbox : inboxes) {
    for (const Block& b : inbox.blocks) {
      check(b);
      a.free(b.ptr);
    }
  }
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count) << "no allocation lost";
  EXPECT_EQ(snap.bytes_live, 0u);
  EXPECT_GT(snap.cache_hits, 0u);
}

TEST(DesignedAllocator, DestroyedAllocatorsLeaveNoCacheShellsBehind) {
  // A thread that outlives many allocators must not keep one cache shell
  // per destroyed allocator: it reclaims an orphaned shell the next time
  // it looks up a cache.
  std::size_t most_shells = 0;
  std::thread t([&most_shells] {
    for (int i = 0; i < 1000; ++i) {
      DesignedAllocator a(alloc::drr_paper_config());
      void* p = a.malloc(64);
      ASSERT_NE(p, nullptr);
      a.free(p);
      const std::size_t shells = DesignedAllocator::thread_cache_shells();
      most_shells = std::max(most_shells, shells);
    }
  });
  t.join();
  EXPECT_EQ(most_shells, 1u);
}

// ---------------------------------------------------------------------------
// Tripwires: frees the front cannot have handed out abort with the
// corruption message instead of corrupting the core.
// ---------------------------------------------------------------------------

TEST(DesignedAllocatorDeathTest, InteriorPointerFreeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  auto* p = static_cast<std::byte*>(a.malloc(256));
  ASSERT_NE(p, nullptr);
  EXPECT_DEATH({ a.free(p + 64); }, "wild or double free");
  a.free(p);
}

TEST(DesignedAllocatorDeathTest, MisalignedPointerFreeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  auto* p = static_cast<std::byte*>(a.malloc(256));
  ASSERT_NE(p, nullptr);
  EXPECT_DEATH({ a.free(p + 3); }, "wild or double free");
  a.free(p);
}

TEST(DesignedAllocatorDeathTest, PointerOutsideTheSlabAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  static int outside = 0;
  // Before the arena has mapped its slab, and after.
  EXPECT_DEATH({ a.free(&outside); }, "wild or double free");
  void* p = a.malloc(64);
  ASSERT_NE(p, nullptr);
  EXPECT_DEATH({ a.free(&outside); }, "wild or double free");
  a.free(p);
}

TEST(DesignedAllocatorDeathTest, PointerIntoAReleasedChunkAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  // A big request gets a dedicated chunk; grow-and-shrink hands the chunk
  // back to the arena on free.
  auto* p = static_cast<std::byte*>(a.malloc(1 << 20));
  ASSERT_NE(p, nullptr);
  const std::size_t held = a.telemetry().arena.current_footprint;
  a.free(p);
  ASSERT_LT(a.telemetry().arena.current_footprint, held)
      << "the chunk went back to the arena";
  EXPECT_DEATH({ a.free(p); }, "wild or double free");
  EXPECT_DEATH({ a.free(p + 4096); }, "wild or double free");
}

TEST(DesignedAllocatorDeathTest, DoubleFreeOfALiveSizedBlockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());  // caches on
  // Too big to cache: the first free returns it to the core at once.
  void* p = a.malloc(16 * 1024);
  ASSERT_NE(p, nullptr);
  a.free(p);
  EXPECT_DEATH({ a.free(p); }, "wild or double free");
}

TEST(DesignedAllocatorDeathTest, ReallocOfACachedBlockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  a.free(p);  // cached
  EXPECT_DEATH({ (void)a.realloc(p, 64); },
               "realloc of a pointer this allocator does not own");
}

}  // namespace
}  // namespace dmm::runtime
