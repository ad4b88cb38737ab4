#ifndef DMM_RUNTIME_DESIGNED_ALLOCATOR_H
#define DMM_RUNTIME_DESIGNED_ALLOCATOR_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/runtime/oom.h"
#include "dmm/runtime/telemetry.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::runtime {

// ---------------------------------------------------------------------------
// The deployable front over the designed policy core.
//
// The methodology's product (alloc::CustomManager — see alloc/policy_core.h
// for the split) is a deterministic, single-threaded policy core: exactly
// what replay scoring needs, and exactly NOT what live traffic needs.
// DesignedAllocator wraps one core instance with the three things
// deployment adds and design must never see:
//
//   * concurrency  — the core runs under one short spin lock; per-thread
//     caches of freed blocks absorb the fast path so the designed pool
//     layout stays exactly as the offline search scored it while
//     concurrent alloc/free is safe.  Each block's state (live or cached),
//     capacity and requested size sit in one atomic word of a table keyed
//     by the block's offset in the arena slab, so a cache hit, a cached
//     free, realloc in place and usable_size take no lock and allocate
//     nothing.  Caches are bounded (bytes + per-bin entries) and recycle a
//     block only for requests its capacity is known to satisfy, so cache
//     hits never widen a block beyond what the core already granted.
//   * failure policy — the core reports exhaustion as nullptr; the front
//     turns that into the configured OOM contract (oom.h) after first
//     reclaiming the calling thread's cache back into the core.
//   * telemetry   — relaxed-atomic counters riding the arena's accounting
//     (telemetry.h), snapshot-readable from any thread mid-traffic.
//
// Determinism escape hatch: with RuntimeOptions::thread_cache_bytes == 0
// every call forwards straight to the core under the lock, so a
// single-threaded replay through the front touches the arena in exactly
// the order the simulator did — bench_runtime uses this to check the
// deployed peak footprint against the designed bound to the byte.
// ---------------------------------------------------------------------------

struct RuntimeOptions {
  /// Arena budget in bytes (0 = unlimited), like the embedded device's
  /// physical memory.  The OOM policy decides what exhaustion means.
  std::size_t arena_capacity_bytes = 0;

  OomPolicy oom_policy = OomPolicy::kNull;
  /// Release-and-retry hook for OomPolicy::kCallback (ignored otherwise).
  OomCallback oom_callback;
  /// Max callback invocations per failing allocation before giving up.
  unsigned oom_retry_limit = 8;

  /// Per-thread cache budget in bytes; 0 disables caching entirely
  /// (every call serialises on the core — the deterministic replay mode).
  std::size_t thread_cache_bytes = 256 * 1024;
  /// Cap on entries per size-class bin of one thread cache.
  std::size_t thread_cache_bin_entries = 32;
};

class DesignedAllocator {
 public:
  /// @p cfg must be a deployable vector (no hard rule violations — the
  /// core aborts otherwise, same contract as CustomManager).  Artifacts
  /// loaded via load_config_artifact() are pre-validated.
  explicit DesignedAllocator(const alloc::DmmConfig& cfg,
                             RuntimeOptions opts = {});
  DesignedAllocator(const DesignedAllocator&) = delete;
  DesignedAllocator& operator=(const DesignedAllocator&) = delete;

  /// Flushes every thread's cache back into the core.  Threads must be
  /// done with this allocator (quiescent or joined) before destruction.
  ~DesignedAllocator();

  /// malloc contract: never nullptr for a satisfiable request; on
  /// exhaustion the configured OOM policy decides (die / nullptr /
  /// callback-retry).  A zero-byte request allocates one byte.
  [[nodiscard]] void* malloc(std::size_t bytes);

  /// free contract: nullptr is a no-op; a pointer this allocator does not
  /// own, or a double free, aborts (memory-corruption tripwire, same
  /// stance as the arena).  Any thread may free any pointer.
  void free(void* ptr);

  /// realloc contract: nullptr -> malloc, size 0 -> free + nullptr,
  /// shrink/grow within the block's capacity is in place, otherwise
  /// allocate-copy-free.  On allocation failure the old block is intact
  /// and nullptr is returned (kNull/callback-exhausted policies).
  [[nodiscard]] void* realloc(void* ptr, std::size_t bytes);

  /// Capacity of a live block (>= the requested size); 0 for pointers this
  /// allocator does not currently own.
  [[nodiscard]] std::size_t usable_size(const void* ptr) const;

  /// Counter snapshot plus the designed arena's accounting; callable from
  /// any thread while traffic is in flight.
  [[nodiscard]] TelemetrySnapshot telemetry() const;

  /// Returns every block cached by the *calling* thread to the core
  /// (what an OOM callback typically wants to do first).
  void trim();

  /// Fault-injection seam (tests): the next @p failures core allocations
  /// fail as if the arena were exhausted, driving the OOM path without
  /// needing a full arena.
  void inject_arena_exhaustion(std::uint64_t failures);

  /// Thread-cache shells the calling thread holds, including ones left by
  /// destroyed allocators that it has not yet reclaimed (tests).
  [[nodiscard]] static std::size_t thread_cache_shells();

  [[nodiscard]] const alloc::DmmConfig& config() const {
    return core_.config();
  }

 private:
  struct ThreadCache;  // defined in designed_allocator.cpp
  friend struct ThreadCacheRegistry;

  /// Serialises the policy core and its arena.  A critical section is one
  /// core call (a few hundred ns), so waiters spin briefly and then yield
  /// instead of sleeping in the kernel the way a contended mutex does.
  class CoreLock {
   public:
    void lock() {
      unsigned spins = 0;
      while (held_.exchange(true, std::memory_order_acquire)) {
        while (held_.load(std::memory_order_relaxed)) {
          if (spins < kSpinsBeforeYield) {
            ++spins;
            pause();
          } else {
            std::this_thread::yield();
          }
        }
      }
    }
    void unlock() { held_.store(false, std::memory_order_release); }

   private:
    static constexpr unsigned kSpinsBeforeYield = 128;
    static void pause() {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    std::atomic<bool> held_{false};
  };

  /// One atomic word per 8-byte granule of the arena slab, describing the
  /// block whose payload starts there: live or cached, its capacity (the
  /// core's grant) and its requested size; zero for every other address.
  /// The table is reserved for the whole slab but pages commit on first
  /// write, so its resident size follows the slab extent blocks reach.
  class BlockTable {
   public:
    BlockTable() = default;
    ~BlockTable();
    BlockTable(const BlockTable&) = delete;
    BlockTable& operator=(const BlockTable&) = delete;

    /// Reserves the table and records the slab base, once the arena has
    /// mapped its slab; later calls do nothing.  Called under the core
    /// lock.
    void attach(const std::byte* slab_base);
    /// The word of the block whose payload is exactly @p p, or nullptr for
    /// a pointer outside the slab or off the 8-byte payload grid.  Words
    /// are only ever accessed through std::atomic_ref.
    [[nodiscard]] std::uint64_t* slot(const void* p) const;

   private:
    std::uint64_t* words_ = nullptr;
    std::atomic<const std::byte*> base_{nullptr};
  };

  [[nodiscard]] ThreadCache* this_thread_cache();

  [[nodiscard]] void* slow_malloc(std::size_t request, ThreadCache* cache);
  [[nodiscard]] void* core_allocate(std::size_t request,
                                    std::size_t* capacity);
  [[nodiscard]] void* handle_oom(std::size_t request, std::size_t* capacity);
  [[nodiscard]] bool consume_injected_failure();

  [[nodiscard]] bool cacheable(std::size_t capacity) const;
  void cache_push(ThreadCache& cache, void* ptr, std::size_t capacity);
  [[nodiscard]] void* cache_pop(ThreadCache& cache, std::size_t request);
  /// Empties @p cache into the core under one core-lock acquisition.
  void flush_cache(ThreadCache& cache);
  /// Hands the @p count oldest entries of @p bin back to the core; the
  /// caller holds core_mu_.
  void release_oldest(ThreadCache& cache, std::size_t bin, std::size_t count);

  RuntimeOptions opts_;
  sysmem::SystemArena arena_;
  /// Serialises every core/arena touch; the arena's stats are read under
  /// it too (telemetry()).
  mutable CoreLock core_mu_;
  alloc::CustomManager core_;
  /// Blocks at or above the designed big-request threshold bypass the
  /// thread caches: the core routes them to dedicated chunks that should
  /// flow back to the arena, not sit in a cache.
  std::size_t cache_block_limit_;
  BlockTable blocks_;
  RuntimeTelemetry telemetry_;
  /// This allocator's live thread caches; guarded by the process-wide
  /// cache registry mutex (see designed_allocator.cpp).
  std::vector<ThreadCache*> caches_;
  std::atomic<std::uint64_t> injected_failures_{0};
};

}  // namespace dmm::runtime

#endif  // DMM_RUNTIME_DESIGNED_ALLOCATOR_H
