// DesignedAllocator — the deployable front over the designed policy core.
//
// Locking model.  malloc and free on a thread that already has its cache
// take no blocking lock:
//
//   block table     — lock-free: one atomic word per block, changed by
//                     exchange/CAS; every transition (core grant -> live,
//                     live -> cached, cached -> live, live/cached -> back
//                     to the core) is a single atomic step, so a racing
//                     double free sees the other state and dies
//   thread caches   — owner-only: only the owning thread touches a cache's
//                     bins, except the allocator destructor, which drains
//                     caches of threads that are done with the allocator
//   core_mu_        — CoreLock (spin, then yield): serialises the
//                     single-threaded policy core and its arena, including
//                     the stats read of telemetry(); held for one core call
//                     or one batch of cache evictions
//   registry mutex  — process-wide, off the steady-state path: guards every
//                     allocator's cache roster, cache ownership at
//                     thread/allocator exit, and a thread's first call into
//                     an allocator; taken before core_mu_, never after
//
// Thread-cache lifetime: a cache is created by its thread on first use,
// registered with the allocator, and deleted by its thread.  Whoever ends
// first cleans up — a thread exiting while the allocator lives flushes its
// blocks back into the core; an allocator destructed first drains every
// cache and orphans it (owner = nullptr), and the thread deletes the shell
// the next time it looks up a cache, or at exit.

#include "dmm/runtime/designed_allocator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define DMM_RUNTIME_HAVE_MMAP 1
#endif

#include "dmm/alloc/knobs.h"
#include "dmm/alloc/size_class.h"

namespace dmm::runtime {

namespace {

[[noreturn]] void die(const char* what, const void* ptr) {
  std::fprintf(stderr, "DesignedAllocator: %s (ptr=%p)\n", what, ptr);
  std::abort();
}

constexpr const char* kNotOwned =
    "free of a pointer this allocator does not own (wild or double free)";

/// Largest size-class index whose class size the capacity covers: every
/// entry filed in bin b can serve any request of class b (capacity >=
/// size_of(b) >= request).  Requires capacity >= size_of(0).
unsigned bin_for_capacity(std::size_t capacity) {
  unsigned idx = alloc::SizeClass::index_for(capacity);
  if (alloc::SizeClass::size_of(idx) > capacity) --idx;
  return idx;
}

// ---------------------------------------------------------------------------
// Block-table words
//
//   bits  0..1   state: 0 = not a block of ours, 1 = live, 2 = cached
//   bits  2..31  capacity / 8 (capacities are multiples of the 8-byte
//                allocation alignment)
//   bits 32..63  requested bytes (live blocks only)
//
// Both sizes fit because every block lies inside the slab.
// ---------------------------------------------------------------------------

using Word = std::atomic_ref<std::uint64_t>;

constexpr std::size_t kGranule = alloc::kAlignment;
constexpr std::size_t kTableWords = sysmem::SystemArena::kSlabBytes / kGranule;
constexpr std::uint64_t kLive = 1;
constexpr std::uint64_t kCached = 2;
constexpr std::uint64_t kStateMask = 3;

static_assert(sysmem::SystemArena::kSlabBytes <= (std::uint64_t{1} << 32),
              "requested sizes must fit the word's 32-bit field");

constexpr std::uint64_t make_word(std::uint64_t state, std::size_t capacity,
                                  std::size_t requested) {
  return state | (static_cast<std::uint64_t>(capacity / kGranule) << 2) |
         (static_cast<std::uint64_t>(requested) << 32);
}
constexpr std::uint64_t state_of(std::uint64_t w) {
  return w & kStateMask;
}
constexpr std::size_t capacity_of(std::uint64_t w) {
  return static_cast<std::size_t>((w & 0xffffffffu) >> 2) * kGranule;
}
constexpr std::size_t requested_of(std::uint64_t w) {
  return static_cast<std::size_t>(w >> 32);
}

}  // namespace

DesignedAllocator::BlockTable::~BlockTable() {
  if (words_ == nullptr) return;
#if DMM_RUNTIME_HAVE_MMAP
  ::munmap(words_, kTableWords * sizeof(std::uint64_t));
#else
  std::free(words_);
#endif
}

void DesignedAllocator::BlockTable::attach(const std::byte* slab_base) {
  if (base_.load(std::memory_order_relaxed) != nullptr) return;
  // Mapped with the slab, not with the allocator: an arena that never
  // maps its slab (every request fails) needs no table either.
#if DMM_RUNTIME_HAVE_MMAP
  // Reserved, not committed: zero pages appear as words are first written.
  constexpr std::size_t bytes = kTableWords * sizeof(std::uint64_t);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS
#ifdef MAP_NORESERVE
                       | MAP_NORESERVE
#endif
                   ,
                   -1, 0);
  if (p == MAP_FAILED) die("cannot reserve the block table", nullptr);
#else
  void* p = std::calloc(kTableWords, sizeof(std::uint64_t));
  if (p == nullptr) die("cannot reserve the block table", nullptr);
#endif
  words_ = static_cast<std::uint64_t*>(p);
  // Release: a thread that sees the base also sees the table.
  base_.store(slab_base, std::memory_order_release);
}

std::uint64_t* DesignedAllocator::BlockTable::slot(const void* p) const {
  const std::byte* base = base_.load(std::memory_order_acquire);
  if (base == nullptr) return nullptr;
  // dmm-lint: allow(ptr-order): slab-relative offset, not an ordering
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  // dmm-lint: allow(ptr-order): slab-relative offset, not an ordering
  const std::uintptr_t offset = addr - reinterpret_cast<std::uintptr_t>(base);
  if (offset % kGranule != 0 || offset / kGranule >= kTableWords) {
    return nullptr;
  }
  return &words_[offset / kGranule];
}

// ---------------------------------------------------------------------------
// Thread-cache plumbing
// ---------------------------------------------------------------------------

struct DesignedAllocator::ThreadCache {
  /// Which allocator this cache serves, or nullptr once that allocator is
  /// destroyed.  Written under the registry mutex; the owning thread reads
  /// it without a lock when it looks up its cache.
  std::atomic<DesignedAllocator*> owner{nullptr};
  /// bins[b] holds (ptr, capacity) with capacity >= SizeClass::size_of(b),
  /// oldest first.  Owner-only.
  std::array<std::vector<std::pair<void*, std::size_t>>,
             alloc::SizeClass::kCount>
      bins;
  std::size_t cached_bytes = 0;  ///< sum of cached capacities; owner-only
};

struct ThreadCacheRegistry {
  /// Process-wide teardown lock.  Leaked deliberately: threads may still
  /// run their thread_local destructors after static destruction begins.
  static std::mutex& mutex() {
    static std::mutex* mu = new std::mutex;
    return *mu;
  }

  struct TlsHolder {
    std::vector<DesignedAllocator::ThreadCache*> caches;

    ~TlsHolder() {
      const std::lock_guard<std::mutex> reg(mutex());
      for (DesignedAllocator::ThreadCache* c : caches) {
        DesignedAllocator* owner = c->owner.load(std::memory_order_relaxed);
        if (owner != nullptr) {
          // Thread exits first: its cached blocks go back to the core.
          owner->flush_cache(*c);
          auto& roster = owner->caches_;
          roster.erase(std::remove(roster.begin(), roster.end(), c),
                       roster.end());
        }
        // Allocator already gone (owner nulled): the entries died with
        // its arena; only the cache shell is left to delete.
        delete c;
      }
    }
  };

  static TlsHolder& tls() {
    thread_local TlsHolder holder;
    return holder;
  }
};

DesignedAllocator::ThreadCache* DesignedAllocator::this_thread_cache() {
  if (opts_.thread_cache_bytes == 0) return nullptr;
  auto& caches = ThreadCacheRegistry::tls().caches;
  for (std::size_t i = 0; i < caches.size();) {
    ThreadCache* c = caches[i];
    // Acquire pairs with the destructor's release: its drain of the bins
    // happens-before the shell is deleted here.
    DesignedAllocator* owner = c->owner.load(std::memory_order_acquire);
    if (owner == this) return c;
    if (owner == nullptr) {
      delete c;
      caches[i] = caches.back();
      caches.pop_back();
      continue;
    }
    ++i;
  }
  auto* c = new ThreadCache;
  {
    const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
    c->owner.store(this, std::memory_order_relaxed);
    caches_.push_back(c);
  }
  caches.push_back(c);
  return c;
}

std::size_t DesignedAllocator::thread_cache_shells() {
  return ThreadCacheRegistry::tls().caches.size();
}

// ---------------------------------------------------------------------------

DesignedAllocator::DesignedAllocator(const alloc::DmmConfig& cfg,
                                     RuntimeOptions opts)
    : opts_(std::move(opts)),
      arena_(opts_.arena_capacity_bytes),
      core_(arena_, cfg, "designed-runtime", /*strict_accounting=*/false),
      cache_block_limit_(std::min(
          {alloc::KnobView(core_.config()).big_request_bytes(),
           opts_.thread_cache_bytes,
           alloc::SizeClass::size_of(alloc::SizeClass::kCount - 1)})) {}

DesignedAllocator::~DesignedAllocator() {
  const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
  for (ThreadCache* c : caches_) {
    flush_cache(*c);
    c->owner.store(nullptr, std::memory_order_release);  // thread deletes it
  }
  caches_.clear();
}

// ---------------------------------------------------------------------------
// malloc / free / realloc / usable_size
// ---------------------------------------------------------------------------

void* DesignedAllocator::malloc(std::size_t bytes) {
  const std::size_t request = bytes == 0 ? 1 : bytes;
  ThreadCache* cache = this_thread_cache();
  if (cache != nullptr) {
    if (void* p = cache_pop(*cache, request)) {
      telemetry_.note_alloc(request, /*from_cache=*/true);
      return p;
    }
  }
  return slow_malloc(request, cache);
}

void* DesignedAllocator::slow_malloc(std::size_t request, ThreadCache* cache) {
  std::size_t capacity = 0;
  void* p = core_allocate(request, &capacity);
  if (p == nullptr && cache != nullptr) {
    // Reclaim before any policy fires: the calling thread's own cache may
    // hold exactly the memory the core needs.
    flush_cache(*cache);
    p = core_allocate(request, &capacity);
  }
  if (p == nullptr) p = handle_oom(request, &capacity);
  if (p == nullptr) return nullptr;
  std::uint64_t* slot = blocks_.slot(p);
  const std::uint64_t live = make_word(kLive, capacity, request);
  if (slot == nullptr ||
      Word(*slot).exchange(live, std::memory_order_acq_rel) != 0) {
    die("core handed out a live pointer twice", p);
  }
  telemetry_.note_alloc(request, /*from_cache=*/false);
  return p;
}

void* DesignedAllocator::core_allocate(std::size_t request,
                                       std::size_t* capacity) {
  const std::lock_guard<CoreLock> lock(core_mu_);
  if (consume_injected_failure()) return nullptr;
  void* p = core_.allocate(request);
  if (p == nullptr) return nullptr;
  *capacity = core_.usable_size(p);
  blocks_.attach(arena_.slab_base());
  return p;
}

void* DesignedAllocator::handle_oom(std::size_t request,
                                    std::size_t* capacity) {
  switch (opts_.oom_policy) {
    case OomPolicy::kDie: {
      telemetry_.note_oom_died();
      // The emalloc/die_oom contract: report the failed request, stop.
      std::fprintf(stderr,
                   "DesignedAllocator: out of memory allocating %zu bytes "
                   "(arena capacity %zu)\n",
                   request, arena_.capacity());
      std::abort();
    }
    case OomPolicy::kNull:
      telemetry_.note_oom_null();
      return nullptr;
    case OomPolicy::kCallback: {
      // No lock is held here: the callback may free() through this
      // allocator (release-and-retry) or call trim() itself.
      for (unsigned attempt = 1;
           opts_.oom_callback && attempt <= opts_.oom_retry_limit;
           ++attempt) {
        telemetry_.note_oom_callback();
        if (!opts_.oom_callback(request, attempt)) break;
        if (void* p = core_allocate(request, capacity)) {
          telemetry_.note_oom_recovered();
          return p;
        }
      }
      telemetry_.note_oom_null();
      return nullptr;
    }
  }
  return nullptr;
}

void DesignedAllocator::free(void* ptr) {
  if (ptr == nullptr) return;
  std::uint64_t* slot = blocks_.slot(ptr);
  if (slot == nullptr) die(kNotOwned, ptr);
  const Word word(*slot);
  ThreadCache* cache = this_thread_cache();
  std::uint64_t w = word.load(std::memory_order_acquire);
  std::uint64_t next = 0;
  do {
    if (state_of(w) == kCached) die("double free of a cached block", ptr);
    if (state_of(w) != kLive) die(kNotOwned, ptr);
    // A cached block keeps its capacity; anything else leaves the table.
    const bool to_cache = cache != nullptr && cacheable(capacity_of(w));
    next = to_cache ? make_word(kCached, capacity_of(w), 0) : 0;
  } while (!word.compare_exchange_weak(w, next, std::memory_order_acq_rel,
                                       std::memory_order_acquire));
  telemetry_.note_free(requested_of(w));
  if (next != 0) {
    cache_push(*cache, ptr, capacity_of(w));
    return;
  }
  const std::lock_guard<CoreLock> lock(core_mu_);
  core_.deallocate(ptr);
}

void* DesignedAllocator::realloc(void* ptr, std::size_t bytes) {
  telemetry_.note_realloc();
  if (ptr == nullptr) return malloc(bytes);
  if (bytes == 0) {
    free(ptr);
    return nullptr;
  }
  std::uint64_t* slot = blocks_.slot(ptr);
  if (slot == nullptr) {
    die("realloc of a pointer this allocator does not own", ptr);
  }
  const Word word(*slot);
  std::uint64_t w = word.load(std::memory_order_acquire);
  while (state_of(w) == kLive && capacity_of(w) >= bytes) {
    // In place: the core's grant already covers the new size.
    if (word.compare_exchange_weak(w, make_word(kLive, capacity_of(w), bytes),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      telemetry_.note_resize(requested_of(w), bytes);
      return ptr;
    }
  }
  if (state_of(w) != kLive) {
    die("realloc of a pointer this allocator does not own", ptr);
  }
  void* moved = malloc(bytes);
  if (moved == nullptr) return nullptr;  // old block stays intact
  std::memcpy(moved, ptr, std::min(requested_of(w), bytes));
  free(ptr);
  return moved;
}

std::size_t DesignedAllocator::usable_size(const void* ptr) const {
  std::uint64_t* slot = blocks_.slot(ptr);
  if (slot == nullptr) return 0;
  const std::uint64_t w = Word(*slot).load(std::memory_order_acquire);
  return state_of(w) == kLive ? capacity_of(w) : 0;
}

// ---------------------------------------------------------------------------
// Telemetry, trim, fault injection
// ---------------------------------------------------------------------------

TelemetrySnapshot DesignedAllocator::telemetry() const {
  TelemetrySnapshot s = telemetry_.snapshot();
  const std::lock_guard<CoreLock> lock(core_mu_);
  s.arena = arena_.stats();
  return s;
}

void DesignedAllocator::trim() {
  if (ThreadCache* cache = this_thread_cache()) flush_cache(*cache);
}

void DesignedAllocator::inject_arena_exhaustion(std::uint64_t failures) {
  injected_failures_.store(failures, std::memory_order_relaxed);
}

bool DesignedAllocator::consume_injected_failure() {
  std::uint64_t n = injected_failures_.load(std::memory_order_relaxed);
  while (n > 0 && !injected_failures_.compare_exchange_weak(
                      n, n - 1, std::memory_order_relaxed)) {
  }
  return n > 0;
}

// ---------------------------------------------------------------------------
// Thread-cache mechanics
// ---------------------------------------------------------------------------

bool DesignedAllocator::cacheable(std::size_t capacity) const {
  return capacity >= alloc::SizeClass::size_of(0) &&
         capacity < cache_block_limit_;
}

void DesignedAllocator::cache_push(ThreadCache& cache, void* ptr,
                                   std::size_t capacity) {
  const unsigned bin_idx = bin_for_capacity(capacity);
  auto& bin = cache.bins[bin_idx];
  // Sized once per bin, so pushes never reallocate afterwards.
  if (bin.capacity() == 0) bin.reserve(opts_.thread_cache_bin_entries + 1);
  bin.emplace_back(ptr, capacity);
  cache.cached_bytes += capacity;
  const bool bin_full = bin.size() > opts_.thread_cache_bin_entries;
  if (!bin_full && cache.cached_bytes <= opts_.thread_cache_bytes) return;
  // One core-lock acquisition for the whole eviction batch.
  const std::lock_guard<CoreLock> lock(core_mu_);
  if (bin_full) {
    // Entry cap: evict the oldest down to half the cap, so the next
    // overflow of this bin is that many pushes away.
    release_oldest(cache, bin_idx,
                   bin.size() - opts_.thread_cache_bin_entries / 2);
  }
  // Byte budget: shed the largest cached blocks first.
  for (std::size_t b = cache.bins.size();
       b-- > 0 && cache.cached_bytes > opts_.thread_cache_bytes;) {
    std::size_t count = 0;
    std::size_t shed = 0;
    for (const auto& entry : cache.bins[b]) {
      if (cache.cached_bytes - shed <= opts_.thread_cache_bytes) break;
      shed += entry.second;
      ++count;
    }
    release_oldest(cache, b, count);
  }
}

void* DesignedAllocator::cache_pop(ThreadCache& cache, std::size_t request) {
  if (request >= cache_block_limit_) return nullptr;
  const unsigned bin_idx = alloc::SizeClass::index_for(request);
  if (bin_idx >= cache.bins.size()) return nullptr;
  auto& bin = cache.bins[bin_idx];
  if (bin.empty()) return nullptr;
  const auto [p, cap] = bin.back();
  bin.pop_back();
  cache.cached_bytes -= cap;
  const Word word(*blocks_.slot(p));
  std::uint64_t w = make_word(kCached, cap, 0);
  if (!word.compare_exchange_strong(w, make_word(kLive, cap, request),
                                    std::memory_order_acq_rel)) {
    die("thread cache handed out an untracked block", p);
  }
  return p;
}

void DesignedAllocator::flush_cache(ThreadCache& cache) {
  if (cache.cached_bytes == 0) return;
  const std::lock_guard<CoreLock> lock(core_mu_);
  for (std::size_t b = 0; b < cache.bins.size(); ++b) {
    release_oldest(cache, b, cache.bins[b].size());
  }
}

void DesignedAllocator::release_oldest(ThreadCache& cache, std::size_t bin,
                                       std::size_t count) {
  auto& entries = cache.bins[bin];
  for (std::size_t i = 0; i < count; ++i) {
    const auto [p, cap] = entries[i];
    // Cleared before the core may hand the address out again.
    Word(*blocks_.slot(p)).store(0, std::memory_order_release);
    core_.deallocate(p);
    cache.cached_bytes -= cap;
  }
  entries.erase(entries.begin(),
                entries.begin() + static_cast<std::ptrdiff_t>(count));
}

}  // namespace dmm::runtime
