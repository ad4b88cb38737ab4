#include "dmm/sysmem/system_arena.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define DMM_SYSMEM_HAVE_MMAP 1
#else
#include <new>
#endif

// The poisoning macros expand to nothing unless AddressSanitizer is on.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace dmm::sysmem {

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::sysmem fatal: %s\n", what);
  std::abort();
}

bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Internal carve granularity: keeps every grant ChunkHeader-aligned even
/// when the configured page size is smaller than 16.
constexpr std::size_t kGrainBytes = 16;

std::size_t grain_rounded(std::size_t bytes) {
  return (bytes + kGrainBytes - 1) & ~(kGrainBytes - 1);
}

/// Size of every slab this build maps (one per arena, recycled).
#if DMM_SYSMEM_HAVE_MMAP
constexpr std::size_t kMappedSlabBytes = SystemArena::kSlabBytes;
#else
constexpr std::size_t kMappedSlabBytes = SystemArena::kFallbackSlabBytes;
#endif

void unmap_slab(std::byte* base, std::size_t touched) {
  ASAN_UNPOISON_MEMORY_REGION(base, touched);
#if DMM_SYSMEM_HAVE_MMAP
  ::munmap(base, kMappedSlabBytes);
#else
  ::operator delete(base, std::align_val_t{kGrainBytes});
#endif
}

/// A slab parked by a destroyed arena, with the extent [0, touched) that
/// arenas have carved from it since it was mapped.
struct CachedSlab {
  std::byte* base = nullptr;
  std::size_t touched = 0;
};

/// Set when this thread's SlabCache is destroyed.  Trivially destructible,
/// so it stays readable through the rest of thread exit: an arena owned by
/// a later-destroyed thread_local sees it and unmaps its slab instead.
thread_local bool t_slab_cache_gone = false;

/// The slabs this thread's destroyed arenas left behind (LIFO, so the
/// warmest slab is reused first).  Unmapped at thread exit.
class SlabCache {
 public:
  SlabCache() = default;
  SlabCache(const SlabCache&) = delete;
  SlabCache& operator=(const SlabCache&) = delete;
  ~SlabCache() {
    while (count_ > 0) {
      const CachedSlab& slab = slabs_[--count_];
      unmap_slab(slab.base, slab.touched);
    }
    t_slab_cache_gone = true;
  }

  /// False when the cache is full; the caller keeps the slab.
  bool put(CachedSlab slab) {
    if (count_ == slabs_.size()) return false;
    slabs_[count_++] = slab;
    return true;
  }

  /// False when the cache is empty.
  bool take(CachedSlab* slab) {
    if (count_ == 0) return false;
    *slab = slabs_[--count_];
    return true;
  }

 private:
  std::array<CachedSlab, SystemArena::kCachedSlabsPerThread> slabs_{};
  std::size_t count_ = 0;
};

/// This thread's slab cache, or null once thread exit has destroyed it.
SlabCache* this_thread_slab_cache() {
  if (t_slab_cache_gone) return nullptr;
  thread_local SlabCache cache;
  return &cache;
}

}  // namespace

SystemArena::SystemArena(std::size_t capacity_bytes, std::size_t page_size)
    : capacity_(capacity_bytes), page_size_(page_size) {
  if (!is_power_of_two(page_size_)) {
    die("page size must be a power of two");
  }
  // Grants are page multiples carved at grain-rounded offsets, so every
  // grant starts on a max(page, grain) boundary.
  while ((std::size_t{1} << granule_shift_) <
         std::max(page_size_, kGrainBytes)) {
    ++granule_shift_;
  }
}

SystemArena::~SystemArena() {
  // Managers are expected to release everything; tests assert
  // live_chunks()==0.  The slab is parked in this thread's cache for the
  // next arena either way; mapping a fresh one per arena cost a kernel
  // round trip plus a page fault per touched page on every replay.
  if (slab_ == nullptr) return;
#if DMM_SYSMEM_HAVE_MMAP
  if (touched_ > kSlabResidentBytes) {
    // Bound what an idle cached slab keeps resident.  Anonymous pages read
    // back as zeros after this; no manager may depend on either content.
    ::madvise(slab_ + kSlabResidentBytes, touched_ - kSlabResidentBytes,
              MADV_DONTNEED);
  }
#endif
  // Poisoned while cached, so a read through a destroyed arena still trips
  // ASan the way the unmapped slab used to fault.
  ASAN_POISON_MEMORY_REGION(slab_, touched_);
  SlabCache* cache = this_thread_slab_cache();
  if (cache == nullptr || !cache->put({slab_, touched_})) {
    unmap_slab(slab_, touched_);
  }
}

bool SystemArena::ensure_slab() {
  if (slab_ != nullptr) return true;
  if (slab_failed_) return false;
  CachedSlab cached;
  SlabCache* cache = this_thread_slab_cache();
  if (cache != nullptr && cache->take(&cached)) {
    ASAN_UNPOISON_MEMORY_REGION(cached.base, cached.touched);
    slab_ = cached.base;
    touched_ = cached.touched;
    return true;
  }
#if DMM_SYSMEM_HAVE_MMAP
  void* p = ::mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS
#ifdef MAP_NORESERVE
                       | MAP_NORESERVE
#endif
                   ,
                   -1, 0);
  if (p == MAP_FAILED) {
    slab_failed_ = true;
    return false;
  }
  slab_ = static_cast<std::byte*>(p);
#else
  // Fallback: one *eager* allocation, so it must stay modest — and it is
  // attempted once (a failed 256 MiB grab would otherwise repeat on every
  // request and drown the search in allocation churn).
  slab_ = static_cast<std::byte*>(::operator new(
      kFallbackSlabBytes, std::align_val_t{kGrainBytes}, std::nothrow));
  if (slab_ == nullptr) {
    slab_failed_ = true;
    return false;
  }
#endif
  return true;
}

std::size_t SystemArena::take_region(std::size_t size) {
  // Lowest-offset-first reuse: the scan order is a pure function of the
  // request/release history, which is what makes chunk addresses — and
  // every address-ordered structure built on them — deterministic.
  for (auto it = free_regions_.begin(); it != free_regions_.end(); ++it) {
    if (it->second < size) continue;
    const std::size_t offset = it->first;
    const std::size_t remainder = it->second - size;
    free_regions_.erase(it);
    if (remainder > 0) free_regions_.emplace(offset + size, remainder);
    return offset;
  }
  if (kMappedSlabBytes - bump_ < size) return kNpos;
  const std::size_t offset = bump_;
  bump_ += size;
  touched_ = std::max(touched_, bump_);
  return offset;
}

void SystemArena::give_region(std::size_t offset, std::size_t size) {
  // Coalesce with the free neighbours, then fold a region ending at the
  // bump frontier back into the wilderness.
  auto next = free_regions_.lower_bound(offset);
  if (next != free_regions_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      size += prev->second;
      free_regions_.erase(prev);
    }
  }
  if (next != free_regions_.end() && offset + size == next->first) {
    size += next->second;
    free_regions_.erase(next);
  }
  if (offset + size == bump_) {
    bump_ = offset;
    return;
  }
  free_regions_.emplace(offset, size);
}

std::size_t SystemArena::rounded(std::size_t bytes) const {
  if (bytes == 0) bytes = 1;
  return (bytes + page_size_ - 1) & ~(page_size_ - 1);
}

std::byte* SystemArena::request(std::size_t bytes, std::size_t* granted) {
  const std::size_t size = rounded(bytes);
  if (capacity_ != 0 && stats_.current_footprint + size > capacity_) {
    ++stats_.failed_requests;
    return nullptr;
  }
  if (!ensure_slab()) {
    ++stats_.failed_requests;
    return nullptr;
  }
  const std::size_t offset = take_region(grain_rounded(size));
  if (offset == kNpos) {
    ++stats_.failed_requests;
    return nullptr;
  }
  std::byte* ptr = slab_ + offset;
  const std::size_t slot = offset >> granule_shift_;
  if (slot >= grants_.size()) grants_.resize(slot + 1, 0);
  grants_[slot] = size;
  ++live_grants_;
  stats_.current_footprint += size;
  stats_.total_requested += size;
  ++stats_.request_count;
  if (stats_.current_footprint > stats_.peak_footprint) {
    stats_.peak_footprint = stats_.current_footprint;
  }
  if (granted != nullptr) *granted = size;
  if (observer_) observer_(stats_, static_cast<long long>(size));
  return ptr;
}

std::size_t SystemArena::grant_slot(const std::byte* ptr) const {
  if (slab_ == nullptr) return kNpos;
  // dmm-lint: allow(ptr-order): slab-relative offset, not an ordering
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  // dmm-lint: allow(ptr-order): slab-relative offset, not an ordering
  const std::uintptr_t offset = addr - reinterpret_cast<std::uintptr_t>(slab_);
  const std::size_t slot = offset >> granule_shift_;
  if ((offset & ((std::uintptr_t{1} << granule_shift_) - 1)) != 0 ||
      slot >= grants_.size()) {
    return kNpos;
  }
  return slot;
}

void SystemArena::release(std::byte* ptr) {
  const std::size_t slot = grant_slot(ptr);
  if (slot == kNpos || grants_[slot] == 0) {
    die("release() of a pointer that is not a live grant");
  }
  const std::size_t size = grants_[slot];
  grants_[slot] = 0;
  --live_grants_;
  give_region(static_cast<std::size_t>(ptr - slab_), grain_rounded(size));
  stats_.current_footprint -= size;
  stats_.total_released += size;
  ++stats_.release_count;
  if (observer_) observer_(stats_, -static_cast<long long>(size));
}

bool SystemArena::owns(const std::byte* ptr) const {
  return grant_size(ptr) != 0;
}

std::size_t SystemArena::grant_size(const std::byte* ptr) const {
  const std::size_t slot = grant_slot(ptr);
  return slot == kNpos ? 0 : grants_[slot];
}

}  // namespace dmm::sysmem
