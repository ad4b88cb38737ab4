#ifndef DMM_SYSMEM_SYSTEM_ARENA_H
#define DMM_SYSMEM_SYSTEM_ARENA_H

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dmm/sysmem/arena_stats.h"

namespace dmm::sysmem {

/// Simulated OS memory interface (the paper's "system memory").
///
/// Every dynamic-memory manager in this library draws *all* of its storage
/// from a SystemArena, mimicking sbrk()/mmap() on the embedded OS the paper
/// targets.  The arena therefore observes the exact footprint each manager
/// imposes on the platform:
///
///   * request(bytes)  — obtain a chunk from the OS (rounded up to the page
///                       granularity); counted into the footprint.
///   * release(chunk)  — hand a chunk back to the OS (what the paper calls
///                       "returned back to the system for other
///                       applications"); removed from the footprint.
///
/// The arena optionally enforces a capacity budget, modelling the limited
/// physical memory of a portable consumer device: a request that would
/// exceed the budget fails (returns nullptr) instead of growing.
///
/// An observer callback fires on every footprint change; the trace
/// simulator uses it to record the Fig. 5 footprint-over-time series.
///
/// The arena is deliberately single-threaded: the paper's methodology is
/// applied per application phase on an embedded RTOS where the manager runs
/// under one lock anyway.  (Thread-safety would only blur the footprint
/// accounting the experiments need.)  Distinct arenas on distinct threads
/// are fully independent.
///
/// **Slab recycling.**  A destroyed arena parks its slab in a small
/// per-thread cache (at most kCachedSlabsPerThread slabs, each keeping at
/// most kSlabResidentBytes resident) and the next arena built on that
/// thread reuses it, so scoring thousands of candidates costs no mmap,
/// munmap or page-fault storm per candidate.  The cache is unmapped at
/// thread exit; an arena may be created and destroyed on different threads
/// (the slab joins the destroying thread's cache).  A recycled slab holds
/// whatever the previous arena left in it, so no manager may read memory
/// it has not written.  Under AddressSanitizer a cached slab is poisoned,
/// keeping reads through a destroyed arena detectable.
///
/// **Deterministic addresses.**  Chunks are carved from one reserved slab
/// (lowest-offset-first reuse of released regions), so an identical
/// request/release sequence yields identical chunk *offsets* — and hence
/// identical address ordering — in every run, on every thread.  Managers
/// keep address-sorted free lists and first-fit scan orders; without this,
/// two replays of the same candidate could disagree, and the parallel
/// exploration engine could not promise bit-identical results to the
/// serial one.
class SystemArena {
 public:
  /// Page granularity used to round requests, like an MMU page.
  static constexpr std::size_t kDefaultPageSize = 4096;

  /// Virtual reservation backing one arena (lazily mapped or taken from
  /// the thread's slab cache, pages commit on touch).  ~1000x the largest
  /// workload footprint in the repo; request() fails like an exhausted OS
  /// once it is spent.  Shrunk on 32-bit hosts, where 4 GiB does not even
  /// fit in size_t.
  static constexpr std::size_t kSlabBytes = sizeof(std::size_t) >= 8
                                                ? std::size_t{1} << 32
                                                : std::size_t{1} << 30;
  /// Reservation used by the no-mmap fallback, which allocates eagerly and
  /// therefore must stay modest.
  static constexpr std::size_t kFallbackSlabBytes = std::size_t{1} << 28;
  /// Slabs one thread keeps for reuse after their arenas are destroyed;
  /// further slabs are unmapped.  A replay holds one arena at a time; the
  /// second slot keeps a slab warm for a thread that holds one more arena
  /// across its replays (a live DesignedAllocator, a caller's own arena).
  /// Unverified: no measurement shows that second slot pays for itself.
  static constexpr std::size_t kCachedSlabsPerThread = 2;
  /// Resident bytes a cached slab may keep: pages past this prefix of the
  /// slab are dropped (MADV_DONTNEED) when the slab is recycled.
  static constexpr std::size_t kSlabResidentBytes = std::size_t{16} << 20;

  /// Signature: (stats, delta_bytes) with delta>0 for growth, <0 for shrink.
  using Observer = std::function<void(const ArenaStats&, long long)>;

  /// Creates an arena with unlimited capacity.
  SystemArena() : SystemArena(0, kDefaultPageSize) {}

  /// @param capacity_bytes  0 = unlimited; otherwise hard budget.
  /// @param page_size       rounding granularity for requests (power of 2).
  explicit SystemArena(std::size_t capacity_bytes,
                       std::size_t page_size = kDefaultPageSize);

  SystemArena(const SystemArena&) = delete;
  SystemArena& operator=(const SystemArena&) = delete;
  /// Parks the slab in this thread's slab cache (trimmed to
  /// kSlabResidentBytes resident); unmaps it when the cache is full or
  /// already torn down by thread exit.
  ~SystemArena();

  /// Obtains @p bytes (rounded up to the page size) from the simulated OS.
  /// Returns nullptr if the capacity budget would be exceeded.
  /// The actual granted size is written to *granted (if non-null).
  [[nodiscard]] std::byte* request(std::size_t bytes,
                                   std::size_t* granted = nullptr);

  /// Returns a chunk previously obtained with request().
  /// @p ptr must be exactly a pointer returned by request() and not yet
  /// released; anything else aborts (memory-corruption tripwire).
  void release(std::byte* ptr);

  /// Size that request(bytes) would actually grant (page rounding).
  [[nodiscard]] std::size_t rounded(std::size_t bytes) const;

  [[nodiscard]] const ArenaStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t page_size() const { return page_size_; }

  /// Bytes currently held from the OS.  Convenience accessor.
  [[nodiscard]] std::size_t footprint() const {
    return stats_.current_footprint;
  }
  /// High-water mark — the paper's "maximum memory footprint".
  [[nodiscard]] std::size_t peak_footprint() const {
    return stats_.peak_footprint;
  }

  /// Resets the peak to the current footprint (used between workload
  /// phases when measuring per-phase peaks).
  void reset_peak() { stats_.peak_footprint = stats_.current_footprint; }

  /// Installs (or clears, with nullptr) the footprint-change observer.
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Number of chunks currently granted and not yet released.
  [[nodiscard]] std::size_t live_chunks() const { return live_grants_; }

  /// True iff @p ptr is a currently live grant of this arena.
  [[nodiscard]] bool owns(const std::byte* ptr) const;

  /// Size of the live grant starting at @p ptr (0 if not a live grant).
  [[nodiscard]] std::size_t grant_size(const std::byte* ptr) const;

  /// Slab base address (nullptr until the first request maps it).
  [[nodiscard]] const std::byte* slab_base() const { return slab_; }

 private:
  /// Takes a slab from the thread's cache, or maps one, on first use
  /// (keeps never-used arenas free).
  [[nodiscard]] bool ensure_slab();
  /// Lowest-offset region of >= @p size bytes, or npos.
  [[nodiscard]] std::size_t take_region(std::size_t size);
  void give_region(std::size_t offset, std::size_t size);
  /// grants_ slot of the grant that would start at @p ptr, or npos when
  /// @p ptr lies off the granule grid or outside the carved extent.
  [[nodiscard]] std::size_t grant_slot(const std::byte* ptr) const;

  std::size_t capacity_;
  std::size_t page_size_;
  ArenaStats stats_;
  Observer observer_;
  // Live grants: granted size (0 = none) per granule of slab offset, a
  // granule being max(page, 16 B) — every grant starts on one.  Indexed,
  // not hashed: every chunk grow and release of a replay lands here.
  unsigned granule_shift_ = 0;
  std::vector<std::size_t> grants_;
  std::size_t live_grants_ = 0;

  // Deterministic slab: released regions keyed by offset (ordered, so
  // reuse is lowest-offset-first), plus a bump pointer for fresh carves.
  std::byte* slab_ = nullptr;
  bool slab_failed_ = false;  ///< reservation failed; don't retry
  std::size_t bump_ = 0;
  /// Slab extent carved since it was mapped, by this arena or an earlier
  /// owner: what the cache poisons and trims.
  std::size_t touched_ = 0;
  std::map<std::size_t, std::size_t> free_regions_;  // offset -> size
};

}  // namespace dmm::sysmem

#endif  // DMM_SYSMEM_SYSTEM_ARENA_H
