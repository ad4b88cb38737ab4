#ifndef DMM_ALLOC_CUSTOM_MANAGER_H
#define DMM_ALLOC_CUSTOM_MANAGER_H

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/knobs.h"
#include "dmm/alloc/pool.h"

namespace dmm::alloc {

/// The paper's *atomic DM manager*: a working allocator synthesised from a
/// full decision vector (one leaf per tree of the Fig. 1 search space).
///
/// This is the executable semantics of the search space — the exploration
/// engine builds one CustomManager per candidate vector and replays the
/// profiled allocation trace through it to score the vector's footprint.
///
/// In the policy-core / runtime-front split (see policy_core.h) this class
/// is the *policy core*: deliberately single-threaded, bit-deterministic,
/// every knob read routed through the typed view below.  Ship it
/// behind runtime::DesignedAllocator (src/runtime) when live concurrent
/// malloc/free traffic, an OOM policy, or telemetry is needed; use it bare
/// for replay and scoring.
///
/// The constructor aborts on decision vectors with *hard* interdependency
/// violations (see config_rules.h); validate first with is_valid().
///
/// Requests >= cfg.big_request_bytes take a dedicated-chunk path (the
/// standard mmap-threshold engineering floor): one chunk per block,
/// released straight back to the arena when pool adaptivity allows, else
/// cached for reuse.
class CustomManager : public Allocator, private PoolHost {
 public:
  /// @param strict_accounting  track per-pointer requested sizes (exact
  ///        live-byte accounting, double-free detection).  Disable only in
  ///        timing benchmarks.
  CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                std::string name = "custom", bool strict_accounting = true);
  ~CustomManager() override;

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const DmmConfig& config() const { return cfg_; }
  [[nodiscard]] const BlockLayout& layout() const { return layout_; }

  /// Total block size (header included) that a payload request of
  /// @p payload bytes occupies under this configuration.
  [[nodiscard]] std::size_t block_size_for_request(std::size_t payload) const;

  /// Architecture-neutral work measure: free-structure traversal steps plus
  /// pool-routing steps.  Used by the performance benches alongside wall
  /// time.
  [[nodiscard]] std::uint64_t work_steps() const;

  [[nodiscard]] std::size_t pool_count() const { return pools_.size(); }

  /// Deep consistency check over every pool (tests only; O(n^2)).
  void check_integrity() const;

  /// Where the footprint goes — the paper's Sec. 4.1 factors of influence:
  /// organization overhead (fields + assisting structures) versus
  /// fragmentation waste, measured live from the manager's state.
  struct FootprintBreakdown {
    std::size_t footprint = 0;        ///< bytes held from the arena
    std::size_t live_payload = 0;     ///< application demand
    std::size_t header_overhead = 0;  ///< tag fields of live blocks (A3/A4)
    std::size_t chunk_headers = 0;    ///< pool assisting structures (B)
    std::size_t free_cached = 0;      ///< free blocks threaded in indexes
    std::size_t wilderness = 0;       ///< uncarved chunk tails
    std::size_t big_cache = 0;        ///< cached dedicated chunks
    /// Internal fragmentation: allocated capacity beyond the requests
    /// (rounding, unsplit remainders).  Derived as the residue.
    [[nodiscard]] std::size_t internal_fragmentation() const {
      const std::size_t accounted = live_payload + header_overhead +
                                    chunk_headers + free_cached +
                                    wilderness + big_cache;
      return footprint > accounted ? footprint - accounted : 0;
    }
  };

  /// Snapshot of the current footprint decomposition.  Requires strict
  /// accounting (live_payload must be exact).
  [[nodiscard]] FootprintBreakdown breakdown() const;

 private:
  struct PoolEntry {
    std::size_t key;  ///< class index or exact block size, per division
    std::unique_ptr<Pool> pool;
  };
  struct Route {
    Pool* pool;
    std::size_t block_size;
  };

  [[nodiscard]] std::size_t class_pool_block_size(unsigned idx) const;
  [[nodiscard]] Route route(std::size_t request);
  [[nodiscard]] Pool* find_pool(std::size_t key);
  Pool* make_pool(std::size_t key, std::size_t fixed_block_size);

  // PoolHost (chunk services for the pools)
  ChunkHeader* pool_grow(std::size_t min_data_bytes) override;
  void pool_release(ChunkHeader* chunk) override;
  [[nodiscard]] ChunkHeader* pool_find_chunk(const void* p) override {
    return chunk_index_.find(p);
  }
  [[nodiscard]] AllocatorStats& pool_stats() override { return stats_; }

  [[nodiscard]] void* big_allocate(std::size_t payload);
  void big_deallocate(ChunkHeader* chunk, void* ptr);

  DmmConfig cfg_;
  /// Typed view over cfg_ (see knobs.h); decision-path reads go through it.
  KnobView knobs_{cfg_};
  BlockLayout layout_;
  std::size_t link_bytes_;
  std::string name_;
  bool strict_;

  ChunkIndex chunk_index_{*arena_};
  std::vector<PoolEntry> pools_;
  /// Array routing (B2) for per-class division: class index -> pools_ slot.
  std::vector<int> class_slot_;
  /// Array routing (B2) for per-exact division: block size -> pools_ slot.
  std::unordered_map<std::size_t, std::size_t> exact_slot_;
  /// Dedicated big chunks currently cached for reuse (grow-only mode).
  std::vector<ChunkHeader*> big_cache_;
  std::size_t big_cache_bytes_ = 0;

  /// strict accounting: payload pointer -> requested bytes.
  std::unordered_map<const void*, std::size_t> requested_;
  mutable std::uint64_t routing_steps_ = 0;
  bool static_exhausted_ = false;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CUSTOM_MANAGER_H
