#ifndef DMM_CORE_CACHE_SNAPSHOT_H
#define DMM_CORE_CACHE_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace dmm::core {

// ---------------------------------------------------------------------------
// On-disk snapshot format of a SharedScoreCache (see SharedScoreCache::save /
// ::load in eval_engine.h).  Everything is little-endian, fixed width:
//
//   header   8 B   magic  "DMMSCORE"
//            4 B   format version (kSnapshotVersion)
//            8 B   entry count N
//   N records, kSnapshotRecordBytes each:
//            8 B   trace fingerprint (AllocTrace::fingerprint)
//            8 B   alloc::hash_value of the canonical decision vector
//           15 B   one leaf index per decision tree, all_trees() order
//            8 B   chunk_bytes            |
//            8 B   big_request_bytes      |
//            8 B   static_pool_bytes      | numeric knobs
//            8 B   deferred_split_min     |
//            4 B   max_class_log2         |
//            8 B   sim.peak_footprint     |
//            8 B   sim.final_footprint    |
//            8 B   sim.avg_footprint      | memoized score
//            8 B   sim.peak_live_bytes    | (doubles as IEEE-754 bits)
//            8 B   sim.failed_allocs      |
//            8 B   sim.wall_seconds       |
//            8 B   sim.events             |
//            8 B   work_steps
//            4 B   entry flags: bit 0 = lower bound (sim.stopped — a
//                  replay stopped at a peak cutoff; see CandidateCache),
//                  every other bit 0
//   footer   8 B   FNV-1a checksum of every preceding byte
//
// A loader must treat the file as untrusted: truncation shows up as a size
// that disagrees with the entry count, bit rot as a checksum mismatch, and
// hand-edited records as an out-of-range leaf, an unknown entry flag, or a
// canonical-hash mismatch.
// Any of these rejects the whole file and the cache starts cold — a snapshot
// is a pure accelerator, never a correctness input.
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kSnapshotMagic[8] = {'D', 'M', 'M', 'S',
                                                   'C', 'O', 'R', 'E'};
// Version history: 1 = initial format; 2 = canonical() widened (B3
// collapses under non-per-class pool divisions), so v1 entries may be
// keyed under a form the current code would never look up — reject them;
// 3 = the entry-flags word (lower-bound entries from cutoff replays).
inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr std::size_t kSnapshotHeaderBytes = 8 + 4 + 8;
inline constexpr std::size_t kSnapshotRecordBytes =
    8 + 8 + 15 + (4 * 8 + 4) + (7 * 8) + 8 + 4;
inline constexpr std::size_t kSnapshotChecksumBytes = 8;

/// FNV-1a over @p n bytes — the footer checksum.  Exposed so tests can
/// craft snapshots that are corrupt in one specific way (e.g. a version
/// bump with a *valid* checksum must still be rejected by the version
/// check, not the checksum).
[[nodiscard]] inline std::uint64_t snapshot_checksum(const std::uint8_t* data,
                                                     std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// What SharedScoreCache::load made of a snapshot file.  `loaded` is false
/// whenever the cache started cold; `reason` says why (missing file, bad
/// magic, version mismatch, truncation, checksum/record corruption).
/// Loading never throws and never leaves the cache partially filled.
struct SnapshotLoadResult {
  bool loaded = false;
  /// Records actually added (records whose key was already cached in this
  /// process are skipped, so re-loading the same file is idempotent).
  std::uint64_t entries_imported = 0;
  std::string reason;
};

/// What SharedScoreCache::save did.  The write is atomic: the snapshot is
/// assembled in a uniquely-named temp file next to @p path and renamed
/// over it, so concurrent savers last-writer-win and a reader never
/// observes a torn file.
struct SnapshotSaveResult {
  bool saved = false;
  std::uint64_t entries_written = 0;
  std::string reason;
};

}  // namespace dmm::core

#endif  // DMM_CORE_CACHE_SNAPSHOT_H
