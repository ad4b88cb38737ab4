// The cross-process score-cache persistence subsystem:
//  * SharedScoreCache::save / ::load round-trip every entry bit for bit,
//  * a snapshot is untrusted input — truncation, corruption, a foreign
//    magic, an unknown format version (the pre-flags v2 included), an
//    unknown entry flag, or an empty file all reject the whole file and
//    the cache starts cold (never a crash, never a partial import),
//  * lower-bound entries keep their tier across the round trip,
//  * saves are atomic (temp file + rename): concurrent savers
//    last-writer-win and the surviving file always loads,
//  * ExplorerOptions::cache_file / MethodologyOptions::cache_file thread
//    warm starts end to end: a second run over the same trace replays
//    nothing, reports persisted hits, and returns a bit-identical best.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dmm/core/cache_snapshot.h"
#include "dmm/core/explorer.h"
#include "dmm/core/methodology.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

AllocTrace variable_size_trace(std::size_t events, unsigned seed = 3) {
  AllocTrace t;
  std::mt19937 rng(seed);
  std::vector<std::uint32_t> live;
  std::uint32_t next_id = 0;
  while (t.size() < events) {
    if (live.empty() || rng() % 3 != 0) {
      const std::uint32_t sizes[] = {40, 120, 576, 900, 1500, 2048, 7000};
      t.record_alloc(next_id, sizes[rng() % 7] + rng() % 64);
      live.push_back(next_id++);
    } else {
      const std::size_t i = rng() % live.size();
      t.record_free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  t.close_leaks();
  return t;
}

/// A per-test snapshot path under gtest's temp dir, removed on teardown.
class CachePersist : public ::testing::Test {
 protected:
  CachePersist()
      : path_(::testing::TempDir() + "dmm_cache_persist_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".snapshot") {
    std::remove(path_.c_str());
  }
  ~CachePersist() override { std::remove(path_.c_str()); }

  /// Reads the snapshot into memory so a test can corrupt it surgically.
  [[nodiscard]] std::vector<std::uint8_t> slurp() const {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(std::ftell(f)));
    std::rewind(f);
    EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return buf;
  }

  void spit(const std::vector<std::uint8_t>& buf) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!buf.empty()) {  // fwrite(nullptr, ...) is UB even for 0 bytes
      ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    }
    std::fclose(f);
  }

  /// Recomputes and rewrites the trailing checksum — for tests that
  /// corrupt a *specific* field and must not be caught by the checksum.
  static void fix_checksum(std::vector<std::uint8_t>& buf) {
    const std::uint64_t sum =
        snapshot_checksum(buf.data(), buf.size() - kSnapshotChecksumBytes);
    for (int i = 0; i < 8; ++i) {
      buf[buf.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(sum >> (8 * i));
    }
  }

  /// A cache holding @p n distinct scored entries under one session.
  static std::shared_ptr<SharedScoreCache> seeded_cache(
      std::uint64_t fingerprint, int n) {
    auto cache = std::make_shared<SharedScoreCache>();
    auto session = cache->begin_search(fingerprint);
    for (int i = 0; i < n; ++i) {
      DmmConfig cfg = alloc::canonical(alloc::minimal_config());
      cfg.chunk_bytes = 4096u * static_cast<std::size_t>(i + 1);
      SharedScoreCache::Entry e;
      e.sim.peak_footprint = 1000u * static_cast<std::size_t>(i + 1);
      e.sim.final_footprint = 10u * static_cast<std::size_t>(i);
      e.sim.avg_footprint = 0.5 * i;
      e.sim.peak_live_bytes = 600u * static_cast<std::size_t>(i + 1);
      e.sim.failed_allocs = i % 2 == 0 ? 0 : 3;
      e.sim.wall_seconds = 0.001 * i;
      e.sim.events = 42u + static_cast<std::uint64_t>(i);
      e.work_steps = 7u * static_cast<std::uint64_t>(i + 1);
      session.insert_canonical(cfg, e);
    }
    return cache;
  }

  std::string path_;
};

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST_F(CachePersist, RoundTripPreservesEveryEntryAndField) {
  const auto original = seeded_cache(/*fingerprint=*/99, /*n=*/17);
  const SnapshotSaveResult saved = original->save(path_);
  ASSERT_TRUE(saved.saved) << saved.reason;
  EXPECT_EQ(saved.entries_written, 17u);

  SharedScoreCache restored;
  const SnapshotLoadResult loaded = restored.load(path_);
  ASSERT_TRUE(loaded.loaded) << loaded.reason;
  EXPECT_EQ(loaded.entries_imported, 17u);
  EXPECT_EQ(restored.size(), original->size());
  EXPECT_EQ(restored.stats().persisted_entries, 17u);

  auto session = restored.begin_search(99);
  auto expected = original->begin_search(99);
  for (int i = 0; i < 17; ++i) {
    DmmConfig cfg = alloc::canonical(alloc::minimal_config());
    cfg.chunk_bytes = 4096u * static_cast<std::size_t>(i + 1);
    SharedScoreCache::Entry got, want;
    ASSERT_TRUE(expected.lookup_canonical(cfg, &want));
    ASSERT_TRUE(session.lookup_canonical(cfg, &got)) << "entry " << i;
    EXPECT_EQ(got.sim.peak_footprint, want.sim.peak_footprint);
    EXPECT_EQ(got.sim.final_footprint, want.sim.final_footprint);
    EXPECT_EQ(got.sim.avg_footprint, want.sim.avg_footprint);
    EXPECT_EQ(got.sim.peak_live_bytes, want.sim.peak_live_bytes);
    EXPECT_EQ(got.sim.failed_allocs, want.sim.failed_allocs);
    EXPECT_EQ(got.sim.wall_seconds, want.sim.wall_seconds);
    EXPECT_EQ(got.sim.events, want.sim.events);
    EXPECT_EQ(got.work_steps, want.work_steps);
  }
  // Every hit above came from a snapshot entry, none were cross-search.
  EXPECT_EQ(session.persisted_hits(), 17u);
  EXPECT_EQ(session.cross_search_hits(), 0u);
  EXPECT_EQ(restored.stats().persisted_hits, 17u);
  EXPECT_EQ(restored.stats().cross_search_hits, 0u);
}

TEST_F(CachePersist, ReloadingTheSameFileIsIdempotent) {
  const auto cache = seeded_cache(5, 8);
  ASSERT_TRUE(cache->save(path_).saved);
  SharedScoreCache restored;
  ASSERT_TRUE(restored.load(path_).loaded);
  const SnapshotLoadResult again = restored.load(path_);
  ASSERT_TRUE(again.loaded);
  EXPECT_EQ(again.entries_imported, 0u) << "existing keys must be skipped";
  EXPECT_EQ(restored.size(), 8u);
  EXPECT_EQ(restored.stats().persisted_entries, 8u);
}

TEST_F(CachePersist, InProcessEntriesKeepTheirProvenanceOverAReload) {
  const auto cache = seeded_cache(5, 4);
  ASSERT_TRUE(cache->save(path_).saved);
  // The same keys are re-imported into the cache that owns them: the
  // in-process entries must win, so hits on them stay cross-search (paid
  // by session 1 of this process), not persisted.
  ASSERT_TRUE(cache->load(path_).loaded);
  auto session = cache->begin_search(5);
  DmmConfig cfg = alloc::canonical(alloc::minimal_config());
  cfg.chunk_bytes = 4096;
  SharedScoreCache::Entry out;
  ASSERT_TRUE(session.lookup_canonical(cfg, &out));
  EXPECT_EQ(session.cross_search_hits(), 1u);
  EXPECT_EQ(session.persisted_hits(), 0u);
}

// ---------------------------------------------------------------------------
// Untrusted input: reject whole, start cold, never crash
// ---------------------------------------------------------------------------

TEST_F(CachePersist, MissingFileStartsCold) {
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("cannot read"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, EmptyFileStartsCold) {
  spit({});
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("shorter than header"), std::string::npos);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, TruncatedFileStartsCold) {
  ASSERT_TRUE(seeded_cache(1, 6)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  buf.resize(buf.size() - kSnapshotRecordBytes / 2);
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("truncated"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u) << "rejection must be all-or-nothing";
}

TEST_F(CachePersist, CorruptMagicStartsCold) {
  ASSERT_TRUE(seeded_cache(1, 3)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  buf[0] ^= 0xFF;
  fix_checksum(buf);  // the magic check must fire, not the checksum
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("bad magic"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, FutureVersionStartsCold) {
  ASSERT_TRUE(seeded_cache(1, 3)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  buf[8] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  fix_checksum(buf);  // a valid file of a future format, not bit rot
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("version"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, VersionTwoSnapshotStartsCold) {
  // Version 2 records carry no entry-flags word; such a file is rejected
  // whole rather than misparsed.
  ASSERT_TRUE(seeded_cache(1, 3)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  ASSERT_EQ(kSnapshotVersion, 3u);
  buf[8] = 2;
  fix_checksum(buf);
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("version 2"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, LowerBoundFlagSurvivesTheRoundTrip) {
  const DmmConfig bound = alloc::canonical(alloc::minimal_config());
  const DmmConfig exact = alloc::canonical(alloc::drr_paper_config());
  {
    SharedScoreCache cache;
    auto session = cache.begin_search(9);
    SharedScoreCache::Entry e;
    e.sim.peak_footprint = 5000;
    e.sim.stopped = true;
    session.insert_canonical(bound, e);
    e.sim.stopped = false;
    session.insert_canonical(exact, e);
    ASSERT_TRUE(cache.save(path_).saved);
  }
  SharedScoreCache cache;
  ASSERT_TRUE(cache.load(path_).loaded);
  auto session = cache.begin_search(9);
  SharedScoreCache::Entry out;
  EXPECT_FALSE(session.lookup_canonical(bound, &out))
      << "a persisted lower bound must not answer an exact lookup";
  ASSERT_TRUE(session.lookup_canonical(bound, &out, 4999));
  EXPECT_TRUE(out.sim.stopped);
  ASSERT_TRUE(session.lookup_canonical(exact, &out));
  EXPECT_FALSE(out.sim.stopped);

  // Any entry flag besides the lower-bound bit is a corrupt record.
  std::vector<std::uint8_t> buf = slurp();
  buf[kSnapshotHeaderBytes + kSnapshotRecordBytes - 1] = 0x80;
  fix_checksum(buf);
  spit(buf);
  SharedScoreCache fresh;
  const SnapshotLoadResult r = fresh.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("corrupt record"), std::string::npos) << r.reason;
  EXPECT_EQ(fresh.size(), 0u);
}

TEST_F(CachePersist, FlippedBodyByteStartsCold) {
  ASSERT_TRUE(seeded_cache(1, 3)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  buf[kSnapshotHeaderBytes + 20] ^= 0x40;  // somewhere inside record 0
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("checksum"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, OutOfRangeLeafStartsCold) {
  ASSERT_TRUE(seeded_cache(1, 1)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  // First leaf byte of record 0 (after fingerprint + canonical hash):
  // 0xEE is a leaf index no tree has.  Recompute the checksum so only the
  // record validation can catch it.
  buf[kSnapshotHeaderBytes + 16] = 0xEE;
  fix_checksum(buf);
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("corrupt record"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, ForgedWrappedEntryCountStartsCold) {
  ASSERT_TRUE(seeded_cache(1, 3)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  // Pad the body by one byte so its length is no longer a multiple of the
  // record size, then store the one count whose naive
  // `header + count * record + footer` computation wraps mod 2^64 back to
  // the padded file size: (size - 28) * record^-1.  A loader that
  // validated by multiplication would accept the file and then try to
  // allocate ~10^17 parse slots; the division-based check must reject it.
  buf.insert(buf.end() - kSnapshotChecksumBytes, 0x00);
  std::uint64_t inv = 1;  // Newton iteration for record^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inv *= 2 - kSnapshotRecordBytes * inv;
  ASSERT_EQ(inv * kSnapshotRecordBytes, 1u);
  const std::uint64_t forged =
      (buf.size() - kSnapshotHeaderBytes - kSnapshotChecksumBytes) * inv;
  ASSERT_GT(forged, std::uint64_t{1} << 32)
      << "the forged count must be absurd";
  for (int i = 0; i < 8; ++i) {
    buf[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(forged >> (8 * i));
  }
  fix_checksum(buf);
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("truncated"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CachePersist, TamperedKnobFailsTheCanonicalHashCheck) {
  ASSERT_TRUE(seeded_cache(1, 1)->save(path_).saved);
  std::vector<std::uint8_t> buf = slurp();
  // chunk_bytes lives right after the 15 leaf bytes; growing it yields a
  // well-formed record whose stored canonical hash no longer matches.
  buf[kSnapshotHeaderBytes + 16 + 15] ^= 0x01;
  fix_checksum(buf);
  spit(buf);
  SharedScoreCache cache;
  const SnapshotLoadResult r = cache.load(path_);
  EXPECT_FALSE(r.loaded);
  EXPECT_NE(r.reason.find("corrupt record"), std::string::npos) << r.reason;
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Atomic saves
// ---------------------------------------------------------------------------

TEST_F(CachePersist, ConcurrentSavesLastWriterWinsNoTornFile) {
  const auto a = seeded_cache(/*fingerprint=*/1, /*n=*/32);
  const auto b = seeded_cache(/*fingerprint=*/2, /*n=*/48);
  constexpr int kRounds = 25;
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) ASSERT_TRUE(a->save(path_).saved);
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i) ASSERT_TRUE(b->save(path_).saved);
  });
  ta.join();
  tb.join();
  // Whoever renamed last, the file is one complete snapshot — never an
  // interleaving of the two.
  SharedScoreCache restored;
  const SnapshotLoadResult r = restored.load(path_);
  ASSERT_TRUE(r.loaded) << r.reason;
  EXPECT_TRUE(restored.size() == 32u || restored.size() == 48u)
      << "got " << restored.size();
}

TEST_F(CachePersist, SaveIntoMissingDirectoryFailsGracefully) {
  const auto cache = seeded_cache(1, 2);
  const SnapshotSaveResult r =
      cache->save(::testing::TempDir() + "no_such_dir_dmm/x.snapshot");
  EXPECT_FALSE(r.saved);
  EXPECT_FALSE(r.reason.empty());
}

// ---------------------------------------------------------------------------
// End to end: warm explorer and methodology runs
// ---------------------------------------------------------------------------

TEST_F(CachePersist, SecondExplorerRunIsServedEntirelyFromTheSnapshot) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(2500));
  ExplorerOptions opts;
  opts.cache_file = path_;

  ExplorationResult cold;
  {
    Explorer ex(trace, opts);
    cold = ex.explore();
    EXPECT_GT(cold.simulations, 0u);
    EXPECT_EQ(cold.persisted_hits, 0u);
  }  // ~Explorer saves the snapshot

  Explorer warm_ex(trace, opts);  // fresh cache object, loads the file
  const ExplorationResult warm = warm_ex.explore();
  EXPECT_EQ(warm.best, cold.best) << "warm best must be bit-identical";
  EXPECT_EQ(warm.best_sim.peak_footprint, cold.best_sim.peak_footprint);
  EXPECT_EQ(warm.best_sim.avg_footprint, cold.best_sim.avg_footprint);
  EXPECT_EQ(warm.work_steps, cold.work_steps);
  EXPECT_EQ(warm.feasible, cold.feasible);
  EXPECT_EQ(warm.simulations, 0u)
      << "every previously-seen canonical config must skip its replay";
  EXPECT_EQ(warm.persisted_hits, cold.simulations + cold.cache_hits)
      << "warm persisted hits == cold evaluations";
  EXPECT_EQ(warm.cache_hits, warm.persisted_hits);
  EXPECT_EQ(warm.cross_search_hits, 0u)
      << "persisted hits are accounted apart from cross-search hits";
}

TEST_F(CachePersist, CorruptSnapshotDegradesToAColdRunNotAnError) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(2000));
  ExplorerOptions opts;
  opts.cache_file = path_;
  ExplorationResult cold;
  {
    Explorer ex(trace, opts);
    cold = ex.explore();
  }
  std::vector<std::uint8_t> buf = slurp();
  buf[buf.size() / 2] ^= 0xFF;
  spit(buf);

  {
    Explorer ex(trace, opts);
    const ExplorationResult again = ex.explore();
    EXPECT_EQ(again.best, cold.best);
    EXPECT_EQ(again.simulations, cold.simulations)
        << "a rejected snapshot means a full cold search";
    EXPECT_EQ(again.persisted_hits, 0u);
  }
  // ... and the rerun has re-saved a healthy snapshot over the corrupt one.
  SharedScoreCache check;
  EXPECT_TRUE(check.load(path_).loaded);
}

TEST_F(CachePersist, DesignManagerWarmRunReplaysNothing) {
  const AllocTrace trace = variable_size_trace(2000);
  MethodologyOptions options;
  options.validate = true;
  options.validation_trees = {TreeId::kA2, TreeId::kA5, TreeId::kE2};
  options.cache_file = path_;

  const MethodologyResult cold = design_manager(trace, options);
  EXPECT_GT(cold.total_simulations, 0u);
  EXPECT_EQ(cold.total_persisted_hits, 0u);

  const MethodologyResult warm = design_manager(trace, options);
  ASSERT_EQ(warm.phase_configs.size(), cold.phase_configs.size());
  for (std::size_t i = 0; i < warm.phase_configs.size(); ++i) {
    EXPECT_EQ(warm.phase_configs[i], cold.phase_configs[i]) << "phase " << i;
  }
  EXPECT_EQ(warm.total_simulations, 0u);
  EXPECT_EQ(warm.total_persisted_hits,
            cold.total_simulations + cold.total_cache_hits);
}

TEST_F(CachePersist, CacheFileWithCachingOffIsIgnored) {
  const auto trace =
      std::make_shared<const AllocTrace>(variable_size_trace(1000));
  ExplorerOptions opts;
  opts.cache = false;
  opts.cache_file = path_;
  {
    Explorer ex(trace, opts);
    (void)ex.explore();
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "no cache, nothing to persist";
  if (f != nullptr) std::fclose(f);
}

}  // namespace
}  // namespace dmm::core
