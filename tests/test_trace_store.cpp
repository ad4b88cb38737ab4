// DMMT trace store: round trips must preserve the event stream,
// fingerprint, stats, and id bounds bit-for-bit; every corruption mode
// (truncation, bit flips, bad magic, future versions, forged indexes)
// must reject cleanly at open; and a file-backed exploration must be
// bit-identical to the same search on the in-memory trace at every thread
// count.

#include "dmm/trace/trace_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dmm/core/explorer.h"
#include "dmm/trace/trace_codec.h"
#include "dmm/workloads/workload.h"

namespace dmm::trace {
namespace {

using core::AllocEvent;
using core::AllocTrace;
using core::TraceStats;

AllocTrace workload_trace(const std::string& name,
                          std::size_t max_events = 0) {
  AllocTrace t = workloads::record_trace(workloads::case_study(name), 7);
  if (max_events != 0 && t.size() > max_events) {
    t.events().resize(max_events);
    t.close_leaks();
  }
  std::string why;
  EXPECT_TRUE(t.validate(&why)) << name << ": " << why;
  return t;
}

void expect_stats_eq(const TraceStats& a, const TraceStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.allocs, b.allocs) << what;
  EXPECT_EQ(a.frees, b.frees) << what;
  EXPECT_EQ(a.peak_live_bytes, b.peak_live_bytes) << what;
  EXPECT_EQ(a.peak_live_blocks, b.peak_live_blocks) << what;
  EXPECT_EQ(a.distinct_sizes, b.distinct_sizes) << what;
  EXPECT_EQ(a.min_size, b.min_size) << what;
  EXPECT_EQ(a.max_size, b.max_size) << what;
  EXPECT_DOUBLE_EQ(a.mean_size, b.mean_size) << what;
  EXPECT_DOUBLE_EQ(a.mean_lifetime_events, b.mean_lifetime_events) << what;
  EXPECT_EQ(a.phases, b.phases) << what;
  EXPECT_EQ(a.class_histogram, b.class_histogram) << what;
  EXPECT_EQ(a.top_sizes, b.top_sizes) << what;
}

/// A per-test .dmmt path under gtest's temp dir, removed on teardown.
class TraceStore : public ::testing::Test {
 protected:
  TraceStore()
      : path_(::testing::TempDir() + "dmm_trace_store_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".dmmt") {
    std::remove(path_.c_str());
  }
  ~TraceStore() override { std::remove(path_.c_str()); }

  std::vector<std::uint8_t> read_file() const {
    std::vector<std::uint8_t> bytes;
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  void write_file(const std::vector<std::uint8_t>& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  /// Writes the DRR trace, returns it, and asserts the file opens clean.
  AllocTrace write_drr(std::uint32_t block_events = 256) {
    AllocTrace t = workload_trace("drr");
    TraceWriter::Options o;
    o.block_events = block_events;
    std::string why;
    EXPECT_TRUE(write_trace_file(t, path_, o, &why)) << why;
    return t;
  }

  std::string path_;
};

TEST_F(TraceStore, RoundTripsEveryBundledWorkload) {
  for (const std::string name : {"drr", "recon3d", "render3d"}) {
    const AllocTrace t = workload_trace(name);
    std::string why;
    ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << name << ": " << why;
    const auto m = MappedTrace::open(path_, &why);
    ASSERT_NE(m, nullptr) << name << ": " << why;

    EXPECT_EQ(m->event_count(), t.size()) << name;
    EXPECT_EQ(m->fingerprint(), t.fingerprint()) << name;
    EXPECT_EQ(m->id_bounds().max_id, t.id_bounds().max_id) << name;
    EXPECT_EQ(m->id_bounds().allocs, t.id_bounds().allocs) << name;
    expect_stats_eq(m->stats(), t.stats(), name);
    EXPECT_TRUE(m->verify_blocks(&why)) << name << ": " << why;

    const AllocTrace back = m->materialize();
    ASSERT_EQ(back.size(), t.size()) << name;
    EXPECT_TRUE(back.events() == t.events()) << name;
    EXPECT_EQ(back.fingerprint(), t.fingerprint()) << name;
  }
}

TEST_F(TraceStore, StreamingWriterMatchesWholeTraceHelper) {
  const AllocTrace t = workload_trace("drr", 5000);
  std::string why;
  auto w = TraceWriter::create(path_, &why);
  ASSERT_NE(w, nullptr) << why;
  for (const AllocEvent& e : t.events()) w->add(e);
  ASSERT_TRUE(w->finish(&why)) << why;

  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_EQ(m->fingerprint(), t.fingerprint());
  EXPECT_TRUE(m->materialize().events() == t.events());
}

TEST_F(TraceStore, CursorStreamsEveryEventInOrder) {
  const AllocTrace t = write_drr(64);
  std::string why;
  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_GT(m->block_count(), 1u);

  const auto cur = m->cursor();
  std::vector<AllocEvent> got;
  const AllocEvent* run = nullptr;
  std::size_t n = 0;
  while ((n = cur->next(&run)) != 0) {
    got.insert(got.end(), run, run + n);
    EXPECT_LE(n, m->block_events());
  }
  EXPECT_TRUE(got == t.events());
  EXPECT_EQ(cur->next(&run), 0u);  // stays at end
}

TEST_F(TraceStore, EmptyTraceRoundTrips) {
  const AllocTrace t;
  std::string why;
  ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << why;
  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_EQ(m->event_count(), 0u);
  EXPECT_EQ(m->fingerprint(), t.fingerprint());
  const auto cur = m->cursor();
  const AllocEvent* run = nullptr;
  EXPECT_EQ(cur->next(&run), 0u);
}

TEST_F(TraceStore, SniffsMagic) {
  (void)write_drr();
  EXPECT_TRUE(is_trace_file(path_));
  write_file({'n', 'o', 'p', 'e'});
  EXPECT_FALSE(is_trace_file(path_));
  EXPECT_FALSE(is_trace_file(path_ + ".does-not-exist"));
}

// --- Corruption matrix: every mutation must reject at open, whole. ------

TEST_F(TraceStore, RejectsMissingFile) {
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_ + ".absent", &why), nullptr);
  EXPECT_FALSE(why.empty());
}

TEST_F(TraceStore, RejectsTruncatedHeader) {
  (void)write_drr();
  auto bytes = read_file();
  bytes.resize(kTraceHeaderBytes - 1);
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("header"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsBadMagic) {
  (void)write_drr();
  auto bytes = read_file();
  bytes[0] ^= 0xffu;
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("magic"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsFutureVersion) {
  (void)write_drr();
  auto bytes = read_file();
  bytes[4] = static_cast<std::uint8_t>(kTraceVersion + 1);
  // Re-seal the header checksum so *only* the version is at fault.
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < 80; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  std::memcpy(&bytes[80], &h, 8);
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsHeaderChecksumMismatch) {
  (void)write_drr();
  auto bytes = read_file();
  bytes[8] ^= 0x01u;  // event_count low byte
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("checksum"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsAnyFlippedBodyBit) {
  (void)write_drr(64);
  const auto clean = read_file();
  // Flip one byte in each region beyond the header: early block, late
  // block, stats blob, index.  Every single one must fail open.
  const std::size_t probes[] = {kTraceHeaderBytes + 3, clean.size() / 2,
                                clean.size() - 9, clean.size() - 1};
  for (const std::size_t at : probes) {
    auto bytes = clean;
    bytes[at] ^= 0x10u;
    write_file(bytes);
    std::string why;
    EXPECT_EQ(MappedTrace::open(path_, &why), nullptr)
        << "flip at " << at << " was accepted";
    EXPECT_FALSE(why.empty());
  }
}

TEST_F(TraceStore, RejectsTruncatedBody) {
  (void)write_drr(64);
  const auto clean = read_file();
  for (const std::size_t keep :
       {kTraceHeaderBytes, clean.size() / 3, clean.size() - 1}) {
    auto bytes = clean;
    bytes.resize(keep);
    write_file(bytes);
    std::string why;
    EXPECT_EQ(MappedTrace::open(path_, &why), nullptr)
        << "truncation to " << keep << " was accepted";
  }
}

TEST_F(TraceStore, RejectsTrailingGarbage) {
  (void)write_drr();
  auto bytes = read_file();
  bytes.push_back(0xeeu);
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
}

// --- Codec edge cases ---------------------------------------------------

TEST(TraceCodec, VarintRoundTripsBoundaryValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0x7fffffffffffffffull, 0xffffffffffffffffull}) {
    std::vector<std::uint8_t> buf;
    put_varint(&buf, v);
    const std::uint8_t* p = buf.data();
    std::uint64_t got = 0;
    ASSERT_TRUE(get_varint(&p, buf.data() + buf.size(), &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(TraceCodec, VarintRejectsTruncationAndOverflow) {
  std::vector<std::uint8_t> buf;
  put_varint(&buf, 0xffffffffffffffffull);
  const std::uint8_t* p = buf.data();
  std::uint64_t got = 0;
  EXPECT_FALSE(get_varint(&p, buf.data() + buf.size() - 1, &got));
  // 11-byte continuation run: more than 64 bits of payload.
  const std::vector<std::uint8_t> wide(11, 0x80u);
  p = wide.data();
  EXPECT_FALSE(get_varint(&p, wide.data() + wide.size(), &got));
}

TEST(TraceCodec, DecodeRejectsTrailingGarbage) {
  std::vector<AllocEvent> ev(3);
  ev[0] = {AllocEvent::Op::kAlloc, 1, 64, 0};
  ev[1] = {AllocEvent::Op::kAlloc, 2, 32, 0};
  ev[2] = {AllocEvent::Op::kFree, 1, 0, 1};
  std::vector<std::uint8_t> payload;
  encode_block(ev.data(), ev.size(), &payload);
  std::vector<AllocEvent> out(3);
  ASSERT_TRUE(
      decode_block(payload.data(), payload.size(), out.size(), out.data()));
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_TRUE(out[i] == ev[i]);
  payload.push_back(0);
  EXPECT_FALSE(
      decode_block(payload.data(), payload.size(), out.size(), out.data()));
}

// --- Fingerprint memoization (satellite 1) ------------------------------

TEST(TraceFingerprint, MemoizedValueSurvivesRepeatedCalls) {
  AllocTrace t = workload_trace("drr", 2000);
  const std::uint64_t fp = t.fingerprint();
  EXPECT_EQ(t.fingerprint(), fp);
  EXPECT_EQ(t.fingerprint(), fp);
}

TEST(TraceFingerprint, MutationInvalidatesCache) {
  AllocTrace t;
  t.record_alloc(0, 64, 0);
  const std::uint64_t fp1 = t.fingerprint();
  t.record_alloc(1, 128, 0);
  const std::uint64_t fp2 = t.fingerprint();
  EXPECT_NE(fp1, fp2);
  t.record_free(1, 0);
  EXPECT_NE(t.fingerprint(), fp2);
  // Mutation through the non-const accessor also invalidates.
  AllocTrace u = t;
  EXPECT_EQ(u.fingerprint(), t.fingerprint());
  u.events().pop_back();
  EXPECT_NE(u.fingerprint(), t.fingerprint());
}

TEST(TraceFingerprint, AccumulatorAgreesWithAllocTrace) {
  const AllocTrace t = workload_trace("recon3d");
  core::TraceAccumulator acc;
  for (const AllocEvent& e : t.events()) acc.add(e);
  EXPECT_EQ(acc.fingerprint(), t.fingerprint());
  expect_stats_eq(acc.stats(), t.stats(), "accumulator");
  EXPECT_EQ(acc.id_bounds().max_id, t.id_bounds().max_id);
  EXPECT_EQ(acc.id_bounds().allocs, t.id_bounds().allocs);
}

// --- File-backed search parity ------------------------------------------

TEST_F(TraceStore, FileBackedExplorationIsBitIdenticalToInMemory) {
  const AllocTrace t = write_drr();
  std::string why;
  std::shared_ptr<const MappedTrace> mapped = MappedTrace::open(path_, &why);
  ASSERT_NE(mapped, nullptr) << why;

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    core::ExplorerOptions opts;
    opts.num_threads = threads;
    core::Explorer in_memory(t, opts);
    core::Explorer file_backed(mapped, opts);
    const core::ExplorationResult a = in_memory.explore();
    const core::ExplorationResult b = file_backed.explore();

    EXPECT_EQ(a.best, b.best) << threads << " threads";
    EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint)
        << threads << " threads";
    EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs)
        << threads << " threads";
    EXPECT_EQ(a.work_steps, b.work_steps) << threads << " threads";
    EXPECT_EQ(a.feasible, b.feasible) << threads << " threads";
    EXPECT_EQ(a.simulations, b.simulations) << threads << " threads";
    ASSERT_EQ(a.steps.size(), b.steps.size()) << threads << " threads";
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen)
          << threads << " threads, step " << i;
    }
  }
}

}  // namespace
}  // namespace dmm::trace
