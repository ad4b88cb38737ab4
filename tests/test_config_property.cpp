// Property tests over randomized valid decision vectors:
//   * canonical() is idempotent,
//   * canonical-equal vectors hash equal (the cache-key contract),
//   * the typed knob view (KnobView) returns exactly what the raw fields
//     hold.

#include <gtest/gtest.h>

#include <random>

#include "dmm/alloc/config.h"
#include "dmm/alloc/knobs.h"
#include "dmm/core/constraints.h"
#include "dmm/core/design_space.h"

namespace {

using namespace dmm;
using alloc::DmmConfig;

/// Uniformly random leaves on every tree plus randomized numeric knobs,
/// repaired into a valid vector (all trees undecided, so repair may nudge
/// anything until no interdependency rule is violated).
DmmConfig random_valid_config(std::mt19937& rng) {
  DmmConfig cfg;
  for (core::TreeId t : core::all_trees()) {
    std::uniform_int_distribution<int> leaf(0, core::leaf_count(t) - 1);
    core::set_leaf(cfg, t, leaf(rng));
  }
  static constexpr std::size_t kChunk[] = {4096, 16384, 65536};
  static constexpr std::size_t kBig[] = {2048, 8192, 32768};
  static constexpr std::size_t kStatic[] = {1u << 18, 1u << 20};
  static constexpr std::size_t kSplitMin[] = {256, 2048};
  static constexpr unsigned kMaxLog2[] = {12, 16};
  std::uniform_int_distribution<int> pick(0, 1);
  std::uniform_int_distribution<int> pick3(0, 2);
  cfg.chunk_bytes = kChunk[pick3(rng)];
  cfg.big_request_bytes = kBig[pick3(rng)];
  cfg.static_pool_bytes = kStatic[pick(rng)];
  cfg.deferred_split_min = kSplitMin[pick(rng)];
  cfg.max_class_log2 = kMaxLog2[pick(rng)];
  const core::DecidedMask none{};
  return core::Constraints::repair(cfg, none);
}

TEST(CanonicalProperty, Idempotent) {
  std::mt19937 rng(20040216);
  for (int i = 0; i < 2000; ++i) {
    const DmmConfig v = random_valid_config(rng);
    const DmmConfig c = alloc::canonical(v);
    EXPECT_EQ(alloc::canonical(c), c)
        << "canonical not idempotent for " << alloc::signature(v);
  }
}

TEST(CanonicalProperty, CanonicalEqualVectorsHashEqual) {
  std::mt19937 rng(4711);
  for (int i = 0; i < 2000; ++i) {
    const DmmConfig a = random_valid_config(rng);
    const DmmConfig b = random_valid_config(rng);
    const DmmConfig ca = alloc::canonical(a);
    const DmmConfig cb = alloc::canonical(b);
    if (ca == cb) {
      EXPECT_EQ(alloc::hash_value(ca), alloc::hash_value(cb));
    }
    // hash agrees with operator== on identical vectors by construction.
    EXPECT_EQ(alloc::hash_value(ca), alloc::hash_value(alloc::canonical(a)));
  }
}

// Vectors differing only in knobs the manager provably never reads must
// collapse to one canonical form (this is what makes the score cache
// collide repaired completions into hits).
TEST(CanonicalProperty, DeadKnobsCollapse) {
  std::mt19937 rng(99);
  int exercised = 0;
  for (int i = 0; i < 4000 && exercised < 300; ++i) {
    DmmConfig a = random_valid_config(rng);

    // Split machinery off -> E1 and the split threshold are dead.
    if (a.flexible == alloc::FlexibleBlockSize::kNone ||
        a.flexible == alloc::FlexibleBlockSize::kCoalesceOnly ||
        a.split_when == alloc::SplitWhen::kNever) {
      DmmConfig b = a;
      b.split_sizes = b.split_sizes == alloc::SplitSizes::kNotFixed
                          ? alloc::SplitSizes::kBoundedByClass
                          : alloc::SplitSizes::kNotFixed;
      b.deferred_split_min = a.deferred_split_min + 512;
      EXPECT_EQ(alloc::canonical(a), alloc::canonical(b))
          << "dead split knobs leaked into canonical form: "
          << alloc::signature(a);
      EXPECT_EQ(alloc::hash_value(alloc::canonical(a)),
                alloc::hash_value(alloc::canonical(b)));
      ++exercised;
    }

    // Self-ordering DDT -> the C2 ordering knob is dead.
    if (a.block_structure == alloc::BlockStructure::kSinglySortedBySize ||
        a.block_structure == alloc::BlockStructure::kDoublySortedBySize ||
        a.block_structure == alloc::BlockStructure::kSizeBinaryTree) {
      DmmConfig b = a;
      b.order = a.order == alloc::FreeListOrder::kFIFO
                    ? alloc::FreeListOrder::kLIFO
                    : alloc::FreeListOrder::kFIFO;
      EXPECT_EQ(alloc::canonical(a), alloc::canonical(b))
          << "dead ordering knob leaked into canonical form: "
          << alloc::signature(a);
      ++exercised;
    }

    // Non-static adaptivity -> the static preallocation size is dead.
    if (a.adaptivity != alloc::PoolAdaptivity::kStaticPreallocated) {
      DmmConfig b = a;
      b.static_pool_bytes = a.static_pool_bytes * 2;
      EXPECT_EQ(alloc::canonical(a), alloc::canonical(b))
          << "dead static_pool_bytes leaked into canonical form: "
          << alloc::signature(a);
      ++exercised;
    }
  }
  EXPECT_GE(exercised, 300) << "random sampling starved the dead-knob cases";
}

// The knob view must be a pure view: every accessor returns exactly
// the raw field (or the documented derived predicate) for any valid vector.
TEST(AccessorProperty, ViewsAgreeWithRawFields) {
  std::mt19937 rng(181);
  for (int i = 0; i < 2000; ++i) {
    const DmmConfig v = random_valid_config(rng);
    const alloc::KnobView knobs(v);

    EXPECT_EQ(knobs.block_structure(), v.block_structure);
    EXPECT_EQ(knobs.block_sizes(), v.block_sizes);
    EXPECT_EQ(knobs.block_tags(), v.block_tags);
    EXPECT_EQ(knobs.recorded_info(), v.recorded_info);
    EXPECT_EQ(knobs.pool_division(), v.pool_division);
    EXPECT_EQ(knobs.pool_structure(), v.pool_structure);
    EXPECT_EQ(knobs.pool_count(), v.pool_count);
    EXPECT_EQ(knobs.static_preallocated(),
              v.adaptivity == alloc::PoolAdaptivity::kStaticPreallocated);
    EXPECT_EQ(knobs.chunk_bytes(), v.chunk_bytes);
    EXPECT_EQ(knobs.static_pool_bytes(), v.static_pool_bytes);
    EXPECT_EQ(knobs.max_class_log2(), v.max_class_log2);
    EXPECT_EQ(knobs.big_request_bytes(), v.big_request_bytes);

    EXPECT_EQ(knobs.fit(), v.fit);
    EXPECT_EQ(knobs.order(), v.order);
    EXPECT_EQ(knobs.splitting_granted(),
              v.flexible == alloc::FlexibleBlockSize::kSplitOnly ||
                  v.flexible == alloc::FlexibleBlockSize::kSplitAndCoalesce);
    EXPECT_EQ(knobs.split_when(), v.split_when);
    EXPECT_EQ(knobs.split_sizes(), v.split_sizes);
    EXPECT_EQ(knobs.deferred_split_min(), v.deferred_split_min);
    EXPECT_EQ(knobs.coalescing_granted(),
              v.flexible == alloc::FlexibleBlockSize::kCoalesceOnly ||
                  v.flexible == alloc::FlexibleBlockSize::kSplitAndCoalesce);
    EXPECT_EQ(knobs.coalesce_when(), v.coalesce_when);
    EXPECT_EQ(knobs.coalesce_sizes(), v.coalesce_sizes);
    EXPECT_EQ(knobs.releases_empty_chunks(),
              v.adaptivity == alloc::PoolAdaptivity::kGrowAndShrink);
  }
}

// Repair must emit vectors the constraint engine itself accepts: the
// canonical quotient respects validity (sanity for the generator above).
TEST(AccessorProperty, RandomVectorsSurviveCanonicalRoundTrip) {
  std::mt19937 rng(5);
  for (int i = 0; i < 500; ++i) {
    const DmmConfig v = random_valid_config(rng);
    const DmmConfig c = alloc::canonical(v);
    // Signatures only differ where canonicalization collapsed dead knobs;
    // both must describe the same behavioural manager.
    EXPECT_EQ(alloc::hash_value(c),
              alloc::hash_value(alloc::canonical(alloc::canonical(v))));
  }
}

}  // namespace
