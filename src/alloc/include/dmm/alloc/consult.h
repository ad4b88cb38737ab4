#ifndef DMM_ALLOC_CONSULT_H
#define DMM_ALLOC_CONSULT_H

#include <cstdint>

namespace dmm::alloc {

/// Knob-consultation groups for the incremental replay's full-skip test.
///
/// The full-skip store (core/checkpoint.h) needs to know, for a given
/// trace and baseline config, whether each *group* of decision-tree knobs
/// could ever have changed the manager's behaviour.  A candidate that
/// differs from the baseline only in knobs whose groups the baseline never
/// consulted (teardown included) replays bit-identically, so the
/// baseline's stored final result is the candidate's result.
///
/// Hooks fire at the decision *points* — before the config value gates the
/// outcome — so "never consulted" holds for any pair of configs sharing
/// the hard (structure-defining) knobs:
///
///   * kFit      — a fit policy chose among >= 1 candidate free blocks.
///   * kOrder    — a free block was filed into a non-empty index, where
///                 insertion position depends on the ordering policy.
///   * kSplit    — a reused free block was larger than the request, so the
///                 split policy decides whether to carve a remainder.
///   * kCoalesce — free-neighbour merging could run (alloc-side deferred
///                 retry or free-side immediate merge).
///   * kShrink   — an empty chunk could be returned to the system.
///
/// Soundness is structural, not conventional: allocator code never calls
/// `note_consult` by hand.  Soft knobs are read exclusively through
/// `KnobView` (dmm/alloc/knobs.h), whose accessors note their statically
/// assigned group before returning the value — reading a soft knob IS
/// consulting it.  Hard (structure-defining) knobs go through `HardKnobs`
/// and are consult-free, because the full-skip store never reuses a result
/// across configs that differ in them (`hard_mismatch` in
/// core/checkpoint.cpp).  `tools/dmm_lint` rejects raw `DmmConfig` field
/// reads outside the accessor layer and a short whitelist, so an
/// unconsulted soft-knob read cannot merge.
struct ConsultSink;

enum class ConsultGroup : int {
  kFit = 0,
  kOrder,
  kSplit,
  kCoalesce,
  kShrink,
};

inline constexpr int kConsultGroups = 5;

/// Per-replay record of the knob groups consulted so far: bit g of
/// `consulted` is set once group g was consulted (allocator hooks call
/// note()).  The simulator keeps the sink installed through its teardown
/// sweep, so a clear bit means "never consulted", teardown included.
struct ConsultSink {
  static_assert(kConsultGroups <= 8, "one bit per group in `consulted`");
  std::uint8_t consulted = 0;

  void note(ConsultGroup g) {
    consulted |= static_cast<std::uint8_t>(1u << static_cast<int>(g));
  }
  [[nodiscard]] bool was_consulted(ConsultGroup g) const {
    return ((consulted >> static_cast<int>(g)) & 1u) != 0;
  }
};

/// The active sink is thread-local: replays on distinct engine workers
/// instrument independently, and code outside an instrumented replay pays
/// one TLS load + branch per hook.
inline ConsultSink*& consult_sink_slot() {
  thread_local ConsultSink* sink = nullptr;
  return sink;
}

inline void set_consult_sink(ConsultSink* sink) { consult_sink_slot() = sink; }

inline void note_consult(ConsultGroup g) {
  if (ConsultSink* s = consult_sink_slot()) s->note(g);
}

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CONSULT_H
