#ifndef DMM_CORE_CHECKPOINT_H
#define DMM_CORE_CHECKPOINT_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/consult.h"
#include "dmm/core/eval_engine.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

/// Cross-candidate full-skip store for incremental replay.
///
/// A *lineage* is one cold ("baseline") replay of a canonical decision
/// vector over one trace, together with its final result and its consult
/// table: for each knob group (see alloc/consult.h), whether the
/// baseline's behaviour ever consulted that group's knobs.  A candidate
/// differing from the baseline only in knobs whose groups were *never*
/// consulted (teardown included) replays bit-identically, so it is served
/// the lineage's final result outright (a "full skip").  Every other
/// candidate replays cold and publishes a lineage of its own.
///
/// The analysis is conservative: hard knobs (layout, pool structure,
/// sizing thresholds, static preallocation) always rule a skip out, and
/// every consult hook fires at the decision *point*, before the config
/// gates, so the consult table holds for any candidate pair sharing the
/// hard knobs.  Skipped scores are bit-identical to cold replays — verify
/// mode (see score_candidate_incremental) cross-checks exactly that,
/// field by field.
///
/// Thread-safe: plan/publish take one mutex; replays never hold it.
class CheckpointStore {
 public:
  /// Baseline lineages kept per trace (least-recently-used eviction).
  static constexpr std::size_t kMaxLineagesPerTrace = 8;

  /// Monotonic counters (relaxed atomics; exact in single-thread runs).
  struct Stats {
    std::uint64_t cold_replays = 0;     ///< plans that found nothing to reuse
    std::uint64_t full_skips = 0;       ///< plans served a stored final result
    std::uint64_t verified_ok = 0;      ///< verify passes that matched
    std::uint64_t verify_failures = 0;  ///< verify passes that diverged
  };

  [[nodiscard]] Stats stats() const;
  void clear();

  /// How to evaluate one candidate: a stored final result (full skip) or,
  /// when none provably applies, a cold replay.
  struct Plan {
    bool full_skip = false;
    SimResult final_sim{};        ///< full_skip only
    std::uint64_t final_work = 0;  ///< full_skip only
  };

  /// Builds the per-trace request-size table on first touch (one linear
  /// scan).  Must be called before plan()/publish() for the trace.
  void prepare_trace(std::uint64_t trace_fingerprint,
                     const TraceSource& trace);

  /// Serves @p canon a stored final result when some lineage provably
  /// equals it; otherwise plans a cold replay.
  [[nodiscard]] Plan plan(std::uint64_t trace_fingerprint,
                          const alloc::DmmConfig& canon);

  /// Records a finished cold replay as a new baseline lineage (first
  /// publisher of a canonical vector wins; over-full tables evict the
  /// least-recently-used lineage).
  void publish(std::uint64_t trace_fingerprint, const alloc::DmmConfig& canon,
               const alloc::ConsultSink& consult, const SimResult& final_sim,
               std::uint64_t final_work);

  void note_verified(bool ok);

 private:
  struct Lineage {
    alloc::DmmConfig canon{};
    alloc::ConsultSink consult{};
    SimResult final_sim{};
    std::uint64_t final_work = 0;
    std::uint64_t last_used = 0;
  };
  struct TraceEntry {
    bool prepared = false;
    /// Trace-pure routing table: the distinct request sizes the trace
    /// allocates, sorted (a big_request_bytes move matters only if one of
    /// them lands between the two thresholds).
    std::vector<std::uint64_t> alloc_sizes;
    std::vector<std::unique_ptr<Lineage>> lineages;
  };

  /// True unless replaying @p canon provably matches @p lineage's replay.
  [[nodiscard]] static bool may_diverge(const TraceEntry& entry,
                                        const Lineage& lineage,
                                        const alloc::DmmConfig& canon);

  mutable std::mutex m_;
  std::unordered_map<std::uint64_t, TraceEntry> traces_;
  std::uint64_t use_tick_ = 0;

  std::atomic<std::uint64_t> cold_replays_{0};
  std::atomic<std::uint64_t> full_skips_{0};
  std::atomic<std::uint64_t> verified_ok_{0};
  std::atomic<std::uint64_t> verify_failures_{0};
};

/// Scores @p job against @p trace through @p store: serves a stored final
/// result when the consult table proves it applies (a full skip), else
/// cold-replays and publishes a new lineage.  With @p verify every full
/// skip also replays cold and all deterministic SimResult fields plus
/// work_steps are compared bit for bit; the cold result is returned and
/// mismatches are counted on the store.  Safe from any thread.
[[nodiscard]] EvalOutcome score_candidate_incremental(
    const TraceSource& trace, const EvalJob& job, CheckpointStore& store,
    std::uint64_t trace_fingerprint, bool verify);

}  // namespace dmm::core

#endif  // DMM_CORE_CHECKPOINT_H
