#ifndef DMM_CORE_EVAL_ENGINE_H
#define DMM_CORE_EVAL_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/cache_snapshot.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

/// One candidate evaluation: a complete decision vector plus a caller tag
/// (leaf index, odometer position, ...) for mapping the result back.
///
/// `peak_cutoff` (0 = none) is the caller's promise that any peak above it
/// decides the outcome the same way (AnnealingSearch: certain rejection).
/// The replay then stops once its running peak passes the cutoff and the
/// outcome comes back with `sim.stopped` set and a lower-bound peak; a
/// cache may answer such a job with a lower-bound entry already above the
/// cutoff.  A cutoff job always replays cold, never from the full-skip
/// store.
struct EvalJob {
  alloc::DmmConfig cfg{};
  std::uint64_t tag = 0;
  std::size_t peak_cutoff = 0;
};

/// What scoring one job produced.  `from_cache` marks evaluations served
/// without a trace replay (memoized, or a duplicate within the batch).
///
/// `replayed_events` counts the trace events this outcome actually replayed
/// (full event count for a cold replay, the events up to the stop for a
/// replay past its peak cutoff, 0 for cache hits and full skips);
/// `full_skip` marks outcomes served a stored final result by the
/// incremental-replay store (core/checkpoint.h).  Neither affects the
/// score: `sim`/`work_steps` are bit-identical to a cold replay (stopped
/// at the same cutoff, for a cutoff job).
struct EvalOutcome {
  std::uint64_t tag = 0;
  SimResult sim{};
  std::uint64_t work_steps = 0;
  bool from_cache = false;
  std::uint64_t replayed_events = 0;
  bool full_skip = false;
};

/// The caching seam every engine consults during evaluate(): a memoized
/// score store keyed by *canonical* decision vectors (alloc::canonical).
/// evaluate() canonicalizes each job exactly once and reuses that form for
/// the lookup, the in-batch dedup, and the insert, so implementations never
/// re-canonicalize.  Calls arrive only from the coordinating thread of one
/// search; thread-safety across *searches* is the implementation's concern
/// (ScoreCache has none and needs none, SharedScoreCache stripes locks).
///
/// Entries come in two tiers.  An *exact* entry holds a whole replay's
/// score and answers every lookup.  A *lower-bound* entry holds a replay
/// stopped at a peak cutoff (`sim.stopped`): it answers only a lookup whose
/// own cutoff its peak already exceeds, never one that needs the exact
/// score.  Inserting over a lower-bound entry upgrades it when the new
/// entry is exact or stopped at a higher peak; exact entries never change
/// (replays are deterministic).
class CandidateCache {
 public:
  struct Entry {
    SimResult sim{};
    std::uint64_t work_steps = 0;
  };

  virtual ~CandidateCache() = default;

  /// True (and *out filled) when @p canon has a memoized score that
  /// answers a job with @p peak_cutoff (see serves()).
  [[nodiscard]] virtual bool lookup_canonical(const alloc::DmmConfig& canon,
                                              Entry* out,
                                              std::size_t peak_cutoff = 0) = 0;
  /// Stores @p entry, or upgrades a lower-bound entry (see upgrades()).
  virtual void insert_canonical(const alloc::DmmConfig& canon,
                                const Entry& entry) = 0;
  /// True iff lookup_canonical(@p canon, ..., @p peak_cutoff) would hit
  /// now.  Read-only: no hit is counted and no recency is touched.
  [[nodiscard]] virtual bool probe_canonical(const alloc::DmmConfig& canon,
                                             std::size_t peak_cutoff) = 0;

  /// True iff @p stored answers a job with @p peak_cutoff: always when it
  /// is exact, and when it is a lower bound already above a non-zero
  /// cutoff.
  [[nodiscard]] static bool serves(const Entry& stored,
                                   std::size_t peak_cutoff) {
    return !stored.sim.stopped ||
           (peak_cutoff != 0 && stored.sim.peak_footprint > peak_cutoff);
  }
  /// True iff @p incoming replaces @p stored: a lower-bound entry yields to
  /// an exact one or to a replay that stopped at a higher peak.
  [[nodiscard]] static bool upgrades(const Entry& incoming,
                                     const Entry& stored) {
    return stored.sim.stopped &&
           (!incoming.sim.stopped ||
            incoming.sim.peak_footprint > stored.sim.peak_footprint);
  }
};

/// Per-search memoized scores — repaired completions collide often within
/// one greedy walk, and a hit skips a whole trace replay.  Only ever
/// touched by the search's coordinating thread, so it needs no locking.
class ScoreCache final : public CandidateCache {
 public:
  using Entry = CandidateCache::Entry;

  /// nullptr when the canonical form of @p cfg has no exact score yet.
  [[nodiscard]] const Entry* lookup(const alloc::DmmConfig& cfg) const;
  void insert(const alloc::DmmConfig& cfg, const Entry& entry);

  [[nodiscard]] bool lookup_canonical(const alloc::DmmConfig& canon,
                                      Entry* out,
                                      std::size_t peak_cutoff = 0) override;
  void insert_canonical(const alloc::DmmConfig& canon,
                        const Entry& entry) override;
  [[nodiscard]] bool probe_canonical(const alloc::DmmConfig& canon,
                                     std::size_t peak_cutoff) override;

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

 private:
  std::unordered_map<alloc::DmmConfig, Entry, alloc::DmmConfigHash> map_;
};

/// Cross-search score cache: one instance can serve every search of a
/// design_manager() run (each phase's greedy walk plus the exhaustive /
/// random validation passes) and any number of concurrent Explorers.
///
/// Entries are keyed by trace fingerprint x canonical decision vector, so
/// searches over the same trace reuse each other's replays while distinct
/// traces never collide.  The map is sharded by key hash with one mutex
/// per shard (striped locking): coordinating threads of concurrent
/// searches only contend when they touch the same shard.
///
/// Each search opens a Session (the CandidateCache the engine sees).
/// Entries remember which session paid for their replay; a hit served from
/// another session's entry is a *cross-search* hit, which the session
/// counts and ExplorationResult/MethodologyResult report.  Replays are
/// deterministic, so concurrent duplicate inserts are benign: an exact
/// entry is final (the first exact write wins and later ones carry
/// identical values), and a lower-bound entry is replaced only by the
/// CandidateCache::upgrades() rule — whichever order concurrent searches
/// insert in, the entry ends at the strongest score any of them produced.
///
/// The cache also persists across processes: save() snapshots every entry
/// to a versioned binary file (see cache_snapshot.h) and load() imports
/// one, marking imported entries as *persisted* (search id 0).  Hits on
/// persisted entries are accounted separately from cross-search hits —
/// they were paid for by a previous process, not a sibling search — and
/// surface as ExplorationResult::persisted_hits.  A snapshot that is
/// truncated, corrupted, or of another format version is rejected whole
/// and the cache simply starts cold.
class SharedScoreCache {
 public:
  using Entry = CandidateCache::Entry;

  static constexpr std::size_t kDefaultShards = 16;

  /// Stored search id marking entries imported from a snapshot (real
  /// sessions are numbered from 1).
  static constexpr std::uint64_t kPersistedSearchId = 0;

  /// Optional growth bound for long-running processes (the dmm_serve
  /// daemon).  0 means unbounded on that axis; when both axes are set the
  /// tighter one wins.  max_bytes is converted to an entry budget via
  /// kApproxEntryBytes — a documented approximation of per-entry heap
  /// cost, not an exact accounting.
  struct Limits {
    std::size_t max_entries = 0;
    std::size_t max_bytes = 0;
  };

  /// Approximate bytes one live entry costs: key (fingerprint + decision
  /// vector), stored record (SimResult + provenance + LRU hook), and the
  /// hash-node / list-node overhead around them.  Fixed by contract so a
  /// given max_bytes maps to the same entry budget on every platform.
  static constexpr std::size_t kApproxEntryBytes = 256;

  explicit SharedScoreCache(std::size_t shard_count = kDefaultShards);

  /// Bounded cache: at most capacity() entries stay live, and inserting
  /// past the bound evicts in LRU-ish order.  "LRU-ish" because recency is
  /// tracked per shard — the globally least-recent entry can survive while
  /// a hotter shard is the one at capacity — which keeps eviction a
  /// lock-local operation.  Small bounds collapse to a single shard (see
  /// kMinEntriesPerBoundedShard), where eviction is exact LRU; for a
  /// deterministic operation sequence the evicted set is deterministic
  /// either way.
  explicit SharedScoreCache(const Limits& limits,
                            std::size_t shard_count = kDefaultShards);

  /// A bounded shard never holds fewer than this many entries (except when
  /// the whole budget is smaller).  Hash skew makes an over-split bound
  /// evict long before the cache is globally full — a 64-entry budget cut
  /// into 16 four-entry shards starts evicting at ~20 live entries — so
  /// tight budgets trade striping for exact LRU instead.
  static constexpr std::size_t kMinEntriesPerBoundedShard = 64;

  /// Entry bound this cache enforces (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Whole-cache counters (monotonic; snapshot under the shard locks).
  struct Stats {
    std::uint64_t searches = 0;           ///< sessions opened
    std::uint64_t hits = 0;               ///< lookups served from the map
    std::uint64_t cross_search_hits = 0;  ///< ... paid for by another search
    std::uint64_t persisted_hits = 0;     ///< ... served from snapshot entries
    std::uint64_t insertions = 0;         ///< entries added by searches
    std::uint64_t persisted_entries = 0;  ///< entries imported by load()
    std::uint64_t evictions = 0;          ///< entries displaced by the bound
    std::uint64_t entries = 0;            ///< live entries (== size())
  };

  /// One search's view of the cache; implements the engine-facing
  /// CandidateCache and counts the cross-search hits it was served.
  /// Sessions are cheap, movable, and single-threaded like the search
  /// that owns them.
  class Session final : public CandidateCache {
   public:
    [[nodiscard]] bool lookup_canonical(const alloc::DmmConfig& canon,
                                        Entry* out,
                                        std::size_t peak_cutoff = 0) override;
    void insert_canonical(const alloc::DmmConfig& canon,
                          const Entry& entry) override;
    [[nodiscard]] bool probe_canonical(const alloc::DmmConfig& canon,
                                       std::size_t peak_cutoff) override;

    /// Hits served from entries another search of this process replayed
    /// (disjoint from persisted_hits()).
    [[nodiscard]] std::uint64_t cross_search_hits() const {
      return cross_search_hits_;
    }

    /// Hits served from entries a snapshot imported — replays a previous
    /// process paid for.
    [[nodiscard]] std::uint64_t persisted_hits() const {
      return persisted_hits_;
    }

   private:
    friend class SharedScoreCache;
    Session(SharedScoreCache* owner, std::uint64_t trace_fingerprint,
            std::uint64_t search_id)
        : owner_(owner),
          trace_fingerprint_(trace_fingerprint),
          search_id_(search_id) {}

    SharedScoreCache* owner_ = nullptr;
    std::uint64_t trace_fingerprint_ = 0;
    std::uint64_t search_id_ = 0;
    std::uint64_t cross_search_hits_ = 0;
    std::uint64_t persisted_hits_ = 0;
  };

  /// Opens a session for one search over the trace with @p trace_fingerprint
  /// (see AllocTrace::fingerprint).
  [[nodiscard]] Session begin_search(std::uint64_t trace_fingerprint);

  /// Imports the snapshot at @p path (implemented in cache_snapshot.cpp).
  /// All-or-nothing: a missing, truncated, corrupted, or version-mismatched
  /// file leaves the cache exactly as it was and reports why — callers can
  /// always proceed cold.  Entries whose key is already cached are skipped,
  /// so re-loading a file (or loading after searches ran) is safe.
  SnapshotLoadResult load(const std::string& path);

  /// Writes every entry to @p path via a uniquely-named temp file and an
  /// atomic rename — concurrent savers last-writer-win, readers never see
  /// a torn file.  Thread-safe (reads shard by shard under the locks).
  SnapshotSaveResult save(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Key {
    std::uint64_t trace_fingerprint = 0;
    alloc::DmmConfig canon{};  ///< already-canonical decision vector
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const {
      return alloc::hash_combine(
          static_cast<std::size_t>(k.trace_fingerprint),
          alloc::hash_value(k.canon));
    }
  };
  struct Stored {
    Entry entry{};
    std::uint64_t search_id = 0;  ///< session that paid for the replay
    /// Position in the shard's recency list; meaningful only when the
    /// cache is bounded (shard.cap > 0).
    std::list<Key>::iterator lru_it{};
  };
  struct Shard {
    mutable std::mutex m;
    std::unordered_map<Key, Stored, KeyHash> map;
    /// Recency order, least-recent first; maintained only when cap > 0.
    std::list<Key> lru;
    std::size_t cap = 0;  ///< entry bound for this shard (0 = unbounded)
  };

  [[nodiscard]] Shard& shard_for(const Key& key);

  /// Inserts under the shard lock, evicting the shard's least-recent entry
  /// when the insert would exceed its bound; an existing key keeps its
  /// entry unless CandidateCache::upgrades() says the new one replaces it
  /// (provenance moves with the score, the recency slot stays).  Returns
  /// whether the key was newly inserted.  Shared by Session inserts and
  /// snapshot import so both honor the bound and the upgrade rule
  /// identically.
  bool insert_locked(Shard& shard, const Key& key, const Entry& entry,
                     std::uint64_t search_id);

  // Shard count is fixed at construction, so the vector is never resized
  // and Shard addresses stay stable without a global lock.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_ = 0;  ///< total entry bound (0 = unbounded)
  std::atomic<std::uint64_t> next_search_id_{1};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> cross_search_hits_{0};
  std::atomic<std::uint64_t> persisted_hits_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> persisted_entries_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Replays @p trace through a manager built from @p job.cfg — one isolated
/// arena per call, so it is safe from any thread.
[[nodiscard]] EvalOutcome score_candidate(const TraceSource& trace,
                                          const EvalJob& job);

// ---------------------------------------------------------------------------
// Multi-trace family evaluation: score one decision vector against a *set*
// of traces instead of overfitting it to a single profiled run.  The engine
// still only ever replays (trace, cfg) pairs — a family evaluation is one
// EvalJob scored against every member and folded by an aggregate objective,
// so every member replay lands in (and is served from) the same per-trace
// score-cache entries the single-trace searches use.
// ---------------------------------------------------------------------------

/// How the per-member scores of one candidate fold into a single objective.
enum class FamilyAggregate : std::uint8_t {
  /// Worst case across the family: peak/avg/final footprints are the
  /// element-wise maximum over members (weights are ignored).  The designed
  /// vector must be provisioned for whichever input mix is hungriest.
  kMaxPeak,
  /// Expected case: footprints are the weighted sum over members (weights
  /// default to 1.0, i.e. a plain sum).  Failed allocations, work, events,
  /// and wall time always sum — feasibility means feasible on *every*
  /// member under either aggregate.
  kWeightedSum,
};

/// One trace of a family evaluation.  The fingerprint is the member's
/// TraceSource::fingerprint, cached by the caller (it keys the per-trace
/// score-cache entries the member's replays share with single-trace
/// searches over the same trace).
struct FamilyEvalMember {
  std::shared_ptr<const TraceSource> trace;
  std::uint64_t fingerprint = 0;
  double weight = 1.0;  ///< kWeightedSum only
};

/// Identity of a trace *set* for score caching: FNV-1a over the member
/// fingerprints (in order), their weight bit patterns, and the aggregate
/// kind.  Aggregated family scores are cached under this fingerprint in the
/// same SharedScoreCache that holds the per-member entries — a different
/// member set, order, weighting, or aggregate never collides, and the
/// snapshot format is unchanged (a family entry is an ordinary
/// fingerprint x canonical-vector record, so kSnapshotVersion needs no
/// bump).
[[nodiscard]] std::uint64_t family_fingerprint(
    const std::vector<FamilyEvalMember>& members, FamilyAggregate aggregate);

/// Folds one candidate's per-member outcomes (one per member, in member
/// order) into the aggregate outcome described by @p aggregate.  The fold
/// is a fixed-order left-to-right pass, so the result is bit-identical
/// regardless of how the member replays were scheduled.  `from_cache` is
/// true iff every member outcome was served from a cache.
[[nodiscard]] EvalOutcome aggregate_family(
    std::uint64_t tag, const std::vector<EvalOutcome>& member_outcomes,
    const std::vector<FamilyEvalMember>& members, FamilyAggregate aggregate);

class CheckpointStore;  // core/checkpoint.h

/// The seam every evaluation backend plugs into.  The primitive is a
/// *streaming session*: the search opens one per candidate wave
/// (stream_begin), submits jobs as it generates them (stream_submit), and
/// collects outcomes either opportunistically (poll) or at the barrier
/// (stream_drain).  evaluate() is the classic batch entry point, now just
/// begin + submit-all + drain — outcomes still come back in job order,
/// bit-identical across engines and thread counts.
///
/// The base class owns the caching protocol on the coordinating thread so
/// all engines agree on it: each job is canonicalized exactly once at
/// submit, cache lookups and in-session deduplication happen against that
/// canonical form before anything is dispatched, only unique misses reach
/// the workers, and results are inserted back in submit order as they are
/// emitted.  That makes `from_cache` (and hence the Explorer's
/// simulations/cache_hits accounting) a function of the job stream and
/// prior cache contents alone — never of thread count or scheduling.
///
/// Overlap comes from dispatch() being asynchronous in pooled engines: the
/// search thread keeps generating/submitting candidates while workers
/// replay earlier ones.
class EvalEngine {
 public:
  virtual ~EvalEngine() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Threads that run evaluations, the coordinating thread included (1 for
  /// the serial engine).
  [[nodiscard]] virtual unsigned threads() const { return 1; }

  /// Scores every job; outcomes are returned in job order.  @p cache is a
  /// per-search ScoreCache, a SharedScoreCache::Session, or null (every
  /// job then replays, matching the pre-engine Explorer).
  [[nodiscard]] std::vector<EvalOutcome> evaluate(
      const TraceSource& trace, const std::vector<EvalJob>& jobs,
      CandidateCache* cache = nullptr);

  /// Opens a streaming session.  One session at a time per engine; the
  /// trace and cache must outlive it.
  void stream_begin(const TraceSource& trace,
                    CandidateCache* cache = nullptr);
  /// Submits one job to the open session (cache lookup + dedup happen now,
  /// misses start evaluating immediately on pooled engines).
  void stream_submit(const EvalJob& job);
  /// Non-blocking: emits the longest prefix of submitted-but-unemitted
  /// jobs whose outcomes are complete, in submit order (possibly empty).
  [[nodiscard]] std::vector<EvalOutcome> stream_poll();
  /// Blocks until every submitted job is done, emits the rest (in submit
  /// order), and closes the session.
  [[nodiscard]] std::vector<EvalOutcome> stream_drain();

  /// Speculative session (AnnealingSearch's pre-fetch): jobs submitted
  /// between speculate_begin() and speculate_end() replay cold on the
  /// runners — no cache, no in-session dedup, no full-skip store, so
  /// nothing is consulted or published — and the caller collects each one
  /// by id, in any order, or withdraws it.  Occupies the engine's one
  /// streaming session.
  void speculate_begin(const TraceSource& trace);
  /// Submits @p job (pooled engines start it at once); returns its id.
  [[nodiscard]] std::size_t speculate_submit(const EvalJob& job);
  /// Blocks until job @p id is done and returns its outcome.
  [[nodiscard]] EvalOutcome speculate_wait(std::size_t id);
  /// Withdraws job @p id: a runner skips it, or cuts its replay short.
  void speculate_cancel(std::size_t id);
  /// Waits for the jobs already started and closes the session; returns
  /// how many jobs actually replayed.
  std::uint64_t speculate_end();

  /// Routes this engine's replays through the incremental full-skip store
  /// (nullptr restores cold replays).  With @p verify every full skip also
  /// replays cold and the results are compared bit-for-bit (the cold
  /// result wins; mismatches are counted on the store).  Takes effect at
  /// the next stream_begin/evaluate.
  void configure_incremental(std::shared_ptr<CheckpointStore> store,
                             bool verify = false);

  [[nodiscard]] const std::shared_ptr<CheckpointStore>& checkpoint_store()
      const {
    return checkpoints_;
  }

 protected:
  /// One submitted job's lifecycle inside a session.  Slots live in
  /// unique_ptrs, so their addresses are stable across submits and safe to
  /// hand to workers.
  struct StreamSlot {
    EvalJob job{};
    alloc::DmmConfig canon{};
    enum class Kind : std::uint8_t { kRun, kCached, kDup } kind = Kind::kRun;
    std::size_t dup_of = 0;  ///< owner slot index when kind == kDup
    EvalOutcome out{};
    std::atomic<bool> done{false};
    std::atomic<bool> cancelled{false};  ///< speculate_cancel()
    bool replayed = false;  ///< a speculative replay ran (read once done)
  };

  /// Starts computing slot.out for a kRun slot.  The default runs
  /// complete() inline on the calling thread; pooled engines enqueue
  /// instead.
  virtual void dispatch(StreamSlot& slot);
  /// Blocks until slot.done (default: no-op — inline dispatch completed).
  /// Pooled engines run queued jobs meanwhile.
  virtual void wait_slot(StreamSlot& slot);
  /// Like wait_slot(), but returns as soon as @p slot is done: a pooled
  /// engine drops a queued job it is running then (see complete()).
  virtual void wait_alone(StreamSlot& slot);

  /// Scores one job against the session trace, honoring the incremental
  /// configuration.  Safe from any thread during a session.
  [[nodiscard]] EvalOutcome compute(const EvalJob& job) const;
  /// Computes slot.out and marks the slot done.  A speculative session's
  /// slot replays cold and stops early once cancelled; once @p abort is
  /// set it stops too, but then returns false with the slot not done, to
  /// be run again.
  bool complete(StreamSlot& slot,
                const std::atomic<bool>* abort = nullptr) const;

 private:
  /// Emits ready outcomes from the session front; blocks per slot iff
  /// @p block (drain) instead of stopping at the first unfinished one.
  [[nodiscard]] std::vector<EvalOutcome> emit_ready(bool block);

  // Session state (coordinating thread only, except slot outs/done flags).
  std::vector<std::unique_ptr<StreamSlot>> slots_;
  std::unordered_map<alloc::DmmConfig, std::size_t, alloc::DmmConfigHash>
      pending_canon_;
  std::size_t emitted_ = 0;
  const TraceSource* stream_trace_ = nullptr;
  CandidateCache* stream_cache_ = nullptr;
  std::uint64_t stream_trace_fp_ = 0;
  bool streaming_ = false;
  bool speculative_ = false;  ///< speculate_begin() opened the session

  std::shared_ptr<CheckpointStore> checkpoints_;
  bool verify_incremental_ = false;
};

/// In-thread reference engine: dispatch computes inline (the base default),
/// so a session's jobs are evaluated synchronously at submit.
class SerialEngine : public EvalEngine {
 public:
  [[nodiscard]] std::string name() const override { return "serial"; }
};

/// Persistent std::thread pool with per-runner work-stealing deques.
///
/// The coordinating thread counts as one of the num_threads runners: the
/// pool spawns num_threads - 1 workers, and a coordinating thread blocked
/// in stream_drain() runs queued jobs itself instead of sleeping (so a
/// one-job session mostly runs inline, and a batch gets num_threads
/// runners).
/// dispatch() enqueues the slot round-robin across the runners' deques and
/// returns, so the coordinating thread overlaps candidate generation with
/// evaluation.  Each runner drains its own deque from the back and steals
/// from the front of its siblings' when empty — candidate replays vary
/// wildly in cost (a config that thrashes the free index replays 10x
/// slower), so static striping alone leaves runners idle.  Outcomes land
/// in the submitting session's slots, keeping result order deterministic.
/// stream_poll() never runs jobs, so with num_threads == 1 (no worker)
/// every job waits for the drain; make_engine() uses SerialEngine there.
/// In a speculative session the coordinating thread still runs queued
/// jobs while it waits (wait_alone), but puts one back the moment the job
/// it waits for is done.
class ThreadPoolEngine : public EvalEngine {
 public:
  /// @param num_threads  runner count, the coordinating thread included;
  ///                     0 = one per hardware thread.
  explicit ThreadPoolEngine(unsigned num_threads = 0);
  ~ThreadPoolEngine() override;

  ThreadPoolEngine(const ThreadPoolEngine&) = delete;
  ThreadPoolEngine& operator=(const ThreadPoolEngine&) = delete;

  [[nodiscard]] std::string name() const override { return "thread-pool"; }
  [[nodiscard]] unsigned threads() const override {
    return static_cast<unsigned>(queues_.size());
  }

 protected:
  void dispatch(StreamSlot& slot) override;
  void wait_slot(StreamSlot& slot) override;
  void wait_alone(StreamSlot& slot) override;

 private:
  void worker_main(std::size_t self);
  /// Computes one popped slot and signals its completion.
  void run_slot(StreamSlot& slot);
  /// Wakes the threads waiting for a slot to finish.
  void signal_done();
  /// Removes @p slot from whichever deque holds it; false if none does.
  [[nodiscard]] bool take(StreamSlot& slot);
  /// Pops from own deque (back) or steals (front); null when drained.
  [[nodiscard]] StreamSlot* next_slot(std::size_t self);

  // Per-runner slot deques (the last is the coordinating thread's); each
  // guarded by its own mutex so thieves only contend with the owner of the
  // deque they rob.
  struct WorkerQueue {
    std::mutex m;
    std::deque<StreamSlot*> q;
  };
  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  // Wakeup state, guarded by m_.
  std::mutex m_;
  std::condition_variable work_ready_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;  ///< slots enqueued, not yet popped
  bool stop_ = false;

  std::size_t rr_next_ = 0;  ///< coordinating thread only

  std::vector<std::thread> workers_;
};

/// Engine factory used by ExplorerOptions: 1 thread = serial, otherwise a
/// pool (0 = hardware concurrency).  @p num_threads counts the calling
/// thread as a runner: a pool of n spawns n - 1 workers.
[[nodiscard]] std::unique_ptr<EvalEngine> make_engine(unsigned num_threads);

}  // namespace dmm::core

#endif  // DMM_CORE_EVAL_ENGINE_H
