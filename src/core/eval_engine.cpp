#include "dmm/core/eval_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "dmm/alloc/policy_core.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::core {

const ScoreCache::Entry* ScoreCache::lookup(
    const alloc::DmmConfig& cfg) const {
  const auto it = map_.find(alloc::canonical(cfg));
  return it == map_.end() || !serves(it->second, 0) ? nullptr : &it->second;
}

void ScoreCache::insert(const alloc::DmmConfig& cfg, const Entry& entry) {
  insert_canonical(alloc::canonical(cfg), entry);
}

bool ScoreCache::lookup_canonical(const alloc::DmmConfig& canon, Entry* out,
                                  std::size_t peak_cutoff) {
  const auto it = map_.find(canon);
  if (it == map_.end() || !serves(it->second, peak_cutoff)) return false;
  *out = it->second;
  return true;
}

void ScoreCache::insert_canonical(const alloc::DmmConfig& canon,
                                  const Entry& entry) {
  const auto [it, inserted] = map_.emplace(canon, entry);
  if (!inserted && upgrades(entry, it->second)) it->second = entry;
}

bool ScoreCache::probe_canonical(const alloc::DmmConfig& canon,
                                 std::size_t peak_cutoff) {
  const auto it = map_.find(canon);
  return it != map_.end() && serves(it->second, peak_cutoff);
}

// ---------------------------------------------------------------------------
// SharedScoreCache
// ---------------------------------------------------------------------------

SharedScoreCache::SharedScoreCache(std::size_t shard_count)
    : SharedScoreCache(Limits{}, shard_count) {}

SharedScoreCache::SharedScoreCache(const Limits& limits,
                                   std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  // Fold both axes into one entry budget (tighter axis wins); 0 stays
  // unbounded.  A byte bound below one entry still admits one entry —
  // otherwise the cache could never serve a hit at all.
  std::size_t cap = limits.max_entries;
  if (limits.max_bytes > 0) {
    const std::size_t by_bytes =
        std::max<std::size_t>(1, limits.max_bytes / kApproxEntryBytes);
    cap = cap == 0 ? by_bytes : std::min(cap, by_bytes);
  }
  capacity_ = cap;
  // Never spread a bounded budget so thin that hash skew fills one shard
  // while the cache is mostly empty; tight budgets collapse to one shard
  // and get exact LRU.
  if (cap > 0) {
    shard_count = std::min(
        shard_count, std::max<std::size_t>(1, cap / kMinEntriesPerBoundedShard));
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    if (cap > 0) {
      // Per-shard caps sum exactly to cap, so the global bound holds
      // strictly while eviction stays lock-local to one shard.
      shard->cap = cap / shard_count + (i < cap % shard_count ? 1 : 0);
    }
    shards_.push_back(std::move(shard));
  }
}

SharedScoreCache::Shard& SharedScoreCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

SharedScoreCache::Session SharedScoreCache::begin_search(
    std::uint64_t trace_fingerprint) {
  return Session(this, trace_fingerprint,
                 next_search_id_.fetch_add(1, std::memory_order_relaxed));
}

bool SharedScoreCache::Session::lookup_canonical(const alloc::DmmConfig& canon,
                                                 Entry* out,
                                                 std::size_t peak_cutoff) {
  const Key key{trace_fingerprint_, canon};
  Shard& shard = owner_->shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.m);
  const auto it = shard.map.find(key);
  if (it == shard.map.end() ||
      !CandidateCache::serves(it->second.entry, peak_cutoff)) {
    return false;
  }
  *out = it->second.entry;
  if (shard.cap > 0) {
    // Touch: move to the recent end of the shard's LRU list.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
  }
  owner_->hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->second.search_id == kPersistedSearchId) {
    // Replayed by a previous process (snapshot entry) — warm-start hit,
    // accounted apart from in-process cross-search reuse.
    ++persisted_hits_;
    owner_->persisted_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (it->second.search_id != search_id_) {
    ++cross_search_hits_;
    owner_->cross_search_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void SharedScoreCache::Session::insert_canonical(const alloc::DmmConfig& canon,
                                                 const Entry& entry) {
  const Key key{trace_fingerprint_, canon};
  Shard& shard = owner_->shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.m);
  if (owner_->insert_locked(shard, key, entry, search_id_)) {
    owner_->insertions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SharedScoreCache::Session::probe_canonical(const alloc::DmmConfig& canon,
                                                std::size_t peak_cutoff) {
  const Key key{trace_fingerprint_, canon};
  Shard& shard = owner_->shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.m);
  const auto it = shard.map.find(key);
  return it != shard.map.end() &&
         CandidateCache::serves(it->second.entry, peak_cutoff);
}

bool SharedScoreCache::insert_locked(Shard& shard, const Key& key,
                                     const Entry& entry,
                                     std::uint64_t search_id) {
  // An exact entry is final: replays are deterministic, so a concurrent
  // loser holds a bit-identical score.  A lower-bound entry yields to a
  // stronger one, and search_id moves with it to keep naming the session
  // whose replay the map retains.
  const auto [it, inserted] = shard.map.emplace(key, Stored{entry, search_id});
  if (!inserted) {
    if (CandidateCache::upgrades(entry, it->second.entry)) {
      it->second.entry = entry;
      it->second.search_id = search_id;
    }
    return false;
  }
  if (shard.cap > 0) {
    shard.lru.push_back(key);
    it->second.lru_it = std::prev(shard.lru.end());
    if (shard.map.size() > shard.cap) {
      // Evict the shard's least-recent entry.  cap >= 1 and the new key
      // sits at the back, so the front is always an older, distinct key.
      shard.map.erase(shard.lru.front());
      shard.lru.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

std::size_t SharedScoreCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->m);
    n += shard->map.size();
  }
  return n;
}

SharedScoreCache::Stats SharedScoreCache::stats() const {
  Stats s;
  s.searches = next_search_id_.load(std::memory_order_relaxed) - 1;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.cross_search_hits = cross_search_hits_.load(std::memory_order_relaxed);
  s.persisted_hits = persisted_hits_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.persisted_entries = persisted_entries_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = size();
  return s;
}

void SharedScoreCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->m);
    shard->map.clear();
    shard->lru.clear();
  }
}

namespace {

/// FNV-1a over the 8 little-endian bytes of @p v (the same hash family
/// AllocTrace::fingerprint uses, so family and trace fingerprints live in
/// one well-mixed identifier space).
std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kPrime;
  }
  return h;
}

}  // namespace

std::uint64_t family_fingerprint(const std::vector<FamilyEvalMember>& members,
                                 FamilyAggregate aggregate) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  h = fnv1a_u64(h, static_cast<std::uint64_t>(aggregate));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(members.size()));
  for (const FamilyEvalMember& m : members) {
    h = fnv1a_u64(h, m.fingerprint);
    std::uint64_t weight_bits = 0;
    std::memcpy(&weight_bits, &m.weight, sizeof(weight_bits));
    h = fnv1a_u64(h, weight_bits);
  }
  return h;
}

EvalOutcome aggregate_family(std::uint64_t tag,
                             const std::vector<EvalOutcome>& member_outcomes,
                             const std::vector<FamilyEvalMember>& members,
                             FamilyAggregate aggregate) {
  EvalOutcome agg;
  agg.tag = tag;
  agg.from_cache = true;
  double peak = 0.0;
  double final_fp = 0.0;
  double avg = 0.0;
  double live = 0.0;
  for (std::size_t m = 0; m < member_outcomes.size(); ++m) {
    const EvalOutcome& out = member_outcomes[m];
    const double w = aggregate == FamilyAggregate::kWeightedSum
                         ? members[m].weight
                         : 1.0;
    if (aggregate == FamilyAggregate::kMaxPeak) {
      peak = std::max(peak, static_cast<double>(out.sim.peak_footprint));
      final_fp =
          std::max(final_fp, static_cast<double>(out.sim.final_footprint));
      avg = std::max(avg, out.sim.avg_footprint);
      live = std::max(live, static_cast<double>(out.sim.peak_live_bytes));
    } else {
      peak += w * static_cast<double>(out.sim.peak_footprint);
      final_fp += w * static_cast<double>(out.sim.final_footprint);
      avg += w * out.sim.avg_footprint;
      live += w * static_cast<double>(out.sim.peak_live_bytes);
    }
    // Cross-aggregate invariants: a vector is feasible iff it is feasible
    // on every member, and work/events/wall are totals either way.
    agg.sim.failed_allocs += out.sim.failed_allocs;
    agg.sim.events += out.sim.events;
    agg.sim.wall_seconds += out.sim.wall_seconds;
    agg.work_steps += out.work_steps;
    agg.from_cache = agg.from_cache && out.from_cache;
  }
  agg.sim.peak_footprint = static_cast<std::size_t>(peak);
  agg.sim.final_footprint = static_cast<std::size_t>(final_fp);
  agg.sim.avg_footprint = avg;
  agg.sim.peak_live_bytes = static_cast<std::size_t>(live);
  return agg;
}

EvalOutcome score_candidate(const TraceSource& trace, const EvalJob& job) {
  EvalOutcome out;
  out.tag = job.tag;
  sysmem::SystemArena arena;
  // Replay adapter: scoring builds the bare policy core (see
  // alloc/policy_core.h for the core/runtime-front split) — never the
  // deployable front, whose caches and locks must not influence a score.
  // strict accounting off: exploration replays thousands of events per
  // candidate and only footprint/work are scored.
  alloc::PolicyCore mgr(arena, job.cfg, "candidate",
                        /*strict_accounting=*/false);
  SimReplayOptions opts;
  opts.peak_cutoff = job.peak_cutoff;
  out.sim = simulate(trace, mgr, opts);
  out.work_steps = mgr.work_steps();
  out.replayed_events = out.sim.events;
  return out;
}

namespace {

/// The policy core of a speculative replay behind its job's cancellation
/// flag: once the job is withdrawn, every allocation fails and every free
/// is dropped, so the rest of the replay costs next to nothing instead of
/// holding a runner (a wrong guess can be a vector that replays 20x slower
/// than any the walk visits).  A withdrawn job's outcome is never read; the
/// blocks it dropped stay in its own arena, which its destructor reclaims.
class CancellableCore final : public alloc::Allocator {
 public:
  /// @p abort (may be null) cuts the replay short like a cancellation.
  CancellableCore(alloc::PolicyCore& core, const std::atomic<bool>& cancelled,
                  const std::atomic<bool>* abort)
      : Allocator(core.arena()),
        core_(core),
        cancelled_(cancelled),
        abort_(abort) {}

  void* allocate(std::size_t bytes) override {
    return live() ? core_.allocate(bytes) : nullptr;
  }
  void deallocate(void* ptr) override {
    if (live()) core_.deallocate(ptr);
  }
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override {
    return core_.usable_size(ptr);
  }
  [[nodiscard]] std::string name() const override { return core_.name(); }
  void set_phase(std::uint16_t phase) override { core_.set_phase(phase); }

  /// The replay was cut short: its result is garbage.
  [[nodiscard]] bool cut() const { return cut_; }

 private:
  bool live() {
    cut_ = cut_ || cancelled_.load(std::memory_order_relaxed) ||
           (abort_ != nullptr && abort_->load(std::memory_order_relaxed));
    return !cut_;
  }

  alloc::PolicyCore& core_;
  const std::atomic<bool>& cancelled_;
  const std::atomic<bool>* abort_;
  bool cut_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// EvalEngine streaming session
// ---------------------------------------------------------------------------

std::vector<EvalOutcome> EvalEngine::evaluate(const TraceSource& trace,
                                              const std::vector<EvalJob>& jobs,
                                              CandidateCache* cache) {
  stream_begin(trace, cache);
  for (const EvalJob& job : jobs) stream_submit(job);
  return stream_drain();
}

void EvalEngine::stream_begin(const TraceSource& trace,
                              CandidateCache* cache) {
  assert(!streaming_ && "one streaming session at a time per engine");
  streaming_ = true;
  stream_trace_ = &trace;
  stream_cache_ = cache;
  speculative_ = false;
  slots_.clear();
  pending_canon_.clear();
  emitted_ = 0;
}

void EvalEngine::stream_submit(const EvalJob& job) {
  assert(streaming_ && "stream_submit outside a session");
  auto slot = std::make_unique<StreamSlot>();
  slot->job = job;
  slot->out.tag = job.tag;
  if (stream_cache_ != nullptr) {
    // Cache protocol on the coordinating thread: canonicalize once, then
    // the same form feeds the lookup, the in-session dedup, and the
    // at-emission insert.  Without a cache every job replays (matching the
    // pre-engine Explorer), so no canonicalization happens at all.
    slot->canon = alloc::canonical(job.cfg);
    CandidateCache::Entry hit;
    if (stream_cache_->lookup_canonical(slot->canon, &hit, job.peak_cutoff)) {
      slot->kind = StreamSlot::Kind::kCached;
      slot->out.sim = hit.sim;
      slot->out.work_steps = hit.work_steps;
      slot->out.from_cache = true;
      slot->done.store(true, std::memory_order_relaxed);
      slots_.push_back(std::move(slot));
      return;
    }
    const auto [it, inserted] =
        pending_canon_.emplace(slot->canon, slots_.size());
    if (!inserted && slots_[it->second]->job.peak_cutoff == job.peak_cutoff) {
      // Same canonical form already in flight with the same cutoff: resolve
      // from its owner at emission instead of replaying twice.  (Another
      // cutoff would need another answer, so that job replays too.)
      slot->kind = StreamSlot::Kind::kDup;
      slot->dup_of = it->second;
      slots_.push_back(std::move(slot));
      return;
    }
  }
  slot->kind = StreamSlot::Kind::kRun;
  StreamSlot& ref = *slot;
  slots_.push_back(std::move(slot));
  dispatch(ref);
}

std::vector<EvalOutcome> EvalEngine::emit_ready(bool block) {
  std::vector<EvalOutcome> out;
  while (emitted_ < slots_.size()) {
    StreamSlot& slot = *slots_[emitted_];
    if (slot.kind == StreamSlot::Kind::kRun) {
      if (!slot.done.load(std::memory_order_acquire)) {
        if (!block) break;
        wait_slot(slot);
      }
      // Inserts happen in submit order as slots are emitted, so the cache
      // fills exactly as the old post-batch pass filled it.
      if (stream_cache_ != nullptr) {
        stream_cache_->insert_canonical(slot.canon,
                                        {slot.out.sim, slot.out.work_steps});
      }
    } else if (slot.kind == StreamSlot::Kind::kDup) {
      // The owner has a lower index, so it was emitted (and finished)
      // before this slot is reached.
      const StreamSlot& owner = *slots_[slot.dup_of];
      slot.out.sim = owner.out.sim;
      slot.out.work_steps = owner.out.work_steps;
      slot.out.from_cache = true;
    }
    out.push_back(slot.out);
    ++emitted_;
  }
  return out;
}

std::vector<EvalOutcome> EvalEngine::stream_poll() {
  assert(streaming_ && "stream_poll outside a session");
  return emit_ready(/*block=*/false);
}

std::vector<EvalOutcome> EvalEngine::stream_drain() {
  assert(streaming_ && "stream_drain outside a session");
  std::vector<EvalOutcome> out = emit_ready(/*block=*/true);
  streaming_ = false;
  stream_trace_ = nullptr;
  stream_cache_ = nullptr;
  slots_.clear();
  pending_canon_.clear();
  emitted_ = 0;
  return out;
}

void EvalEngine::speculate_begin(const TraceSource& trace) {
  stream_begin(trace, nullptr);
  speculative_ = true;
}

std::size_t EvalEngine::speculate_submit(const EvalJob& job) {
  stream_submit(job);
  return slots_.size() - 1;
}

EvalOutcome EvalEngine::speculate_wait(std::size_t id) {
  StreamSlot& slot = *slots_[id];
  if (!slot.done.load(std::memory_order_acquire)) wait_alone(slot);
  return slot.out;
}

void EvalEngine::speculate_cancel(std::size_t id) {
  slots_[id]->cancelled.store(true, std::memory_order_relaxed);
}

std::uint64_t EvalEngine::speculate_end() {
  std::uint64_t replayed = 0;
  for (const std::unique_ptr<StreamSlot>& slot : slots_) {
    if (!slot->done.load(std::memory_order_acquire)) wait_slot(*slot);
    replayed += slot->replayed ? 1 : 0;
  }
  (void)stream_drain();
  return replayed;
}

bool EvalEngine::complete(StreamSlot& slot,
                          const std::atomic<bool>* abort) const {
  if (!speculative_) {
    slot.out = score_candidate(*stream_trace_, slot.job);
  } else if (!slot.cancelled.load(std::memory_order_relaxed)) {
    sysmem::SystemArena arena;
    alloc::PolicyCore core(arena, slot.job.cfg, "candidate",
                           /*strict_accounting=*/false);
    CancellableCore replay(core, slot.cancelled, abort);
    SimReplayOptions opts;
    opts.peak_cutoff = slot.job.peak_cutoff;
    const SimResult sim = simulate(*stream_trace_, replay, opts);
    slot.replayed = true;
    if (replay.cut() && !slot.cancelled.load(std::memory_order_relaxed)) {
      return false;  // aborted: the job is still wanted whole
    }
    slot.out.tag = slot.job.tag;
    slot.out.sim = sim;
    slot.out.work_steps = core.work_steps();
    slot.out.replayed_events = sim.events;
  }
  slot.done.store(true, std::memory_order_release);
  return true;
}

void EvalEngine::dispatch(StreamSlot& slot) { (void)complete(slot); }

void EvalEngine::wait_slot(StreamSlot& slot) {
  // Inline dispatch already completed the slot.
  (void)slot;
}

void EvalEngine::wait_alone(StreamSlot& slot) { wait_slot(slot); }

// ---------------------------------------------------------------------------
// ThreadPoolEngine
// ---------------------------------------------------------------------------

ThreadPoolEngine::ThreadPoolEngine(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  // One deque per runner; the last belongs to the coordinating thread,
  // which runs jobs while it waits instead of sleeping (wait_slot), so
  // only num_threads - 1 workers are spawned.
  queues_.reserve(num_threads);
  workers_.reserve(num_threads - 1);
  for (unsigned i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  for (unsigned i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPoolEngine::~ThreadPoolEngine() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPoolEngine::dispatch(StreamSlot& slot) {
  // Stripe submissions round-robin across the worker deques; stealing
  // rebalances whatever the stripe got wrong.  The pop's queue mutex is
  // the happens-before edge from the session state written by the
  // coordinating thread to the worker's replay.
  WorkerQueue& wq = *queues_[rr_next_];
  rr_next_ = (rr_next_ + 1) % queues_.size();
  {
    const std::lock_guard<std::mutex> lock(wq.m);
    wq.q.push_back(&slot);
  }
  {
    const std::lock_guard<std::mutex> lock(m_);
    ++pending_;
  }
  work_ready_.notify_one();
}

EvalEngine::StreamSlot* ThreadPoolEngine::next_slot(std::size_t self) {
  {
    WorkerQueue& own = *queues_[self];
    const std::lock_guard<std::mutex> lock(own.m);
    if (!own.q.empty()) {
      StreamSlot* slot = own.q.back();
      own.q.pop_back();
      return slot;
    }
  }
  // Steal from the front of a sibling's deque (oldest job: least likely to
  // collide with the owner working the back).
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& victim = *queues_[(self + k) % queues_.size()];
    const std::lock_guard<std::mutex> lock(victim.m);
    if (!victim.q.empty()) {
      StreamSlot* slot = victim.q.front();
      victim.q.pop_front();
      return slot;
    }
  }
  return nullptr;
}

void ThreadPoolEngine::worker_main(std::size_t self) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(m_);
      work_ready_.wait(lock, [&] { return stop_ || pending_ > 0; });
      if (stop_) return;
    }
    while (StreamSlot* slot = next_slot(self)) run_slot(*slot);
  }
}

void ThreadPoolEngine::run_slot(StreamSlot& slot) {
  {
    const std::lock_guard<std::mutex> lock(m_);
    --pending_;
  }
  (void)complete(slot);
  signal_done();
}

void ThreadPoolEngine::signal_done() {
  {
    // Empty critical section: a waiter that saw done == false must reach
    // its cv wait before the notification fires, or miss it.
    const std::lock_guard<std::mutex> lock(m_);
  }
  done_cv_.notify_all();
}

void ThreadPoolEngine::wait_slot(StreamSlot& slot) {
  // The coordinating thread is a runner too: it works the queues until
  // none is left, and only then sleeps on the slot a worker still holds.
  const std::size_t self = queues_.size() - 1;
  while (!slot.done.load(std::memory_order_acquire)) {
    if (StreamSlot* job = next_slot(self)) {
      run_slot(*job);
      continue;
    }
    std::unique_lock<std::mutex> lock(m_);
    done_cv_.wait(lock,
                  [&] { return slot.done.load(std::memory_order_acquire); });
  }
}

void ThreadPoolEngine::wait_alone(StreamSlot& slot) {
  // The coordinating thread waits for @p slot alone: it runs the slot
  // inline if no runner has taken it yet, and otherwise works queued jobs
  // under an abort — a job still replaying when the slot is done goes back
  // on the deque, to restart later, rather than hold the thread past it.
  const std::size_t self = queues_.size() - 1;
  while (!slot.done.load(std::memory_order_acquire)) {
    StreamSlot* job = take(slot) ? &slot : next_slot(self);
    if (job == nullptr) {
      std::unique_lock<std::mutex> lock(m_);
      done_cv_.wait(lock,
                    [&] { return slot.done.load(std::memory_order_acquire); });
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(m_);
      --pending_;
    }
    if (complete(*job, job == &slot ? nullptr : &slot.done)) {
      signal_done();
      continue;
    }
    WorkerQueue& own = *queues_[self];
    {
      const std::lock_guard<std::mutex> lock(own.m);
      own.q.push_back(job);
    }
    {
      const std::lock_guard<std::mutex> lock(m_);
      ++pending_;
    }
    work_ready_.notify_one();
  }
}

bool ThreadPoolEngine::take(StreamSlot& slot) {
  for (const std::unique_ptr<WorkerQueue>& wq : queues_) {
    const std::lock_guard<std::mutex> lock(wq->m);
    const auto it = std::find(wq->q.begin(), wq->q.end(), &slot);
    if (it != wq->q.end()) {
      wq->q.erase(it);
      return true;
    }
  }
  return false;
}

std::unique_ptr<EvalEngine> make_engine(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  // A one-runner pool would defer every job to the drain: serial does the
  // same work without the handoff.
  if (num_threads == 1) return std::make_unique<SerialEngine>();
  return std::make_unique<ThreadPoolEngine>(num_threads);
}

}  // namespace dmm::core
