// The `deploy` stage: the designed DRR vector behind the runtime front
// (default RuntimeOptions, thread caches on), closed loop, four threads in
// one process.  Each thread replays its own DRR trace and writes and
// verifies a fill pattern in every block.  `local` frees every block on
// the thread that allocated it; `handoff` passes every fourth free to the
// next thread, which verifies and performs it.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/simulator.h"
#include "dmm/runtime/designed_allocator.h"
#include "tracer.h"

namespace perfbench {
namespace {

using dmm::core::AllocEvent;
using dmm::core::AllocTrace;

/// Frees of ids divisible by this go to the next thread in `handoff`.
constexpr std::uint32_t kHandoffEvery = 4;
/// Per-call malloc/free spans each thread records in the first traced
/// iteration (every call is timed; only these become spans).
constexpr unsigned kCallSpans = 2048;
/// Per-call timings kept per phase (the first ones; ~100 k a round).
constexpr std::size_t kMaxCallSamples = std::size_t{1} << 20;

struct DesignedApi {
  dmm::runtime::DesignedAllocator* front;
  void* malloc(std::size_t n) const { return front->malloc(n); }
  void free(void* p) const { front->free(p); }
};

struct LibcApi {
  void* malloc(std::size_t n) const { return std::malloc(n); }
  void free(void* p) const { std::free(p); }
};

struct Handed {
  unsigned char* ptr = nullptr;
  std::uint32_t size = 0;
  unsigned char tag = 0;
};

struct Inbox {
  std::mutex mu;
  std::vector<Handed> items;  ///< guarded by mu
};

struct RaceOptions {
  bool handoff = false;
  bool time_calls = false;       ///< per-call ns (traced runs)
  unsigned call_spans = 0;       ///< per-call spans per thread
  bool sample_mallinfo = false;  ///< thread 0 samples glibc's footprint
  bool corrupt = false;          ///< thread 0 breaks its first block's fill
  std::uint64_t parent_span = 0;
};

struct ThreadOutcome {
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t lost = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t libc_peak = 0;
  std::vector<double> malloc_ns;
  std::vector<double> free_ns;
};

struct RaceResult {
  double seconds = 0.0;
  std::vector<ThreadOutcome> threads;

  [[nodiscard]] std::uint64_t sum(std::uint64_t ThreadOutcome::*field) const {
    std::uint64_t s = 0;
    for (const ThreadOutcome& t : threads) s += t.*field;
    return s;
  }
  [[nodiscard]] double mops() const {
    return static_cast<double>(sum(&ThreadOutcome::ops)) / seconds / 1e6;
  }
};

/// Bytes glibc has handed out, chunk overhead included (mallinfo2 sums
/// every arena).  Its held bytes (arena + hblkhd) do not move at all here:
/// the process's earlier work left glibc enough free space for the races.
std::uint64_t libc_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

bool pattern_ok(const unsigned char* p, std::uint32_t n, unsigned char tag) {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (p[i] != tag) return false;
  }
  return true;
}

template <class Api>
class Worker {
 public:
  Worker(unsigned t, const AllocTrace& trace, Api api, const RaceOptions& ro,
         std::vector<Inbox>& inboxes, ThreadOutcome& out)
      : t_(t),
        trace_(trace),
        api_(api),
        ro_(ro),
        inboxes_(inboxes),
        out_(out),
        tag_(static_cast<unsigned char>(0x41 + t)),
        slots_(trace.id_bounds().max_id + 1) {}

  void replay() {
    std::size_t k = 0;
    for (const AllocEvent& e : trace_.events()) {
      if (e.op == AllocEvent::Op::kAlloc) {
        allocate(e);
      } else {
        release(e.id);
      }
      ++k;
      if (ro_.handoff && (k & 255) == 0) drain();
      if (ro_.sample_mallinfo && (k & 1023) == 0) {
        out_.libc_peak = std::max(out_.libc_peak, libc_in_use_bytes());
      }
    }
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id].ptr != nullptr) free_block(slots_[id]);
    }
  }

  /// Performs every free handed to this thread so far.
  void drain() {
    std::vector<Handed> items;
    {
      const std::lock_guard<std::mutex> lock(inboxes_[t_].mu);
      items.swap(inboxes_[t_].items);
    }
    for (const Handed& h : items) free_block(h);
  }

 private:
  void allocate(const AllocEvent& e) {
    const std::uint32_t n = e.size == 0 ? 1 : e.size;
    void* p = nullptr;
    if (ro_.time_calls) {
      const Span span(calls_ < ro_.call_spans ? "malloc" : nullptr);
      const Clock::time_point t0 = Clock::now();
      p = api_.malloc(n);
      record(out_.malloc_ns, t0);
    } else {
      p = api_.malloc(n);
    }
    ++out_.ops;
    if (p == nullptr) {
      ++out_.lost;
      return;
    }
    ++out_.allocs;
    auto* bytes = static_cast<unsigned char*>(p);
    std::memset(bytes, tag_, n);
    if (ro_.corrupt && !corrupted_) {
      bytes[n - 1] ^= 0xff;
      corrupted_ = true;
    }
    slots_[e.id] = Handed{bytes, n, tag_};
  }

  void release(std::uint32_t id) {
    Handed block = slots_[id];
    if (block.ptr == nullptr) return;
    slots_[id] = Handed{};
    if (ro_.handoff && id % kHandoffEvery == 0) {
      Inbox& next = inboxes_[(t_ + 1) % inboxes_.size()];
      const std::lock_guard<std::mutex> lock(next.mu);
      next.items.push_back(block);
      return;
    }
    free_block(block);
  }

  void free_block(const Handed& block) {
    if (!pattern_ok(block.ptr, block.size, block.tag)) ++out_.corrupted;
    if (ro_.time_calls) {
      const Span span(calls_ < ro_.call_spans ? "free" : nullptr);
      const Clock::time_point t0 = Clock::now();
      api_.free(block.ptr);
      record(out_.free_ns, t0);
    } else {
      api_.free(block.ptr);
    }
    ++out_.ops;
    ++out_.frees;
  }

  void record(std::vector<double>& samples, Clock::time_point t0) {
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++calls_;
    samples.push_back(ns);
  }

  unsigned t_;
  const AllocTrace& trace_;
  Api api_;
  const RaceOptions& ro_;
  std::vector<Inbox>& inboxes_;
  ThreadOutcome& out_;
  unsigned char tag_;
  std::vector<Handed> slots_;
  unsigned calls_ = 0;
  bool corrupted_ = false;
};

/// One phase: thread t replays traces[t] through @p api; timed from the
/// moment all threads are ready until the last one has been joined.
template <class Api>
RaceResult race(const std::vector<AllocTrace>& traces, Api api,
                const RaceOptions& ro) {
  RaceResult result;
  result.threads.resize(traces.size());
  std::vector<Inbox> inboxes(traces.size());
  std::atomic<unsigned> ready{0};
  std::atomic<unsigned> done{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < traces.size(); ++t) {
    RaceOptions mine = ro;
    mine.corrupt = ro.corrupt && t == 0;
    mine.sample_mallinfo = ro.sample_mallinfo && t == 0;
    workers.emplace_back([&, t, mine] {
      const Span span(mine.call_spans > 0 ? "deploy.thread" : nullptr,
                      mine.parent_span);
      Worker<Api> worker(t, traces[t], api, mine, inboxes, result.threads[t]);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      worker.replay();
      done.fetch_add(1);
      // Frees handed over by threads still replaying keep arriving until
      // every thread has finished its trace.
      while (done.load() < traces.size()) {
        worker.drain();
        std::this_thread::yield();
      }
      worker.drain();
    });
  }
  while (ready.load() < traces.size()) std::this_thread::yield();
  const Clock::time_point t0 = Clock::now();
  go.store(true);
  for (std::thread& w : workers) w.join();
  result.seconds = seconds_since(t0);
  return result;
}

/// Counts lost and corrupted blocks of one phase as failures.
void check_race(const RaceResult& r, const std::string& what,
                Checks& checks) {
  checks.attempt(r.sum(&ThreadOutcome::ops));
  checks.fail(r.sum(&ThreadOutcome::corrupted), what + ": corrupted blocks");
  checks.fail(r.sum(&ThreadOutcome::lost), what + ": failed allocations");
  const std::uint64_t allocs = r.sum(&ThreadOutcome::allocs);
  const std::uint64_t frees = r.sum(&ThreadOutcome::frees);
  checks.fail(allocs > frees ? allocs - frees : frees - allocs,
              what + ": lost blocks (allocs != frees)");
}

void merge_samples(const RaceResult& r, std::vector<double>& malloc_ns,
                   std::vector<double>& free_ns) {
  for (const ThreadOutcome& t : r.threads) {
    if (malloc_ns.size() >= kMaxCallSamples) return;
    malloc_ns.insert(malloc_ns.end(), t.malloc_ns.begin(), t.malloc_ns.end());
    free_ns.insert(free_ns.end(), t.free_ns.begin(), t.free_ns.end());
  }
}

class DeployStage final : public StageRunner {
 public:
  DeployStage(const Options& opts, const Scale& scale, const Inputs& in,
              Checks& checks)
      : opts_(opts), scale_(scale), in_(in), checks_(checks) {}

  void prepare() override {
    const Span span("deploy.prepare");
    sets_.resize(kDeploySets);
    for (std::size_t i = 0; i < in_.deploy_paths.size(); ++i) {
      std::string why;
      const auto mapped =
          dmm::trace::MappedTrace::open(in_.deploy_paths[i], &why);
      if (checks_.expect(mapped != nullptr,
                         "open " + in_.deploy_paths[i] + ": " + why)) {
        sets_[i / kDeployThreads].push_back(mapped->materialize());
      }
    }

    // Parity guard: with caches off, one thread replaying the design trace
    // through the front hits the designed bound to the byte.
    std::string why;
    const auto profile =
        dmm::trace::MappedTrace::open(in_.studies[0].profile_path, &why);
    if (!checks_.expect(profile != nullptr, "open DRR profile: " + why)) {
      return;
    }
    const AllocTrace design_trace = profile->materialize();
    {
      dmm::sysmem::SystemArena arena;
      dmm::alloc::PolicyCore core(arena, in_.deploy_config, "bound", false);
      bound_ = dmm::core::simulate(design_trace, core).peak_footprint;
    }
    checks_.expect(bound_ == in_.studies[0].design_peak,
                   "designed bound equals the design's best peak");
    const Span replay_span("deploy.cacheoff_replay");
    dmm::runtime::RuntimeOptions ro;
    ro.thread_cache_bytes = 0;
    dmm::runtime::DesignedAllocator front(in_.deploy_config, ro);
    const RaceResult r =
        race(std::vector<AllocTrace>{design_trace}, DesignedApi{&front}, {});
    check_race(r, "cache-off replay", checks_);
    cacheoff_peak_ = front.telemetry().arena.peak_footprint;
    checks_.expect(cacheoff_peak_ == bound_,
                   "cache-off replay peak " + std::to_string(cacheoff_peak_) +
                       " equals the designed bound " + std::to_string(bound_));
  }

  void step() override {
    const std::size_t i = steps_++;
    const std::size_t set = i % kDeploySets;
    const Span iteration_span("deploy.iteration");
    for (Phase& phase : phases_) {
      const Span span(std::string("deploy.") + phase.name);
      RaceOptions ro;
      ro.handoff = phase.handoff;
      ro.time_calls = opts_.trace;
      ro.call_spans = opts_.trace && i == 0 ? kCallSpans : 0;
      ro.corrupt = opts_.corrupt_fill && i == 0 && !phase.handoff;
      ro.parent_span = span.id();
      dmm::runtime::DesignedAllocator front(in_.deploy_config);  // defaults
      const RaceResult r = race(sets_[set], DesignedApi{&front}, ro);
      const dmm::runtime::TelemetrySnapshot t = front.telemetry();
      check_race(r, std::string("deploy ") + phase.name + " phase", checks_);
      phase.mops.push_back(r.mops());
      phase.peaks.push_back(static_cast<double>(t.arena.peak_footprint));
      phase.hits.push_back(
          t.alloc_count == 0 ? 0.0
                             : static_cast<double>(t.cache_hits) /
                                   static_cast<double>(t.alloc_count));
      merge_samples(r, phase.malloc_ns, phase.free_ns);
    }
  }

  [[nodiscard]] std::size_t round_length() const override {
    return kDeploySets;
  }
  [[nodiscard]] unsigned min_rounds() const override {
    return scale_.min_deploy_rounds;
  }

  void finish(Metrics& metrics) override {
    const Span span("deploy.finish");
    const auto per_set = [](const std::vector<double>& samples) {
      return mean_of_group_medians(samples, kDeploySets);
    };
    const double peak = per_set(phases_[0].peaks);
    metrics.set("deploy_mops", per_set(phases_[0].mops), "Mops/s");
    metrics.set("handoff_mops", per_set(phases_[1].mops), "Mops/s");
    metrics.set("deploy_peak_B", peak, "B");
    metrics.set("runtime.handoff_peak_B",
                per_set(phases_[1].peaks), "B");
    metrics.set("runtime.peak_x_bound", peak / static_cast<double>(bound_),
                "x");
    metrics.set("runtime.cacheoff_peak_B",
                static_cast<double>(cacheoff_peak_), "B");
    for (Phase& phase : phases_) {
      const std::string suffix = std::string(".") + phase.name;
      metrics.set("runtime.cache_hit_ratio" + suffix,
                  per_set(phase.hits), "ratio");
      if (!opts_.trace) continue;
      metrics.set("runtime.malloc_ns" + suffix + ".p50",
                  quantile(phase.malloc_ns, 0.50), "ns");
      metrics.set("runtime.malloc_ns" + suffix + ".p99",
                  quantile(phase.malloc_ns, 0.99), "ns");
      metrics.set("runtime.free_ns" + suffix + ".p50",
                  quantile(phase.free_ns, 0.50), "ns");
      metrics.set("runtime.free_ns" + suffix + ".p99",
                  quantile(phase.free_ns, 0.99), "ns");
    }
    if (opts_.trace) libc_reference(metrics);
  }

 private:
  // Each phase gets a fresh front: the local phase's peak repeats within a
  // traffic set, while the handoff phase's swings between 0.65 and 5 MB
  // from one iteration to the next (it depends on how the threads
  // interleave), so only the first is an end-to-end metric.  Samples are
  // grouped by traffic set; a metric is the mean over sets of their medians.
  struct Phase {
    const char* name;
    bool handoff;
    /// Per iteration; iteration i ran traffic set i % kDeploySets.
    std::vector<double> mops, peaks, hits;
    std::vector<double> malloc_ns, free_ns;
  };

  /// The libc reference: the same traffic through malloc/free, with glibc's
  /// in-use bytes sampled by worker thread 0 (no extra sampling thread);
  /// libc.peak_B is their peak above the level before the race.
  void libc_reference(Metrics& metrics) {
    const Span span("deploy.libc");
    std::vector<double> local_mops, handoff_mops;
    std::uint64_t libc_peak = 0;
    for (std::size_t i = 0; i < steps_; ++i) {
      RaceOptions ro;
      ro.sample_mallinfo = i == 0;
      const std::uint64_t base = libc_in_use_bytes();
      const std::vector<AllocTrace>& traces = sets_[i % kDeploySets];
      const RaceResult local = race(traces, LibcApi{}, ro);
      ro.handoff = true;
      const RaceResult handoff = race(traces, LibcApi{}, ro);
      check_race(local, "libc local phase", checks_);
      check_race(handoff, "libc handoff phase", checks_);
      local_mops.push_back(local.mops());
      handoff_mops.push_back(handoff.mops());
      if (i == 0) {
        const std::uint64_t top = std::max(local.threads[0].libc_peak,
                                           handoff.threads[0].libc_peak);
        libc_peak = top > base ? top - base : 0;
      }
    }
    metrics.set("libc.mops.local",
                mean_of_group_medians(local_mops, kDeploySets), "Mops/s");
    metrics.set("libc.mops.handoff",
                mean_of_group_medians(handoff_mops, kDeploySets), "Mops/s");
    metrics.set("libc.peak_B", static_cast<double>(libc_peak), "B");
  }

  const Options& opts_;
  const Scale& scale_;
  const Inputs& in_;
  Checks& checks_;
  std::vector<std::vector<AllocTrace>> sets_;  ///< kDeploySets x threads
  Phase phases_[2] = {{"local", false, {}, {}, {}, {}, {}},
                      {"handoff", true, {}, {}, {}, {}, {}}};
  std::uint64_t bound_ = 0;
  std::uint64_t cacheoff_peak_ = 0;
  std::size_t steps_ = 0;
};

}  // namespace

std::unique_ptr<StageRunner> make_deploy_stage(const Options& opts,
                                               const Scale& scale,
                                               const Inputs& in,
                                               Checks& checks) {
  return std::make_unique<DeployStage>(opts, scale, in, checks);
}

}  // namespace perfbench
