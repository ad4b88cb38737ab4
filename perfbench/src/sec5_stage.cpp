// The `sec5` stage: the paper's two Sec. 5 numbers, single thread.  Each
// iteration runs every case-study application on Kingsley and on its
// designed manager and replays every trace from its mapped .dmmt through
// the designed manager, Kingsley and Lea.  Table 1's fixed seeds are
// replayed once per run for the peak footprints.

#include <algorithm>

#include "bench.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/global_manager.h"
#include "dmm/core/simulator.h"
#include "dmm/managers/registry.h"
#include "dmm/workloads/workload.h"
#include "tracer.h"

namespace perfbench {
namespace {

using dmm::core::AllocTrace;
using dmm::core::SimResult;
using dmm::sysmem::SystemArena;

std::unique_ptr<dmm::alloc::Allocator> make_named(
    const std::string& manager, const Study& study, SystemArena& arena) {
  if (manager == "custom") return make_designed(arena, study.design, false);
  return dmm::managers::make_manager(manager, arena);
}

/// Wall milliseconds of one application run of @p study on @p manager.
double app_ms(const Study& study, const std::string& manager) {
  const Span span("app:" + manager);
  SystemArena arena;
  auto mgr = make_named(manager, study, arena);
  const Clock::time_point t0 = Clock::now();
  dmm::workloads::case_study(study.name).run(*mgr, study.seed);
  return seconds_since(t0) * 1e3;
}

/// Replay of @p trace through a fresh @p manager: ns per event.
double replay_ns(const dmm::core::TraceSource& trace, const Study& study,
                 const std::string& manager) {
  const Span span("replay:" + manager);
  SystemArena arena;
  auto mgr = make_named(manager, study, arena);
  const Clock::time_point t0 = Clock::now();
  const SimResult sim = dmm::core::simulate(trace, *mgr);
  return seconds_since(t0) * 1e9 / static_cast<double>(sim.events);
}

bool same_result(const SimResult& a, const SimResult& b) {
  return a.peak_footprint == b.peak_footprint &&
         a.final_footprint == b.final_footprint &&
         a.avg_footprint == b.avg_footprint &&
         a.peak_live_bytes == b.peak_live_bytes &&
         a.failed_allocs == b.failed_allocs && a.events == b.events;
}

/// Mechanism counters of a designed manager (summed over its phases).
struct CoreCounts {
  std::uint64_t work_steps = 0;
  std::uint64_t splits = 0;
  std::uint64_t coalesces = 0;
  std::uint64_t chunks_grown = 0;
  std::uint64_t chunks_released = 0;
};

CoreCounts core_counts(const dmm::alloc::Allocator& mgr) {
  CoreCounts c;
  const auto add = [&c](const dmm::alloc::AllocatorStats& s) {
    c.splits += s.splits;
    c.coalesces += s.coalesces;
    c.chunks_grown += s.chunks_grown;
    c.chunks_released += s.chunks_released;
  };
  if (const auto* core = dynamic_cast<const dmm::alloc::PolicyCore*>(&mgr)) {
    c.work_steps = core->work_steps();
    add(core->stats());
  } else if (const auto* global =
                 dynamic_cast<const dmm::core::GlobalManager*>(&mgr)) {
    c.work_steps = global->work_steps();
    for (std::size_t i = 0; i < global->atomic_count(); ++i) {
      add(global->atomic(i).stats());
    }
  }
  return c;
}

/// An allocator that does no management at all: every request gets the
/// same scratch buffer and the arena is never touched, so a replay through
/// it times the simulator's own bookkeeping.
class BumpAllocator final : public dmm::alloc::Allocator {
 public:
  explicit BumpAllocator(SystemArena& arena) : Allocator(arena) {}
  void* allocate(std::size_t /*bytes*/) override { return scratch_; }
  void deallocate(void* /*ptr*/) override {}
  std::size_t usable_size(const void* /*ptr*/) const override { return 0; }
  std::string name() const override { return "bump"; }

 private:
  alignas(16) unsigned char scratch_[16] = {};
};

/// The designed manager's allocate/deallocate driven straight from the
/// event array, without simulate(): ns per operation.
double direct_core_ns(const AllocTrace& trace, const Study& study) {
  const Span span("core.direct_loop");
  SystemArena arena;
  auto mgr = make_designed(arena, study.design, false);
  std::vector<void*> slots(trace.id_bounds().max_id + 1, nullptr);
  std::uint16_t phase = 0;
  const Clock::time_point t0 = Clock::now();
  for (const dmm::core::AllocEvent& e : trace.events()) {
    if (e.phase != phase) {
      phase = e.phase;
      mgr->set_phase(phase);
    }
    if (e.op == dmm::core::AllocEvent::Op::kAlloc) {
      slots[e.id] = mgr->allocate(e.size);
    } else if (slots[e.id] != nullptr) {
      mgr->deallocate(slots[e.id]);
      slots[e.id] = nullptr;
    }
  }
  const double ns = seconds_since(t0) * 1e9 /
                    static_cast<double>(trace.events().size());
  for (void* p : slots) {
    if (p != nullptr) mgr->deallocate(p);
  }
  return ns;
}

/// Cursor scan of a mapped trace with no replay: ns per decoded event.
double decode_ns(const dmm::trace::MappedTrace& trace, Checks& checks) {
  const Span span("trace.cursor_scan");
  const Clock::time_point t0 = Clock::now();
  std::uint64_t events = 0;
  auto cursor = trace.cursor();
  const dmm::core::AllocEvent* run = nullptr;
  while (const std::size_t n = cursor->next(&run)) events += n;
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(events);
  checks.expect(events == trace.event_count(),
                "cursor scan yields every event of the trace");
  return ns;
}

/// Table 1: mean peak footprint per manager over the fixed seeds, and the
/// designed manager's improvement over the best baseline of each column.
double table1_gain_pct(const Inputs& in, unsigned seeds, Checks& checks) {
  const Span span("table1");
  std::vector<double> gains;
  for (const Study& study : in.studies) {
    const dmm::workloads::Workload& w = dmm::workloads::case_study(study.name);
    std::vector<double> baseline_sum(w.table1_baselines.size(), 0.0);
    double custom_sum = 0.0;
    for (unsigned seed = 1; seed <= seeds; ++seed) {
      const AllocTrace trace = dmm::workloads::record_trace(w, seed);
      for (std::size_t b = 0; b < w.table1_baselines.size(); ++b) {
        SystemArena arena;
        auto mgr = dmm::managers::make_manager(w.table1_baselines[b], arena);
        baseline_sum[b] += static_cast<double>(
            dmm::core::simulate(trace, *mgr).peak_footprint);
      }
      SystemArena arena;
      auto mgr = make_designed(arena, study.design, false);
      const SimResult sim = dmm::core::simulate(trace, *mgr);
      checks.expect(sim.failed_allocs == 0,
                    "Table 1 replay of " + study.name + " allocates");
      custom_sum += static_cast<double>(sim.peak_footprint);
    }
    double best = baseline_sum[0];
    for (const double v : baseline_sum) best = std::min(best, v);
    gains.push_back(100.0 * (best - custom_sum) / best);
  }
  double sum = 0.0;
  for (const double g : gains) sum += g;
  return sum / static_cast<double>(gains.size());
}

class Sec5Stage final : public StageRunner {
 public:
  Sec5Stage(const Options& opts, const Scale& scale, const Inputs& in,
            Checks& checks)
      : opts_(opts), scale_(scale), in_(in), checks_(checks) {}

  void prepare() override {
    const Span span("sec5.prepare");
    // In-memory copies: the reference side of the mapped-replay parity
    // check and the input of the layer probes.
    for (const Study& study : in_.studies) {
      memory_.push_back(study.mapped->materialize());
    }
    for (std::size_t s = 0; s < in_.studies.size(); ++s) {
      const Study& study = in_.studies[s];
      SimResult mapped_sim;
      SimResult memory_sim;
      {
        SystemArena arena;
        auto mgr = make_designed(arena, study.design, false);
        mapped_sim = dmm::core::simulate(*study.mapped, *mgr);
      }
      {
        SystemArena arena;
        auto mgr = make_designed(arena, study.design, false);
        memory_sim = dmm::core::simulate(memory_[s], *mgr);
      }
      checks_.expect(same_result(mapped_sim, memory_sim),
                     "mapped and in-memory replays agree: " + study.name);
      checks_.expect(mapped_sim.failed_allocs == 0,
                     "designed replay allocates: " + study.name);
    }
    samples_.resize(in_.studies.size());
  }

  void step() override {
    // Single-threaded: pinned to each CPU in turn (see CpuRotation).
    const std::size_t i = steps_++;
    rotation_.pin(i);
    const Span span("sec5.iteration");
    for (std::size_t s = 0; s < in_.studies.size(); ++s) {
      const Study& study = in_.studies[s];
      Samples& out = samples_[s];
      const Span study_span("study:" + study.name);
      // Alternate which manager runs first so neither always runs warm.
      if ((i / rotation_.cpus()) % 2 == 0) {
        out.app_k.push_back(app_ms(study, "kingsley"));
        out.app_c.push_back(app_ms(study, "custom"));
      } else {
        out.app_c.push_back(app_ms(study, "custom"));
        out.app_k.push_back(app_ms(study, "kingsley"));
      }
      out.rep_c.push_back(replay_ns(*study.mapped, study, "custom"));
      out.rep_k.push_back(replay_ns(*study.mapped, study, "kingsley"));
      out.rep_l.push_back(replay_ns(*study.mapped, study, "lea"));
      checks_.attempt(5);
    }
    rotation_.release();
  }

  [[nodiscard]] std::size_t round_length() const override {
    return rotation_.cpus();
  }
  [[nodiscard]] unsigned min_rounds() const override { return 1; }

  void finish(Metrics& metrics) override {
    const Span finish_span("sec5.finish");
    const std::size_t cpus = rotation_.cpus();
    std::vector<double> overhead, replay, kingsley, lea;
    for (std::size_t s = 0; s < in_.studies.size(); ++s) {
      const std::string& name = in_.studies[s].name;
      const Samples& in = samples_[s];
      const double k = mean_of_group_medians(in.app_k, cpus);
      const double c = mean_of_group_medians(in.app_c, cpus);
      overhead.push_back(c / k);
      replay.push_back(mean_of_group_medians(in.rep_c, cpus));
      kingsley.push_back(mean_of_group_medians(in.rep_k, cpus));
      lea.push_back(mean_of_group_medians(in.rep_l, cpus));
      metrics.set("workloads.app_ms." + name + ".kingsley", k, "ms");
      metrics.set("workloads.app_ms." + name + ".custom", c, "ms");
    }
    metrics.set("app_overhead_x", geomean(overhead), "ratio");
    metrics.set("replay_ns_per_event", geomean(replay), "ns");
    metrics.set("footprint_gain_pct",
                table1_gain_pct(in_, scale_.table1_seeds, checks_), "%");
    metrics.set("managers.replay_ns_per_event.kingsley", geomean(kingsley),
                "ns");
    metrics.set("managers.replay_ns_per_event.lea", geomean(lea), "ns");
    if (opts_.trace) probe_layers(metrics);
  }

 private:
  struct Samples {
    std::vector<double> app_k, app_c, rep_c, rep_k, rep_l;
  };

  /// Layer probes of the traced run: each layer's cost on its own.
  void probe_layers(Metrics& metrics) {
    constexpr int kReps = 3;
    const std::size_t n = in_.studies.size();
    std::vector<double> regions, obstacks;
    double decode_events = 0.0;
    double decode_time = 0.0;
    double file_bytes = 0.0;
    CoreCounts counts;
    dmm::sysmem::ArenaStats arena_sum;
    double events = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const Study& study = in_.studies[s];
      const Span span("probe:" + study.name);
      std::vector<double> reg, obs, dec, sim_self, direct;
      for (int r = 0; r < kReps; ++r) {
        reg.push_back(replay_ns(*study.mapped, study, "regions"));
        obs.push_back(replay_ns(*study.mapped, study, "obstacks"));
        dec.push_back(decode_ns(*study.mapped, checks_));
        {
          const Span sim_span("sim.bump_replay");
          SystemArena arena;
          BumpAllocator bump(arena);
          const Clock::time_point r0 = Clock::now();
          (void)dmm::core::simulate(memory_[s], bump);
          sim_self.push_back(seconds_since(r0) * 1e9 /
                             static_cast<double>(memory_[s].size()));
        }
        direct.push_back(direct_core_ns(memory_[s], study));
      }
      regions.push_back(median(reg));
      obstacks.push_back(median(obs));
      const double ev = static_cast<double>(study.mapped->event_count());
      decode_events += ev;
      decode_time += median(dec) * ev;
      file_bytes += static_cast<double>(study.mapped->file_bytes());
      metrics.set("sim.self_ns_per_event." + study.name, median(sim_self),
                  "ns");
      metrics.set("core.direct_ns_per_op." + study.name, median(direct), "ns");

      SystemArena arena;
      auto mgr = make_designed(arena, study.design, false);
      (void)dmm::core::simulate(*study.mapped, *mgr);
      const CoreCounts c = core_counts(*mgr);
      counts.work_steps += c.work_steps;
      counts.splits += c.splits;
      counts.coalesces += c.coalesces;
      counts.chunks_grown += c.chunks_grown;
      counts.chunks_released += c.chunks_released;
      const dmm::sysmem::ArenaStats a = arena.stats();
      arena_sum.request_count += a.request_count;
      arena_sum.release_count += a.release_count;
      arena_sum.peak_footprint += a.peak_footprint;
      events += ev;
    }
    metrics.set("managers.replay_ns_per_event.regions", geomean(regions),
                "ns");
    metrics.set("managers.replay_ns_per_event.obstacks", geomean(obstacks),
                "ns");
    metrics.set("trace.decode_ns_per_event", decode_time / decode_events,
                "ns");
    metrics.set("trace.bytes_per_event", file_bytes / decode_events, "B");
    metrics.set("core.work_steps_per_event",
                static_cast<double>(counts.work_steps) / events, "count");
    metrics.set("core.splits", static_cast<double>(counts.splits), "count");
    metrics.set("core.coalesces", static_cast<double>(counts.coalesces),
                "count");
    metrics.set("core.chunks_grown", static_cast<double>(counts.chunks_grown),
                "count");
    metrics.set("core.chunks_released",
                static_cast<double>(counts.chunks_released), "count");
    metrics.set("arena.requests", static_cast<double>(arena_sum.request_count),
                "count");
    metrics.set("arena.releases", static_cast<double>(arena_sum.release_count),
                "count");
    metrics.set("arena.peak_B", static_cast<double>(arena_sum.peak_footprint),
                "B");
  }

  const Options& opts_;
  const Scale& scale_;
  const Inputs& in_;
  Checks& checks_;
  const CpuRotation rotation_;
  std::vector<AllocTrace> memory_;
  std::vector<Samples> samples_;  ///< per case study
  std::size_t steps_ = 0;
};

}  // namespace

std::unique_ptr<StageRunner> make_sec5_stage(const Options& opts,
                                             const Scale& scale,
                                             const Inputs& in,
                                             Checks& checks) {
  return std::make_unique<Sec5Stage>(opts, scale, in, checks);
}

}  // namespace perfbench
