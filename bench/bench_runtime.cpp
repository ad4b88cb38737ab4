// Head-to-head deployment bench (runtime/designed_allocator.h): design a
// manager for the DRR case study, round-trip the design through the
// config artifact, then race the deployed runtime front against the
// system allocator under multithreaded replay traffic — each thread
// replays its own recorded workload trace with a per-block fill pattern,
// so every lost or corrupted allocation is counted, not assumed away.
//
// Emits BENCH_runtime.json.  The exit code gates, and CI enforces:
//   * zero lost and zero corrupted allocations at every thread count on
//     both allocators,
//   * the cache-off single-threaded replay of the design trace hits the
//     arena peak the simulator scored for the designed vector EXACTLY
//     (the policy-core/runtime-front split's bit-parity promise),
//   * designed vs system throughput and the designed peak are reported
//     for the head-to-head table.  Every race runs kRaceRepeats times on
//     a fresh front; the JSON records the median, min and max ops/s.
//
// Optional argv[1]: cap on trace events (0 = full trace); `--out PATH`
// relocates the JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/methodology.h"
#include "dmm/core/simulator.h"
#include "dmm/runtime/config_artifact.h"
#include "dmm/runtime/designed_allocator.h"

namespace {

using namespace dmm;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Alloc/free shim so one replay loop drives both contenders.
struct MallocApi {
  std::function<void*(std::size_t)> alloc;
  std::function<void(void*)> dealloc;
};

/// Runs per race; one run is a few milliseconds at CI's event cap, so a
/// single shot mostly measures scheduling noise.
constexpr int kRaceRepeats = 5;

struct ReplayOutcome {
  std::uint64_t ops = 0;        ///< events actually executed
  std::uint64_t lost = 0;       ///< allocs that returned nullptr
  std::uint64_t corrupted = 0;  ///< blocks whose fill pattern broke
};

/// Replays @p trace through @p api with an id -> pointer map (the
/// simulator's discipline), writing a per-thread byte pattern into every
/// block on alloc and verifying it on free.
ReplayOutcome replay_with_pattern(const core::AllocTrace& trace,
                                  const MallocApi& api, unsigned char tag) {
  ReplayOutcome out;
  std::unordered_map<std::uint32_t, std::pair<void*, std::uint32_t>> live;
  for (const core::AllocEvent& e : trace.events()) {
    if (e.op == core::AllocEvent::Op::kAlloc) {
      void* p = api.alloc(e.size == 0 ? 1 : e.size);
      ++out.ops;
      if (p == nullptr) {
        ++out.lost;
        continue;
      }
      std::memset(p, tag, e.size == 0 ? 1 : e.size);
      live[e.id] = {p, e.size == 0 ? 1 : e.size};
    } else {
      const auto it = live.find(e.id);
      if (it == live.end()) continue;  // its alloc was lost
      const auto [p, size] = it->second;
      const auto* bytes = static_cast<const unsigned char*>(p);
      for (std::uint32_t i = 0; i < size; ++i) {
        if (bytes[i] != tag) {
          ++out.corrupted;
          break;
        }
      }
      api.dealloc(p);
      ++out.ops;
      live.erase(it);
    }
  }
  for (const auto& [id, block] : live) {
    api.dealloc(block.first);
    ++out.ops;
  }
  return out;
}

struct ContenderNumbers {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t lost = 0;
  std::uint64_t corrupted = 0;
  std::size_t peak_footprint = 0;  ///< designed runtime only (arena truth)
};

/// kRaceRepeats runs of one contender: ops/s spread, summed losses and
/// corruptions, and the largest peak.
struct RepeatedNumbers {
  std::uint64_t ops = 0;  ///< per run
  double median_ops_per_sec = 0.0;
  double min_ops_per_sec = 0.0;
  double max_ops_per_sec = 0.0;
  std::uint64_t lost = 0;
  std::uint64_t corrupted = 0;
  std::size_t peak_footprint = 0;
};

RepeatedNumbers repeat(const std::function<ContenderNumbers()>& run_once) {
  RepeatedNumbers r;
  std::vector<double> rates;
  for (int i = 0; i < kRaceRepeats; ++i) {
    const ContenderNumbers n = run_once();
    r.ops = n.ops;
    r.lost += n.lost;
    r.corrupted += n.corrupted;
    r.peak_footprint = std::max(r.peak_footprint, n.peak_footprint);
    rates.push_back(static_cast<double>(n.ops) / n.seconds);
  }
  std::sort(rates.begin(), rates.end());
  r.median_ops_per_sec = rates[rates.size() / 2];
  r.min_ops_per_sec = rates.front();
  r.max_ops_per_sec = rates.back();
  return r;
}

/// Runs one thread per trace, all against the same @p make_api product.
ContenderNumbers race(const std::vector<core::AllocTrace>& traces,
                      const std::function<MallocApi(unsigned)>& make_api) {
  ContenderNumbers n;
  std::vector<ReplayOutcome> outcomes(traces.size());
  std::vector<std::thread> workers;
  const double t0 = now_seconds();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    workers.emplace_back([&, t] {
      const MallocApi api = make_api(static_cast<unsigned>(t));
      outcomes[t] = replay_with_pattern(traces[t], api,
                                        static_cast<unsigned char>(0x51 + t));
    });
  }
  for (std::thread& w : workers) w.join();
  n.seconds = now_seconds() - t0;
  for (const ReplayOutcome& o : outcomes) {
    n.ops += o.ops;
    n.lost += o.lost;
    n.corrupted += o.corrupted;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::parse_bench_args(argc, argv, "BENCH_runtime.json");

  // --- design on the DRR case study --------------------------------------
  const workloads::Workload& drr = workloads::case_study("drr");
  core::AllocTrace design_trace = workloads::record_trace(drr, /*seed=*/1);
  bench::cap_events(design_trace, args.max_events);

  core::MethodologyOptions options;
  options.explorer_options.num_threads = 0;
  const core::MethodologyResult design =
      core::design_manager(design_trace, options);
  std::printf("designed %zu phase vector(s), %llu replays\n",
              design.phase_configs.size(),
              static_cast<unsigned long long>(design.total_simulations));

  // --- round-trip through the deployment artifact -------------------------
  const std::string artifact = args.out + ".dmmconfig";
  const runtime::ConfigArtifactSaveResult saved =
      runtime::save_config_artifact(artifact, design.phase_configs);
  if (!saved.saved) {
    std::fprintf(stderr, "config export failed: %s\n", saved.reason.c_str());
    return 1;
  }
  const runtime::ConfigArtifactLoadResult loaded =
      runtime::load_config_artifact(artifact);
  std::remove(artifact.c_str());
  if (!loaded.loaded) {
    std::fprintf(stderr, "config reload failed: %s\n", loaded.reason.c_str());
    return 1;
  }
  const alloc::DmmConfig cfg = loaded.configs[0];
  const bool roundtrip_ok = loaded.configs == design.phase_configs;

  // --- gate 1: deployed peak == designed bound, to the byte ---------------
  // Cache-off, single thread: the front forwards 1:1 to the policy core,
  // so the replay must touch the arena in exactly the simulator's order.
  core::SimResult designed_sim;
  {
    sysmem::SystemArena arena;
    alloc::PolicyCore core(arena, cfg, "bound", /*strict_accounting=*/false);
    designed_sim = core::simulate(design_trace, core);
  }
  std::size_t replayed_peak = 0;
  ReplayOutcome replay_gate;
  {
    runtime::RuntimeOptions ropts;
    ropts.thread_cache_bytes = 0;  // deterministic replay mode
    runtime::DesignedAllocator front(cfg, ropts);
    const MallocApi api{
        [&front](std::size_t n) { return front.malloc(n); },
        [&front](void* p) { front.free(p); }};
    replay_gate = replay_with_pattern(design_trace, api, 0x33);
    replayed_peak = front.telemetry().arena.peak_footprint;
  }
  const bool peak_parity = replayed_peak == designed_sim.peak_footprint;
  std::printf("designed bound %zu B, cache-off replay peak %zu B (%s)\n",
              designed_sim.peak_footprint, replayed_peak,
              peak_parity ? "EXACT" : "MISMATCH");

  // --- the head-to-head race ----------------------------------------------
  // Per-thread workloads: thread t replays its own recorded trace (fresh
  // seed), so the traffic is the case study's, not a synthetic loop.
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<unsigned> thread_counts = {1, 2, 4};
  while (thread_counts.back() * 2 <= (hw == 0 ? 4 : hw)) {
    thread_counts.push_back(thread_counts.back() * 2);
  }

  struct Row {
    unsigned threads;
    RepeatedNumbers designed;
    RepeatedNumbers system;
  };
  std::vector<Row> rows;
  for (const unsigned threads : thread_counts) {
    std::vector<core::AllocTrace> traces;
    for (unsigned t = 0; t < threads; ++t) {
      core::AllocTrace trace = workloads::record_trace(drr, 100 + t);
      bench::cap_events(trace, args.max_events);
      traces.push_back(std::move(trace));
    }

    Row row;
    row.threads = threads;
    row.designed = repeat([&] {
      runtime::DesignedAllocator front(cfg);  // caches on: deployment mode
      ContenderNumbers numbers = race(traces, [&front](unsigned) {
        return MallocApi{[&front](std::size_t n) { return front.malloc(n); },
                         [&front](void* p) { front.free(p); }};
      });
      numbers.peak_footprint = front.telemetry().arena.peak_footprint;
      return numbers;
    });
    row.system = repeat([&] {
      return race(traces, [](unsigned) {
        return MallocApi{[](std::size_t n) { return std::malloc(n); },
                         [](void* p) { std::free(p); }};
      });
    });
    rows.push_back(row);
    const RepeatedNumbers& d = row.designed;
    const RepeatedNumbers& s = row.system;
    std::printf(
        "%2u thread(s): designed %8.0f ops/s [%8.0f, %8.0f] (peak %9zu B), "
        "system %8.0f ops/s [%8.0f, %8.0f]\n",
        threads, d.median_ops_per_sec, d.min_ops_per_sec, d.max_ops_per_sec,
        d.peak_footprint, s.median_ops_per_sec, s.min_ops_per_sec,
        s.max_ops_per_sec);
  }

  // --- JSON ---------------------------------------------------------------
  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"runtime\",\n");
  std::fprintf(json, "  \"design_trace_events\": %zu,\n",
               design_trace.size());
  std::fprintf(json, "  \"artifact_roundtrip_ok\": %s,\n",
               roundtrip_ok ? "true" : "false");
  std::fprintf(json, "  \"designed_peak_bound\": %zu,\n",
               designed_sim.peak_footprint);
  std::fprintf(json, "  \"replayed_peak\": %zu,\n", replayed_peak);
  std::fprintf(json, "  \"replay_lost\": %llu,\n",
               static_cast<unsigned long long>(replay_gate.lost));
  std::fprintf(json, "  \"replay_corrupted\": %llu,\n",
               static_cast<unsigned long long>(replay_gate.corrupted));
  std::fprintf(json, "  \"race_repeats\": %d,\n", kRaceRepeats);
  std::fprintf(json, "  \"races\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json, "%s\n    {\n      \"threads\": %u,\n",
                 i == 0 ? "" : ",", r.threads);
    const auto contender = [json](const char* name, const RepeatedNumbers& n,
                                  bool last) {
      std::fprintf(json,
                   "      \"%s\": {\"ops\": %llu, "
                   "\"ops_per_sec_median\": %.1f, "
                   "\"ops_per_sec_min\": %.1f, \"ops_per_sec_max\": %.1f, "
                   "\"lost\": %llu, \"corrupted\": %llu, "
                   "\"peak_footprint\": %zu}%s\n",
                   name, static_cast<unsigned long long>(n.ops),
                   n.median_ops_per_sec, n.min_ops_per_sec, n.max_ops_per_sec,
                   static_cast<unsigned long long>(n.lost),
                   static_cast<unsigned long long>(n.corrupted),
                   n.peak_footprint, last ? "" : ",");
    };
    contender("designed", r.designed, false);
    contender("system", r.system, true);
    std::fprintf(json, "    }");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", args.out.c_str());

  // --- gates ---------------------------------------------------------------
  bool ok = true;
  if (!roundtrip_ok) {
    std::fprintf(stderr, "GATE: artifact round-trip changed the configs\n");
    ok = false;
  }
  if (!peak_parity) {
    std::fprintf(stderr,
                 "GATE: cache-off replay peak %zu != designed bound %zu\n",
                 replayed_peak, designed_sim.peak_footprint);
    ok = false;
  }
  if (replay_gate.lost != 0 || replay_gate.corrupted != 0) {
    std::fprintf(stderr, "GATE: replay lost/corrupted allocations\n");
    ok = false;
  }
  for (const Row& r : rows) {
    if (r.designed.lost != 0 || r.designed.corrupted != 0 ||
        r.system.lost != 0 || r.system.corrupted != 0) {
      std::fprintf(stderr,
                   "GATE: %u-thread race lost/corrupted allocations\n",
                   r.threads);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
