// The repository benchmark.  One run sets up its inputs from --seed, then
// measures the three stages of the design-to-deployment pipeline:
//
//   design  time-to-design of a fixed DesignRequest mix (design_s)
//   sec5    the paper's Sec. 5 numbers (app_overhead_x, footprint_gain_pct,
//           replay_ns_per_event)
//   deploy  the runtime front under four threads (deploy_mops, ...)
//
// The result line carries every end-to-end metric, so every run measures
// every stage; --workload names the stage that gets the --seconds budget,
// and the others get a share of it (Scale::side_share).  The stages' steps
// interleave, so each stage samples the whole run.  With --trace 1 the run
// records spans, adds the per-layer probes, and measures the workload's
// stage once untraced first to report the tracing overhead.
//
// Usage: perfbench --workload design|sec5|deploy --seed N --seconds S
//                  --trace 0|1 --workdir DIR [--spans FILE] [--git-rev REV]
//                  [--smoke] [--corrupt-fill]
// The last stdout line is {"attempted", "failed", "metrics"} JSON; the exit
// code is 0 only when every check passed.  perfbench/run.py builds this
// binary and turns that line into the benchmark's result.

#include <gnu/libc-version.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "dmm/core/search.h"
#include "tracer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload design|sec5|deploy "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--spans FILE] "
               "[--git-rev REV] [--smoke] [--corrupt-fill]\n",
               why);
  std::exit(2);
}

std::uint64_t number_arg(const char* flag, const char* text) {
  const auto value = dmm::core::parse_number(text);
  if (!value) usage((std::string(flag) + " needs a whole number").c_str());
  return *value;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (arg == "--corrupt-fill") {
      opts.corrupt_fill = true;
      continue;
    }
    if (i + 1 >= argc) usage((arg + " needs a value").c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      const std::string w = value;
      have_workload = true;
      if (w == "design") {
        opts.workload = Stage::kDesign;
      } else if (w == "sec5") {
        opts.workload = Stage::kSec5;
      } else if (w == "deploy") {
        opts.workload = Stage::kDeploy;
      } else {
        usage(("unknown workload '" + w + "'").c_str());
      }
    } else if (arg == "--seed") {
      opts.seed = number_arg("--seed", value);
    } else if (arg == "--seconds") {
      opts.seconds = static_cast<double>(number_arg("--seconds", value));
    } else if (arg == "--trace") {
      const std::uint64_t t = number_arg("--trace", value);
      if (t > 1) usage("--trace takes 0 or 1");
      opts.trace = t == 1;
    } else if (arg == "--workdir") {
      opts.workdir = value;
    } else if (arg == "--spans") {
      opts.spans_path = value;
    } else if (arg == "--git-rev") {
      opts.git_rev = value;
    } else {
      usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opts.workdir.empty()) usage("--workdir is required");
  if (opts.seconds < 1) usage("--seconds must be at least 1");
  return opts;
}

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kDesign:
      return "design";
    case Stage::kSec5:
      return "sec5";
    case Stage::kDeploy:
      return "deploy";
  }
  return "?";
}

std::string machine_json(const Options& opts) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"compiler\": \"%s %s\", \"build_type\": "
                "\"%s\", \"git_rev\": \"%s\", \"glibc\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}",
                std::thread::hardware_concurrency(),
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, PERFBENCH_BUILD_TYPE, opts.git_rev.c_str(),
                gnu_get_libc_version(), stage_name(opts.workload),
                static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  return buf;
}

std::unique_ptr<StageRunner> make_stage(Stage stage, const Options& opts,
                                        const Scale& scale, const Inputs& in,
                                        Checks& checks) {
  switch (stage) {
    case Stage::kDesign:
      return make_design_stage(opts, scale, in, checks);
    case Stage::kSec5:
      return make_sec5_stage(opts, scale, in, checks);
    case Stage::kDeploy:
      return make_deploy_stage(opts, scale, in, checks);
  }
  return nullptr;
}

/// Runs @p stages with their steps interleaved: the next step always goes
/// to the stage furthest behind its time budget, and a stage stops after a
/// whole round once it has spent its budget and done its minimum rounds.
/// @p focus_budget is the budget of the run's own workload stage.
void run_stages(const std::vector<Stage>& stages, double focus_budget,
                const Options& opts, const Scale& scale, const Inputs& in,
                Metrics& metrics, Checks& checks) {
  struct Slot {
    std::unique_ptr<StageRunner> runner;
    double budget = 0.0;
    double used = 0.0;
    std::size_t steps = 0;
    bool done = false;
  };
  std::vector<Slot> slots;
  for (const Stage stage : stages) {
    Slot slot;
    slot.runner = make_stage(stage, opts, scale, in, checks);
    slot.budget = stage == opts.workload ? focus_budget
                                         : opts.seconds * scale.side_share;
    slot.runner->prepare();
    slots.push_back(std::move(slot));
  }
  for (;;) {
    Slot* next = nullptr;
    for (Slot& slot : slots) {
      if (!slot.done && (next == nullptr || slot.used / slot.budget <
                                                next->used / next->budget)) {
        next = &slot;
      }
    }
    if (next == nullptr) break;
    const Clock::time_point t0 = Clock::now();
    next->runner->step();
    next->used += seconds_since(t0);
    ++next->steps;
    const std::size_t round = next->runner->round_length();
    next->done = next->used >= next->budget && next->steps % round == 0 &&
                 next->steps >= next->runner->min_rounds() * round;
  }
  for (Slot& slot : slots) slot.runner->finish(metrics);
}

/// The stage's headline time metric, oriented so that traced/untraced > 1
/// means tracing slowed it down.
double headline_cost(Stage stage, const Metrics& m) {
  switch (stage) {
    case Stage::kDesign:
      return m.all().at("design_s").value;
    case Stage::kSec5:
      return m.all().at("replay_ns_per_event").value;
    case Stage::kDeploy:
      return 1.0 / m.all().at("deploy_mops").value;
  }
  return 0.0;
}

void print_result(const Metrics& metrics, const Checks& checks) {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  bool first = true;
  for (const auto& [name, m] : metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  const Scale scale = scale_for(opts);
  const std::string machine = machine_json(opts);
  std::printf("{\"machine\": %s}\n", machine.c_str());

  Checks checks;
  Metrics metrics;

  // Set-up, several times: setup_s is the median.  The last one's inputs
  // are the ones measured.
  if (opts.trace) Tracer::instance().enable();
  std::vector<double> setup_s, record_s, open_ms;
  Inputs in;
  for (unsigned k = 0; k < scale.setups; ++k) {
    const std::string dir = opts.workdir + "/setup" + std::to_string(k);
    std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    Inputs fresh = set_up(opts, scale, dir, checks);
    setup_s.push_back(seconds_since(t0));
    record_s.push_back(fresh.record_s);
    open_ms.push_back(fresh.open_ms);
    in = std::move(fresh);
    if (checks.failed() != 0) break;
  }
  metrics.set("setup_s", median(setup_s), "s");
  metrics.set("workloads.record_s", median(record_s), "s");
  metrics.set("trace.open_ms", median(open_ms), "ms");
  if (checks.failed() != 0) {
    std::fprintf(stderr, "perfbench: set-up failed; nothing measured\n");
    print_result(metrics, checks);
    return 1;
  }

  const std::vector<Stage> all = {Stage::kDesign, Stage::kSec5,
                                  Stage::kDeploy};
  double untraced_cost = 0.0;
  if (opts.trace) {
    // Untraced reference of the workload's own stage, for the overhead.
    Tracer::instance().disable();
    Metrics plain;
    run_stages({opts.workload}, opts.seconds / 2, opts, scale, in, plain,
               checks);
    untraced_cost = headline_cost(opts.workload, plain);
    Tracer::instance().enable();
  }
  {
    const Span run_span(std::string("run:") + stage_name(opts.workload));
    run_stages(all, opts.trace ? opts.seconds / 2 : opts.seconds, opts, scale,
               in, metrics, checks);
  }
  if (opts.trace) {
    Tracer::instance().disable();
    metrics.set("tracing.overhead_x",
                headline_cost(opts.workload, metrics) / untraced_cost, "x");
    if (!opts.spans_path.empty() &&
        !Tracer::instance().write(opts.spans_path, "{\"machine\": " + machine +
                                                       "}")) {
      checks.fail(1, "write spans to " + opts.spans_path);
    }
    for (const SelfTime& row : Tracer::instance().self_times()) {
      std::fprintf(stderr, "self %-40s %8llu spans %12.3f ms self\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(row.count), row.self_ms);
    }
  }
  std::fprintf(stderr, "perfbench: %llu checked operations, %llu failed\n",
               static_cast<unsigned long long>(checks.attempted()),
               static_cast<unsigned long long>(checks.failed()));
  print_result(metrics, checks);
  return checks.failed() == 0 ? 0 : 1;
}
