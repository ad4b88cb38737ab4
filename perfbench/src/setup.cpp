// Set-up: everything a run prepares before it measures.  Traces are
// recorded from seeds derived from --seed and handed to the library only
// as .dmmt files; designs come back as decision vectors.

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "dmm/api/design_api.h"
#include "dmm/core/trace.h"
#include "dmm/runtime/config_artifact.h"
#include "dmm/workloads/workload.h"
#include "tracer.h"

namespace perfbench {
namespace {

using dmm::core::AllocTrace;

/// Table 1 profiles each application with its first seed and designs from
/// that trace.
constexpr unsigned kProfileSeed = 1;

AllocTrace record(const std::string& name, unsigned seed, double* record_s) {
  const Span span("record:" + name);
  const Clock::time_point t0 = Clock::now();
  AllocTrace trace =
      dmm::workloads::record_trace(dmm::workloads::case_study(name), seed);
  *record_s += seconds_since(t0);
  return trace;
}

/// Events [begin, begin + n) of @p trace as a trace of its own: frees of
/// objects allocated before the window are dropped and the objects still
/// live at its end are freed, so it replays on its own.
AllocTrace window(const AllocTrace& trace, std::size_t begin, std::size_t n) {
  AllocTrace out;
  std::vector<bool> live(trace.id_bounds().max_id + 1, false);
  const std::vector<dmm::core::AllocEvent>& events = trace.events();
  for (std::size_t i = begin; i < std::min(events.size(), begin + n); ++i) {
    const dmm::core::AllocEvent& e = events[i];
    if (e.op == dmm::core::AllocEvent::Op::kAlloc) {
      live[e.id] = true;
      out.record_alloc(e.id, e.size, e.phase);
    } else if (live[e.id]) {
      live[e.id] = false;
      out.record_free(e.id, e.phase);
    }
  }
  out.close_leaks();
  return out;
}

/// Writes the first @p cap events of @p trace (0 = all) to @p path, closing
/// the leaks the cut leaves so the trace stays replayable.
void write_capped(AllocTrace trace, std::uint64_t cap, const std::string& path,
                  Checks& checks) {
  if (cap != 0 && trace.size() > cap) {
    trace.events().resize(static_cast<std::size_t>(cap));
    trace.close_leaks();
  }
  std::string why;
  checks.expect(dmm::trace::write_trace_file(trace, path, {}, &why),
                "write " + path + ": " + why);
}

}  // namespace

Inputs set_up(const Options& opts, const Scale& scale, const std::string& dir,
              Checks& checks) {
  const Span span("setup");
  std::filesystem::create_directories(dir);
  Inputs in;

  // Per case study: the profile (Table 1's seed, the same in every run)
  // that set-up designs from and the design mix searches, and a trace of
  // this run's seed that sec5 replays.  The mix caps DRR, whose full trace
  // makes a pass take ~8 s.
  const std::vector<dmm::workloads::Workload>& studies =
      dmm::workloads::case_studies();
  for (std::size_t i = 0; i < studies.size(); ++i) {
    Study study;
    study.name = studies[i].name;
    study.seed = derive_seed(opts.seed, 1 + i);
    study.full_path = dir + "/" + study.name + ".dmmt";
    write_capped(record(study.name, study.seed, &in.record_s), 0,
                 study.full_path, checks);
    study.profile_path = dir + "/" + study.name + ".profile.dmmt";
    const AllocTrace profile = record(study.name, kProfileSeed, &in.record_s);
    write_capped(profile, 0, study.profile_path, checks);
    study.design_path = study.profile_path;
    if (study.name == "drr") {
      study.design_path = dir + "/drr.profile.capped.dmmt";
      write_capped(profile, scale.design_events, study.design_path, checks);
    }
    in.studies.push_back(std::move(study));
  }
  // The family request: three DRR traces of this run's seed.
  for (std::uint64_t k = 0; k < 3; ++k) {
    const std::string path = dir + "/drr.family" + std::to_string(k) + ".dmmt";
    write_capped(record("drr", derive_seed(opts.seed, 11 + k), &in.record_s),
                 scale.design_events, path, checks);
    in.family_paths.push_back(path);
  }
  // Deploy traffic: consecutive windows of DRR recordings of this run's
  // seed.  Set k gives thread t window k % kDeployWindows of recording
  // (k / kDeployWindows) * kDeployThreads + t, so the threads of a set
  // replay different recordings.
  std::vector<AllocTrace> recordings;
  for (std::uint64_t r = 0; r < kDeploySets / kDeployWindows * kDeployThreads;
       ++r) {
    recordings.push_back(
        record("drr", derive_seed(opts.seed, 21 + r), &in.record_s));
  }
  for (std::size_t k = 0; k < kDeploySets; ++k) {
    for (std::size_t t = 0; t < kDeployThreads; ++t) {
      const AllocTrace& rec =
          recordings[k / kDeployWindows * kDeployThreads + t];
      const std::string path = dir + "/drr.deploy" + std::to_string(k) + "." +
                               std::to_string(t) + ".dmmt";
      write_capped(window(rec, k % kDeployWindows * scale.deploy_events,
                          scale.deploy_events),
                   0, path, checks);
      in.deploy_paths.push_back(path);
    }
  }

  // Map the full traces (sec5 replays them from the mapping).
  const Clock::time_point open_t0 = Clock::now();
  for (Study& study : in.studies) {
    const Span open_span("trace.open");
    std::string why;
    study.mapped = dmm::trace::MappedTrace::open(study.full_path, &why);
    checks.expect(study.mapped != nullptr,
                  "open " + study.full_path + ": " + why);
  }
  in.open_ms = seconds_since(open_t0) * 1e3 /
               static_cast<double>(in.studies.size());

  // One design per case study, through the request API on the .dmmt file.
  for (Study& study : in.studies) {
    const Span design_span("setup.design:" + study.name);
    dmm::api::DesignRequest req;
    dmm::api::TraceRef ref;
    ref.kind = dmm::api::TraceRef::Kind::kFile;
    ref.path = study.profile_path;
    req.traces = {ref};
    req.search_text = "greedy";
    req.num_threads = 4;
    const dmm::api::DesignReply reply = dmm::api::run_design_request(req);
    checks.expect(reply.ok && reply.feasible && !reply.phase_configs.empty(),
                  "set-up design of " + study.name + ": " + reply.error);
    study.design = reply.phase_configs;
    study.design_peak = reply.best_peak;
  }
  // The caller stops the run on any failed set-up check; nothing below may
  // touch a design that did not come back.
  if (checks.failed() != 0) return in;

  // The DRR design crosses to the runtime through the config artifact.
  const Study& drr = in.studies[0];
  const std::string artifact = dir + "/drr.dmmconfig";
  const dmm::runtime::ConfigArtifactSaveResult saved =
      dmm::runtime::save_config_artifact(artifact, drr.design);
  checks.expect(saved.saved, "save config artifact: " + saved.reason);
  const dmm::runtime::ConfigArtifactLoadResult loaded =
      dmm::runtime::load_config_artifact(artifact);
  checks.expect(loaded.loaded && loaded.configs == drr.design,
                "config artifact round trip: " + loaded.reason);
  checks.expect(drr.design.size() == 1,
                "DRR design has one phase (the runtime deploys one vector)");
  if (loaded.loaded) in.deploy_config = loaded.configs[0];
  return in;
}

}  // namespace perfbench
