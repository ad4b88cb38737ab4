// The `design` stage: time-to-design of a fixed mix of DesignRequests,
// closed loop, one request at a time, four engine threads, a cold score
// cache per request.  The mix runs greedy, beam:4 and anneal on each case
// study plus one three-trace DRR family request.

#include <algorithm>

#include "bench.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/api/design_api.h"
#include "dmm/core/phase.h"
#include "dmm/core/simulator.h"
#include "tracer.h"

namespace perfbench {
namespace {

using dmm::api::DesignReply;
using dmm::api::DesignRequest;

struct MixRequest {
  std::string label;  ///< "<study>.<search>" or "drr_family.beam4"
  DesignRequest req;
  double events = 0.0;  ///< mean events of the request's traces
};

dmm::api::TraceRef file_ref(const std::string& path) {
  dmm::api::TraceRef ref;
  ref.kind = dmm::api::TraceRef::Kind::kFile;
  ref.path = path;
  return ref;
}

double mean_events(const std::vector<std::string>& paths, Checks& checks) {
  double sum = 0.0;
  for (const std::string& path : paths) {
    std::string why;
    const auto mapped = dmm::trace::MappedTrace::open(path, &why);
    if (!checks.expect(mapped != nullptr, "open " + path + ": " + why)) {
      continue;
    }
    sum += static_cast<double>(mapped->event_count());
  }
  return sum / static_cast<double>(paths.size());
}

std::vector<MixRequest> build_mix(const Inputs& in, Checks& checks) {
  const std::pair<const char*, const char*> searches[] = {
      {"greedy", "greedy"}, {"beam:4", "beam4"}, {"anneal", "anneal"}};
  std::vector<MixRequest> mix;
  for (const Study& study : in.studies) {
    const double events = mean_events({study.design_path}, checks);
    for (const auto& [spec, tag] : searches) {
      MixRequest m;
      m.label = study.name + "." + tag;
      m.req.traces = {file_ref(study.design_path)};
      m.req.search_text = spec;
      m.events = events;
      mix.push_back(std::move(m));
    }
  }
  MixRequest family;
  family.label = "drr_family.beam4";
  for (const std::string& path : in.family_paths) {
    family.req.traces.push_back(file_ref(path));
  }
  family.req.search_text = "beam:4";
  family.events = mean_events(in.family_paths, checks);
  mix.push_back(std::move(family));
  return mix;
}

/// Re-scores the designed vectors of @p reply with simulate() on the
/// request's own traces and returns the peak the reply should report.
std::uint64_t rescore(const DesignRequest& req, const DesignReply& reply,
                      double* load_ms, Checks& checks) {
  std::vector<dmm::core::AllocTrace> traces;
  std::string why;
  const Clock::time_point t0 = Clock::now();
  const bool loaded = dmm::api::load_traces(req, &traces, &why);
  *load_ms += seconds_since(t0) * 1e3;
  if (!checks.expect(loaded, "load traces: " + why)) return 0;
  const auto peak_of = [](const dmm::core::AllocTrace& trace,
                          const dmm::alloc::DmmConfig& cfg) {
    dmm::sysmem::SystemArena arena;
    dmm::alloc::PolicyCore core(arena, cfg, "rescore", false);
    return static_cast<std::uint64_t>(
        dmm::core::simulate(trace, core).peak_footprint);
  };
  std::uint64_t peak = 0;
  if (reply.family) {
    // Max-peak family fold: the worst member.
    for (const auto& trace : traces) {
      peak = std::max(peak, peak_of(trace, reply.phase_configs[0]));
    }
    return peak;
  }
  // Single trace: each phase's vector scored on its phase's sub-trace, the
  // reply reporting the worst phase (as design_manager() searches them).
  const std::vector<dmm::core::AllocTrace> subs =
      dmm::core::split_by_phase(traces[0]);
  if (!checks.expect(subs.size() == reply.phase_configs.size(),
                     "one designed vector per phase")) {
    return 0;
  }
  for (std::size_t p = 0; p < subs.size(); ++p) {
    if (subs[p].empty()) continue;
    peak = std::max(peak, peak_of(subs[p], reply.phase_configs[p]));
  }
  return peak;
}

/// One pass of the mix at @p threads engine threads; per-request seconds
/// go to @p seconds (parallel to @p mix).
std::vector<DesignReply> run_pass(std::vector<MixRequest>& mix,
                                  unsigned threads,
                                  std::vector<double>* seconds,
                                  Checks& checks) {
  const Span pass_span(threads == 1 ? "design.pass_1thread" : "design.pass");
  std::vector<DesignReply> replies;
  seconds->clear();
  for (MixRequest& m : mix) {
    m.req.num_threads = threads;
    const Span span("request:" + m.label);
    const Clock::time_point t0 = Clock::now();
    DesignReply reply = dmm::api::run_design_request(m.req);
    seconds->push_back(seconds_since(t0));
    checks.expect(reply.ok && reply.feasible && !reply.phase_configs.empty(),
                  "design request " + m.label + ": " + reply.error);
    replies.push_back(std::move(reply));
  }
  return replies;
}

class DesignStage final : public StageRunner {
 public:
  DesignStage(const Inputs& in, Checks& checks) : in_(in), checks_(checks) {}

  void prepare() override {
    const Span span("design.prepare");
    mix_ = build_mix(in_, checks_);
    request_s_.resize(mix_.size());
    // The 1-thread pass is the reference the 4-thread replies must agree
    // with (and the base of engine.speedup_4v1); it also warms the process.
    reference_ = run_pass(mix_, 1, &one_thread_s_, checks_);
    double t1 = 0; for (double x : one_thread_s_) t1 += x;
  }

  void step() override {
    // Each pass starts on the next CPU (see CpuRotation).
    rotation_.start_on(pass_s_.size());
    std::vector<double> seconds;
    std::vector<DesignReply> replies = run_pass(mix_, 4, &seconds, checks_);
    double total = 0.0;
    for (std::size_t r = 0; r < mix_.size(); ++r) {
      request_s_[r].push_back(seconds[r]);
      total += seconds[r];
    }
    pass_s_.push_back(total);
    if (first_.empty()) first_ = std::move(replies);
  }

  [[nodiscard]] std::size_t round_length() const override {
    return rotation_.cpus();
  }
  [[nodiscard]] unsigned min_rounds() const override { return 1; }

  void finish(Metrics& metrics) override {
    const Span span("design.finish");
    // Correctness: thread-count parity and re-scored peaks.
    double load_ms = 0.0;
    std::uint64_t peak_sum = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t simulations = 0;
    std::uint64_t hits = 0;
    double replayed_events = 0.0;
    for (std::size_t r = 0; r < mix_.size(); ++r) {
      const DesignReply& a = first_[r];
      const DesignReply& b = reference_[r];
      if (!a.ok || !b.ok || a.phase_configs.empty()) continue;
      checks_.expect(a.phase_signatures == b.phase_signatures &&
                         a.best_peak == b.best_peak,
                     "4-thread and 1-thread designs agree: " + mix_[r].label);
      checks_.expect(
          rescore(mix_[r].req, a, &load_ms, checks_) == a.best_peak,
          "re-scored peak equals best_peak: " + mix_[r].label);
      peak_sum += a.best_peak;
      evaluations += a.evaluations;
      simulations += a.simulations;
      hits += a.cache_hits;
      replayed_events += static_cast<double>(a.simulations) * mix_[r].events;
    }

    const std::size_t cpus = rotation_.cpus();
    const double design_s = mean_of_group_medians(pass_s_, cpus);
    metrics.set("design_s", design_s, "s");
    metrics.set("design_peak_B", static_cast<double>(peak_sum), "B");
    for (std::size_t r = 0; r < mix_.size(); ++r) {
      const double t4 = mean_of_group_medians(request_s_[r], cpus);
      metrics.set("api.request_s." + mix_[r].label, t4, "s");
      metrics.set("engine.speedup_4v1." + mix_[r].label, one_thread_s_[r] / t4,
                  "x");
    }
    metrics.set("api.load_ms", load_ms, "ms");
    metrics.set("search.evaluations", static_cast<double>(evaluations),
                "count");
    metrics.set("search.simulations", static_cast<double>(simulations),
                "count");
    metrics.set("search.cache_hits", static_cast<double>(hits), "count");
    metrics.set("search.hit_ratio",
                evaluations == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(evaluations),
                "ratio");
    metrics.set("search.ns_per_replayed_event",
                replayed_events == 0.0 ? 0.0
                                       : design_s * 1e9 / replayed_events,
                "ns");
  }

 private:
  const Inputs& in_;
  Checks& checks_;
  const CpuRotation rotation_;
  std::vector<MixRequest> mix_;
  std::vector<double> one_thread_s_;
  std::vector<DesignReply> reference_;
  std::vector<DesignReply> first_;  ///< replies of the first 4-thread pass
  std::vector<std::vector<double>> request_s_;  ///< per request, per pass
  std::vector<double> pass_s_;
};

}  // namespace

std::unique_ptr<StageRunner> make_design_stage(const Options& /*opts*/,
                                               const Scale& /*scale*/,
                                               const Inputs& in,
                                               Checks& checks) {
  return std::make_unique<DesignStage>(in, checks);
}

}  // namespace perfbench
