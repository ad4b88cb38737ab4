#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

// Shared types of the repository benchmark: run options, sizes, the
// metric sink, the correctness tally, and the inputs set-up produces.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/config.h"
#include "dmm/trace/trace_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Threads of the deploy stage (the machine's core count when chosen; at
/// two threads throughput swung by 3x between runs).
constexpr unsigned kDeployThreads = 4;
/// Traffic sets of the deploy stage, one trace per thread each.  The front's
/// peak is a property of the traffic more than of the run: one set's median
/// repeats across runs, but DRR's heavy-tailed bursts make sets differ by
/// ~13 %, so the stage averages over many.
constexpr unsigned kDeploySets = 16;
/// Deploy traces cut from one DRR recording (~160 k events): consecutive
/// windows of Scale::deploy_events.  Windows of one recording share its
/// bursts, so more recordings steady the averages more than more windows
/// (with 8 windows of 8 recordings, deploy_peak_B's spread over seeds was
/// 0.05-0.155).
constexpr unsigned kDeployWindows = 2;

/// The three stages of the benchmark, which are also its workloads.
enum class Stage { kDesign, kSec5, kDeploy };

/// Command line of one run.
struct Options {
  Stage workload = Stage::kDesign;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;      ///< scratch space for .dmmt files and artifacts
  std::string spans_path;   ///< where the traced run writes its spans
  std::string git_rev = "unknown";
  bool smoke = false;         ///< small sizes, for the smoke test
  bool corrupt_fill = false;  ///< deliberately break one fill pattern
};

/// Input sizes and repetition floors of a run (full or smoke).
struct Scale {
  /// Events per DRR trace of the design mix (full traces take ~8 s a pass).
  std::uint64_t design_events = 0;
  /// Events each deploy thread replays per phase.
  std::uint64_t deploy_events = 0;
  unsigned setups = 0;        ///< set-up repetitions (setup_s is their median)
  unsigned table1_seeds = 0;  ///< Table 1's fixed seeds 1..N
  /// Share of --seconds each stage other than the workload's own gets.
  double side_share = 0.0;
  /// Rounds of one iteration per traffic set the deploy stage runs at least
  /// (design and sec5 need one round over the CPUs).
  unsigned min_deploy_rounds = 0;
};

[[nodiscard]] Scale scale_for(const Options& opts);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics with units; a later set() of a name overwrites it.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Metric{value, unit};
  }
  [[nodiscard]] const std::map<std::string, Metric>& all() const {
    return values_;
  }

 private:
  std::map<std::string, Metric> values_;
};

/// Attempted/failed tally behind `error_rate`.  Every checked operation is
/// attempted; a failure is reported on stderr with what failed.
class Checks {
 public:
  void attempt(std::uint64_t n) { attempted_ += n; }
  /// One checked operation that succeeded iff @p ok.
  bool expect(bool ok, const std::string& what);
  /// @p n failures among operations already counted as attempted.
  void fail(std::uint64_t n, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One case study as set-up leaves it.
struct Study {
  std::string name;   ///< workloads::Workload::name
  unsigned seed = 0;  ///< record_trace / application seed, from --seed
  std::string full_path;  ///< trace of `seed`, as .dmmt (sec5 replays it)
  std::unique_ptr<dmm::trace::MappedTrace> mapped;  ///< full_path, mapped
  /// The profile the manager is designed from: Table 1's first seed, the
  /// same for every run, as .dmmt.  With a profile derived from --seed the
  /// designed vector changed from seed to seed and moved
  /// replay_ns_per_event between 113 and 177 ns on its own, and annealing
  /// took 0.2 s on one DRR trace and 0.7 s on another.
  std::string profile_path;
  std::string design_path;  ///< the profile as the design mix gets it
  /// The manager set-up designed from profile_path (one vector per phase).
  std::vector<dmm::alloc::DmmConfig> design;
  std::uint64_t design_peak = 0;  ///< the design's best peak on its profile
};

/// Everything set-up produces; the stages receive only this.
struct Inputs {
  std::vector<Study> studies;               ///< paper order
  std::vector<std::string> family_paths;    ///< three DRR traces of --seed
  /// kDeploySets x kDeployThreads DRR traces; set k is [k*T, (k+1)*T).
  std::vector<std::string> deploy_paths;
  dmm::alloc::DmmConfig deploy_config{};    ///< DRR design, via artifact
  double record_s = 0.0;  ///< trace recording time of this set-up
  double open_ms = 0.0;   ///< mean MappedTrace::open time per file
};

/// Runs set-up into @p dir (created): records every trace from seeds
/// derived from opts.seed (the design profiles from Table 1's first seed),
/// writes them as .dmmt, maps the full ones, designs one manager per case
/// study, and round-trips the DRR design through the config artifact.
[[nodiscard]] Inputs set_up(const Options& opts, const Scale& scale,
                            const std::string& dir, Checks& checks);

/// The designed manager of @p configs over @p arena: the bare policy core
/// for one phase, the phase-switching global manager otherwise.
[[nodiscard]] std::unique_ptr<dmm::alloc::Allocator> make_designed(
    dmm::sysmem::SystemArena& arena,
    const std::vector<dmm::alloc::DmmConfig>& configs, bool strict);

/// A seed for input @p salt of run @p seed, in [1, 2^31).
[[nodiscard]] unsigned derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Pins the calling thread to one allowed CPU after another, and restores
/// its original CPU set when destroyed.  The vCPUs of a shared virtual
/// machine run at different speeds (up to 1.45x apart, depending on host
/// load), so a single-threaded measurement that stays on one CPU reads
/// fast or slow by the luck of placement; visiting every CPU in turn and
/// averaging the per-CPU medians (mean_of_group_medians) takes that luck
/// out.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }
  /// Moves the calling thread to the @p i-th allowed CPU (mod cpus()).
  void pin(std::size_t i) const;
  /// Lets the calling thread run on every allowed CPU again.
  void release() const;
  /// Moves the calling thread to the @p i-th allowed CPU and releases it:
  /// it starts there, and threads it creates may use every CPU (a pinned
  /// thread's children would inherit its single CPU).
  void start_on(std::size_t i) const {
    pin(i);
    release();
  }

 private:
  std::vector<int> cpus_;
};

/// Mean over groups of the median of each group's samples, where samples[i]
/// belongs to group i % groups (the CPU, or the traffic set, it ran on).
[[nodiscard]] double mean_of_group_medians(const std::vector<double>& samples,
                                           std::size_t groups);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double geomean(const std::vector<double>& values);
/// The @p q quantile (0..1) by nearest rank.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One stage as the run drives it: prepare() once, step() for each measured
/// unit, finish() to turn the samples into metrics.  The run interleaves
/// the steps of all three stages, so each stage's samples spread over the
/// whole run instead of one window of it (host load drifts over seconds).
class StageRunner {
 public:
  virtual ~StageRunner() = default;
  virtual void prepare() = 0;
  virtual void step() = 0;
  /// Steps in one round (every CPU, or every traffic set, once).
  [[nodiscard]] virtual std::size_t round_length() const = 0;
  /// Rounds the stage needs at least, whatever its time budget.
  [[nodiscard]] virtual unsigned min_rounds() const = 0;
  virtual void finish(Metrics& metrics) = 0;
};

[[nodiscard]] std::unique_ptr<StageRunner> make_design_stage(
    const Options& opts, const Scale& scale, const Inputs& in,
    Checks& checks);
[[nodiscard]] std::unique_ptr<StageRunner> make_sec5_stage(
    const Options& opts, const Scale& scale, const Inputs& in,
    Checks& checks);
[[nodiscard]] std::unique_ptr<StageRunner> make_deploy_stage(
    const Options& opts, const Scale& scale, const Inputs& in,
    Checks& checks);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
