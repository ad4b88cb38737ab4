#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/global_manager.h"

namespace perfbench {

Scale scale_for(const Options& opts) {
  Scale s;
  if (opts.smoke) {
    s.design_events = 3000;
    s.deploy_events = 4000;
    s.setups = 1;
    s.table1_seeds = 2;
    s.side_share = 1.0;
    s.min_deploy_rounds = 1;
    return s;
  }
  s.design_events = 4000;
  s.deploy_events = 20000;
  s.setups = 3;
  s.table1_seeds = 10;
  s.side_share = 0.5;
  s.min_deploy_rounds = 2;
  return s;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Checks::fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "CHECK FAILED (%llu): %s\n",
               static_cast<unsigned long long>(n), what.c_str());
}

std::unique_ptr<dmm::alloc::Allocator> make_designed(
    dmm::sysmem::SystemArena& arena,
    const std::vector<dmm::alloc::DmmConfig>& configs, bool strict) {
  if (configs.size() == 1) {
    return std::make_unique<dmm::alloc::PolicyCore>(arena, configs[0],
                                                    "custom", strict);
  }
  return std::make_unique<dmm::core::GlobalManager>(arena, configs,
                                                    "custom-global", strict);
}

unsigned derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 of (seed, salt): neighbouring seeds give unrelated inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<unsigned>(1 + (z % 0x7ffffffeULL));
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);  // affinity unknown: never pin
}

CpuRotation::~CpuRotation() { release(); }

void CpuRotation::release() const {
  if (cpus_.front() < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::pin(std::size_t i) const {
  const int cpu = cpus_[i % cpus_.size()];
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

double mean_of_group_medians(const std::vector<double>& samples,
                             std::size_t groups) {
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<double> mine;
    for (std::size_t i = g; i < samples.size(); i += groups) {
      mine.push_back(samples[i]);
    }
    if (mine.empty()) continue;
    sum += median(std::move(mine));
    ++used;
  }
  return used == 0 ? 0.0 : sum / static_cast<double>(used);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
