#include "dmm/core/phase.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dmm/alloc/size_class.h"

namespace dmm::core {

namespace {

using Histogram = std::unordered_map<unsigned, double>;

Histogram window_histogram(const std::vector<AllocEvent>& events,
                           std::size_t begin, std::size_t end) {
  Histogram h;
  double total = 0.0;
  for (std::size_t i = begin; i < end && i < events.size(); ++i) {
    const AllocEvent& e = events[i];
    if (e.op != AllocEvent::Op::kAlloc) continue;
    h[alloc::SizeClass::index_for(e.size == 0 ? 1 : e.size)] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (auto& [cls, count] : h) count /= total;
  }
  return h;
}

double kl_term(double p, double m) {
  return p > 0.0 && m > 0.0 ? p * std::log2(p / m) : 0.0;
}

/// Jensen-Shannon divergence between size-class distributions, in bits.
double js_divergence(const Histogram& a, const Histogram& b) {
  Histogram m = a;
  for (const auto& [cls, p] : b) m[cls] += p;
  for (auto& [cls, p] : m) p *= 0.5;
  double js = 0.0;
  for (const auto& [cls, p] : a) js += 0.5 * kl_term(p, m[cls]);
  for (const auto& [cls, p] : b) js += 0.5 * kl_term(p, m[cls]);
  return js;
}

}  // namespace

std::vector<PhaseSpan> detect_phases(const AllocTrace& trace,
                                     const PhaseDetectorOptions& opts) {
  const auto& events = trace.events();
  std::vector<PhaseSpan> spans;
  if (events.empty()) {
    spans.push_back({0, 0, 0});
    return spans;
  }
  std::vector<std::size_t> boundaries;  // first event of each new phase
  if (events.size() > 2 * opts.window) {
    Histogram prev = window_histogram(events, 0, opts.window);
    std::size_t last_boundary = 0;
    for (std::size_t pos = opts.window; pos + opts.window <= events.size();
         pos += opts.window) {
      const Histogram cur = window_histogram(events, pos, pos + opts.window);
      if (js_divergence(prev, cur) > opts.threshold &&
          pos - last_boundary >= opts.min_phase_events) {
        boundaries.push_back(pos);
        last_boundary = pos;
      }
      prev = cur;
    }
  }
  std::size_t start = 0;
  std::uint16_t phase = 0;
  for (std::size_t b : boundaries) {
    spans.push_back({phase++, start, b - 1});
    start = b;
  }
  spans.push_back({phase, start, events.size() - 1});
  return spans;
}

void apply_phases(AllocTrace& trace, const std::vector<PhaseSpan>& spans) {
  auto& events = trace.events();
  for (const PhaseSpan& span : spans) {
    for (std::size_t i = span.first_event;
         i <= span.last_event && i < events.size(); ++i) {
      events[i].phase = span.phase;
    }
  }
}

std::vector<AllocTrace> split_by_phase(const AllocTrace& trace) {
  const auto& events = trace.events();
  std::uint16_t max_phase = 0;
  for (const AllocEvent& e : events) max_phase = std::max(max_phase, e.phase);
  const std::size_t phases = static_cast<std::size_t>(max_phase) + 1;

  // Route every event to its object's allocation phase (a free of an id
  // with no live allocation is dropped: -1) and collect each phase's ids.
  std::unordered_map<std::uint32_t, std::uint16_t> owner;  // id -> phase
  std::vector<int> route(events.size(), -1);
  std::vector<std::vector<std::uint32_t>> ids(phases);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const AllocEvent& e = events[i];
    if (e.op == AllocEvent::Op::kAlloc) {
      owner[e.id] = e.phase;
      route[i] = e.phase;
      ids[e.phase].push_back(e.id);
    } else if (auto it = owner.find(e.id); it != owner.end()) {
      route[i] = it->second;
      owner.erase(it);
    }
  }
  // Renumber each phase's ids densely by their rank among its distinct
  // ids.  The map is monotone, so id reuse and the simulator's id-ordered
  // teardown are unchanged, and the replay takes the flat live map.
  for (std::vector<std::uint32_t>& v : ids) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  const auto dense = [&](std::size_t phase, std::uint32_t id) {
    const std::vector<std::uint32_t>& v = ids[phase];
    return static_cast<std::uint32_t>(
        std::lower_bound(v.begin(), v.end(), id) - v.begin());
  };
  std::vector<AllocTrace> out(phases);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const AllocEvent& e = events[i];
    if (route[i] < 0) continue;
    const auto p = static_cast<std::size_t>(route[i]);
    if (e.op == AllocEvent::Op::kAlloc) {
      out[p].record_alloc(dense(p, e.id), e.size, e.phase);
    } else {
      out[p].record_free(dense(p, e.id), e.phase);
    }
  }
  return out;
}

}  // namespace dmm::core
