#include "dmm/core/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "dmm/alloc/size_class.h"

namespace dmm::core {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

void TraceAccumulator::add(const AllocEvent& e) {
  const std::uint64_t i = partial_.events;
  ++partial_.events;
  fnv_mix(hash_, static_cast<std::uint64_t>(e.op));
  fnv_mix(hash_, e.id);
  fnv_mix(hash_, e.size);
  fnv_mix(hash_, e.phase);
  max_id_ = std::max(max_id_, e.id);
  max_phase_ = std::max(max_phase_, e.phase);
  if (e.op == AllocEvent::Op::kAlloc) {
    ++partial_.allocs;
    live_[e.id] = {e.size, i};
    live_bytes_ += e.size;
    partial_.peak_live_bytes =
        std::max(partial_.peak_live_bytes, live_bytes_);
    partial_.peak_live_blocks =
        std::max(partial_.peak_live_blocks, live_.size());
    ++by_size_[e.size];
    size_sum_ += e.size;
    partial_.min_size = partial_.allocs == 1
                            ? e.size
                            : std::min(partial_.min_size, e.size);
    partial_.max_size = std::max(partial_.max_size, e.size);
    ++partial_.class_histogram[alloc::SizeClass::index_for(
        e.size == 0 ? 1 : e.size)];
  } else {
    ++partial_.frees;
    auto it = live_.find(e.id);
    if (it != live_.end()) {
      live_bytes_ -= it->second.first;
      lifetime_sum_ += static_cast<double>(i - it->second.second);
      ++lifetime_n_;
      live_.erase(it);
    }
  }
}

std::uint64_t TraceAccumulator::fingerprint() const {
  // The per-event stream hash with the count folded in last, so streaming
  // producers (TraceWriter, the capture shim) compute identity in the same
  // single pass that encodes the events.
  std::uint64_t h = hash_;
  fnv_mix(h, partial_.events);
  return h;
}

TraceStats TraceAccumulator::stats() const {
  TraceStats s = partial_;
  s.distinct_sizes = by_size_.size();
  s.mean_size =
      s.allocs > 0 ? size_sum_ / static_cast<double>(s.allocs) : 0.0;
  s.mean_lifetime_events =
      lifetime_n_ > 0 ? lifetime_sum_ / static_cast<double>(lifetime_n_)
                      : 0.0;
  s.phases = static_cast<std::uint16_t>(max_phase_ + 1);
  // Keep only the 16 most frequent sizes.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  ranked.reserve(by_size_.size());
  // dmm-lint: allow(unordered-iter): ranked is sorted with a total key directly below
  for (auto& [size, count] : by_size_) ranked.emplace_back(count, size);
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < ranked.size() && i < 16; ++i) {
    s.top_sizes.emplace(ranked[i].second, ranked[i].first);
  }
  return s;
}

namespace {

/// AllocTrace's cursor: the whole vector is one contiguous run.
class VectorCursor final : public TraceCursor {
 public:
  explicit VectorCursor(const std::vector<AllocEvent>* events)
      : events_(events) {}

  std::size_t next(const AllocEvent** run) override {
    if (pos_ >= events_->size()) return 0;
    *run = events_->data() + pos_;
    const std::size_t n = events_->size() - static_cast<std::size_t>(pos_);
    pos_ = events_->size();
    return n;
  }

 private:
  const std::vector<AllocEvent>* events_;
  std::uint64_t pos_ = 0;
};

}  // namespace

std::unique_ptr<TraceCursor> AllocTrace::cursor() const {
  return std::make_unique<VectorCursor>(&events_);
}

TraceIdBounds AllocTrace::id_bounds() const {
  TraceIdBounds b;
  for (const AllocEvent& e : events_) {
    b.max_id = std::max(b.max_id, e.id);
    if (e.op == AllocEvent::Op::kAlloc) ++b.allocs;
  }
  return b;
}

void AllocTrace::append(const AllocTrace& other, std::uint16_t phase_offset) {
  invalidate_fp_cache();
  std::uint32_t id_offset = 0;
  for (const AllocEvent& e : events_) {
    id_offset = std::max(id_offset, e.id + 1);
  }
  for (AllocEvent e : other.events_) {
    e.id += id_offset;
    e.phase = static_cast<std::uint16_t>(e.phase + phase_offset);
    events_.push_back(e);
  }
}

void AllocTrace::close_leaks() {
  invalidate_fp_cache();
  std::unordered_set<std::uint32_t> live;
  std::uint16_t last_phase = 0;
  for (const AllocEvent& e : events_) {
    last_phase = e.phase;
    if (e.op == AllocEvent::Op::kAlloc) {
      live.insert(e.id);
    } else {
      live.erase(e.id);
    }
  }
  // The emission order of the synthetic frees follows hash-set iteration,
  // which libstdc++ keeps reproducible for a fixed insertion sequence.
  // Sorting by id here would be cleaner but changes the generated traces,
  // and the golden search logs pin them bit-for-bit.
  // dmm-lint: allow(unordered-iter): trace order frozen by golden logs
  for (std::uint32_t id : live) record_free(id, last_phase);
}

bool AllocTrace::validate(std::string* why) const {
  std::unordered_set<std::uint32_t> live;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const AllocEvent& e = events_[i];
    if (e.op == AllocEvent::Op::kAlloc) {
      if (!live.insert(e.id).second) {
        if (why != nullptr) {
          *why = "event " + std::to_string(i) + ": id reused while live";
        }
        return false;
      }
    } else {
      if (live.erase(e.id) == 0) {
        if (why != nullptr) {
          *why = "event " + std::to_string(i) + ": free of a dead id";
        }
        return false;
      }
    }
  }
  return true;
}

std::uint64_t AllocTrace::fingerprint() const {
  if (fp_valid_.load(std::memory_order_acquire)) {
    return fp_cache_.load(std::memory_order_relaxed);
  }
  // FNV-1a, mixed field-by-field so padding never leaks into the identity;
  // the event count is folded in last (see TraceAccumulator::fingerprint).
  std::uint64_t h = 1469598103934665603ull;
  for (const AllocEvent& e : events_) {
    fnv_mix(h, static_cast<std::uint64_t>(e.op));
    fnv_mix(h, e.id);
    fnv_mix(h, e.size);
    fnv_mix(h, e.phase);
  }
  fnv_mix(h, static_cast<std::uint64_t>(events_.size()));
  fp_cache_.store(h, std::memory_order_relaxed);
  fp_valid_.store(true, std::memory_order_release);
  return h;
}

TraceStats AllocTrace::stats() const {
  TraceAccumulator acc;
  for (const AllocEvent& e : events_) acc.add(e);
  return acc.stats();
}

void AllocTrace::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("AllocTrace::save");
    return;
  }
  for (const AllocEvent& e : events_) {
    if (e.op == AllocEvent::Op::kAlloc) {
      std::fprintf(f, "a %u %u %u\n", e.id, e.size, e.phase);
    } else {
      std::fprintf(f, "f %u %u\n", e.id, e.phase);
    }
  }
  std::fclose(f);
}

AllocTrace AllocTrace::load(const std::string& path) {
  AllocTrace trace;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::perror("AllocTrace::load");
    return trace;
  }
  char op = 0;
  while (std::fscanf(f, " %c", &op) == 1) {
    if (op == 'a') {
      unsigned id = 0;
      unsigned size = 0;
      unsigned phase = 0;
      if (std::fscanf(f, "%u %u %u", &id, &size, &phase) != 3) break;
      trace.record_alloc(id, size, static_cast<std::uint16_t>(phase));
    } else if (op == 'f') {
      unsigned id = 0;
      unsigned phase = 0;
      if (std::fscanf(f, "%u %u", &id, &phase) != 2) break;
      trace.record_free(id, static_cast<std::uint16_t>(phase));
    } else {
      break;
    }
  }
  std::fclose(f);
  return trace;
}

}  // namespace dmm::core
