#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::buffer() {
  // The tracer owns every buffer for the whole process, so a buffer
  // outlives the thread that filled it and collect() can read it later.
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<Buffer>();
    const std::lock_guard<std::mutex> lock(buffers_mu_);
    fresh->thread = static_cast<std::uint32_t>(buffers_.size());
    mine = fresh.get();
    buffers_.push_back(std::move(fresh));
  }
  return *mine;
}

std::uint64_t Tracer::open(std::string name, std::uint64_t parent) {
  Buffer& buf = buffer();
  SpanRecord rec;
  rec.name = std::move(name);
  rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  rec.parent = buf.open.empty() ? parent : buf.open.back().id;
  rec.thread = buf.thread;
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - epoch_)
                     .count();
  buf.open.push_back(std::move(rec));
  return buf.open.back().id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  Buffer& buf = buffer();
  // Spans nest per thread, so the span being closed is the innermost one.
  if (buf.open.empty() || buf.open.back().id != id) return;
  SpanRecord rec = std::move(buf.open.back());
  buf.open.pop_back();
  rec.end_ns = now;
  buf.closed.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->closed.begin(), buf->closed.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

std::vector<SelfTime> Tracer::self_times() const {
  const std::vector<SpanRecord> spans = collect();
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : spans) {
    // Children may run on other threads and overlap each other, so the
    // covered part is the union of their intervals, clipped to the span.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const std::int64_t dur = s.end_ns - s.start_ns;
    SelfTime& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ms += static_cast<double>(dur) / 1e6;
    row.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  std::vector<SelfTime> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::sort(rows.begin(), rows.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return rows;
}

bool Tracer::write(const std::string& path,
                   const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  for (const SpanRecord& s : collect()) {
    std::fprintf(f,
                 "{\"span\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"thread\": %u, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const SelfTime& row : self_times()) {
    std::fprintf(f,
                 "{\"self_time\": \"%s\", \"count\": %llu, "
                 "\"total_ms\": %.6f, \"self_ms\": %.6f}\n",
                 row.name.c_str(), static_cast<unsigned long long>(row.count),
                 row.total_ms, row.self_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
