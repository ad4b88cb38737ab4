#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

// Span recorder of the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each call into
// a library layer (request, study, replay, cursor scan, direct-core loop,
// app run, per-call malloc/free).  Each span keeps its name, start, end,
// the span that caused it, and the thread that ran it.  Spans stay in
// memory — one buffer per thread, so recording takes no lock — and are
// written once, when the run ends.  With tracing off a Span is a branch on
// one flag and records nothing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Self time of one span name: duration minus the part of the span's
/// interval its children cover, summed over every span of that name.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; its parent is the innermost open
  /// span of this thread, or @p parent when the thread has none open (a
  /// worker thread inherits the span that spawned it).  Returns its id.
  std::uint64_t open(std::string name, std::uint64_t parent = 0);
  /// Closes the calling thread's innermost open span (@p id).
  void close(std::uint64_t id);

  /// Every closed span, across threads.  Call after all threads joined.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Per-name self times over collect(), largest self time first.
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes one JSON object per span plus one per self-time row to
  /// @p path (JSON lines).  False if the file cannot be written.
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> closed;
    std::vector<SpanRecord> open;  ///< stack of open spans
  };
  Buffer& buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex buffers_mu_;  ///< guards buffers_ (not their contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  /// A null @p name records nothing (lets a call site trace selectively).
  explicit Span(const char* name, std::uint64_t parent = 0) {
    if (name != nullptr && Tracer::instance().enabled()) {
      id_ = Tracer::instance().open(name, parent);
    }
  }
  Span(const std::string& name, std::uint64_t parent = 0)
      : Span(name.c_str(), parent) {}
  ~Span() {
    if (id_ != 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H
