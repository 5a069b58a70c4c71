// perfbench/src/spans.hpp — the traced run's span recorder.
//
// The benchmark records a span around each call it makes into a layer of
// the library: a name, the layer, start and end on one steady clock, the
// span that caused it, and the item or job it belongs to. Spans stay in
// memory while the run measures and are written out as Chrome trace-event
// JSON when it ends (load the file in any trace viewer).
//
// A null Tracer* means "untraced": Scope then records nothing and reads no
// clock, so the untraced run pays nothing for the hooks it passes through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process's first call (one epoch for all spans).
std::int64_t now_ns();

struct Span {
  const char* name = "";
  const char* layer = "";   ///< "bench" for a root op; else a library layer
  std::int64_t t0 = 0;      ///< ns, now_ns() clock
  std::int64_t t1 = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t item = -1;   ///< item or job id (-1 = none)
  int tid = 0;              ///< small per-thread id
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1u << 16); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(const Span& s) {
    const std::lock_guard lock(mutex_);
    spans_.push_back(s);
  }
  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into `tracer` (if any).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, const char* layer, std::int64_t parent,
        std::int64_t item = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// This span's id, to pass as the parent of spans it causes (0 untraced).
  [[nodiscard]] std::int64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Record a span whose interval was measured elsewhere.
std::int64_t record(Tracer* tracer, const char* name, const char* layer,
                    std::int64_t parent, std::int64_t item, std::int64_t t0,
                    std::int64_t t1);

/// Aggregates over a span set, for the per-layer report.
struct SpanAnalysis {
  std::int64_t root_ns = 0;          ///< summed duration of root ("bench") spans
  std::int64_t unattributed_ns = 0;  ///< root time no child span covers
  std::map<std::string, double> self_ms_by_layer;  ///< summed self time
  std::size_t spans = 0;
};

/// Self time of each span is its duration minus the union of its
/// children's intervals (clipped to it); a root's uncovered time is its
/// unattributed time.
SpanAnalysis analyze(const std::vector<Span>& spans);

/// Write `spans` as Chrome trace-event JSON ("X" complete events, times in
/// microseconds) to `path`; returns false if the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
