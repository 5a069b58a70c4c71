#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

int thread_tid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1) + 1;
  return tid;
}

/// Length of the union of intervals, each clipped to [lo, hi].
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch)
      .count();
}

Scope::Scope(Tracer* tracer, const char* name, const char* layer,
             std::int64_t parent, std::int64_t item)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.parent = parent;
  span_.item = item;
  span_.id = tracer_->next_id();
  span_.tid = thread_tid();
  span_.t0 = now_ns();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.t1 = now_ns();
  tracer_->add(span_);
}

std::int64_t record(Tracer* tracer, const char* name, const char* layer,
                    std::int64_t parent, std::int64_t item, std::int64_t t0,
                    std::int64_t t1) {
  if (tracer == nullptr) return 0;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.item = item;
  s.id = tracer->next_id();
  s.tid = thread_tid();
  s.t0 = t0;
  s.t1 = t1;
  tracer->add(s);
  return s.id;
}

SpanAnalysis analyze(const std::vector<Span>& spans) {
  SpanAnalysis out;
  out.spans = spans.size();
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.t0, s.t1);
  }
  for (const auto& s : spans) {
    const auto it = children.find(s.id);
    const std::int64_t cov =
        it == children.end() ? 0 : covered(it->second, s.t0, s.t1);
    const std::int64_t self = (s.t1 - s.t0) - cov;
    out.self_ms_by_layer[s.layer] += static_cast<double>(self) * 1e-6;
    if (s.parent == 0) {
      out.root_ns += s.t1 - s.t0;
      out.unattributed_ns += self;
    }
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"item\":%lld}}",
                 first ? "" : ",\n", s.name, s.layer, s.tid,
                 static_cast<double>(s.t0) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.item));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
