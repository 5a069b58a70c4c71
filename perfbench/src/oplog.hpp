// perfbench/src/oplog.hpp — what the traced segment of a workload learns
// from each job it submits: the call's wall time, the job-body interval on
// every rank, and the TraceSnapshot the engine returns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mpl/process.hpp"
#include "mpl/trace.hpp"
#include "spans.hpp"

namespace perfbench {

/// Accumulates job-level observations over a traced segment.
struct OpLog {
  std::vector<double> dispatch_us;    ///< call wall time minus the job-body span
  std::vector<double> queue_wait_ms;  ///< submit to first body start
  double body_rank_ns = 0.0;          ///< rank-time inside job bodies
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t copied_bytes = 0;
  double allreduce_calls = 0.0;       ///< allreduce events / job width
  std::uint64_t ops = 0;              ///< ops (items, jobs, runs) these belong to

  void merge(const OpLog& o) {
    dispatch_us.insert(dispatch_us.end(), o.dispatch_us.begin(), o.dispatch_us.end());
    queue_wait_ms.insert(queue_wait_ms.end(), o.queue_wait_ms.begin(), o.queue_wait_ms.end());
    body_rank_ns += o.body_rank_ns;
    messages += o.messages;
    bytes += o.bytes;
    copied_bytes += o.copied_bytes;
    allreduce_calls += o.allreduce_calls;
    ops += o.ops;
  }
  void add_snapshot(const ppa::mpl::TraceSnapshot& s, int np) {
    messages += s.messages;
    bytes += s.bytes;
    copied_bytes += s.copied_bytes;
    allreduce_calls += static_cast<double>(s.op(ppa::mpl::Op::kAllreduce)) / np;
  }
};

/// Submit one np-wide job through `submit` (spmd_run, Scheduler::run, ...)
/// with a span around the call (layer mpl.scheduler) and one around the
/// body on every rank (layer mpl.engine). `body(process, body_span_id)`
/// runs inside. Timing goes to `log` when it is set.
template <typename Submit, typename Body>
ppa::mpl::TraceSnapshot traced_job(Tracer* tracer, OpLog* log, const char* call_name,
                                   std::int64_t parent, std::int64_t item, int np,
                                   Submit&& submit, Body&& body) {
  std::vector<std::pair<std::int64_t, std::int64_t>> bodies(static_cast<std::size_t>(np));
  Scope call(tracer, call_name, "mpl.scheduler", parent, item);
  const std::int64_t t0 = now_ns();
  const std::int64_t call_id = call.id();
  const ppa::mpl::TraceSnapshot snap =
      submit(std::function<void(ppa::mpl::Process&)>([&](ppa::mpl::Process& p) {
        Scope s(tracer, "job.body", "mpl.engine", call_id, item);
        const std::int64_t b0 = now_ns();
        body(p, s.id());
        bodies[static_cast<std::size_t>(p.rank())] = {b0, now_ns()};
      }));
  const std::int64_t t1 = now_ns();
  if (log != nullptr) {
    std::int64_t first = bodies.front().first, last = bodies.front().second;
    for (const auto& [b0, b1] : bodies) {
      first = std::min(first, b0);
      last = std::max(last, b1);
      log->body_rank_ns += static_cast<double>(b1 - b0);
    }
    log->dispatch_us.push_back(static_cast<double>((t1 - t0) - (last - first)) * 1e-3);
    log->queue_wait_ms.push_back(static_cast<double>(first - t0) * 1e-6);
    log->add_snapshot(snap, np);
  }
  return snap;
}

}  // namespace perfbench
