// perfbench/src/workloads.hpp — the three workloads and the per-layer
// pieces their traced runs share.
//
// Every workload reports the same end-to-end metrics, each a stream of
// operations (a paper-problem run, a graph item, a served job):
//   setup_s     engine/scheduler construction plus the first, untimed op of
//               each kind (median of several set-ups; see run.py)
//   ops_per_s   operations per second, counted over wall time in ten equal
//               windows and reported as the median window (paper_apps: the
//               np=4 runs laid end to end; compose_small: items reaching
//               the sink); jobs over the whole wall time (serve_mixed)
//   op_p50_ms   median operation latency; for paper_apps the mean of the
//               six per-problem median np=4 run times
//   op_tail_ms  the workload's tail percentile of operation latency (p75,
//               p90, p99 for paper_apps, compose_small, serve_mixed), which
//               keeps at least ten samples beyond it
// plus its own named figures (poisson_s ... seq_s, items_per_s ...,
// jobs_per_s ...), which go to the record and the console.
#pragma once

#include <cstdint>

#include "inputs.hpp"
#include "mpl/scheduler.hpp"
#include "oplog.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

Report run_paper_apps(const RunArgs& args);
Report run_compose_small(const RunArgs& args);
Report run_serve_mixed(const RunArgs& args);

/// Set the end-to-end metrics shared by every workload.
void set_end_to_end(Report& r, double ops_per_s, const Summary& latency_ms);

/// Scheduler counters of a traced segment (high-water marks are lifetime).
struct SchedDelta {
  double admitted = 0.0;
  double failed = 0.0;
  double queue_hw = 0.0;
  double concurrency_hw = 0.0;
};

inline SchedDelta sched_delta(const ppa::mpl::SchedulerStats& before,
                              const ppa::mpl::SchedulerStats& after) {
  return {static_cast<double>(after.admitted - before.admitted),
          static_cast<double>(after.failed - before.failed),
          static_cast<double>(after.queue_high_water),
          static_cast<double>(after.concurrency_high_water)};
}

/// Per-layer metrics of the paper problems (core.onedeep, core.task, apps,
/// speedup.*, model.*_ratio): `budget_s` of untraced np=4/np=1 rounds, then
/// as long again of traced np=4 runs. With `log` set, the traced runs'
/// job observations and spans are the workload's own (paper_apps).
struct PaperLayerResult {
  double untraced_np4_ms = 0.0;  ///< summed per-problem medians
  double traced_np4_ms = 0.0;
  double traced_wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};
PaperLayerResult paper_layer_metrics(Report& r, const PaperInputs& in, double budget_s,
                                     Tracer* tracer, OpLog* log);

/// Per-layer metrics of the composed graph (core.compose, and the
/// items_per_s scaling figures at np 1 and 4): `budget_s` untraced at np=2,
/// as long again traced, and a share of it at np 1 and 4.
struct ComposeLayerResult {
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;
  double traced_wall_s = 0.0;
  SchedDelta sched;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};
ComposeLayerResult compose_layer_metrics(Report& r, std::uint64_t seed, double budget_s,
                                         Tracer* tracer, OpLog* log);

/// Layer probes every traced run reports: mailbox ping-pong, collectives,
/// the Jacobi step replay of `jacobi` on `jacobi_np` ranks, one
/// redistribute of an fft_n^2 grid on fft_np ranks, and the fitted machine.
void common_layer_probes(Report& r, const JobRunner& run,
                         const ppa::app::PoissonProblem& jacobi, int jacobi_np,
                         std::size_t fft_n, int fft_np, Tracer* tracer);

/// What the workload knows about its own traced segment.
struct SegmentInfo {
  double wall_s = 0.0;          ///< traced segment wall time
  int width = 4;                ///< engine width the jobs ran on
  double untraced_op_ms = 0.0;  ///< same op mix without tracing
  double traced_op_ms = 0.0;
};

/// The job-level metrics of a workload's own traced segment: per-op
/// mailbox and collective counts, dispatch and queue-wait distributions,
/// scheduler counters, tracing overhead and span coverage.
void report_segment(Report& r, const OpLog& log, const std::vector<Span>& spans,
                    const SegmentInfo& info, const SchedDelta& sched);

}  // namespace perfbench
