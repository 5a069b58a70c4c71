// perfbench/src/probes.hpp — per-layer probes for the traced run.
//
// Each probe calls one layer's public entry points directly, on the host the
// workload itself uses (spmd_run's warm engine or the workload's
// Scheduler), and times only those calls:
//
//   mpl.mailbox      ping-pong at 8 B and 64 KiB
//   mpl.collectives  allreduce at np 2 and 4, a sort-sized all-to-all
//   meshspectral     one Jacobi step replayed from the calls poisson_process
//                    makes (plan begin/end, kern:: sweep, allreduce, copy),
//                    and one rows->columns redistribute
//   perfmodel        a host perf::Machine fitted from the above
#pragma once

#include <cstddef>
#include <functional>

#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "mpl/process.hpp"
#include "mpl/trace.hpp"
#include "perfmodel/machine.hpp"
#include "spans.hpp"

namespace perfbench {

/// Runs one np-wide job on the workload's host; returns its trace.
using JobRunner =
    std::function<ppa::mpl::TraceSnapshot(int, const std::function<void(ppa::mpl::Process&)>&)>;

/// spmd_run's warm process engine (the apps' default entry points).
JobRunner spmd_runner();
/// A Scheduler at normal priority.
JobRunner scheduler_runner(ppa::mpl::Scheduler& scheduler);

/// One-way message time in microseconds (half the median round trip).
double pingpong_us(const JobRunner& run, std::size_t bytes, int reps);
/// Median time of one allreduce(double, max) on np ranks, microseconds.
double allreduce_us(const JobRunner& run, int np, int reps);
/// Median time of one all-to-all of `ints_per_pair` ints per rank pair on np
/// ranks, milliseconds.
double alltoall_ms(const JobRunner& run, int np, std::size_t ints_per_pair, int reps);

/// One replayed Jacobi step, split by the call that spent the time. Times
/// are medians over steps of the slowest rank, so they add up to a step.
struct StepSplit {
  double begin_us = 0.0;      ///< plan.begin_exchange (pack + send)
  double end_us = 0.0;        ///< plan.end_exchange (wire wait + unpack)
  double sweep_ms = 0.0;      ///< kern:: Jacobi sweep, core + rim
  double absdiff_ms = 0.0;    ///< kern::absdiff_max_row over the update region
  double allreduce_us = 0.0;  ///< Process::allreduce of the local max
  double copy_ms = 0.0;       ///< kern::copy_row back into the iterate
  double step_ms = 0.0;       ///< the whole replayed step
  double msgs = 0.0;          ///< messages per step (TraceSnapshot)
  double bytes = 0.0;         ///< logical payload bytes per step
  double copied_bytes = 0.0;  ///< bytes memcpy'd by pack/unpack per step
  double points = 0.0;        ///< interior points updated per step (global)
};

/// Replay `steps` Jacobi steps of `prob` on np ranks with the same local
/// blocks, plan and kernels poisson_process uses. Each call is recorded as
/// a span under `parent` when `tracer` is set.
StepSplit replay_jacobi(const JobRunner& run, const ppa::app::PoissonProblem& prob,
                        int np, int steps, Tracer* tracer, std::int64_t parent);

/// One rows->columns redistribute of an n x n complex grid on np ranks.
struct RedistSplit {
  double ms = 0.0;     ///< median of the slowest rank
  double bytes = 0.0;  ///< logical bytes moved per redistribute
};
RedistSplit replay_redistribute(const JobRunner& run, std::size_t n, int np, int reps,
                                Tracer* tracer, std::int64_t parent);

/// Host machine fitted from the probes: alpha and beta from the two
/// ping-pong sizes, elem_op from an np=1 Jacobi step (the model charges 9
/// element operations per point and step).
ppa::perf::Machine fit_machine(double pingpong_small_us, std::size_t small_bytes,
                               double pingpong_large_us, std::size_t large_bytes,
                               double np1_step_ms, double points);

}  // namespace perfbench
