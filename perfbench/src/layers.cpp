// Per-layer reporting shared by the three workloads.
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

void set_end_to_end(Report& r, double ops_per_s, const Summary& latency_ms) {
  r.set("ops_per_s", ops_per_s, "1/s");
  r.set("op_p50_ms", latency_ms.median, "ms");
  r.set("op_tail_ms", latency_ms.tail, "ms");
  r.set("op_tail_q", latency_ms.tail_q, "percentile");
  r.set("op_n", static_cast<double>(latency_ms.n), "count");
}

void common_layer_probes(Report& r, const JobRunner& run,
                         const ppa::app::PoissonProblem& jacobi, int jacobi_np,
                         std::size_t fft_n, int fft_np, Tracer* tracer) {
  constexpr std::size_t kSmall = 8;
  constexpr std::size_t kLarge = 64 * 1024;
  Scope root(tracer, "probe:layers", "bench", 0);

  const double pp_small = pingpong_us(run, kSmall, 400);
  const double pp_large = pingpong_us(run, kLarge, 100);
  r.set("mailbox.pingpong_8B_us", pp_small, "us");
  r.set("mailbox.pingpong_64KiB_us", pp_large, "us");

  r.set("coll.allreduce_np2_us", allreduce_us(run, 2, 400), "us");
  r.set("coll.allreduce_np4_us", allreduce_us(run, 4, 400), "us");
  // A sort-sized exchange: 2^20 keys on 4 ranks, 2^16 keys per rank pair.
  r.set("coll.alltoall_ms", alltoall_ms(run, 4, std::size_t{1} << 16, 10), "ms");

  // The Jacobi step of the workload's own Poisson shape, split by call.
  const int steps = jacobi.nx >= 512 ? 10 : 200;
  const StepSplit s = replay_jacobi(run, jacobi, jacobi_np, steps, tracer, root.id());
  r.set("plan.begin_us", s.begin_us, "us");
  r.set("plan.end_us", s.end_us, "us");
  r.set("plan.msgs_per_step", s.msgs, "count");
  r.set("plan.bytes_per_step", s.bytes, "B");
  r.set("plan.copied_bytes_per_step", s.copied_bytes, "B");
  r.set("kernels.sweep_ms", s.sweep_ms, "ms");
  // Computed, not counted: 6 flops per point (4 adds, h2*f, *0.25 folded
  // as a multiply and a subtract) and 24 compulsory bytes (read u and f,
  // write the new iterate) per point.
  const double flops = 6.0 * s.points;
  const double bytes = 24.0 * s.points;
  r.set("kernels.flops", flops, "flop");
  r.set("kernels.bytes", bytes, "B");
  r.set("kernels.flop_per_byte", flops / bytes, "flop/B");
  r.set("kernels.gb_per_s", s.sweep_ms > 0.0 ? bytes / (s.sweep_ms * 1e-3) * 1e-9 : 0.0,
        "GB/s");
  r.set("kernels.absdiff_ms", s.absdiff_ms, "ms");
  r.set("kernels.copy_ms", s.copy_ms, "ms");
  r.set("poisson.step_replay_ms", s.step_ms, "ms");
  r.set("poisson.allreduce_replay_us", s.allreduce_us, "us");

  // The np=1 step of the paper grid calibrates the model's element time.
  ppa::app::PoissonProblem big;
  big.nx = big.ny = kPaperFull.poisson_n;
  big.tolerance = 0.0;
  big.g = [](double x, double y) { return x * x - y * y; };
  const StepSplit one = replay_jacobi(run, big, 1, 5, tracer, root.id());

  const RedistSplit rd = replay_redistribute(run, fft_n, fft_np, 8, tracer, root.id());
  r.set("rowcol.redistribute_ms", rd.ms, "ms");
  r.set("rowcol.bytes", rd.bytes, "B");

  const auto m = fit_machine(pp_small, kSmall, pp_large, kLarge, one.step_ms, one.points);
  r.set("model.alpha_us", m.alpha * 1e6, "us");
  r.set("model.beta_ns_per_B", m.beta * 1e9, "ns/B");
  r.set("model.elem_op_ns", m.elem_op * 1e9, "ns");
}

void report_segment(Report& r, const OpLog& log, const std::vector<Span>& spans,
                    const SegmentInfo& info, const SchedDelta& sched) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(log.ops, 1));
  r.set("mailbox.msgs_per_op", static_cast<double>(log.messages) / ops, "count");
  r.set("mailbox.bytes_per_op", static_cast<double>(log.bytes) / ops, "B");
  r.set("mailbox.copied_bytes_per_op", static_cast<double>(log.copied_bytes) / ops, "B");
  r.set("coll.allreduce_per_op", log.allreduce_calls / ops, "count");

  const Summary d = summarize(log.dispatch_us);
  r.set("engine.dispatch_us_p50", d.median, "us");
  r.set("engine.dispatch_us_tail", d.tail, "us");
  r.set("engine.dispatch_tail_q", d.tail_q, "percentile");
  const Summary q = summarize(log.queue_wait_ms);
  r.set("sched.queue_wait_ms_p50", q.median, "ms");
  r.set("sched.queue_wait_ms_tail", q.tail, "ms");
  r.set("sched.busy_frac",
        info.wall_s > 0.0 ? log.body_rank_ns * 1e-9 / (info.width * info.wall_s) : 0.0,
        "fraction");
  r.set("sched.admitted", sched.admitted, "count");
  r.set("sched.failed", sched.failed, "count");
  r.set("sched.queue_hw", sched.queue_hw, "count");
  r.set("sched.concurrency_hw", sched.concurrency_hw, "count");

  const SpanAnalysis a = analyze(spans);
  r.set("trace.spans", static_cast<double>(a.spans), "count");
  r.set("trace.unattributed_frac",
        a.root_ns > 0 ? static_cast<double>(a.unattributed_ns) / static_cast<double>(a.root_ns)
                      : 0.0,
        "fraction");
  r.set("trace.overhead_frac",
        info.untraced_op_ms > 0.0 ? info.traced_op_ms / info.untraced_op_ms - 1.0 : 0.0,
        "fraction");
  const double root_ms = static_cast<double>(a.root_ns) * 1e-6;
  for (const auto& [layer, ms] : a.self_ms_by_layer) {
    r.note("self_frac." + layer,
           std::to_string(root_ms > 0.0 ? ms / root_ms : 0.0));
  }
}

}  // namespace perfbench
