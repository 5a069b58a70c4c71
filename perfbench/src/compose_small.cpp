// compose_small: the compose_demo graph
//
//   ingest | problem | poisson_component(2) | interior | fft2d_component(2) | collect
//
// on run_scheduler over a width-4 scheduler, with 34x34 solves (about 650
// Jacobi iterations each to 1e-4) and 32x32 spectra. The seed sets the
// per-item problem coefficients.
//
// Why: it uses the mesh layers of paper_apps in the opposite regime. Every
// iteration exchanges a tiny halo and does one allreduce, so mailbox and
// collective latency, dispatch and graph plumbing set the rate and the
// sweeps are a small share. A latency optimisation shows up here and not in
// paper_apps; a bandwidth optimisation the reverse. Two np=2 stages on
// width 4 also exercise space-sharing.
//
// Queues hold one item and move one item per batch, so an item's latency is
// a small multiple of the pipeline depth rather than of a batch size.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "core/compose.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mpl = ppa::mpl;
namespace app = ppa::app;
namespace compose = ppa::compose;
using ppa::Array2D;
using ppa::algo::Complex;

constexpr int kStageNp = 2;
constexpr int kWidth = 4;
constexpr std::size_t kMaxItems = 1u << 16;  // per graph run
const compose::Config kQueues{1, 1};         // capacity, batch

Array2D<Complex> interior_as_complex(const Array2D<double>& u) {
  Array2D<Complex> a(u.rows() - 2, u.cols() - 2);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = Complex(u(i + 1, j + 1), 0.0);
  }
  return a;
}

/// The hand-wired result for each pool problem: poisson_v1, interior,
/// fft2d_v1 — no graph, no hosting.
std::vector<Array2D<Complex>> references(const ComposeInputs& in) {
  std::vector<Array2D<Complex>> out;
  for (double a : in.coeff) {
    auto spectrum = interior_as_complex(app::poisson_v1(compose_problem(a)).u);
    app::fft2d_v1(spectrum, ppa::seq);
    out.push_back(std::move(spectrum));
  }
  return out;
}

struct GraphRun {
  std::vector<double> latency_ms;  ///< source emit to sink receive, per item
  std::vector<double> done_s;      ///< sink receive, from the run's start
  double wall_s = 0.0;
  std::uint64_t emitted = 0;
  std::uint64_t failed = 0;
  std::size_t queue_hw = 0;
};

/// Items are consumed in emit order (every node is serial), so the k-th
/// spectrum the sink receives belongs to item k.
void check_outputs(GraphRun& run, const std::vector<Array2D<Complex>>& got,
                   const std::vector<Array2D<Complex>>& refs) {
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (got[k] != refs[k % refs.size()]) ++run.failed;
  }
  run.failed += run.emitted - std::min<std::uint64_t>(run.emitted, got.size());
}

/// The compose_demo graph built from the app components, run once on
/// `sched` until `budget_s` has passed or `max_items` were emitted.
GraphRun run_untraced(mpl::Scheduler& sched, const ComposeInputs& in,
                      const std::vector<Array2D<Complex>>& refs, int np, double budget_s,
                      std::size_t max_items = kMaxItems) {
  GraphRun run;
  std::vector<std::int64_t> emit(max_items);
  std::vector<std::int64_t> recv(max_items);
  std::vector<Array2D<Complex>> got;
  got.reserve(std::min<std::size_t>(max_items, 4096));
  std::size_t next = 0;
  const auto t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(budget_s * 1e9);
  auto graph =
      compose::source([&]() -> std::optional<long> {
        if (next >= max_items || now_ns() >= deadline) return std::nullopt;
        emit[next] = now_ns();
        return static_cast<long>(next++);
      }) |
      compose::stage([&in](long k) {
        return compose_problem(in.coeff[static_cast<std::size_t>(k) % in.coeff.size()]);
      }) |
      app::poisson_component(np) |
      compose::stage([](const app::PoissonResult& r) { return interior_as_complex(r.u); }) |
      app::fft2d_component(np) | compose::sink([&](Array2D<Complex> s) {
        recv[got.size()] = now_ns();
        got.push_back(std::move(s));
      });
  try {
    const auto stats = graph.run_scheduler(sched, kQueues);
    for (const auto& q : stats.queues) run.queue_hw = std::max(run.queue_hw, q.high_water);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: compose graph failed: %s\n", e.what());
  }
  run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.emitted = next;
  for (std::size_t k = 0; k < got.size(); ++k) {
    run.latency_ms.push_back(static_cast<double>(recv[k] - emit[k]) * 1e-6);
    run.done_s.push_back(static_cast<double>(recv[k] - t0) * 1e-9);
  }
  check_outputs(run, got, refs);
  return run;
}

template <typename T>
struct Tagged {
  std::size_t id;
  T value;
};

/// Per-node span durations of the traced graph, milliseconds.
struct NodeTimes {
  std::vector<double> problem, poisson, interior, fft2d, plumbing;
  std::vector<double> iterations;  ///< Jacobi iterations per item
};

/// The same graph with a span in every node lambda. Hosted nodes submit
/// their np-wide job to `sched` with Scheduler::run_job — the call the
/// components' engine_job binding makes under run_scheduler — so the
/// call, the per-rank bodies and the job's TraceSnapshot are all visible.
/// The two hosted nodes run on threads of their own at the same time, so
/// each keeps its own OpLog; they are merged into `log` after the run.
GraphRun run_traced(mpl::Scheduler& sched, const ComposeInputs& in,
                    const std::vector<Array2D<Complex>>& refs, int np, double budget_s,
                    Tracer* tracer, OpLog* log, NodeTimes& nodes) {
  GraphRun run;
  const std::size_t max_items = kMaxItems;
  std::vector<std::int64_t> emit(max_items), recv(max_items), root(max_items);
  std::vector<double> node_sum(max_items, 0.0);
  std::vector<Array2D<Complex>> got;
  got.reserve(4096);
  std::size_t next = 0;
  const auto t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(budget_s * 1e9);
  const auto pgrid = mpl::CartGrid2D::near_square(np);
  OpLog poisson_log, fft_log;
  OpLog* const poisson_dst = log != nullptr ? &poisson_log : nullptr;
  OpLog* const fft_dst = log != nullptr ? &fft_log : nullptr;
  const auto hosted = [&](const std::function<void(mpl::Process&)>& body) {
    return sched.run_job(np, body);
  };
  // Node spans add to the item's node total (each node is serial, so one
  // thread writes each slot at a time, in pipeline order).
  const auto timed_node = [&](const char* name, std::vector<double>& dst, std::size_t id,
                              auto&& fn) {
    Scope s(tracer, name, "core.compose", root[id], static_cast<std::int64_t>(id));
    const auto a = now_ns();
    auto out = fn(s.id());
    const double ms = static_cast<double>(now_ns() - a) * 1e-6;
    dst.push_back(ms);
    node_sum[id] += ms;
    return out;
  };
  auto graph =
      compose::source([&]() -> std::optional<std::size_t> {
        if (next >= max_items || now_ns() >= deadline) return std::nullopt;
        emit[next] = now_ns();
        root[next] = tracer != nullptr ? tracer->next_id() : 0;
        return next++;
      }) |
      compose::stage([&](std::size_t k) {
        return timed_node("node:problem", nodes.problem, k, [&](std::int64_t) {
          return Tagged<app::PoissonProblem>{
              k, compose_problem(in.coeff[k % in.coeff.size()])};
        });
      }) |
      compose::stage([&](const Tagged<app::PoissonProblem>& item) {
        return timed_node("node:poisson", nodes.poisson, item.id, [&](std::int64_t node) {
          std::optional<app::PoissonResult> result;
          traced_job(tracer, poisson_dst, "Scheduler::run", node,
                     static_cast<std::int64_t>(item.id), np, hosted,
                     [&](mpl::Process& p, std::int64_t body) {
                       Scope s(tracer, "poisson_process", "apps", body,
                               static_cast<std::int64_t>(item.id));
                       auto r = app::poisson_process(p, pgrid, item.value);
                       if (p.rank() == 0) result = std::move(r);
                     });
          nodes.iterations.push_back(static_cast<double>(result->iterations));
          return Tagged<app::PoissonResult>{item.id, std::move(*result)};
        });
      }) |
      compose::stage([&](const Tagged<app::PoissonResult>& item) {
        return timed_node("node:interior", nodes.interior, item.id, [&](std::int64_t) {
          return Tagged<Array2D<Complex>>{item.id, interior_as_complex(item.value.u)};
        });
      }) |
      compose::stage([&](const Tagged<Array2D<Complex>>& item) {
        return timed_node("node:fft2d", nodes.fft2d, item.id, [&](std::int64_t node) {
          std::optional<Array2D<Complex>> result;
          traced_job(tracer, fft_dst, "Scheduler::run", node,
                     static_cast<std::int64_t>(item.id), np, hosted,
                     [&](mpl::Process& p, std::int64_t body) {
                       Scope s(tracer, "fft2d_body", "apps", body,
                               static_cast<std::int64_t>(item.id));
                       auto r = app::fft2d_body(p, item.value);
                       if (p.rank() == 0) result = std::move(r);
                     });
          return Tagged<Array2D<Complex>>{item.id, std::move(*result)};
        });
      }) |
      compose::sink([&](Tagged<Array2D<Complex>> s) {
        const auto now = now_ns();
        recv[s.id] = now;
        if (tracer != nullptr) {
          Span span;
          span.name = "item";
          span.layer = "bench";
          span.t0 = emit[s.id];
          span.t1 = now;
          span.id = root[s.id];
          span.item = static_cast<std::int64_t>(s.id);
          tracer->add(span);
        }
        got.push_back(std::move(s.value));
      });
  try {
    const auto stats = graph.run_scheduler(sched, kQueues);
    for (const auto& q : stats.queues) run.queue_hw = std::max(run.queue_hw, q.high_water);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: traced compose graph failed: %s\n", e.what());
  }
  run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.emitted = next;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const double lat = static_cast<double>(recv[k] - emit[k]) * 1e-6;
    run.latency_ms.push_back(lat);
    nodes.plumbing.push_back(lat - node_sum[k]);
  }
  if (log != nullptr) {
    log->merge(poisson_log);
    log->merge(fft_log);
    log->ops += got.size();
  }
  check_outputs(run, got, refs);
  return run;
}

}  // namespace

ComposeLayerResult compose_layer_metrics(Report& r, std::uint64_t seed, double budget_s,
                                         Tracer* tracer, OpLog* log) {
  ComposeLayerResult res;
  const ComposeInputs in = make_compose_inputs(seed);
  const auto refs = references(in);
  auto sched = std::make_shared<mpl::Scheduler>(std::make_shared<mpl::Engine>(kWidth));

  const GraphRun plain = run_untraced(*sched, in, refs, kStageNp, budget_s);
  const auto before = sched->stats();
  NodeTimes nodes;
  const GraphRun traced =
      run_traced(*sched, in, refs, kStageNp, budget_s, tracer, log, nodes);
  const auto after = sched->stats();
  const GraphRun one = run_untraced(*sched, in, refs, 1, budget_s * 0.5);
  const GraphRun four = run_untraced(*sched, in, refs, 4, budget_s * 0.5);

  for (const GraphRun* g : {&plain, &traced, &one, &four}) {
    res.ops += g->emitted;
    res.failed += g->failed;
  }
  res.untraced_p50_ms = median(plain.latency_ms);
  res.traced_p50_ms = median(traced.latency_ms);
  res.traced_wall_s = traced.wall_s;
  res.sched = sched_delta(before, after);

  const auto rate = [](const GraphRun& g) {
    return windowed_rate(g.done_s, g.wall_s, kRateWindows);
  };
  r.set("compose.node_ms.problem", median(nodes.problem), "ms");
  r.set("compose.node_ms.poisson", median(nodes.poisson), "ms");
  r.set("compose.node_ms.interior", median(nodes.interior), "ms");
  r.set("compose.node_ms.fft2d", median(nodes.fft2d), "ms");
  r.set("compose.plumbing_ms", median(nodes.plumbing), "ms");
  r.set("compose.queue_hw", static_cast<double>(traced.queue_hw), "count");
  r.set("compose.items_per_s_np1", rate(one), "1/s");
  r.set("compose.items_per_s_np2", rate(plain), "1/s");
  r.set("compose.items_per_s_np4", rate(four), "1/s");
  if (log != nullptr) {
    // The workload's own solves: exact iteration counts, and the measured
    // time per iteration next to the replayed step.
    const double iters = median(nodes.iterations);
    r.set("poisson.iters_per_op", iters, "count");
    r.set("poisson.step_measured_ms", iters > 0.0 ? median(nodes.poisson) / iters : 0.0, "ms");
  }
  return res;
}

Report run_compose_small(const RunArgs& args) {
  Report r;
  const ComposeInputs in = make_compose_inputs(args.seed);
  // The set-up item is item 0, so it needs only the first reference.
  const auto first_ref = references(ComposeInputs{{in.coeff.front()}});

  // Set-up: engine and scheduler construction plus the first, untimed item.
  const auto s0 = now_ns();
  auto sched = std::make_shared<mpl::Scheduler>(std::make_shared<mpl::Engine>(kWidth));
  GraphRun first = run_untraced(*sched, in, first_ref, kStageNp, 60.0, 1);
  r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
  r.ops += first.emitted;
  r.ops_failed += first.failed;
  if (args.setup_only) return r;

  if (args.trace) {
    Tracer ops_tracer, probe_tracer;
    common_layer_probes(r, scheduler_runner(*sched), compose_problem(in.coeff.front()),
                        kStageNp, kComposeGrid - 2, kStageNp, &probe_tracer);
    const PaperLayerResult paper = paper_layer_metrics(
        r, make_paper_inputs(args.seed, kPaperProbe), 0.3, &probe_tracer, nullptr);
    r.ops += paper.ops;
    r.ops_failed += paper.failed;
    OpLog log;
    const ComposeLayerResult res =
        compose_layer_metrics(r, args.seed, args.seconds * 0.3, &ops_tracer, &log);
    r.ops += res.ops;
    r.ops_failed += res.failed;
    const auto spans = ops_tracer.spans();
    SegmentInfo info;
    info.wall_s = res.traced_wall_s;
    info.width = kWidth;
    info.untraced_op_ms = res.untraced_p50_ms;
    info.traced_op_ms = res.traced_p50_ms;
    report_segment(r, log, spans, info, res.sched);
    auto all = spans;
    const auto probes = probe_tracer.spans();
    all.insert(all.end(), probes.begin(), probes.end());
    if (!args.trace_path.empty() && !write_chrome_trace(all, args.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
    }
    return r;
  }

  const auto refs = references(in);
  const GraphRun run = run_untraced(*sched, in, refs, kStageNp, args.seconds);
  r.ops += run.emitted;
  r.ops_failed += run.failed;
  const Summary lat = summarize(run.latency_ms, 90.0);
  set_end_to_end(r, windowed_rate(run.done_s, run.wall_s, kRateWindows), lat);
  r.set("items_per_s", r.get("ops_per_s"), "1/s");
  r.set("item_p50_ms", lat.median, "ms");
  r.set("item_p90_ms", lat.tail, "ms");
  r.set("items", static_cast<double>(run.latency_ms.size()), "count");
  r.set("items_over_wall_per_s", static_cast<double>(run.latency_ms.size()) / run.wall_s,
        "1/s");
  return r;
}

}  // namespace perfbench
