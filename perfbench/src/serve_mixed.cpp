// serve_mixed: a closed loop of 4 clients on one width-4 scheduler. Each
// client submits its next job when its previous Scheduler::run returns.
// Jobs come from the six-kind serving mix — collective, ring, 1 ms service,
// 16x16 Poisson probe, bnb probe and pipeline burst — at widths np=1..4 and
// three priorities; the seed drives each client's draw sequence.
//
// Why: callers block on run, so admission, queueing and rank fragmentation
// of mixed widths set the cost, and kernels and plans do almost nothing.
// Its latency tail is the one the scheduler's queueing must explain.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "apps/poisson/poisson.hpp"
#include "core/branch_and_bound.hpp"
#include "core/pipeline.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mpl = ppa::mpl;
namespace app = ppa::app;

constexpr int kClients = 4;
constexpr int kWidth = 4;
constexpr std::array<const char*, 6> kJobNames{"job:collective", "job:ring",  "job:service",
                                               "job:poisson",    "job:bnb",   "job:pipeline"};

/// Small bnb probe: a full binary tree whose best leaf is known from the
/// sequential solve.
struct ProbeBnbSpec {
  struct Node {
    int depth = 0;
    double value = 100.0;
  };
  using node_type = Node;
  [[nodiscard]] double bound(const Node& n) const { return n.value - (8 - n.depth); }
  [[nodiscard]] bool is_leaf(const Node& n) const { return n.depth >= 8; }
  [[nodiscard]] double leaf_value(const Node& n) const { return n.value; }
  [[nodiscard]] std::vector<Node> branch(const Node& n) const {
    return {Node{n.depth + 1, n.value - 1.0}, Node{n.depth + 1, n.value - 0.25}};
  }
};

app::PoissonProblem probe_problem() {
  app::PoissonProblem prob;
  prob.nx = prob.ny = 16;
  prob.tolerance = 1e-3;
  prob.g = [](double x, double y) { return x + y; };
  return prob;
}

/// The right answers, computed once before anything is timed.
struct Expected {
  app::PoissonResult poisson = app::poisson_v1(probe_problem());
  double bnb = [] {
    ProbeBnbSpec spec;
    return ppa::bnb::solve_sequential(spec, ProbeBnbSpec::Node{});
  }();
};

bool collective_body(mpl::Process& p) {
  const auto all = p.allgather_value(p.rank());
  bool ok = static_cast<int>(all.size()) == p.size();
  for (int r = 0; ok && r < p.size(); ++r) ok = all[static_cast<std::size_t>(r)] == r;
  return ok;
}

bool ring_body(mpl::Process& p) {
  double acc = static_cast<double>(p.rank());
  for (int i = 0; i < 4; ++i) {
    const int right = (p.rank() + 1) % p.size();
    const int left = (p.rank() - 1 + p.size()) % p.size();
    const std::vector<double> out{acc};
    acc += p.sendrecv(right, 21, std::span<const double>(out), left, 21).front();
  }
  // Every rank ends with the same total: sum of ranks times 2^4.
  const double total = p.allreduce(acc, mpl::SumOp{});
  const double n = p.size();
  return total == n * (n - 1) / 2.0 * 16.0;
}

bool service_body(mpl::Process& p) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  p.barrier();
  const double sum = p.allreduce(static_cast<double>(p.rank()), mpl::SumOp{});
  return sum == static_cast<double>(p.size() * (p.size() - 1)) / 2.0;
}

/// One client's view of the run: its scheduler, answers and (traced) logs.
struct Client {
  mpl::Scheduler& sched;
  const Expected& expected;
  Tracer* tracer = nullptr;
  OpLog* log = nullptr;
  std::int64_t next_item = 0;
  std::vector<double> poisson_solve_ms;  ///< traced: poisson_process spans
};

/// Run one drawn job and validate it; true when it was right.
bool serve_one(Client& c, const JobDraw& d) {
  const auto pri = static_cast<mpl::Priority>(d.priority);
  const bool traced = c.tracer != nullptr;
  const std::int64_t item = c.next_item++;
  Scope op(c.tracer, kJobNames[static_cast<std::size_t>(d.kind)], "bench", 0, item);
  std::atomic<bool> ok{true};
  // A body the benchmark writes itself: through traced_job when tracing,
  // so the call, the rank bodies and the job trace are all recorded.
  const auto run_body = [&](auto&& body) {
    const auto wrapped = [&](mpl::Process& p) {
      if (!body(p)) ok = false;
    };
    if (!traced) {
      c.sched.run(d.np, wrapped, pri);
      return;
    }
    traced_job(c.tracer, c.log, "Scheduler::run", op.id(), item, d.np,
               [&](const std::function<void(mpl::Process&)>& fn) {
                 return c.sched.run_job(d.np, fn, pri);
               },
               [&](mpl::Process& p, std::int64_t) { wrapped(p); });
  };
  switch (d.kind) {
    case 0:
      run_body(collective_body);
      break;
    case 1:
      run_body(ring_body);
      break;
    case 2:
      run_body(service_body);
      break;
    case 3: {
      const auto prob = probe_problem();
      if (!traced) {
        const auto r = app::poisson_spmd(prob, c.sched, d.np, pri);
        ok = r.iterations == c.expected.poisson.iterations && r.u == c.expected.poisson.u;
        break;
      }
      // poisson_spmd's scheduler body, with the solve visible as a span.
      const auto pgrid = mpl::CartGrid2D::near_square(d.np);
      app::PoissonResult result;
      traced_job(c.tracer, c.log, "Scheduler::run", op.id(), item, d.np,
                 [&](const std::function<void(mpl::Process&)>& fn) {
                   return c.sched.run_job(d.np, fn, pri);
                 },
                 [&](mpl::Process& p, std::int64_t body) {
                   Scope s(c.tracer, "poisson_process", "apps", body, item);
                   const auto t0 = now_ns();
                   auto local = app::poisson_process(p, pgrid, prob);
                   if (p.rank() == 0) {
                     c.poisson_solve_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
                     result = std::move(local);
                   }
                 });
      ok = result.iterations == c.expected.poisson.iterations &&
           result.u == c.expected.poisson.u;
      break;
    }
    case 4: {
      ProbeBnbSpec spec;
      Scope s(c.tracer, "bnb::solve_engine", "core.bnb", op.id(), item);
      const double best = ppa::bnb::solve_engine(spec, c.sched, ProbeBnbSpec::Node{}, d.np,
                                                 16, 2, nullptr, pri);
      ok = best == c.expected.bnb;
      break;
    }
    default: {
      long total = 0;
      long next = 0;
      auto plan = ppa::pipeline::source([next]() mutable -> std::optional<long> {
                    return next < 64 ? std::optional<long>(next++) : std::nullopt;
                  }) |
                  ppa::pipeline::stage([](long v) { return 2 * v + 1; }) |
                  ppa::pipeline::sink([&total](long v) { total += v; });
      Scope s(c.tracer, "pipeline::run_engine", "core.pipeline", op.id(), item);
      const auto snap = plan.run_engine(c.sched, ppa::pipeline::Config{}, 0, pri);
      if (c.log != nullptr) c.log->add_snapshot(snap, 3);
      ok = total == 64L * 64L;
      break;
    }
  }
  if (c.log != nullptr) ++c.log->ops;
  return ok;
}

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> poisson_solve_ms;
  double wall_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
};

/// kClients closed-loop clients for `seconds`; client c draws from
/// DrawStream(seed, c). With a tracer, each client keeps its own OpLog.
LoopResult closed_loop(mpl::Scheduler& sched, const Expected& expected, std::uint64_t seed,
                       double seconds, Tracer* tracer, std::vector<OpLog>* logs) {
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::uint64_t> failed(kClients, 0);
  std::vector<std::vector<double>> solves(kClients);
  const auto t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Client client{sched, expected, tracer,
                      logs != nullptr ? &(*logs)[static_cast<std::size_t>(c)] : nullptr, 0, {}};
        DrawStream draws(seed, c);
        auto& mine = lat[static_cast<std::size_t>(c)];
        while (now_ns() < deadline) {
          const JobDraw d = draws.next();
          const auto a = now_ns();
          bool ok = false;
          try {
            ok = serve_one(client, d);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         kJobNames[static_cast<std::size_t>(d.kind)], e.what());
          }
          mine.push_back(static_cast<double>(now_ns() - a) * 1e-6);
          if (!ok) ++failed[static_cast<std::size_t>(c)];
        }
        solves[static_cast<std::size_t>(c)] = std::move(client.poisson_solve_ms);
      });
    }
  }
  LoopResult out;
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (int c = 0; c < kClients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    out.latency_ms.insert(out.latency_ms.end(), lat[i].begin(), lat[i].end());
    out.failed += failed[static_cast<std::size_t>(c)];
    const auto& sv = solves[static_cast<std::size_t>(c)];
    out.poisson_solve_ms.insert(out.poisson_solve_ms.end(), sv.begin(), sv.end());
  }
  out.jobs = out.latency_ms.size();
  return out;
}

}  // namespace

Report run_serve_mixed(const RunArgs& args) {
  Report r;
  const Expected expected;

  // Set-up: engine and scheduler construction plus one untimed job of each
  // kind at np=2.
  const auto s0 = now_ns();
  auto sched = std::make_shared<mpl::Scheduler>(std::make_shared<mpl::Engine>(kWidth));
  {
    Client client{*sched, expected, nullptr, nullptr, 0, {}};
    for (int kind = 0; kind < 6; ++kind) {
      ++r.ops;
      if (!serve_one(client, JobDraw{kind, 2, 1})) ++r.ops_failed;
    }
  }
  r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
  if (args.setup_only) return r;

  if (args.trace) {
    Tracer ops_tracer, probe_tracer;
    common_layer_probes(r, scheduler_runner(*sched), probe_problem(), kWidth, 32, 2,
                        &probe_tracer);
    const LoopResult plain =
        closed_loop(*sched, expected, args.seed, args.seconds * 0.3, nullptr, nullptr);
    std::vector<OpLog> logs(kClients);
    const auto before = sched->stats();
    const LoopResult traced =
        closed_loop(*sched, expected, args.seed, args.seconds * 0.3, &ops_tracer, &logs);
    const auto after = sched->stats();
    OpLog log;
    for (const auto& l : logs) log.merge(l);
    r.ops += plain.jobs + traced.jobs;
    r.ops_failed += plain.failed + traced.failed;
    const auto spans = ops_tracer.spans();
    SegmentInfo info;
    info.wall_s = traced.wall_s;
    info.width = kWidth;
    info.untraced_op_ms = median(plain.latency_ms);
    info.traced_op_ms = median(traced.latency_ms);
    report_segment(r, log, spans, info, sched_delta(before, after));
    const PaperLayerResult paper = paper_layer_metrics(
        r, make_paper_inputs(args.seed, kPaperProbe), 0.3, &probe_tracer, nullptr);
    const ComposeLayerResult comp =
        compose_layer_metrics(r, args.seed, 0.4, &probe_tracer, nullptr);
    r.ops += paper.ops + comp.ops;
    // This workload's own Poisson jobs, after the probes set theirs.
    const auto iters = static_cast<double>(expected.poisson.iterations);
    r.set("poisson.iters_per_op", iters, "count");
    r.set("poisson.step_measured_ms", median(traced.poisson_solve_ms) / iters, "ms");
    r.ops_failed += paper.failed + comp.failed;
    auto all = spans;
    const auto probes = probe_tracer.spans();
    all.insert(all.end(), probes.begin(), probes.end());
    if (!args.trace_path.empty() && !write_chrome_trace(all, args.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
    }
    return r;
  }

  const LoopResult loop = closed_loop(*sched, expected, args.seed, args.seconds, nullptr, nullptr);
  r.ops += loop.jobs;
  r.ops_failed += loop.failed;
  const Summary lat = summarize(loop.latency_ms, 99.0);
  set_end_to_end(r, static_cast<double>(loop.jobs) / loop.wall_s, lat);
  r.set("jobs_per_s", r.get("ops_per_s"), "1/s");
  r.set("job_p50_ms", lat.median, "ms");
  r.set("job_p99_ms", lat.tail, "ms");
  r.set("jobs", static_cast<double>(loop.jobs), "count");
  return r;
}

}  // namespace perfbench
