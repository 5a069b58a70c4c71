// paper_apps: the paper's figure problems at fixed work, each run at np=4
// and again at np=1 through the apps' default entry points (spmd_run's warm
// process engine; traditional_mergesort runs on the task pool).
//
// Why: big grids make kern:: sweeps and memory bandwidth the cost — the
// Poisson per-rank block overflows a 2 MiB L2 while the whole grid fits a
// large L3 — and each run is one job, so dispatch is noise. Kernel, halo
// overlap, transpose and sort changes show up here; scheduler changes
// should not.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "apps/sort/sort.hpp"
#include "core/task.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"
#include "perfmodel/models.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mpl = ppa::mpl;
namespace app = ppa::app;
using ppa::Array2D;
using ppa::algo::Complex;

enum Problem : int { kPoisson, kEuler, kFdtd, kFft2d, kSort, kDcSort, kProblems };
constexpr std::array<const char*, kProblems> kNames{"poisson", "euler", "fdtd",
                                                    "fft2d",   "sort",  "dc_sort"};
constexpr std::array<const char*, kProblems> kOpNames{
    "op:poisson", "op:euler", "op:fdtd", "op:fft2d", "op:sort", "op:dc_sort"};

/// A problem's checked output: one of the fields is filled.
struct Output {
  Array2D<double> field;
  Array2D<Complex> spectrum;
  std::vector<int> keys;
  friend bool operator==(const Output&, const Output&) = default;
};

Output run_untraced(Problem which, const PaperInputs& in, int np) {
  Output out;
  switch (which) {
    case kPoisson:
      out.field = app::poisson_spmd(in.poisson, np).u;
      break;
    case kEuler:
      out.field = app::run_shock_interface(in.cfd, in.sizes.euler_steps, np);
      break;
    case kFdtd:
      out.field = app::run_em_scattering(in.em, in.sizes.em_steps, np);
      break;
    case kFft2d:
      out.spectrum = app::fft2d_spmd(in.fft, np);
      break;
    case kSort:
      out.keys = app::onedeep_mergesort(in.keys, np);
      break;
    default:
      out.keys = app::traditional_mergesort(in.keys, np);
      break;
  }
  return out;
}

/// Hook times of one rank's one-deep run, nanoseconds.
struct HookTimes {
  double local_solve = 0, params = 0, repartition = 0, local_merge = 0, body = 0;
};

/// Forwards every one-deep hook to the app's spec, timing each one.
template <typename Inner>
struct TimedSpec {
  using value_type = typename Inner::value_type;
  using merge_sample_type = typename Inner::merge_sample_type;
  using merge_param_type = typename Inner::merge_param_type;

  Inner inner;
  Tracer* tracer;
  std::int64_t parent;
  HookTimes* times;

  template <typename F>
  auto timed(const char* name, double& acc, F&& f) {
    Scope s(tracer, name, "core.onedeep", parent);
    const auto t0 = now_ns();
    auto result = f();
    acc += static_cast<double>(now_ns() - t0);
    return result;
  }
  void local_solve(std::vector<value_type>& local) {
    timed("onedeep.local_solve", times->local_solve, [&] {
      inner.local_solve(local);
      return 0;
    });
  }
  std::vector<merge_sample_type> merge_sample(const std::vector<value_type>& local) {
    return timed("onedeep.merge_sample", times->params,
                 [&] { return inner.merge_sample(local); });
  }
  std::vector<merge_param_type> merge_params(const std::vector<merge_sample_type>& all,
                                             int nparts) {
    return timed("onedeep.merge_params", times->params,
                 [&] { return inner.merge_params(all, nparts); });
  }
  std::vector<std::vector<value_type>> repartition(std::vector<value_type> local,
                                                   const std::vector<merge_param_type>& sp,
                                                   int nparts) {
    return timed("onedeep.repartition", times->repartition,
                 [&] { return inner.repartition(std::move(local), sp, nparts); });
  }
  std::vector<value_type> local_merge(std::vector<std::vector<value_type>> parts) {
    return timed("onedeep.local_merge", times->local_merge,
                 [&] { return inner.local_merge(std::move(parts)); });
  }
};

/// What the traced runs collect beyond the OpLog.
struct PaperTrace {
  Tracer* tracer = nullptr;
  OpLog* log = nullptr;
  std::vector<double> euler_step_ms, fdtd_step_ms;
  std::vector<HookTimes> hooks;  ///< per sort, the slowest rank's hooks
  std::vector<double> steals;    ///< per dc_sort
  std::vector<double> poisson_iters;
  std::int64_t next_item = 0;
};

/// The same problems through the same bodies the entry points run, with a
/// span around each layer call and the job trace kept.
Output run_traced(Problem which, const PaperInputs& in, PaperTrace& t) {
  constexpr int np = 4;
  const std::int64_t item = t.next_item++;
  Scope op(t.tracer, kOpNames[which], "bench", 0, item);
  const auto submit = [](const std::function<void(mpl::Process&)>& body) {
    return mpl::spmd_run(np, body);
  };
  Output out;
  std::vector<double> step_ms;
  std::mutex step_mutex;
  switch (which) {
    case kPoisson: {
      const auto pgrid = mpl::CartGrid2D::near_square(np);
      traced_job(t.tracer, t.log, "spmd_run", op.id(), item, np, submit,
                 [&](mpl::Process& p, std::int64_t body) {
                   Scope s(t.tracer, "poisson_process", "apps", body, item);
                   auto local = app::poisson_process(p, pgrid, in.poisson);
                   if (p.rank() == 0) {
                     t.poisson_iters.push_back(static_cast<double>(local.iterations));
                     out.field = std::move(local.u);
                   }
                 });
      break;
    }
    case kEuler: {
      const auto pgrid = mpl::CartGrid2D::near_square(np);
      traced_job(t.tracer, t.log, "spmd_run", op.id(), item, np, submit,
                 [&](mpl::Process& p, std::int64_t body) {
                   app::CfdSim sim(p, pgrid, in.cfd);
                   sim.init_shock_interface();
                   std::vector<double> mine;
                   for (int s = 0; s < in.sizes.euler_steps; ++s) {
                     Scope step(t.tracer, "CfdSim::step", "apps", body, item);
                     const auto t0 = now_ns();
                     (void)sim.step();
                     mine.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
                   }
                   auto rho = sim.gather_density(0);
                   const std::lock_guard lock(step_mutex);
                   step_ms.insert(step_ms.end(), mine.begin(), mine.end());
                   if (p.rank() == 0) out.field = std::move(rho);
                 });
      t.euler_step_ms.insert(t.euler_step_ms.end(), step_ms.begin(), step_ms.end());
      break;
    }
    case kFdtd: {
      const auto pgrid = mpl::CartGrid3D::near_cubic(np);
      traced_job(t.tracer, t.log, "spmd_run", op.id(), item, np, submit,
                 [&](mpl::Process& p, std::int64_t body) {
                   app::FdtdSim sim(p, pgrid, in.em);
                   std::vector<double> mine;
                   for (int s = 0; s < in.sizes.em_steps; ++s) {
                     Scope step(t.tracer, "FdtdSim::step", "apps", body, item);
                     const auto t0 = now_ns();
                     sim.step();
                     mine.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
                   }
                   auto ez = sim.gather_ez_plane(0);
                   const std::lock_guard lock(step_mutex);
                   step_ms.insert(step_ms.end(), mine.begin(), mine.end());
                   if (p.rank() == 0) out.field = std::move(ez);
                 });
      t.fdtd_step_ms.insert(t.fdtd_step_ms.end(), step_ms.begin(), step_ms.end());
      break;
    }
    case kFft2d:
      traced_job(t.tracer, t.log, "spmd_run", op.id(), item, np, submit,
                 [&](mpl::Process& p, std::int64_t body) {
                   Scope s(t.tracer, "fft2d_body", "apps", body, item);
                   auto spectrum = app::fft2d_body(p, in.fft);
                   if (p.rank() == 0) out.spectrum = std::move(spectrum);
                 });
      break;
    case kSort: {
      auto locals = ppa::onedeep::block_distribute(in.keys, np);
      std::vector<HookTimes> hooks(np);
      traced_job(t.tracer, t.log, "spmd_run", op.id(), item, np, submit,
                 [&](mpl::Process& p, std::int64_t body) {
                   auto& h = hooks[static_cast<std::size_t>(p.rank())];
                   TimedSpec<app::OneDeepMergesort<int>> spec{{}, t.tracer, body, &h};
                   auto& slot = locals[static_cast<std::size_t>(p.rank())];
                   const auto t0 = now_ns();
                   slot = ppa::onedeep::run_process(spec, p, std::move(slot));
                   h.body = static_cast<double>(now_ns() - t0);
                 });
      HookTimes worst;
      for (const auto& h : hooks) {
        worst.local_solve = std::max(worst.local_solve, h.local_solve);
        worst.params = std::max(worst.params, h.params);
        worst.repartition = std::max(worst.repartition, h.repartition);
        worst.local_merge = std::max(worst.local_merge, h.local_merge);
        worst.body = std::max(worst.body, h.body - h.local_solve - h.params -
                                              h.repartition - h.local_merge);
      }
      t.hooks.push_back(worst);
      out.keys = ppa::onedeep::gather_blocks(std::move(locals));
      break;
    }
    default: {
      auto& pool = ppa::task::ThreadPool::instance();
      const auto before = pool.steals();
      {
        Scope s(t.tracer, "traditional_mergesort", "core.task", op.id(), item);
        out.keys = app::traditional_mergesort(in.keys, np);
      }
      t.steals.push_back(static_cast<double>(pool.steals() - before));
      break;
    }
  }
  if (t.log != nullptr) ++t.log->ops;
  return out;
}

/// np=1 runs take about three times as long as np=4 runs; running them in
/// every round would cut the np=4 samples to a third.
constexpr int kNp1Every = 4;

struct Rounds {
  std::array<std::vector<double>, kProblems> np4_ms, np1_ms;
  std::vector<double> np4_stream_ms;  ///< every np=4 run time, in run order
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

/// Checks each output against a reference computed once, outside every
/// timed region, by code that shares no kernel path with the runs: the
/// sequential poisson_v1, the legacy sweeps of Euler and FDTD, the
/// sequential fft2d_v1, and std::sort for both sorts. So a run must be
/// right, not only the same at np=1 and np=4.
class Checker {
 public:
  explicit Checker(const PaperInputs& in) {
    refs_[kPoisson].field = app::poisson_v1(in.poisson).u;
    auto cfd = in.cfd;
    cfd.sweep = ppa::mesh::SweepMode::kLegacy;
    refs_[kEuler].field = app::run_shock_interface(cfd, in.sizes.euler_steps, 4);
    auto em = in.em;
    em.sweep = ppa::mesh::SweepMode::kLegacy;
    refs_[kFdtd].field = app::run_em_scattering(em, in.sizes.em_steps, 4);
    refs_[kFft2d].spectrum = in.fft;
    app::fft2d_v1(refs_[kFft2d].spectrum, ppa::seq);
    refs_[kSort].keys = in.keys;
    std::sort(refs_[kSort].keys.begin(), refs_[kSort].keys.end());
    refs_[kDcSort] = refs_[kSort];
  }
  /// True when `out` equals the reference of `which` bitwise.
  [[nodiscard]] bool check(Problem which, const Output& out) const {
    if (out == refs_[which]) return true;
    std::fprintf(stderr, "perfbench: %s output differs from its reference\n", kNames[which]);
    return false;
  }

 private:
  std::array<Output, kProblems> refs_;
};

template <typename Run>
bool timed_checked(Problem which, const Checker& check, std::vector<double>& ms, Run&& run) {
  try {
    const auto t0 = now_ns();
    Output out = run();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    return check.check(which, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", kNames[which], e.what());
    return false;
  }
}

/// Rounds of every problem at np=4 until `budget_s` has passed; every
/// kNp1Every-th round, starting with the first, also runs each problem at
/// np=1 just before its np=4 run. Each output is checked outside the timed
/// call.
Rounds untraced_rounds(const PaperInputs& in, const Checker& check, double budget_s) {
  Rounds r;
  const auto start = now_ns();
  for (int round = 0;
       round == 0 || static_cast<double>(now_ns() - start) * 1e-9 < budget_s; ++round) {
    for (int w = 0; w < kProblems; ++w) {
      const auto which = static_cast<Problem>(w);
      for (int np : {1, 4}) {
        if (np == 1 && round % kNp1Every != 0) continue;
        auto& ms = np == 4 ? r.np4_ms[w] : r.np1_ms[w];
        const std::size_t before = ms.size();
        ++r.ops;
        if (!timed_checked(which, check, ms, [&] { return run_untraced(which, in, np); })) {
          ++r.failed;
        }
        if (np == 4 && ms.size() > before) r.np4_stream_ms.push_back(ms.back());
      }
    }
  }
  return r;
}

double sum_of_medians(const std::array<std::vector<double>, kProblems>& ms) {
  double s = 0.0;
  for (const auto& v : ms) s += median(v);
  return s;
}

}  // namespace

PaperLayerResult paper_layer_metrics(Report& r, const PaperInputs& in, double budget_s,
                                     Tracer* tracer, OpLog* log) {
  PaperLayerResult res;
  Checker check(in);
  const Rounds plain = untraced_rounds(in, check, budget_s);
  res.ops += plain.ops;
  res.failed += plain.failed;

  PaperTrace t;
  t.tracer = tracer;
  t.log = log;
  std::array<std::vector<double>, kProblems> traced_ms;
  const auto start = now_ns();
  do {
    for (int w = 0; w < kProblems; ++w) {
      const auto which = static_cast<Problem>(w);
      ++res.ops;
      if (!timed_checked(which, check, traced_ms[w], [&] { return run_traced(which, in, t); })) {
        ++res.failed;
      }
    }
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget_s);
  res.traced_wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  res.untraced_np4_ms = sum_of_medians(plain.np4_ms);
  res.traced_np4_ms = sum_of_medians(traced_ms);

  std::vector<double> solve, params, repart, merge, exch;
  for (const auto& h : t.hooks) {
    solve.push_back(h.local_solve * 1e-6);
    params.push_back(h.params * 1e-6);
    repart.push_back(h.repartition * 1e-6);
    merge.push_back(h.local_merge * 1e-6);
    exch.push_back(h.body * 1e-6);
  }
  r.set("onedeep.local_solve_ms", median(solve), "ms");
  r.set("onedeep.params_ms", median(params), "ms");
  r.set("onedeep.repartition_ms", median(repart), "ms");
  r.set("onedeep.local_merge_ms", median(merge), "ms");
  r.set("onedeep.exchange_ms", median(exch), "ms");
  r.set("task.steals_per_sort", median(t.steals), "count");
  r.set("euler.step_ms", median(t.euler_step_ms), "ms");
  r.set("fdtd.step_ms", median(t.fdtd_step_ms), "ms");
  r.set("poisson.iters_per_op", median(t.poisson_iters), "count");
  const double poisson_np4 = median(plain.np4_ms[kPoisson]);
  r.set("poisson.step_measured_ms",
        poisson_np4 / static_cast<double>(in.sizes.poisson_iters), "ms");

  for (int w = 0; w < kProblems; ++w) {
    const double m4 = median(plain.np4_ms[w]);
    r.set(std::string("speedup.") + kNames[w], m4 > 0.0 ? median(plain.np1_ms[w]) / m4 : 0.0,
          "x");
  }

  // Measured np=4 time over the model's prediction on the fitted machine
  // (common_layer_probes must have run first).
  ppa::perf::Machine m;
  m.name = "host (fitted)";
  m.alpha = r.get("model.alpha_us") * 1e-6;
  m.beta = r.get("model.beta_ns_per_B") * 1e-9;
  m.elem_op = r.get("model.elem_op_ns") * 1e-9;
  m.memory_bytes = 1e12;
  const auto& s = in.sizes;
  ppa::perf::PoissonWorkload pw{s.poisson_n, s.poisson_n, static_cast<int>(s.poisson_iters)};
  ppa::perf::CfdWorkload cw;
  cw.nx = s.euler_nx;
  cw.ny = s.euler_ny;
  cw.steps = s.euler_steps;
  ppa::perf::EmWorkload ew;
  ew.n = s.em_n;
  ew.steps = s.em_steps;
  ppa::perf::FftWorkload fw;
  fw.rows = fw.cols = s.fft_n;
  fw.reps = 1;
  ppa::perf::SortWorkload sw;
  sw.n = s.sort_n;
  const auto ratio = [&](int w, double model_s) {
    return model_s > 0.0 ? median(plain.np4_ms[w]) * 1e-3 / model_s : 0.0;
  };
  r.set("model.poisson_ratio", ratio(kPoisson, ppa::perf::poisson_par_time(m, pw, 4)), "x");
  r.set("model.cfd_ratio", ratio(kEuler, ppa::perf::cfd_par_time(m, cw, 4)), "x");
  r.set("model.em_ratio", ratio(kFdtd, ppa::perf::em_par_time(m, ew, 4)), "x");
  r.set("model.fft2d_ratio", ratio(kFft2d, ppa::perf::fft2d_par_time(m, fw, 4)), "x");
  r.set("model.sort_ratio", ratio(kSort, ppa::perf::mergesort_onedeep_time(m, sw, 4)), "x");
  return res;
}

Report run_paper_apps(const RunArgs& args) {
  Report r;
  const PaperInputs in = make_paper_inputs(args.seed, kPaperFull);

  // Set-up: the process engine comes up lazily in the first spmd_run; the
  // first, untimed np=4 run of each problem pays it and warms the rest.
  std::array<Output, kProblems> first;
  const auto s0 = now_ns();
  for (int w = 0; w < kProblems; ++w) first[w] = run_untraced(static_cast<Problem>(w), in, 4);
  r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
  const Checker check(in);
  for (int w = 0; w < kProblems; ++w) {
    ++r.ops;
    if (!check.check(static_cast<Problem>(w), first[w])) ++r.ops_failed;
  }
  if (args.setup_only) return r;

  if (args.trace) {
    Tracer ops_tracer, probe_tracer;
    common_layer_probes(r, spmd_runner(), in.poisson, 4, in.sizes.fft_n, 4, &probe_tracer);
    const auto sched = mpl::process_scheduler(4);
    const auto before = sched->stats();
    OpLog log;
    const PaperLayerResult res =
        paper_layer_metrics(r, in, args.seconds * 0.4, &ops_tracer, &log);
    const auto after = sched->stats();
    const auto spans = ops_tracer.spans();
    SegmentInfo info;
    info.wall_s = res.traced_wall_s;
    info.untraced_op_ms = res.untraced_np4_ms;
    info.traced_op_ms = res.traced_np4_ms;
    report_segment(r, log, spans, info, sched_delta(before, after));
    r.ops += res.ops;
    r.ops_failed += res.failed;
    compose_layer_metrics(r, args.seed, 0.5, &probe_tracer, nullptr);
    auto all = spans;
    const auto probes = probe_tracer.spans();
    all.insert(all.end(), probes.begin(), probes.end());
    if (!args.trace_path.empty() && !write_chrome_trace(all, args.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
    }
    return r;
  }

  const Rounds rounds = untraced_rounds(in, check, args.seconds);
  r.ops += rounds.ops;
  r.ops_failed += rounds.failed;
  std::vector<double> pooled;
  for (int w = 0; w < kProblems; ++w) {
    pooled.insert(pooled.end(), rounds.np4_ms[w].begin(), rounds.np4_ms[w].end());
    r.set(std::string(kNames[w]) + "_s", median(rounds.np4_ms[w]) * 1e-3, "s");
    r.set_summary(std::string(kNames[w]) + "_np4_ms", summarize(rounds.np4_ms[w]), "ms");
    r.set_summary(std::string(kNames[w]) + "_np1_ms", summarize(rounds.np1_ms[w]), "ms");
    r.set(std::string("speedup.") + kNames[w],
          median(rounds.np1_ms[w]) / median(rounds.np4_ms[w]), "x");
  }
  r.set("seq_s", sum_of_medians(rounds.np1_ms) * 1e-3, "s");
  // Throughput: the np=4 runs laid end to end, counted over their time in
  // windows. Latency: the mean of the six per-problem medians, so every
  // problem weighs by its own run time rather than by its rank in a pool.
  std::vector<double> done_s;
  double np4_s = 0.0;
  for (double ms : rounds.np4_stream_ms) done_s.push_back(np4_s += ms * 1e-3);
  set_end_to_end(r, windowed_rate(done_s, np4_s, kRateWindows), summarize(pooled, 75.0));
  r.set("op_p50_ms", sum_of_medians(rounds.np4_ms) / static_cast<double>(kProblems), "ms");
  return r;
}

}  // namespace perfbench
