#include "probes.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"
#include "stats.hpp"

namespace perfbench {

namespace mpl = ppa::mpl;
namespace mesh = ppa::mesh;

JobRunner spmd_runner() {
  return [](int np, const std::function<void(mpl::Process&)>& body) {
    return mpl::spmd_run(np, body);
  };
}

JobRunner scheduler_runner(mpl::Scheduler& scheduler) {
  return [&scheduler](int np, const std::function<void(mpl::Process&)>& body) {
    return scheduler.run_job(np, body);
  };
}

double pingpong_us(const JobRunner& run, std::size_t bytes, int reps) {
  constexpr int kWarm = 10;
  constexpr int kTag = 7;
  std::vector<double> rtt_us;
  run(2, [&](mpl::Process& p) {
    std::vector<std::uint8_t> buf(bytes, 1);
    for (int i = 0; i < kWarm + reps; ++i) {
      if (p.rank() == 0) {
        const auto t0 = now_ns();
        p.send(1, kTag, buf);
        buf = p.recv<std::uint8_t>(1, kTag);
        const auto t1 = now_ns();
        if (i >= kWarm) rtt_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      } else {
        auto in = p.recv<std::uint8_t>(0, kTag);
        p.send(0, kTag, std::move(in));
      }
    }
  });
  return 0.5 * median(std::move(rtt_us));
}

double allreduce_us(const JobRunner& run, int np, int reps) {
  constexpr int kWarm = 20;
  std::vector<double> us;
  run(np, [&](mpl::Process& p) {
    double x = static_cast<double>(p.rank());
    for (int i = 0; i < kWarm + reps; ++i) {
      const auto t0 = now_ns();
      x = p.allreduce(x, mpl::MaxOp{});
      const auto t1 = now_ns();
      if (p.rank() == 0 && i >= kWarm) us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
  });
  return median(std::move(us));
}

double alltoall_ms(const JobRunner& run, int np, std::size_t ints_per_pair, int reps) {
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(np));
  run(np, [&](mpl::Process& p) {
    auto& mine = per_rank[static_cast<std::size_t>(p.rank())];
    for (int i = 0; i < reps + 1; ++i) {
      std::vector<std::vector<int>> parts(static_cast<std::size_t>(np),
                                          std::vector<int>(ints_per_pair, i));
      p.barrier();
      const auto t0 = now_ns();
      auto got = p.alltoall(std::move(parts));
      const auto t1 = now_ns();
      if (i > 0) mine.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
  });
  std::vector<double> slowest(per_rank.front().size(), 0.0);
  for (const auto& r : per_rank) {
    for (std::size_t i = 0; i < r.size(); ++i) slowest[i] = std::max(slowest[i], r[i]);
  }
  return median(std::move(slowest));
}

StepSplit replay_jacobi(const JobRunner& run, const ppa::app::PoissonProblem& prob,
                        int np, int steps, Tracer* tracer, std::int64_t parent) {
  const std::size_t nx = prob.nx;
  const std::size_t ny = prob.ny;
  const double h = 1.0 / static_cast<double>(std::max(nx, ny) - 1);
  const auto pgrid = mpl::CartGrid2D::near_square(np);
  constexpr int kMarks = 8;
  using Marks = std::array<std::int64_t, kMarks>;
  std::vector<std::vector<Marks>> marks(static_cast<std::size_t>(np),
                                        std::vector<Marks>(static_cast<std::size_t>(steps)));

  const auto snap = run(np, [&](mpl::Process& p) {
    mesh::Grid2D<double> uk(nx, ny, pgrid, p.rank(), 1);
    mesh::Grid2D<double> ukp(nx, ny, pgrid, p.rank(), 1);
    mesh::Grid2D<double> fv(nx, ny, pgrid, p.rank(), 1);
    fv.init_from_global([&](std::size_t gi, std::size_t gj) {
      return prob.f(static_cast<double>(gi) * h, static_cast<double>(gj) * h);
    });
    uk.init_from_global([&](std::size_t gi, std::size_t gj) {
      const bool boundary = gi == 0 || gi == nx - 1 || gj == 0 || gj == ny - 1;
      return boundary ? prob.g(static_cast<double>(gi) * h, static_cast<double>(gj) * h)
                      : 0.0;
    });
    ukp.copy_interior_from(uk);
    const auto ilo = static_cast<std::ptrdiff_t>(uk.x_range().lo == 0 ? 1 : 0);
    const auto jlo = static_cast<std::ptrdiff_t>(uk.y_range().lo == 0 ? 1 : 0);
    const auto ihi = static_cast<std::ptrdiff_t>(uk.nx()) - (uk.x_range().hi == nx ? 1 : 0);
    const auto jhi = static_cast<std::ptrdiff_t>(uk.ny()) - (uk.y_range().hi == ny ? 1 : 0);
    mesh::ExchangePlan2D plan(pgrid, p.rank(), uk, mesh::ExchangePlan2D::Options{{}, false, 0});
    const mesh::Region2 update{ilo, ihi, jlo, jhi};
    const mesh::Region2 core = mesh::core_region(uk, 1, update);
    auto ukpv = mesh::field_view(ukp);
    const auto ukv = mesh::field_view(std::as_const(uk));
    const auto fvv = mesh::field_view(std::as_const(fv));
    const double h2 = h * h;
    const auto rows = [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
      mesh::kern::jacobi_row(ukpv.row(i), ukv.row(i - 1), ukv.row(i), ukv.row(i + 1),
                             fvv.row(i), h2, j0, j1);
    };
    auto& mine = marks[static_cast<std::size_t>(p.rank())];
    for (int s = 0; s < steps; ++s) {
      auto& m = mine[static_cast<std::size_t>(s)];
      m[0] = now_ns();
      plan.begin_exchange(p, uk);
      m[1] = now_ns();
      mesh::kern::sweep_rows_tiled(
          core, mesh::kern::auto_tile_j(5 * sizeof(double), core.j1 - core.j0), rows);
      m[2] = now_ns();
      plan.end_exchange(p, uk);
      m[3] = now_ns();
      mesh::kern::sweep_rim_rows(update, core, rows);
      m[4] = now_ns();
      double local = 0.0;
      for (std::ptrdiff_t i = ilo; i < ihi; ++i) {
        local = mesh::kern::absdiff_max_row(ukpv.row(i), ukv.row(i), jlo, jhi, local);
      }
      m[5] = now_ns();
      (void)p.allreduce(local, mpl::MaxOp{});
      m[6] = now_ns();
      auto ukw = mesh::field_view(uk);
      for (std::ptrdiff_t i = ilo; i < ihi; ++i) {
        mesh::kern::copy_row(ukw.row(i), ukpv.row(i), jlo, jhi);
      }
      m[7] = now_ns();
    }
    for (int s = 0; s < steps; ++s) {
      const auto& m = mine[static_cast<std::size_t>(s)];
      const auto step = record(tracer, "jacobi.step", "apps", parent, s, m[0], m[7]);
      record(tracer, "plan.begin_exchange", "meshspectral.plan", step, s, m[0], m[1]);
      record(tracer, "kern.sweep_core", "meshspectral.kernels", step, s, m[1], m[2]);
      record(tracer, "plan.end_exchange", "meshspectral.plan", step, s, m[2], m[3]);
      record(tracer, "kern.sweep_rim", "meshspectral.kernels", step, s, m[3], m[4]);
      record(tracer, "kern.absdiff_max", "meshspectral.kernels", step, s, m[4], m[5]);
      record(tracer, "Process::allreduce", "mpl.collectives", step, s, m[5], m[6]);
      record(tracer, "kern.copy", "meshspectral.kernels", step, s, m[6], m[7]);
    }
  });
  // The allreduce's own messages, so the plan's share can be separated.
  const auto reduce_only = run(np, [&](mpl::Process& p) {
    for (int s = 0; s < steps; ++s) (void)p.allreduce(0.0, mpl::MaxOp{});
  });

  // Per step, the slowest rank's time in each call; medians over steps.
  const auto slowest = [&](int a, int b) {
    std::vector<double> per_step;
    for (int s = 0; s < steps; ++s) {
      std::int64_t worst = 0;
      for (const auto& r : marks) {
        const auto& m = r[static_cast<std::size_t>(s)];
        worst = std::max(worst, m[static_cast<std::size_t>(b)] - m[static_cast<std::size_t>(a)]);
      }
      per_step.push_back(static_cast<double>(worst));
    }
    return median(std::move(per_step));  // ns
  };
  const auto slowest_sweep = [&] {
    std::vector<double> per_step;
    for (int s = 0; s < steps; ++s) {
      std::int64_t worst = 0;
      for (const auto& r : marks) {
        const auto& m = r[static_cast<std::size_t>(s)];
        worst = std::max(worst, (m[2] - m[1]) + (m[4] - m[3]));
      }
      per_step.push_back(static_cast<double>(worst));
    }
    return median(std::move(per_step));
  };

  StepSplit out;
  out.begin_us = slowest(0, 1) * 1e-3;
  out.end_us = slowest(2, 3) * 1e-3;
  out.sweep_ms = slowest_sweep() * 1e-6;
  out.absdiff_ms = slowest(4, 5) * 1e-6;
  out.allreduce_us = slowest(5, 6) * 1e-3;
  out.copy_ms = slowest(6, 7) * 1e-6;
  out.step_ms = slowest(0, 7) * 1e-6;
  const auto per_step = [steps](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - std::min(a, b)) / static_cast<double>(steps);
  };
  out.msgs = per_step(snap.messages, reduce_only.messages);
  out.bytes = per_step(snap.bytes, reduce_only.bytes);
  out.copied_bytes = per_step(snap.copied_bytes, reduce_only.copied_bytes);
  out.points = static_cast<double>((nx - 2) * (ny - 2));
  return out;
}

RedistSplit replay_redistribute(const JobRunner& run, std::size_t n, int np, int reps,
                                Tracer* tracer, std::int64_t parent) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> marks(
      static_cast<std::size_t>(np));
  const auto snap = run(np, [&](mpl::Process& p) {
    mesh::RowDistributed<ppa::algo::Complex> rows(n, n, p.size(), p.rank());
    rows.init_from_global([](std::size_t r, std::size_t c) {
      return ppa::algo::Complex(static_cast<double>(r), static_cast<double>(c));
    });
    mesh::ColDistributed<ppa::algo::Complex> cols(n, n, p.size(), p.rank());
    auto& mine = marks[static_cast<std::size_t>(p.rank())];
    for (int i = 0; i < reps; ++i) {
      const auto t0 = now_ns();
      mesh::redistribute(p, rows, cols);
      mine.emplace_back(t0, now_ns());
    }
    for (int i = 0; i < reps; ++i) {
      const auto [t0, t1] = mine[static_cast<std::size_t>(i)];
      record(tracer, "mesh::redistribute", "meshspectral.rowcol", parent, i, t0, t1);
    }
  });
  std::vector<double> slowest;
  for (int i = 0; i < reps; ++i) {
    std::int64_t worst = 0;
    for (const auto& r : marks) {
      const auto [t0, t1] = r[static_cast<std::size_t>(i)];
      worst = std::max(worst, t1 - t0);
    }
    slowest.push_back(static_cast<double>(worst) * 1e-6);
  }
  return {median(std::move(slowest)),
          static_cast<double>(snap.bytes) / static_cast<double>(reps)};
}

ppa::perf::Machine fit_machine(double pingpong_small_us, std::size_t small_bytes,
                               double pingpong_large_us, std::size_t large_bytes,
                               double np1_step_ms, double points) {
  ppa::perf::Machine m;
  m.name = "host (fitted)";
  m.beta = std::max(0.0, (pingpong_large_us - pingpong_small_us) * 1e-6 /
                             static_cast<double>(large_bytes - small_bytes));
  m.alpha = std::max(0.0, pingpong_small_us * 1e-6 - m.beta * static_cast<double>(small_bytes));
  m.elem_op = np1_step_ms * 1e-3 / (points * 9.0);
  m.memory_bytes = 1e12;  // no paging term: every problem here fits in memory
  return m;
}

}  // namespace perfbench
