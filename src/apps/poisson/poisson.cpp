#include "apps/poisson/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ppa::app {

namespace {

/// Grid spacing; the discretization lives on the unit square.
double spacing(const PoissonProblem& prob) {
  return 1.0 / static_cast<double>(std::max(prob.nx, prob.ny) - 1);
}

}  // namespace

PoissonResult poisson_v1(const PoissonProblem& prob) {
  const std::size_t nx = prob.nx;
  const std::size_t ny = prob.ny;
  const double h = spacing(prob);

  // uk: current iterate; ukp: next iterate; fv: RHS samples.
  Array2D<double> uk(nx, ny, 0.0), ukp(nx, ny, 0.0), fv(nx, ny, 0.0);

  // "Initialize boundary of u to g(x,y), interior to initial guess" (zero).
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const double x = static_cast<double>(i) * h;
      const double y = static_cast<double>(j) * h;
      fv(i, j) = prob.f(x, y);
      const bool boundary = (i == 0 || i == nx - 1 || j == 0 || j == ny - 1);
      uk(i, j) = boundary ? prob.g(x, y) : 0.0;
    }
  }
  ukp = uk;

  PoissonResult result;
  double diffmax = prob.tolerance + 1.0;
  while (diffmax > prob.tolerance && result.iterations < prob.max_iters) {
    // Grid operation (the forall of Fig 13): new values at interior points.
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      for (std::size_t j = 1; j + 1 < ny; ++j) {
        ukp(i, j) = (uk(i - 1, j) + uk(i + 1, j) + uk(i, j - 1) + uk(i, j + 1) -
                     h * h * fv(i, j)) *
                    0.25;
      }
    }
    // Reduction operation: diffmax = max |ukp - uk| over the interior.
    diffmax = 0.0;
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      for (std::size_t j = 1; j + 1 < ny; ++j) {
        diffmax = std::max(diffmax, std::abs(ukp(i, j) - uk(i, j)));
      }
    }
    // Copy new values to old values.
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      for (std::size_t j = 1; j + 1 < ny; ++j) uk(i, j) = ukp(i, j);
    }
    ++result.iterations;
  }
  result.u = std::move(uk);
  result.final_diffmax = diffmax;
  return result;
}

PoissonResult poisson_process(mpl::Process& p, const mesh::BlockLayout2D& layout,
                              const std::vector<int>& owner,
                              const PoissonProblem& prob) {
  const std::size_t nx = prob.nx;
  const std::size_t ny = prob.ny;
  const double h = spacing(prob);

  mesh::BlockSet<double> uk(layout, owner, p.rank());
  mesh::BlockSet<double> ukp(layout, owner, p.rank());
  mesh::BlockSet<double> fv(layout, owner, p.rank());

  // initialize_section: boundary to g, interior to the initial guess.
  fv.init_from_global([&](std::size_t gi, std::size_t gj) {
    return prob.f(static_cast<double>(gi) * h, static_cast<double>(gj) * h);
  });
  uk.init_from_global([&](std::size_t gi, std::size_t gj) {
    const bool boundary = (gi == 0 || gi == nx - 1 || gj == 0 || gj == ny - 1);
    return boundary
               ? prob.g(static_cast<double>(gi) * h, static_cast<double>(gj) * h)
               : 0.0;
  });
  for (std::size_t b = 0; b < uk.size(); ++b) {
    ukp.block(b).grid().copy_interior_from(uk.block(b).grid());
  }

  // Intersection of the whole grid's interior with each block
  // (xintersect/yintersect in Fig 14): the local index bounds of the points
  // a block updates.
  std::vector<mesh::Region2> update(uk.size());
  for (std::size_t b = 0; b < uk.size(); ++b) {
    const auto& blk = uk.block(b);
    const auto ilo = static_cast<std::ptrdiff_t>(blk.x_range().lo == 0 ? 1 : 0);
    const auto jlo = static_cast<std::ptrdiff_t>(blk.y_range().lo == 0 ? 1 : 0);
    const auto ihi = static_cast<std::ptrdiff_t>(blk.nx()) -
                     (blk.x_range().hi == nx ? 1 : 0);
    const auto jhi = static_cast<std::ptrdiff_t>(blk.ny()) -
                     (blk.y_range().hi == ny ? 1 : 0);
    update[b] = mesh::Region2{ilo, ihi, jlo, jhi};
  }

  // The replicated global variable controlling the loop (Fig 14's diffmax):
  // copy consistency holds because it is only assigned values that are
  // identical on every process (the initializer and the allreduce result).
  mesh::Global<double> diffmax(prob.tolerance + 1.0);

  // Halo-exchange plan, compiled once and re-entered every iteration: one
  // batched message per peer rank, on-rank block pairs as local copies. The
  // 5-point stencil reads no corner ghosts (the default options skip them).
  mesh::BlockExchangePlan2D plan(uk);

  const double h2 = h * h;
  const bool kernel = prob.sweep == mesh::SweepMode::kKernel;
  PoissonResult result;
  while (diffmax.get() > prob.tolerance && result.iterations < prob.max_iters) {
    // Precondition of the stencil grid operation: fresh shadow copies.
    plan.exchange_all(p, uk);

    // Grid operation on every block's update region. The kernel path is one
    // fused pass that writes ukp and folds the reduction's local max; the
    // legacy path is the per-point form, with the max taken after the sweep.
    double local_diffmax = 0.0;
    for (std::size_t b = 0; b < uk.size(); ++b) {
      auto& out = ukp.block(b).grid();
      const auto& in = uk.block(b).grid();
      const auto& f = fv.block(b).grid();
      const mesh::Region2 r = update[b];
      if (kernel) {
        mesh::kern::sweep_rows_tiled(
            r, mesh::kern::auto_tile_j(5 * sizeof(double), r.j1 - r.j0),
            [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
              local_diffmax = mesh::kern::jacobi_row_maxdiff(
                  out.row(i), in.row(i - 1), in.row(i), in.row(i + 1),
                  f.row(i), h2, j0, j1, local_diffmax);
            });
        continue;
      }
      mesh::for_region(r, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
        out(i, j) = (in(i - 1, j) + in(i + 1, j) + in(i, j - 1) + in(i, j + 1) -
                     h * h * f(i, j)) *
                    0.25;
      });
      mesh::for_region(r, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
        local_diffmax = std::max(local_diffmax, std::abs(out(i, j) - in(i, j)));
      });
    }

    // Reduction: local max then allreduce; postcondition re-establishes the
    // copy consistency of diffmax on every process.
    diffmax.store_replicated(p, p.allreduce(local_diffmax, mpl::MaxOp{}));

    // New values become old values. The kernel path swaps storage instead
    // of copying: only the update regions are ever written, the boundary
    // cells are equal in both sets from initialization, and the ghosts of
    // the new iterate are refreshed by the next exchange before any read
    // (both sets share the layout, map and rank the plan checks).
    if (kernel) {
      std::swap(uk, ukp);
    } else {
      for (std::size_t b = 0; b < uk.size(); ++b) {
        auto& in = uk.block(b).grid();
        const auto& out = ukp.block(b).grid();
        mesh::for_region(update[b], [&](std::ptrdiff_t i, std::ptrdiff_t j) {
          in(i, j) = out(i, j);
        });
      }
    }
    ++result.iterations;
  }

  // print_section: gather-to-root file-output pattern.
  result.u = mesh::gather_blocks(p, uk, 0);
  result.final_diffmax = diffmax.get();
  return result;
}

PoissonResult poisson_process(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                              const PoissonProblem& prob) {
  return poisson_process(
      p, mesh::make_block_layout(prob.nx, prob.ny, pgrid),
      mesh::distribute_blocks_contiguous(pgrid.size(), pgrid.size()), prob);
}

PoissonResult poisson_spmd(const PoissonProblem& prob, int nprocs,
                           const mesh::BlockConfig& config) {
  const auto layout = mesh::make_block_layout(prob.nx, prob.ny, nprocs, config);
  const auto owner = mesh::block_owner(layout, nprocs, config);
  PoissonResult result;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    auto local = poisson_process(p, layout, owner, prob);
    if (p.rank() == 0) result = std::move(local);
  });
  return result;
}

PoissonResult poisson_spmd(const PoissonProblem& prob, mpl::Scheduler& scheduler,
                           int nprocs, mpl::Priority priority,
                           const mpl::JobOptions& options) {
  if (nprocs <= 0) nprocs = scheduler.width();
  const auto pgrid = mpl::CartGrid2D::near_square(nprocs);
  PoissonResult result;
  scheduler.run(
      nprocs,
      [&](mpl::Process& p) {
        auto local = poisson_process(p, pgrid, prob);
        if (p.rank() == 0) result = std::move(local);
      },
      priority, options);
  return result;
}

}  // namespace ppa::app
