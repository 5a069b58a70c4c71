// ppa/apps/poisson/poisson.hpp
//
// Jacobi Poisson solver on the mesh-spectral archetype (paper section 6):
// solve  d2u/dx2 + d2u/dy2 = f(x,y)  on the unit square with Dirichlet
// boundary condition u = g(x,y), by discretizing and applying Jacobi
// iteration to all interior points until convergence:
//
//     ukp[i][j] = ( uk[i-1][j] + uk[i+1][j] + uk[i][j-1] + uk[i][j+1]
//                   - h*h*f[i][j] ) / 4
//
// Version 1 (paper Fig 13): whole-grid forall + reduction-controlled while
// loop, sequentially executable.
//
// Version 2 (paper Fig 14): SPMD with a generic block distribution. The
// grid is split into blocks (mesh::BlockSet) and every iteration is one
// boundary exchange over all of a rank's blocks, one local grid operation
// per block, and one allreduce(max) that re-establishes copy consistency
// of the replicated global `diffmax` before it controls the loop. The
// exchange is a persistent BlockExchangePlan2D round; once it completes,
// each block is relaxed in one sweep over its whole update region. Fig 14's
// one section per process on an NPX x NPY process grid is the
// one-block-per-rank case of this driver.
//
// Determinism note: each interior point's update uses identical arithmetic
// in both versions and the convergence test combines with max (exact under
// any association), so version 1 and version 2 — under any block layout
// and distribution — agree bitwise and take the same number of iterations.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/compose.hpp"
#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

struct PoissonProblem {
  std::size_t nx = 64;  ///< interior+boundary points per side (>= 3)
  std::size_t ny = 64;
  double tolerance = 1e-4;     ///< on max |u_{k+1} - u_k|
  std::size_t max_iters = 100000;
  /// Right-hand side f(x, y) and boundary condition g(x, y), both over the
  /// unit square (x = i/(nx-1), y = j/(ny-1)).
  std::function<double(double, double)> f = [](double, double) { return 0.0; };
  std::function<double(double, double)> g = [](double, double) { return 0.0; };
  /// Sweep implementation: tiled row kernels (kernels.hpp) or the legacy
  /// per-point loops. Bitwise-identical results either way (pinned by
  /// tests/test_kernels.cpp); the kernel path is simply faster.
  mesh::SweepMode sweep = mesh::SweepMode::kKernel;
};

struct PoissonResult {
  Array2D<double> u;       ///< converged field (on the calling process)
  std::size_t iterations = 0;
  double final_diffmax = 0.0;
};

/// Version 1: sequential whole-grid Jacobi iteration (paper Fig 13).
[[nodiscard]] PoissonResult poisson_v1(const PoissonProblem& prob);

/// Version 2, per-process body (paper Fig 14) on a block set: this rank
/// relaxes the blocks `owner` assigns it (any number, any distribution; all
/// ranks pass the same layout and map). The result field on rank 0 is the
/// gathered global grid; other ranks return an empty grid.
[[nodiscard]] PoissonResult poisson_process(mpl::Process& p,
                                            const mesh::BlockLayout2D& layout,
                                            const std::vector<int>& owner,
                                            const PoissonProblem& prob);

/// Version 2 with one section per process of `pgrid`: the block-set body on
/// one block per rank (mesh::make_block_layout of the process grid).
[[nodiscard]] PoissonResult poisson_process(mpl::Process& p,
                                            const mpl::CartGrid2D& pgrid,
                                            const PoissonProblem& prob);

/// Version 2, whole-problem driver on `nprocs` SPMD processes. The default
/// config is one block per rank on the near_square process grid.
[[nodiscard]] PoissonResult poisson_spmd(const PoissonProblem& prob, int nprocs,
                                         const mesh::BlockConfig& config = {});

/// Version 2 on a persistent engine, through a space-sharing Scheduler
/// (mpl/scheduler.hpp): one warm SPMD job per call, so a stream of solves
/// reuses rank threads and mailbox lanes instead of respawning per problem.
/// A narrow solve runs concurrently with other narrow jobs on a wide
/// engine, queueing (priority-ordered, bounded) when ranks are busy; a solo
/// solve gets ranks {0..nprocs-1}. `nprocs` defaults to the scheduler's
/// full width. `options` attaches a per-job deadline / cancel token /
/// watchdog (job.hpp); a deadline counts from submission, queueing time
/// included.
[[nodiscard]] PoissonResult poisson_spmd(const PoissonProblem& prob,
                                         mpl::Scheduler& scheduler,
                                         int nprocs = 0,
                                         mpl::Priority priority = mpl::Priority::kNormal,
                                         const mpl::JobOptions& options = {});

/// Composable component (core/compose.hpp): a hosted stage solving a stream
/// of Poisson problems, each as one np-wide SPMD job on a near-square
/// process grid (the poisson_spmd layout). Rank 0's gathered PoissonResult
/// continues downstream. The solve is np-invariant (poisson_process ==
/// poisson_v1 bitwise for any np, pinned by tests), so a graph using this
/// component produces identical bytes on every driver.
[[nodiscard]] inline auto poisson_component(int np) {
  const auto pgrid = mpl::CartGrid2D::near_square(np);
  return compose::engine_job(
      np, [pgrid](mpl::Process& p, const PoissonProblem& prob) {
        return poisson_process(p, pgrid, prob);
      });
}

}  // namespace ppa::app
