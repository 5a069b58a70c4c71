// perfbench/src/inputs.hpp — every input the benchmark feeds the library,
// generated from the workload seed alone: the same seed gives the same
// inputs, a different seed different ones (tests/test_perfbench.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "support/ndarray.hpp"
#include "support/rng.hpp"

namespace perfbench {

/// Fixed-work shapes of the six paper problems.
struct PaperSizes {
  std::size_t poisson_n;     ///< grid points per side
  std::size_t poisson_iters; ///< tolerance 0, so exactly this many sweeps
  std::size_t euler_nx, euler_ny;
  int euler_steps;
  std::size_t em_n;
  int em_steps;
  std::size_t fft_n;         ///< n x n complex grid
  std::size_t sort_n;        ///< keys per sort
};

/// The paper_apps workload: the figure shapes (fig06/12/15/16/17) scaled so
/// each np=4 run takes at least ~50 ms on a 4-core host.
inline constexpr PaperSizes kPaperFull{1025, 40, 384, 192, 24, 64, 40, 1024, 1u << 20};
/// The same problems at 1/4-1/16 of the work: the per-layer probe that the
/// traced runs of the other workloads use for layers they do not exercise.
inline constexpr PaperSizes kPaperProbe{257, 40, 96, 48, 24, 32, 40, 256, 1u << 17};

struct PaperInputs {
  PaperSizes sizes{};
  ppa::app::PoissonProblem poisson;
  ppa::app::CfdConfig cfd;
  ppa::app::EmConfig em;
  ppa::Array2D<ppa::algo::Complex> fft;
  std::vector<int> keys;
};

[[nodiscard]] PaperInputs make_paper_inputs(std::uint64_t seed, const PaperSizes& sizes);

/// compose_small: the compose_demo graph's per-item Poisson problems
/// (34x34, tolerance 1e-4). Item k solves problem k % pool.size().
struct ComposeInputs {
  std::vector<double> coeff;  ///< per-problem coefficient a in f, g
};

inline constexpr std::size_t kComposeGrid = 34;
inline constexpr std::size_t kComposePool = 64;

[[nodiscard]] ComposeInputs make_compose_inputs(std::uint64_t seed);
/// The compose_demo problem with coefficient a: f = a (x^2 - y), g = a x y.
[[nodiscard]] ppa::app::PoissonProblem compose_problem(double a);

/// serve_mixed: one draw of the six-kind job mix.
struct JobDraw {
  int kind = 0;       ///< 0 collective, 1 ring, 2 service, 3 poisson, 4 bnb, 5 pipeline
  int np = 1;         ///< 1..4 (service jobs are capped at 2)
  int priority = 0;   ///< 0..2 (mpl::Priority)
};

/// The draw stream of client `client` under `seed`.
class DrawStream {
 public:
  DrawStream(std::uint64_t seed, int client);
  JobDraw next();

 private:
  ppa::Rng rng_;
};

/// Order-sensitive fingerprints of the generated inputs, for the tests.
[[nodiscard]] std::uint64_t fingerprint(const PaperInputs& in);
[[nodiscard]] std::uint64_t fingerprint(const ComposeInputs& in);
[[nodiscard]] std::uint64_t fingerprint_draws(std::uint64_t seed, int client, int n);

}  // namespace perfbench
