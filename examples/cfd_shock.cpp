// examples/cfd_shock.cpp
//
// Regenerates the paper's CFD output figures:
//   Fig 19 — "Density as a shock interacts with a sinusoidal density
//             gradient";
//   Fig 20 — "Density (a,b) and vorticity (c,d) images for a Mach 1.x shock
//             interaction with a sinusoidal interface ... at late and early
//             times".
//
// Runs the Mach-1.5 shock / perturbed-interface scenario on 4 SPMD
// processes, dumping density and vorticity snapshots (PPM images + coarse
// ASCII) at an early and a late time.
//
// Runs as a smoke test: prints one SELF-CHECK line and exits nonzero on
// failure (the late density field equals a 1-process run's bit for bit).
#include <cstdio>
#include <cstring>

#include "apps/cfd/euler2d.hpp"
#include "support/image.hpp"
#include "mpl/spmd.hpp"

int main() {
  using namespace ppa;
  app::CfdConfig cfg;
  cfg.nx = 384;
  cfg.ny = 128;
  cfg.mach = 1.5;

  constexpr int kEarlySteps = 150;
  constexpr int kLateSteps = 450;

  const auto pgrid = mpl::CartGrid2D::near_square(4);
  Array2D<double> density;  // late density on 4 processes (rank 0)
  mpl::spmd_run(4, [&](mpl::Process& p) {
    app::CfdSim sim(p, pgrid, cfg);
    sim.init_shock_interface();

    double t = sim.run(kEarlySteps);
    // gather_density's first index is x; transpose so x runs horizontally
    // in the rendered images, as in the paper's figures.
    auto rho_early = transpose(sim.gather_density(0));
    auto vor_early = transpose(sim.gather_vorticity(0));
    if (p.rank() == 0) {
      std::printf("early time t = %.4f (%d steps)\n", t, kEarlySteps);
      img::write_ppm("fig20_density_early.ppm", rho_early);
      img::write_ppm("fig20_vorticity_early.ppm", vor_early);
    }

    t += sim.run(kLateSteps - kEarlySteps);
    auto rho = sim.gather_density(0);
    auto rho_late = transpose(rho);
    auto vor_late = transpose(sim.gather_vorticity(0));
    if (p.rank() == 0) {
      density = std::move(rho);
      double rlo = 1e300, rhi = -1e300, wlo = 1e300, whi = -1e300;
      for (double v : rho_late.flat()) {
        rlo = std::min(rlo, v);
        rhi = std::max(rhi, v);
      }
      for (double v : vor_late.flat()) {
        wlo = std::min(wlo, v);
        whi = std::max(whi, v);
      }
      std::printf("late time  t = %.4f (%d steps)\n", t, kLateSteps);
      std::printf("density in [%.3f, %.3f], vorticity in [%.2f, %.2f]\n\n", rlo,
                  rhi, wlo, whi);
      img::write_ppm("fig19_density_late.ppm", rho_late);
      img::write_ppm("fig20_vorticity_late.ppm", vor_late);
      std::printf("Fig 19 — density at late time (shock has struck the "
                  "sinusoidal interface):\n%s\n",
                  img::ascii_field(rho_late, 96).c_str());
      std::printf("Fig 20(d) — vorticity at late time (baroclinic roll-up "
                  "along the interface):\n%s\n",
                  img::ascii_field(vor_late, 96).c_str());
      std::printf("wrote fig19_density_late.ppm, fig20_density_early.ppm,\n"
                  "      fig20_vorticity_early.ppm, fig20_vorticity_late.ppm\n");
    }
  });

  const auto reference = app::run_shock_interface(cfg, kLateSteps, 1);
  const bool ok = density.rows() == reference.rows() &&
                  density.cols() == reference.cols() &&
                  std::memcmp(density.flat().data(), reference.flat().data(),
                              reference.flat().size_bytes()) == 0;
  std::printf("\nSELF-CHECK: cfd_shock %s (np=4 density %s np=1)\n",
              ok ? "ok" : "FAILED", ok ? "==" : "!=");
  return ok ? 0 : 1;
}
