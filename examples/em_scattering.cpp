// examples/em_scattering.cpp
//
// The 3-D FDTD electromagnetics code (paper section 7.2): a sinusoidal
// point source radiating past a dielectric sphere inside a PEC cavity, on
// 8 SPMD processes (a 2x2x2 process grid). Writes the Ez midplane.
//
// Runs as a smoke test: prints one SELF-CHECK line and exits nonzero on
// failure (the Ez midplane on 8 and on 4 processes equals a 1-process
// run's bit for bit).
#include <cstdio>
#include <cstring>

#include "apps/em/fdtd3d.hpp"
#include "support/image.hpp"
#include "mpl/spmd.hpp"

int main() {
  using namespace ppa;
  app::EmConfig cfg;
  cfg.n = 48;
  cfg.sphere_radius = 9.0;
  cfg.eps_sphere = 4.0;
  cfg.src_i = 10;
  cfg.src_j = 24;
  cfg.src_k = 24;
  cfg.source_period = 18.0;

  constexpr int kSteps = 120;
  const auto pgrid = mpl::CartGrid3D::near_cubic(8);
  Array2D<double> ez8;  // Ez midplane on 8 processes (rank 0)
  mpl::spmd_run(8, [&](mpl::Process& p) {
    app::FdtdSim sim(p, pgrid, cfg);
    sim.run(kSteps);
    const double energy = sim.field_energy();
    const double divh = sim.max_abs_div_h();
    auto plane = sim.gather_ez_plane(0);
    if (p.rank() == 0) {
      std::printf("FDTD %zu^3, %d steps on 8 processes (2x2x2 grid)\n", cfg.n,
                  kSteps);
      std::printf("field energy = %.4f, max |div H| = %.2e (Yee invariant)\n\n",
                  energy, divh);
      std::printf("Ez on the z-midplane (source left of the dielectric "
                  "sphere at center):\n%s\n",
                  img::ascii_field(plane, 72).c_str());
      img::write_ppm("em_ez_midplane.ppm", plane);
      std::printf("wrote em_ez_midplane.ppm\n");
      ez8 = std::move(plane);
    }
  });

  const auto reference = app::run_em_scattering(cfg, kSteps, 1);
  const auto ez4 = app::run_em_scattering(cfg, kSteps, 4);
  const auto same = [&](const Array2D<double>& a) {
    return a.rows() == reference.rows() && a.cols() == reference.cols() &&
           std::memcmp(a.flat().data(), reference.flat().data(),
                       reference.flat().size_bytes()) == 0;
  };
  const bool ok4 = same(ez4);
  const bool ok8 = same(ez8);
  const bool ok = ok4 && ok8;
  std::printf("\nSELF-CHECK: em_scattering %s (np=4 Ez %s np=1, np=8 Ez %s "
              "np=1)\n",
              ok ? "ok" : "FAILED", ok4 ? "==" : "!=", ok8 ? "==" : "!=");
  return ok ? 0 : 1;
}
