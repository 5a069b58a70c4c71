// examples/airshed_demo.cpp
//
// The airshed smog model (paper section 7.4): a morning-to-afternoon run
// over a basin with two emitting cities and a steady south-westerly wind,
// on 4 SPMD processes. Prints the diurnal ozone record and writes the final
// species maps.
//
// Runs as a smoke test: prints one SELF-CHECK line and exits nonzero on
// failure (every final species field equals a 1-process run's bit for
// bit).
#include <array>
#include <cstdio>
#include <cstring>

#include "apps/airshed/airshed.hpp"
#include "support/image.hpp"
#include "mpl/spmd.hpp"

int main() {
  using namespace ppa;
  app::AirshedConfig cfg;
  cfg.nx = 96;
  cfg.ny = 64;

  const int steps_per_hour = static_cast<int>(1.0 / cfg.dt);
  constexpr int kHours = 8;
  using Species = std::array<Array2D<double>, 4>;
  const auto gather_all = [](app::AirshedSim& sim) {
    Species out;
    for (int s = 0; s < 4; ++s) out[s] = sim.gather_species(s, 0);
    return out;
  };

  const auto pgrid = mpl::CartGrid2D::near_square(4);
  Species fields;  // final species fields on 4 processes (rank 0)
  mpl::spmd_run(4, [&](mpl::Process& p) {
    app::AirshedSim sim(p, pgrid, cfg);
    if (p.rank() == 0) {
      std::printf("airshed %zux%zu cells (%g x %g km), 2 cities, wind (%g, %g) "
                  "km/h\n\n", cfg.nx, cfg.ny, cfg.lx, cfg.ly, cfg.wind_u,
                  cfg.wind_v);
      std::printf("  %6s %10s %12s %12s\n", "hour", "max O3", "total NOx",
                  "photolysis");
    }
    for (int hour = 0; hour < kHours; ++hour) {
      sim.run(steps_per_hour);
      const double o3 = sim.max_o3();
      const double nox = sim.total_nitrogen();
      if (p.rank() == 0) {
        std::printf("  %5.1fh %10.4f %12.4f %12.2f\n", sim.hour(), o3, nox,
                    sim.photolysis_rate(sim.hour()));
      }
    }
    // First index is west-east; transpose so the map reads geographically.
    auto all = gather_all(sim);
    auto o3map = transpose(all[2]);
    auto nomap = transpose(all[0]);
    if (p.rank() == 0) {
      fields = std::move(all);
      std::printf("\nozone field at %.1fh (plume displaced downwind of the "
                  "cities):\n%s\n", sim.hour(),
                  img::ascii_field(o3map, 80).c_str());
      img::write_ppm("airshed_o3.ppm", o3map);
      img::write_ppm("airshed_no.ppm", nomap);
      std::printf("wrote airshed_o3.ppm, airshed_no.ppm\n");
    }
  });

  Species reference;
  mpl::spmd_run(1, [&](mpl::Process& p) {
    app::AirshedSim sim(p, mpl::CartGrid2D::near_square(1), cfg);
    sim.run(kHours * steps_per_hour);
    reference = gather_all(sim);
  });
  bool ok = true;
  for (int s = 0; s < 4; ++s) {
    const auto& a = fields[s];
    const auto& b = reference[s];
    ok = ok && a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(), b.flat().size_bytes()) ==
             0;
  }
  std::printf("\nSELF-CHECK: airshed_demo %s (np=4 species fields %s np=1)\n",
              ok ? "ok" : "FAILED", ok ? "==" : "!=");
  return ok ? 0 : 1;
}
