// Tests for the airshed smog model (paper section 7.4): chemistry
// invariants (nitrogen conservation, photostationary tendency), transport
// conservation on a periodic domain, positivity, diurnal photolysis, ozone
// formation downwind of emissions, and process-count invariance.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "apps/airshed/airshed.hpp"

namespace {

using namespace ppa;
using app::AirshedConfig;
using app::AirshedSim;
using app::Chem;

AirshedConfig small_config() {
  AirshedConfig cfg;
  cfg.nx = 32;
  cfg.ny = 24;
  return cfg;
}

TEST(AirshedApp, PhotolysisIsDiurnal) {
  const auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(1);
  mpl::spmd_run(1, [&](mpl::Process& p) {
    AirshedSim sim(p, pgrid, cfg);
    EXPECT_EQ(sim.photolysis_rate(3.0), 0.0);    // night
    EXPECT_EQ(sim.photolysis_rate(22.0), 0.0);   // night
    EXPECT_NEAR(sim.photolysis_rate(12.0), cfg.rate_j_max, 1e-12);  // noon
    EXPECT_GT(sim.photolysis_rate(9.0), 0.0);
    EXPECT_LT(sim.photolysis_rate(9.0), cfg.rate_j_max);
  });
}

class AirshedP : public testing::TestWithParam<int> {};

TEST_P(AirshedP, ChemistryConservesTotalNitrogen) {
  const int p = GetParam();
  const auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.disable_emissions();
    const double n0 = sim.total_nitrogen();
    for (int s = 0; s < 50; ++s) sim.chemistry_step();
    EXPECT_NEAR(sim.total_nitrogen(), n0, 1e-12 * std::max(1.0, n0));
  });
}

TEST_P(AirshedP, PeriodicTransportConservesMass) {
  const int p = GetParam();
  auto cfg = small_config();
  cfg.periodic = true;
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.disable_emissions();
    const double no0 = sim.total(0);
    const double no20 = sim.total(1);
    const double o30 = sim.total(2);
    for (int s = 0; s < 40; ++s) sim.transport_step();
    EXPECT_NEAR(sim.total(0), no0, 1e-10 * std::max(1.0, no0));
    EXPECT_NEAR(sim.total(1), no20, 1e-10 * std::max(1.0, no20));
    EXPECT_NEAR(sim.total(2), o30, 1e-10 * std::max(1.0, o30));
  });
}

TEST_P(AirshedP, ConcentrationsStayNonNegative) {
  const int p = GetParam();
  const auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(p);
  mpl::spmd_run(p, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.run(80);
    EXPECT_GE(sim.min_concentration(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, AirshedP, testing::Values(1, 2, 4, 6),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(AirshedApp, ProcessCountInvariantBitwise) {
  // No dt reductions (fixed dt): decompositions must agree bitwise.
  const auto cfg = small_config();
  const auto run_with = [&](int p) {
    const auto pgrid = mpl::CartGrid2D::near_square(p);
    Array2D<double> o3;
    mpl::spmd_run(p, [&](mpl::Process& proc) {
      AirshedSim sim(proc, pgrid, cfg);
      sim.run(50);
      auto field = sim.gather_species(2, 0);
      if (proc.rank() == 0) o3 = std::move(field);
    });
    return o3;
  };
  const auto a = run_with(1);
  const auto b = run_with(4);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(AirshedApp, ChemistryApproachesPhotostationaryState) {
  // Under constant daylight, NO/NO2/O3 tend to the photostationary relation
  // j*[NO2] = k*[NO]*[O3].
  auto cfg = small_config();
  const auto pgrid = mpl::CartGrid2D::near_square(1);
  mpl::spmd_run(1, [&](mpl::Process& p) {
    AirshedSim sim(p, pgrid, cfg);
    sim.disable_emissions();
    sim.set_field([](std::size_t, std::size_t) {
      return Chem{0.08, 0.02, 0.01};
    });
    for (int s = 0; s < 4000; ++s) sim.chemistry_step();
    const double j = sim.photolysis_rate(sim.hour());
    // Sample the steady state via the gathered fields.
    const auto no = sim.gather_species(0, 0);
    const auto no2 = sim.gather_species(1, 0);
    const auto o3 = sim.gather_species(2, 0);
    const double lhs = j * no2(5, 5);
    const double rhs = cfg.rate_k * no(5, 5) * o3(5, 5);
    EXPECT_NEAR(lhs, rhs, 0.05 * std::max(lhs, rhs));
  });
}

TEST(AirshedApp, OzoneFormsDownwindOfCity) {
  // The classic smog signature: after daytime simulation, peak O3 exceeds
  // the background and the O3 plume center of mass sits downwind (+x) of
  // the NO emission peak.
  auto cfg = small_config();
  cfg.nx = 48;
  cfg.ny = 32;
  const auto pgrid = mpl::CartGrid2D::near_square(2);
  mpl::spmd_run(2, [&](mpl::Process& proc) {
    AirshedSim sim(proc, pgrid, cfg);
    sim.run(400);  // 4 simulated hours from 8am
    EXPECT_GT(sim.max_o3(), cfg.background_o3 * 1.05);
    const auto no = sim.gather_species(0, 0);
    const auto o3 = sim.gather_species(2, 0);
    if (proc.rank() != 0) return;
    const auto center_x = [&](const Array2D<double>& f, double baseline) {
      double m = 0.0, mx = 0.0;
      for (std::size_t i = 0; i < f.rows(); ++i) {
        for (std::size_t j = 0; j < f.cols(); ++j) {
          const double w = std::max(0.0, f(i, j) - baseline);
          m += w;
          mx += w * static_cast<double>(i);
        }
      }
      return mx / std::max(m, 1e-30);
    };
    EXPECT_GT(center_x(o3, cfg.background_o3), center_x(no, 0.0));
  });
}

// ----------------------------------------------------------- block driver --

AirshedConfig block_test_config() {
  AirshedConfig cfg;
  cfg.nx = 48;
  cfg.ny = 32;
  return cfg;
}

/// Gather all four species on rank 0.
std::array<Array2D<double>, 4> gather_all(AirshedSim& sim) {
  return {sim.gather_species(0), sim.gather_species(1), sim.gather_species(2),
          sim.gather_species(3)};
}

TEST(AirshedBlocks, OneBlockPerRankMatchesSingleGridBitwise) {
  const auto cfg = block_test_config();
  constexpr int kSteps = 20;
  for (const int p : {1, 2, 4}) {
    const auto pgrid = mpl::CartGrid2D::near_square(p);
    std::array<Array2D<double>, 4> grid_out, block_out;
    mpl::spmd_run(p, [&](mpl::Process& proc) {
      AirshedSim sim(proc, pgrid, cfg);
      sim.run(kSteps);
      auto out = gather_all(sim);
      if (proc.rank() == 0) grid_out = std::move(out);
    });
    const auto layout = mesh::make_block_layout(
        cfg.nx, cfg.ny, p, {}, mesh::Periodicity{cfg.periodic, cfg.periodic});
    const auto owner =
        mesh::distribute_blocks_contiguous(layout.nblocks(), p);
    mpl::spmd_run(p, [&](mpl::Process& proc) {
      AirshedSim sim(proc, layout, owner, cfg);
      sim.run(kSteps);
      auto out = gather_all(sim);
      if (proc.rank() == 0) block_out = std::move(out);
    });
    for (int s = 0; s < 4; ++s) {
      const auto& a = grid_out[static_cast<std::size_t>(s)];
      const auto& b = block_out[static_cast<std::size_t>(s)];
      ASSERT_EQ(a.rows(), b.rows());
      for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
          ASSERT_EQ(a(i, j), b(i, j)) << "p=" << p << " species " << s
                                      << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(AirshedBlocks, OversubscribedDistributionsMatchReferenceBitwise) {
  const auto cfg = block_test_config();
  constexpr int kSteps = 15;
  std::array<Array2D<double>, 4> reference;
  {
    const mpl::CartGrid2D pgrid(1, 1);
    mpl::spmd_run(1, [&](mpl::Process& proc) {
      AirshedSim sim(proc, pgrid, cfg);
      sim.run(kSteps);
      reference = gather_all(sim);
    });
  }
  for (const int np : {2, 4}) {
    mesh::BlockConfig config;
    config.nbx = 4;
    config.nby = 2;
    config.owner = mesh::distribute_blocks_round_robin(8, np);
    const auto layout = mesh::make_block_layout(
        cfg.nx, cfg.ny, np, config, mesh::Periodicity{cfg.periodic, cfg.periodic});
    std::array<Array2D<double>, 4> block_out;
    mpl::spmd_run(np, [&](mpl::Process& proc) {
      AirshedSim sim(proc, layout, config.owner, cfg);
      sim.run(kSteps);
      auto out = gather_all(sim);
      if (proc.rank() == 0) block_out = std::move(out);
    });
    for (int s = 0; s < 4; ++s) {
      const auto& a = reference[static_cast<std::size_t>(s)];
      const auto& b = block_out[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
          ASSERT_EQ(a(i, j), b(i, j))
              << "np=" << np << " species " << s << " at (" << i << "," << j
              << ")";
        }
      }
    }
  }
}

TEST(AirshedBlocks, StripProcessGridsMatchNearSquareBitwise) {
  // AirshedSim(p, pgrid, cfg) on strip process grids reproduces the
  // near_square run bit for bit, every species.
  const auto cfg = block_test_config();
  constexpr int kSteps = 15;
  const auto run = [&](const mpl::CartGrid2D& pgrid) {
    std::array<Array2D<double>, 4> out;
    mpl::spmd_run(pgrid.size(), [&](mpl::Process& proc) {
      AirshedSim sim(proc, pgrid, cfg);
      sim.run(kSteps);
      auto fields = gather_all(sim);
      if (proc.rank() == 0) out = std::move(fields);
    });
    return out;
  };
  const auto reference = run(mpl::CartGrid2D::near_square(4));
  for (const auto pgrid : {mpl::CartGrid2D(4, 1), mpl::CartGrid2D(1, 4)}) {
    const auto fields = run(pgrid);
    for (std::size_t s = 0; s < 4; ++s) {
      ASSERT_EQ(fields[s].rows(), reference[s].rows());
      ASSERT_EQ(fields[s].cols(), reference[s].cols());
      EXPECT_EQ(std::memcmp(fields[s].flat().data(), reference[s].flat().data(),
                            reference[s].flat().size() * sizeof(double)),
                0)
          << pgrid.npx() << "x" << pgrid.npy() << " species " << s;
    }
  }
}

}  // namespace
