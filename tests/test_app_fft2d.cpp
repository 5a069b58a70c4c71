// Tests for the 2-D FFT application (paper section 5): version 1 (parfor)
// vs version 2 (SPMD) equivalence, correctness against the naive DFT, and
// the archetype's predicted communication pattern (two redistributions).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>

#include "apps/fft2d/fft2d.hpp"
#include "mpl/spmd.hpp"
#include "support/rng.hpp"

namespace {

using namespace ppa;
using algo::Complex;

Array2D<Complex> random_grid(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Array2D<Complex> a(n, m);
  for (auto& v : a.flat()) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return a;
}

double max_abs_diff(const Array2D<Complex>& a, const Array2D<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

TEST(Fft2dApp, Version1SeqEqualsVersion1Par) {
  // The paper's claim for version 1: replacing forall by do gives identical
  // results — and so does running the foralls with parfor workers.
  auto a = random_grid(32, 16, 3);
  auto b = a;
  app::fft2d_v1(a, seq);
  app::fft2d_v1(b, par(4));
  EXPECT_EQ(max_abs_diff(a, b), 0.0);  // bitwise identical
}

class Fft2dP : public testing::TestWithParam<int> {};

TEST_P(Fft2dP, Version2MatchesVersion1Bitwise) {
  // Version 2 performs the same row/column FFTs on the same data, only
  // distributed; results must match bit for bit.
  const int p = GetParam();
  auto v1 = random_grid(32, 64, 7);
  const auto v2 = app::fft2d_spmd(v1, p);
  app::fft2d_v1(v1, seq);
  EXPECT_EQ(max_abs_diff(v1, v2), 0.0);
}

TEST_P(Fft2dP, InverseRoundtrip) {
  const int p = GetParam();
  const auto original = random_grid(16, 32, 11);
  const auto fwd = app::fft2d_spmd(original, p, false);
  // fft2d is rows-then-cols in both directions; for the separable transform
  // the inverse in the same order is still the inverse.
  const auto back = app::fft2d_spmd(fwd, p, true);
  EXPECT_LT(max_abs_diff(back, original), 1e-10);
}

TEST_P(Fft2dP, ImpulseTransformsToConstant) {
  const int p = GetParam();
  Array2D<Complex> a(16, 16, Complex(0.0, 0.0));
  a(0, 0) = Complex(1.0, 0.0);
  const auto f = app::fft2d_spmd(a, p);
  for (const auto& v : f.flat()) {
    EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-12);
  }
}

TEST_P(Fft2dP, PlaneWaveHitsSingleBin) {
  const int p = GetParam();
  constexpr std::size_t kN = 16, kM = 32;
  constexpr std::size_t kI = 3, kJ = 5;
  Array2D<Complex> a(kN, kM);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      const double phase =
          2.0 * 3.14159265358979323846 *
          (static_cast<double>(kI * i) / kN + static_cast<double>(kJ * j) / kM);
      a(i, j) = {std::cos(phase), std::sin(phase)};
    }
  }
  const auto f = app::fft2d_spmd(a, p);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      const double expected = (i == kI && j == kJ) ? static_cast<double>(kN * kM) : 0.0;
      EXPECT_NEAR(std::abs(f(i, j)), expected, 1e-7) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, Fft2dP, testing::Values(1, 2, 3, 4, 5, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Fft2dApp, UsesExactlyTwoRedistributions) {
  // Paper Fig 11: row FFTs -> redistribute -> col FFTs -> redistribute.
  constexpr int kP = 4;
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      kP,
      [&](mpl::Process& p) {
        mesh::RowDistributed<Complex> data(32, 32, p.size(), p.rank());
        data.init_from_global([](std::size_t r, std::size_t c) {
          return Complex(static_cast<double>(r), static_cast<double>(c));
        });
        app::fft2d_process(p, data);
        return 0;
      },
      &trace);
  EXPECT_EQ(trace.op(mpl::Op::kAlltoall), 2u * kP);
  EXPECT_EQ(trace.op(mpl::Op::kBroadcast), 0u);
  EXPECT_EQ(trace.op(mpl::Op::kReduce), 0u);
  // 2 all-to-alls of P*(P-1) messages each; no other traffic.
  EXPECT_EQ(trace.messages, 2u * kP * (kP - 1));
}

TEST(Fft2dApp, MoreProcessesThanRows) {
  // 4 rows over 6 processes: trailing ranks own empty blocks.
  auto v1 = random_grid(4, 8, 13);
  const auto v2 = app::fft2d_spmd(v1, 6);
  app::fft2d_v1(v1, seq);
  EXPECT_EQ(max_abs_diff(v1, v2), 0.0);
}

TEST(Fft2dApp, NonPowerOfTwoExtentThrowsOnEveryRankWithoutHanging) {
  // 12 rows: the row FFTs (n=16) succeed, then every rank's column FFT
  // (n=12) throws; the typed error reaches the caller of the SPMD driver.
  const auto a = random_grid(12, 16, 21);
  EXPECT_THROW((void)app::fft2d_spmd(a, 2), std::invalid_argument);
  // And with the bad extent on the rows, before any redistribution.
  const auto b = random_grid(16, 12, 22);
  EXPECT_THROW((void)app::fft2d_spmd(b, 2), std::invalid_argument);
}

}  // namespace
