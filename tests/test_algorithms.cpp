// Tests for the sequential algorithm substrate: sorting + splitters,
// skyline, convex hull, closest pair, and FFT — each validated against an
// independent oracle and property-tested on randomized inputs (fixed seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/closest_pair.hpp"
#include "algorithms/fft.hpp"
#include "algorithms/hull.hpp"
#include "algorithms/skyline.hpp"
#include "algorithms/sorting.hpp"
#include "support/rng.hpp"

namespace {

using namespace ppa;
using namespace ppa::algo;

// ---------------------------------------------------------------- sorting --

TEST(Sorting, InsertionSortSmall) {
  std::vector<int> xs{5, 2, 8, 1, 9, 2};
  insertion_sort(std::span<int>(xs));
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
}

TEST(Sorting, MergeTwoInterleaves) {
  const std::vector<int> a{1, 3, 5}, b{2, 4, 6};
  std::vector<int> out;
  merge_two(std::span<const int>(a), std::span<const int>(b), out);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Sorting, MergeTwoWithEmpties) {
  const std::vector<int> a{1, 2}, empty;
  std::vector<int> out;
  merge_two(std::span<const int>(a), std::span<const int>(empty), out);
  EXPECT_EQ(out, a);
  out.clear();
  merge_two(std::span<const int>(empty), std::span<const int>(a), out);
  EXPECT_EQ(out, a);
}

class SortProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SortProperty, MergeSortMatchesStdSort) {
  auto xs = random_ints(997, -10000, 10000, GetParam());
  auto expected = xs;
  std::sort(expected.begin(), expected.end());
  merge_sort(xs);
  EXPECT_EQ(xs, expected);
}

TEST_P(SortProperty, QuickSortMatchesStdSort) {
  auto xs = random_ints(1024, -100, 100, GetParam());  // many duplicates
  auto expected = xs;
  std::sort(expected.begin(), expected.end());
  quick_sort(std::span<int>(xs));
  EXPECT_EQ(xs, expected);
}

TEST_P(SortProperty, KwayMergeMatchesSortedConcat) {
  Rng rng(GetParam());
  std::vector<std::vector<int>> runs(5);
  std::vector<int> all;
  for (auto& run : runs) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 50));
    run = random_ints(n, -100, 100, rng());
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(kway_merge(runs), all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortProperty, testing::Values(1u, 2u, 3u, 42u, 99u),
                         [](const testing::TestParamInfo<std::uint64_t>& info) {
                           std::string name = "seed";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Sorting, SortsAlreadySortedAndReversed) {
  std::vector<int> up(300), down(300);
  std::iota(up.begin(), up.end(), 0);
  std::iota(down.rbegin(), down.rend(), 0);
  auto a = up;
  merge_sort(a);
  EXPECT_EQ(a, up);
  quick_sort(std::span<int>(down));
  EXPECT_EQ(down, up);
}

TEST(Sorting, EmptyAndSingleton) {
  std::vector<int> empty, one{7};
  merge_sort(empty);
  merge_sort(one);
  quick_sort(std::span<int>(empty));
  quick_sort(std::span<int>(one));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one, (std::vector<int>{7}));
}

// Stability is only visible with equal keys that carry distinct payloads:
// sort (key, tag) pairs by key alone and compare with std::stable_sort.
using Tagged = std::pair<int, int>;
constexpr auto kByKey = [](const Tagged& a, const Tagged& b) {
  return a.first < b.first;
};

std::vector<Tagged> tagged_keys(std::size_t n, std::uint64_t seed) {
  const auto keys = random_ints(n, 0, 7, seed);  // many equal keys
  std::vector<Tagged> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = {keys[i], static_cast<int>(i)};
  return xs;
}

TEST(SortStability, MergeSortMatchesStableSort) {
  std::vector<std::size_t> sizes(101);
  std::iota(sizes.begin(), sizes.end(), 0);
  sizes.push_back((1u << 12) + 1);
  for (const std::size_t n : sizes) {
    auto xs = tagged_keys(n, 1000 + n);
    auto expected = xs;
    std::stable_sort(expected.begin(), expected.end(), kByKey);
    merge_sort(xs, kByKey);
    ASSERT_EQ(xs, expected) << "n=" << n;
  }
}

TEST(SortStability, MergeTwoTakesLeftRunFirstOnTies) {
  const std::vector<Tagged> a{{1, 0}, {2, 1}, {2, 2}}, b{{1, 10}, {2, 11}};
  std::vector<Tagged> out{{0, -1}};  // merge_two appends
  merge_two(std::span<const Tagged>(a), std::span<const Tagged>(b), out, kByKey);
  EXPECT_EQ(out, (std::vector<Tagged>{
                     {0, -1}, {1, 0}, {1, 10}, {2, 1}, {2, 2}, {2, 11}}));
}

TEST(SortStability, KwayMergeKeepsRunOrderForEqualKeys) {
  for (const std::size_t k : {1u, 2u, 3u, 8u, 33u}) {
    Rng rng(500 + k);
    std::vector<std::vector<Tagged>> runs(k);
    std::vector<Tagged> concat;
    int tag = 0;
    for (std::size_t r = 0; r < k; ++r) {
      // Every third run is empty; the others hold 0-40 keys.
      const auto n = (r % 3 == 1) ? 0 : static_cast<std::size_t>(rng.uniform_int(0, 40));
      for (const int key : random_ints(n, 0, 5, rng())) runs[r].push_back({key, tag++});
      std::stable_sort(runs[r].begin(), runs[r].end(), kByKey);
      concat.insert(concat.end(), runs[r].begin(), runs[r].end());
    }
    // The stable merge of runs == stable sort of their concatenation.
    std::stable_sort(concat.begin(), concat.end(), kByKey);
    EXPECT_EQ(kway_merge(runs, kByKey), concat) << "k=" << k;
  }
  EXPECT_TRUE(kway_merge(std::vector<std::vector<int>>{}).empty());
  EXPECT_TRUE(kway_merge(std::vector<std::vector<int>>(5)).empty());
}

TEST(Sorting, RegularSampleQuantiles) {
  std::vector<int> run(100);
  std::iota(run.begin(), run.end(), 0);
  const auto s = regular_sample(std::span<const int>(run), 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 25);
  EXPECT_EQ(s[1], 50);
  EXPECT_EQ(s[2], 75);
  EXPECT_TRUE(regular_sample(std::span<const int>(run), 0).empty());
  const std::vector<int> empty;
  EXPECT_TRUE(regular_sample(std::span<const int>(empty), 4).empty());
}

TEST(Sorting, ChooseSplittersAreOrderedQuantiles) {
  auto samples = random_ints(200, 0, 1000, 5);
  const auto sp = choose_splitters(samples, 4);
  ASSERT_EQ(sp.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sp.begin(), sp.end()));
}

TEST(Sorting, SplitBySplittersPartitionsCorrectly) {
  std::vector<int> run(50);
  std::iota(run.begin(), run.end(), 0);
  const std::vector<int> splitters{10, 30, 40};
  const auto parts = split_by_splitters(run, splitters, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 10u);  // 0..9
  EXPECT_EQ(parts[1].size(), 20u);  // 10..29
  EXPECT_EQ(parts[2].size(), 10u);  // 30..39
  EXPECT_EQ(parts[3].size(), 10u);  // 40..49
  // Boundary membership: a value equal to a splitter goes right.
  EXPECT_EQ(parts[1].front(), 10);
  EXPECT_EQ(parts[3].front(), 40);
}

TEST(Sorting, SplitBySplittersPreservesAllElements) {
  auto run = random_ints(333, -50, 50, 9);
  std::sort(run.begin(), run.end());
  const auto splitters = choose_splitters(run, 5);
  auto parts = split_by_splitters(run, splitters, 5);
  std::vector<int> rejoined;
  for (const auto& p : parts) {
    EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
    rejoined.insert(rejoined.end(), p.begin(), p.end());
  }
  EXPECT_EQ(rejoined, run);
}

// ---------------------------------------------------------------- skyline --

TEST(Skyline, SingleBuilding) {
  const auto s = skyline_of({2.0, 5.0, 3.0});
  EXPECT_EQ(s, (Skyline{{2.0, 3.0}, {5.0, 0.0}}));
  EXPECT_TRUE(skyline_is_canonical(s));
}

TEST(Skyline, DegenerateBuildingIsEmpty) {
  EXPECT_TRUE(skyline_of({5.0, 5.0, 3.0}).empty());
  EXPECT_TRUE(skyline_of({2.0, 5.0, 0.0}).empty());
}

TEST(Skyline, MergeDisjoint) {
  const auto a = skyline_of({0.0, 1.0, 2.0});
  const auto b = skyline_of({3.0, 4.0, 1.0});
  const auto m = merge_skylines(a, b);
  EXPECT_EQ(m, (Skyline{{0.0, 2.0}, {1.0, 0.0}, {3.0, 1.0}, {4.0, 0.0}}));
}

TEST(Skyline, MergeNestedTallerInside) {
  const auto a = skyline_of({0.0, 10.0, 2.0});
  const auto b = skyline_of({4.0, 6.0, 5.0});
  const auto m = merge_skylines(a, b);
  EXPECT_EQ(m, (Skyline{{0.0, 2.0}, {4.0, 5.0}, {6.0, 2.0}, {10.0, 0.0}}));
}

TEST(Skyline, MergeHiddenBuildingDisappears) {
  const auto a = skyline_of({0.0, 10.0, 5.0});
  const auto b = skyline_of({2.0, 4.0, 3.0});
  EXPECT_EQ(merge_skylines(a, b), a);
}

TEST(Skyline, ClassicNineBuildingExample) {
  // The standard textbook instance.
  const std::vector<Building> bs{{1, 5, 11}, {2, 7, 6},  {3, 9, 13},
                                 {12, 16, 7}, {14, 25, 3}, {19, 22, 18},
                                 {23, 29, 13}, {24, 28, 4}};
  const auto s = skyline_divide_and_conquer(bs);
  const Skyline expected{{1, 11}, {3, 13}, {9, 0},  {12, 7}, {16, 3},
                         {19, 18}, {22, 3}, {23, 13}, {29, 0}};
  EXPECT_EQ(s, expected);
  EXPECT_TRUE(skyline_is_canonical(s));
}

TEST(Skyline, HeightAtQueries) {
  const Skyline s{{1.0, 4.0}, {3.0, 2.0}, {6.0, 0.0}};
  EXPECT_DOUBLE_EQ(skyline_height_at(s, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(skyline_height_at(s, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(skyline_height_at(s, 2.9), 4.0);
  EXPECT_DOUBLE_EQ(skyline_height_at(s, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(skyline_height_at(s, 7.0), 0.0);
}

std::vector<Building> random_buildings(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Building> bs;
  bs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double l = rng.uniform(0.0, 100.0);
    bs.push_back({l, l + rng.uniform(0.5, 20.0), rng.uniform(1.0, 30.0)});
  }
  return bs;
}

class SkylineProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SkylineProperty, HeightMatchesMaxOverBuildingsEverywhere) {
  const auto bs = random_buildings(60, GetParam());
  const auto s = skyline_divide_and_conquer(bs);
  EXPECT_TRUE(skyline_is_canonical(s));
  Rng rng(GetParam() + 1000);
  for (int q = 0; q < 300; ++q) {
    const double x = rng.uniform(-5.0, 130.0);
    double expected = 0.0;
    for (const auto& b : bs) {
      if (b.left <= x && x < b.right) expected = std::max(expected, b.height);
    }
    EXPECT_NEAR(skyline_height_at(s, x), expected, 1e-12) << "at x=" << x;
  }
}

TEST_P(SkylineProperty, MergeIsCommutativeAndAssociative) {
  const auto a = skyline_divide_and_conquer(random_buildings(20, GetParam()));
  const auto b = skyline_divide_and_conquer(random_buildings(20, GetParam() + 7));
  const auto c = skyline_divide_and_conquer(random_buildings(20, GetParam() + 13));
  EXPECT_EQ(merge_skylines(a, b), merge_skylines(b, a));
  EXPECT_EQ(merge_skylines(merge_skylines(a, b), c),
            merge_skylines(a, merge_skylines(b, c)));
}

TEST_P(SkylineProperty, ClipAndConcatRecoverWhole) {
  const auto s = skyline_divide_and_conquer(random_buildings(40, GetParam()));
  const std::vector<double> cuts{-10.0, 20.0, 35.0, 50.0, 80.0, 150.0};
  std::vector<Skyline> strips;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    strips.push_back(clip_skyline(s, cuts[k], cuts[k + 1]));
    EXPECT_TRUE(skyline_is_canonical(strips.back()));
  }
  EXPECT_EQ(concat_skylines(strips), s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkylineProperty, testing::Values(1u, 8u, 21u, 77u),
                         [](const testing::TestParamInfo<std::uint64_t>& info) {
                           std::string name = "seed";
                           name += std::to_string(info.param);
                           return name;
                         });

// ------------------------------------------------------------------- hull --

TEST(Hull, TriangleIsItsOwnHull) {
  const auto h = convex_hull({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(h.size(), 3u);
}

TEST(Hull, InteriorPointsExcluded) {
  const auto h = convex_hull({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}});
  EXPECT_EQ(h.size(), 4u);
  for (const auto& p : h) {
    EXPECT_TRUE((p.x == 0 || p.x == 4) && (p.y == 0 || p.y == 4));
  }
}

TEST(Hull, CollinearInputGivesSegment) {
  const auto h = convex_hull({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.front(), (Point2{0, 0}));
  EXPECT_EQ(h.back(), (Point2{3, 3}));
}

TEST(Hull, SmallInputs) {
  EXPECT_TRUE(convex_hull({}).empty());
  EXPECT_EQ(convex_hull({{1, 2}}).size(), 1u);
  EXPECT_EQ(convex_hull({{1, 2}, {3, 4}}).size(), 2u);
  EXPECT_EQ(convex_hull({{1, 2}, {1, 2}}).size(), 1u);  // duplicates collapse
}

class HullProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(HullProperty, HullContainsAllPointsAndIsConvex) {
  Rng rng(GetParam());
  std::vector<Point2> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
  }
  const auto h = convex_hull(pts);
  ASSERT_GE(h.size(), 3u);
  // Convexity: every consecutive triple turns left (strictly, since
  // collinear points are excluded).
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_GT(cross(h[i], h[(i + 1) % h.size()], h[(i + 2) % h.size()]), 0.0);
  }
  for (const auto& p : pts) {
    EXPECT_TRUE(point_in_hull(std::span<const Point2>(h), p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HullProperty, testing::Values(3u, 14u, 159u),
                         [](const testing::TestParamInfo<std::uint64_t>& info) {
                           std::string name = "seed";
                           name += std::to_string(info.param);
                           return name;
                         });

// ----------------------------------------------------------- closest pair --

TEST(ClosestPair, KnownInstance) {
  const std::vector<Point2> pts{{0, 0}, {10, 10}, {1, 0.5}, {5, 5}, {1.2, 0.6}};
  const auto r = closest_pair(pts);
  EXPECT_NEAR(r.distance, dist({1, 0.5}, {1.2, 0.6}), 1e-12);
}

TEST(ClosestPair, DuplicatePointsGiveZero) {
  const std::vector<Point2> pts{{1, 1}, {3, 2}, {1, 1}};
  EXPECT_DOUBLE_EQ(closest_pair(pts).distance, 0.0);
}

TEST(ClosestPair, TwoPoints) {
  const std::vector<Point2> pts{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(closest_pair(pts).distance, 5.0);
}

class ClosestPairProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosestPairProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<Point2> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  EXPECT_NEAR(closest_pair(pts).distance, closest_pair_brute(pts).distance, 1e-12);
}

TEST_P(ClosestPairProperty, CrossPairFindsStraddlers) {
  Rng rng(GetParam() + 5);
  std::vector<Point2> left, right;
  for (int i = 0; i < 100; ++i) {
    left.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 100.0)});
    right.push_back({rng.uniform(10.0, 20.0), rng.uniform(0.0, 100.0)});
  }
  // Plant a straddling pair closer than anything else.
  left.push_back({9.9999, 50.0});
  right.push_back({10.0001, 50.0});
  const double upper = std::min(closest_pair(left).distance,
                                closest_pair(right).distance);
  const auto r = closest_cross_pair(left, right, 10.0, upper);
  EXPECT_NEAR(r.distance, 0.0002, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosestPairProperty, testing::Values(2u, 33u, 404u),
                         [](const testing::TestParamInfo<std::uint64_t>& info) {
                           std::string name = "seed";
                           name += std::to_string(info.param);
                           return name;
                         });

// -------------------------------------------------------------------- fft --

TEST(Fft, PowerOfTwoCheck) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

TEST(Fft, MatchesNaiveDft) {
  Rng rng(7);
  std::vector<Complex> xs(64);
  for (auto& x : xs) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto expected = dft_reference(xs);
  auto ys = xs;
  fft(std::span<Complex>(ys));
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_NEAR(std::abs(ys[k] - expected[k]), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(Fft, RoundtripIdentity) {
  Rng rng(11);
  std::vector<Complex> xs(256);
  for (auto& x : xs) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  auto ys = xs;
  fft(std::span<Complex>(ys), false);
  fft(std::span<Complex>(ys), true);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_NEAR(std::abs(ys[k] - xs[k]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(13);
  std::vector<Complex> xs(128);
  for (auto& x : xs) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  double time_energy = 0.0;
  for (const auto& x : xs) time_energy += std::norm(x);
  auto ys = xs;
  fft(std::span<Complex>(ys));
  double freq_energy = 0.0;
  for (const auto& y : ys) freq_energy += std::norm(y);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(xs.size()), 1e-6);
}

TEST(Fft, PureToneHitsSingleBin) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kBin = 5;
  std::vector<Complex> xs(kN);
  for (std::size_t t = 0; t < kN; ++t) {
    const double angle = 2.0 * 3.14159265358979323846 * static_cast<double>(kBin) *
                         static_cast<double>(t) / static_cast<double>(kN);
    xs[t] = {std::cos(angle), std::sin(angle)};
  }
  fft(std::span<Complex>(xs));
  for (std::size_t k = 0; k < kN; ++k) {
    if (k == kBin) {
      EXPECT_NEAR(std::abs(xs[k]), static_cast<double>(kN), 1e-8);
    } else {
      EXPECT_NEAR(std::abs(xs[k]), 0.0, 1e-8);
    }
  }
}

TEST(Fft, TrivialSizes) {
  std::vector<Complex> one{{3.0, -1.0}};
  fft(std::span<Complex>(one));
  EXPECT_EQ(one[0], Complex(3.0, -1.0));
  std::vector<Complex> two{{1.0, 0.0}, {2.0, 0.0}};
  fft(std::span<Complex>(two));
  EXPECT_NEAR(std::abs(two[0] - Complex(3.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(two[1] - Complex(-1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<Complex> twelve(12, Complex(1.0, 0.0));
  EXPECT_THROW(fft(std::span<Complex>(twelve)), std::invalid_argument);
  EXPECT_THROW(fft(std::span<Complex>(twelve), true), std::invalid_argument);
  std::vector<Complex> three(3);
  EXPECT_THROW(fft(std::span<Complex>(three)), std::invalid_argument);
  std::vector<Complex> empty;
  EXPECT_NO_THROW(fft(std::span<Complex>(empty)));
}

// The transform as it was before twiddle tables: bit reversal and a w *= wlen
// recurrence inside every butterfly group. fft must reproduce it bit for bit.
void recurrence_fft(std::span<Complex> xs, bool inverse) {
  const std::size_t n = xs.size();
  if (n <= 1) return;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(xs[i], xs[j]);
  }
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = xs[i + k];
        const Complex v = xs[i + k + len / 2] * w;
        xs[i + k] = u + v;
        xs[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : xs) x *= inv_n;
  }
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> xs(n);
  for (auto& x : xs) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return xs;
}

bool same_bits(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

// fft(xs) and recurrence_fft(xs) agree bit for bit; checked in place of a
// gtest assertion so it can run on worker threads.
bool fft_matches_recurrence(std::size_t n, bool inverse, std::uint64_t seed) {
  auto got = random_signal(n, seed);
  auto expected = got;
  fft(std::span<Complex>(got), inverse);
  recurrence_fft(std::span<Complex>(expected), inverse);
  return same_bits(got, expected);
}

TEST(FftTable, BitwiseEqualToRecurrenceAllPowersOfTwo) {
  for (std::size_t n = 1; n <= (1u << 14); n <<= 1) {
    for (const bool inverse : {false, true}) {
      EXPECT_TRUE(fft_matches_recurrence(n, inverse, n + (inverse ? 7 : 0)))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftTable, BitwiseEqualToRecurrenceWithNonFiniteInputs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  auto xs = random_signal(64, 3);
  xs[5] = {kInf, 0.0};
  xs[17] = {-0.0, -kInf};
  xs[40] = {kNan, 1.0};
  xs[63] = {-0.0, -0.0};
  // Every finite or infinite component keeps its bits, and NaNs appear in
  // the same places. A NaN's sign and payload are not pinned: when both
  // operands of an add are NaN, x86 returns the first, and the compiler may
  // order the operands of a commutative add either way in either build.
  const auto same_or_both_nan = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (const bool inverse : {false, true}) {
    auto got = xs;
    auto expected = xs;
    fft(std::span<Complex>(got), inverse);
    recurrence_fft(std::span<Complex>(expected), inverse);
    for (std::size_t k = 0; k < xs.size(); ++k) {
      EXPECT_TRUE(same_or_both_nan(got[k].real(), expected[k].real()) &&
                  same_or_both_nan(got[k].imag(), expected[k].imag()))
          << "bin " << k << " inverse=" << inverse << ": " << got[k] << " vs "
          << expected[k];
    }
  }
}

TEST(FftTable, AlternatingSizesRebuildAndReuseTheTable) {
  // Each step changes (n, inverse) or repeats it, so the thread's table is
  // rebuilt and reused in turn; every result must still match.
  const std::pair<std::size_t, bool> steps[] = {
      {8, false},  {8, false},   {16, false}, {8, false},  {8, true},
      {8, false},  {1024, true}, {2, false},  {1024, true}, {1024, false},
      {16, false}, {16, true},   {1, false},  {16, true}};
  std::uint64_t seed = 100;
  for (const auto& [n, inverse] : steps) {
    EXPECT_TRUE(fft_matches_recurrence(n, inverse, ++seed))
        << "n=" << n << " inverse=" << inverse;
  }
}

TEST(FftTable, ConcurrentThreadsWithDifferentSizes) {
  // Four threads transform different lengths at once; each keeps its own
  // table, so none sees another's twiddles.
  constexpr std::size_t kSizes[] = {256, 512, 1024, 2048};
  bool ok[4] = {false, false, false, false};
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([t, &kSizes, &ok] {
        bool all = true;
        for (int rep = 0; rep < 20; ++rep) {
          all = all && fft_matches_recurrence(
                           kSizes[t], rep % 3 == 2,
                           100 * t + static_cast<std::uint64_t>(rep));
        }
        ok[t] = all;
      });
    }
  }  // jthreads join here
  for (std::size_t t = 0; t < 4; ++t) EXPECT_TRUE(ok[t]) << "n=" << kSizes[t];
}

TEST(Fft, TwoDimensionalRoundtrip) {
  Rng rng(17);
  Array2D<Complex> a(16, 32);
  for (auto& v : a.flat()) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto original = a;
  fft_2d(a, false);
  // Inverse must be applied in reverse operation order too (cols then rows
  // commute here since the transform is separable, but keep it symmetric).
  fft_cols(a, true);
  fft_rows(a, true);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(std::abs(a(i, j) - original(i, j)), 0.0, 1e-10);
    }
  }
}

TEST(Fft, TwoDimensionalImpulseIsFlat) {
  Array2D<Complex> a(8, 8, Complex(0.0, 0.0));
  a(0, 0) = Complex(1.0, 0.0);
  fft_2d(a);
  for (const auto& v : a.flat()) {
    EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-12);
  }
}

}  // namespace
