#include "algorithms/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ppa::algo {

namespace {

/// Twiddles and bit-reversal partners for one (n, inverse). twiddle holds
/// stage len's len/2 factors at offset len/2 - 1 (n - 1 in all); swaps holds
/// the (i, j) pairs, i < j, of the bit-reversal permutation in visit order.
struct FftTable {
  std::size_t n = 0;
  bool inverse = false;
  std::vector<Complex> twiddle;
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
};

const FftTable& fft_table(std::size_t n, bool inverse) {
  thread_local FftTable table;
  if (table.n == n && table.inverse == inverse) return table;
  table.n = 0;  // stays invalid if a reallocation below throws

  table.swaps.clear();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) table.swaps.emplace_back(i, j);
  }

  // Each stage's factors come from the w *= wlen recurrence, so a butterfly
  // multiplies by exactly the w a per-butterfly recurrence would produce.
  table.twiddle.resize(n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex* w_k = table.twiddle.data() + (len / 2 - 1);
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      w_k[k] = w;
      w *= wlen;
    }
  }
  table.n = n;
  table.inverse = inverse;
  return table;
}

}  // namespace

void fft(std::span<Complex> xs, bool inverse) {
  const std::size_t n = xs.size();
  if (n != 0 && !is_power_of_two(n)) {
    throw std::invalid_argument("fft: length " + std::to_string(n) +
                                " is not a power of two");
  }
  if (n <= 1) return;
  const FftTable& table = fft_table(n, inverse);

  // Bit-reversal permutation.
  for (const auto& [i, j] : table.swaps) std::swap(xs[i], xs[j]);

  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* w = table.twiddle.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      Complex* lo = xs.data() + i;
      Complex* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = lo[k];
        const Complex v = hi[k] * w[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : xs) x *= inv_n;
  }
}

std::vector<Complex> dft_reference(std::span<const Complex> xs) {
  const std::size_t n = xs.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += xs[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

void fft_rows(Array2D<Complex>& a, ParPolicy policy, bool inverse) {
  parfor(a.rows(), policy,
         [&a, inverse](std::size_t i) { fft(a.row(i), inverse); });
}

void fft_cols(Array2D<Complex>& a, ParPolicy policy, bool inverse) {
  // Chunk the columns explicitly so the gather/scatter scratch is one
  // allocation per chunk, not one per column.
  const std::size_t ncols = a.cols();
  const auto width =
      static_cast<std::size_t>(policy.workers < 1 ? 1 : policy.workers);
  const std::size_t nchunks =
      std::max<std::size_t>(1, std::min(ncols, width * kParforChunksPerWorker));
  parfor(nchunks, policy, [&a, inverse, ncols, nchunks](std::size_t c) {
    const Range r = block_range(ncols, nchunks, c);
    std::vector<Complex> col(a.rows());
    for (std::size_t j = r.lo; j < r.hi; ++j) {
      for (std::size_t i = 0; i < a.rows(); ++i) col[i] = a(i, j);
      fft(std::span<Complex>(col), inverse);
      for (std::size_t i = 0; i < a.rows(); ++i) a(i, j) = col[i];
    }
  });
}

void fft_2d(Array2D<Complex>& a, ParPolicy policy, bool inverse) {
  fft_rows(a, policy, inverse);
  fft_cols(a, policy, inverse);
}

// The sequential passes delegate to the width-1 policy (parfor's par(1)
// path is exactly the plain loop), so each pass has a single body.
void fft_rows(Array2D<Complex>& a, bool inverse) {
  fft_rows(a, ParPolicy{1}, inverse);
}

void fft_cols(Array2D<Complex>& a, bool inverse) {
  fft_cols(a, ParPolicy{1}, inverse);
}

void fft_2d(Array2D<Complex>& a, bool inverse) {
  fft_rows(a, inverse);
  fft_cols(a, inverse);
}

}  // namespace ppa::algo
