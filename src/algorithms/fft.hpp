// ppa/algorithms/fft.hpp
//
// One-dimensional FFT substrate for the two-dimensional FFT application
// (paper section 5, citing Numerical Recipes): iterative radix-2
// Cooley–Tukey over std::complex<double>, plus a naive O(n^2) DFT used as a
// test oracle, and row/column helpers over dense arrays for the version-1
// (sequentially executable) algorithm.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "core/parfor.hpp"
#include "support/ndarray.hpp"

namespace ppa::algo {

using Complex = std::complex<double>;

[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// In-place iterative radix-2 FFT. `inverse` applies the conjugate
/// transform *and* the 1/n normalization, so fft(fft(x), inverse) == x.
///
/// Throws std::invalid_argument, in every build type, unless `xs.size()` is
/// a power of two or zero (an empty span is left as is).
///
/// Twiddle factors and bit-reversal swap pairs come from a `thread_local`
/// table for the last (n, inverse) the calling thread transformed; a call
/// with another (n, inverse) rebuilds it, so repeated rows or columns of one
/// length pay for it once per thread. Stage `len`'s factors are built with
/// the textbook recurrence w_0 = 1, w_{k+1} = w_k * wlen (wlen =
/// exp(∓2πi/len)), so every butterfly multiplies by the same w, with the
/// same std::complex operator*, as a per-butterfly recurrence would and the
/// output is bitwise unchanged. Safe to call from any number of threads.
void fft(std::span<Complex> xs, bool inverse = false);

/// Naive O(n^2) DFT (forward, unnormalized) — test oracle; any size.
[[nodiscard]] std::vector<Complex> dft_reference(std::span<const Complex> xs);

/// Forward FFT applied to every row of `a` in place (a row operation in the
/// mesh-spectral archetype's sense: rows are independent).
void fft_rows(Array2D<Complex>& a, bool inverse = false);

/// Forward FFT applied to every column of `a` in place (a column operation).
void fft_cols(Array2D<Complex>& a, bool inverse = false);

/// Full 2-D FFT: row FFTs then column FFTs (the paper's sequential
/// algorithm: "performing a one-dimensional FFT on each row ... and then ...
/// on each column of the resulting array").
void fft_2d(Array2D<Complex>& a, bool inverse = false);

/// The same row/column/2-D passes with the independent 1-D transforms run
/// as parfor chunks on the work-stealing pool — bitwise-identical results
/// to the sequential passes (each 1-D transform is untouched; only the
/// loop over rows/columns is parallel).
void fft_rows(Array2D<Complex>& a, ParPolicy policy, bool inverse = false);
void fft_cols(Array2D<Complex>& a, ParPolicy policy, bool inverse = false);
void fft_2d(Array2D<Complex>& a, ParPolicy policy, bool inverse = false);

}  // namespace ppa::algo
