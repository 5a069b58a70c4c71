// ppa/meshspectral/kernels.hpp
//
// Layout- and SIMD-aware sweep machinery for the mesh archetype's hot
// loops. Where ops.hpp's for_region/for_rim call a per-point lambda (grid
// indexing re-derived at every point), the kernel layer hands whole *row
// segments* to the body: the body hoists its row base pointers once, then
// runs a contiguous unit-stride inner loop over raw pointers that the
// compiler can vectorize. field.hpp's FieldView2D/3D supply those pointers
// with the grids' padded/aligned layout.
//
//   * SweepMode            — per-app switch between the kernel sweeps and
//                            the legacy per-point paths (kept as the oracle
//                            for the bitwise-equality test battery); either
//                            way an app step is one exchange, then one
//                            sweep per block;
//   * sweep_rows / sweep_pencils
//                          — row-segment / pencil-segment drivers matching
//                            for_region's traversal order;
//   * sweep_rows_tiled     — column-blocked variant: j-tiles sized to L1 so
//                            stencil input rows stay cached across the i
//                            sweep when rows are wider than cache;
//   * sweep_rim_rows       — 2-D rim driver matching for_rim's order, for
//                            the overlapped stencil (ops.hpp) and the
//                            benches that time a core/rim split;
//   * jacobi_row / jacobi_sweep[_tiled], absdiff_max_row, copy_row
//                          — the shared 5-point Jacobi kernels used by the
//                            ablation bench and the step-replay probe;
//   * jacobi_row_maxdiff   — the fused one-pass Jacobi row + residual max
//                            the poisson app's kernel path runs.
//
// Bitwise contract: every kernel evaluates each output element with exactly
// the same floating-point expression and per-element operation order as the
// legacy per-point code. Tiling only reorders *which element is computed
// when* — outputs are disjoint from inputs in all stencil sweeps, so
// results are bitwise-identical. absdiff_max_row keeps strict forward order;
// jacobi_row_maxdiff splits its max over 4 lanes, which yields the same bits
// because a max over non-NaN values does not depend on order and a NaN
// candidate is skipped by every lane exactly as std::max skips it. The
// build stays on portable flags by default (no fast-math anywhere;
// PPA_NATIVE_ARCH affects bench executables only), so no FMA-contraction or
// reassociation divergence is introduced.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "meshspectral/field.hpp"
#include "meshspectral/plan.hpp"
#include "support/aligned.hpp"

#if defined(_MSC_VER)
#define PPA_RESTRICT __restrict
#else
#define PPA_RESTRICT __restrict__
#endif

namespace ppa::mesh {

/// Which sweep implementation an app's time stepper uses. Both produce
/// bitwise-identical results (pinned by tests/test_kernels.cpp); kLegacy is
/// kept as the readable per-point oracle and A/B baseline.
enum class SweepMode { kKernel, kLegacy };

namespace kern {

/// L1 budget a column tile should fit in, leaving headroom for the stack
/// and TLB (typical L1d is 32–48 KiB).
inline constexpr std::size_t kL1TileBytes = 32 * 1024;

/// Column-tile width (elements) for a sweep touching `bytes_per_point`
/// bytes of distinct streams per output element; multiple of a cache line
/// of doubles, clamped to a sane range.
[[nodiscard]] constexpr std::ptrdiff_t default_tile_j(
    std::size_t bytes_per_point) noexcept {
  const std::size_t raw =
      kL1TileBytes / (bytes_per_point ? bytes_per_point : 1);
  const std::size_t quant = raw / 8 * 8;
  return static_cast<std::ptrdiff_t>(std::clamp<std::size_t>(
      quant, 64, 1 << 20));
}

/// L2 budget: while a sweep's row streams all fit here, each input row is
/// still cache-resident when its neighboring output rows reuse it, so
/// column tiling cannot pay for its extra pass overhead.
inline constexpr std::size_t kL2SweepBytes = 2 * 1024 * 1024;

/// Adaptive tile width for a row sweep over rows of `row_points` elements:
/// 0 (untiled — one long unit-stride run per row) while the per-row stream
/// set fits in L2, else an L1-sized tile from default_tile_j. Pass the
/// same bytes_per_point as default_tile_j (all streams read or written per
/// output element).
[[nodiscard]] constexpr std::ptrdiff_t auto_tile_j(
    std::size_t bytes_per_point, std::ptrdiff_t row_points) noexcept {
  const std::size_t row_bytes =
      bytes_per_point * static_cast<std::size_t>(row_points > 0 ? row_points : 0);
  return row_bytes <= kL2SweepBytes ? 0 : default_tile_j(bytes_per_point);
}

/// Row-segment driver: body(i, j0, j1) once per row, same traversal order
/// as for_region(r, per-point f).
template <typename RowFn>
void sweep_rows(Region2 r, RowFn&& body) {
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) body(i, r.j0, r.j1);
}

/// Column-blocked row-segment driver: j-tiles outer, rows inner. Keeps a
/// stencil's input-row working set (one tile wide) resident in L1 across
/// the whole i sweep. Only the compute *schedule* changes — each output
/// element sees the same expression, so stencil results are bitwise equal
/// to sweep_rows as long as outputs don't feed later inputs (guaranteed by
/// the archetype's disjoint in/out rule). Do not use for ordered
/// reductions.
template <typename RowFn>
void sweep_rows_tiled(Region2 r, std::ptrdiff_t tile_j, RowFn&& body) {
  if (tile_j <= 0) tile_j = r.j1 - r.j0;
  for (std::ptrdiff_t jt = r.j0; jt < r.j1; jt += tile_j) {
    const std::ptrdiff_t je = std::min(jt + tile_j, r.j1);
    for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) body(i, jt, je);
  }
}

/// Rim driver: body(i, j0, j1) per contiguous row segment of r minus core,
/// same element order as for_rim(r, core, per-point f).
template <typename RowFn>
void sweep_rim_rows(Region2 r, Region2 core, RowFn&& body) {
  if (core.empty()) {
    sweep_rows(r, body);
    return;
  }
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
    if (i < core.i0 || i >= core.i1) {
      body(i, r.j0, r.j1);
    } else {
      if (r.j0 < core.j0) body(i, r.j0, core.j0);
      if (core.j1 < r.j1) body(i, core.j1, r.j1);
    }
  }
}

/// Pencil-segment driver: body(i, j, k0, k1) once per z-pencil, same order
/// as for_region(Region3, per-point f).
template <typename PencilFn>
void sweep_pencils(Region3 r, PencilFn&& body) {
  for (std::ptrdiff_t i = r.i0; i < r.i1; ++i)
    for (std::ptrdiff_t j = r.j0; j < r.j1; ++j) body(i, j, r.k0, r.k1);
}

// ------------------------------------------------- shared row kernels --

/// One row of the 5-point Jacobi update:
///   out[j] = (um[j] + up[j] + uc[j-1] + uc[j+1] - h2*f[j]) * 0.25
/// um/uc/up are the i-1/i/i+1 rows of the input grid; identical expression
/// and operand order to the poisson app's per-point legacy path.
template <typename T>
inline void jacobi_row(T* PPA_RESTRICT out, const T* PPA_RESTRICT um,
                       const T* PPA_RESTRICT uc, const T* PPA_RESTRICT up,
                       const T* PPA_RESTRICT f, T h2, std::ptrdiff_t j0,
                       std::ptrdiff_t j1) {
  for (std::ptrdiff_t j = j0; j < j1; ++j) {
    out[j] = (um[j] + up[j] + uc[j - 1] + uc[j + 1] - h2 * f[j]) *
             static_cast<T>(0.25);
  }
}

/// Whole-region Jacobi sweep over field views (row-at-a-time).
template <typename T>
void jacobi_sweep(FieldView2D<T> out, FieldView2D<const T> in,
                  FieldView2D<const T> f, T h2, Region2 r) {
  sweep_rows(r, [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
    jacobi_row(out.row(i), in.row(i - 1), in.row(i), in.row(i + 1), f.row(i),
               h2, j0, j1);
  });
}

/// Column-blocked Jacobi sweep; bitwise-identical outputs to jacobi_sweep.
template <typename T>
void jacobi_sweep_tiled(FieldView2D<T> out, FieldView2D<const T> in,
                        FieldView2D<const T> f, T h2, Region2 r,
                        std::ptrdiff_t tile_j = default_tile_j(5 * sizeof(T))) {
  sweep_rows_tiled(
      r, tile_j, [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
        jacobi_row(out.row(i), in.row(i - 1), in.row(i), in.row(i + 1),
                   f.row(i), h2, j0, j1);
      });
}

/// Strict forward-order running max of |a[j] - b[j]| — same reduction
/// order as the legacy per-point diffmax loop.
template <typename T>
[[nodiscard]] inline T absdiff_max_row(const T* PPA_RESTRICT a,
                                       const T* PPA_RESTRICT b,
                                       std::ptrdiff_t j0, std::ptrdiff_t j1,
                                       T running) {
  for (std::ptrdiff_t j = j0; j < j1; ++j) {
    running = std::max(running, std::abs(a[j] - b[j]));
  }
  return running;
}

/// Fused jacobi_row + absdiff_max_row(out, uc, j0, j1, running): writes the
/// row and returns the running max of |out[j] - uc[j]|, in one pass. The
/// max is kept in 4 independent lanes (each `m = m < d ? d : m`, the
/// std::max(m, d) rule) so no iteration waits on the previous compare; the
/// lanes are combined by the same rule. Bitwise equal to the two-pass form:
/// d = |..| is never -0.0, a NaN d loses every compare in every lane, and
/// over the remaining values the max is one value whatever the order — the
/// only equal-comparing distinct bits are ±0, and -0.0 can only come from
/// `running`, which every lane starts from and keeps on ties.
template <typename T>
[[nodiscard]] inline T jacobi_row_maxdiff(
    T* PPA_RESTRICT out, const T* PPA_RESTRICT um, const T* PPA_RESTRICT uc,
    const T* PPA_RESTRICT up, const T* PPA_RESTRICT f, T h2,
    std::ptrdiff_t j0, std::ptrdiff_t j1, T running) {
  constexpr int kLanes = 4;
  const auto stencil = [&](std::ptrdiff_t j) {
    return (um[j] + up[j] + uc[j - 1] + uc[j + 1] - h2 * f[j]) *
           static_cast<T>(0.25);
  };
  T m[kLanes] = {running, running, running, running};
  const std::ptrdiff_t n = j1 > j0 ? j1 - j0 : 0;
  const std::ptrdiff_t j_tail = j0 + n - n % kLanes;
  for (std::ptrdiff_t j = j0; j < j_tail; j += kLanes) {
    // One short loop per step so the compiler vectorizes the stencil, the
    // store and the |new - old|; only the lane max stays scalar.
    T v[kLanes];
    T d[kLanes];
    for (int l = 0; l < kLanes; ++l) v[l] = stencil(j + l);
    for (int l = 0; l < kLanes; ++l) out[j + l] = v[l];
    for (int l = 0; l < kLanes; ++l) d[l] = std::abs(v[l] - uc[j + l]);
    for (int l = 0; l < kLanes; ++l) m[l] = m[l] < d[l] ? d[l] : m[l];
  }
  for (std::ptrdiff_t j = j_tail; j < j1; ++j) {
    const T v = stencil(j);
    out[j] = v;
    const T d = std::abs(v - uc[j]);
    m[0] = m[0] < d ? d : m[0];
  }
  for (int l = 1; l < kLanes; ++l) m[0] = m[0] < m[l] ? m[l] : m[0];
  return m[0];
}

/// Contiguous row-segment copy.
template <typename T>
inline void copy_row(T* PPA_RESTRICT dst, const T* PPA_RESTRICT src,
                     std::ptrdiff_t j0, std::ptrdiff_t j1) {
  std::copy(src + j0, src + j1, dst + j0);
}

}  // namespace kern
}  // namespace ppa::mesh
