// ppa/algorithms/sorting.hpp
//
// Sequential sorting substrate for the one-deep divide-and-conquer
// applications: classic mergesort and quicksort (the paper's running
// examples), two-way and k-way merges, and splitter selection by regular
// sampling (the paper's "parameters for the split are computed using a small
// sample of the problem data"; cf. Shi & Schaeffer, the paper's ref [35]).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "support/partition.hpp"

namespace ppa::algo {

/// Insertion sort — the base case for small subarrays.
template <typename T, typename Compare = std::less<T>>
void insertion_sort(std::span<T> xs, Compare cmp = {}) {
  for (std::size_t i = 1; i < xs.size(); ++i) {
    T key = std::move(xs[i]);
    std::size_t j = i;
    while (j > 0 && cmp(key, xs[j - 1])) {
      xs[j] = std::move(xs[j - 1]);
      --j;
    }
    xs[j] = std::move(key);
  }
}

namespace detail {

/// Runs at most this long are insertion-sorted by merge_sort.
inline constexpr std::size_t kMergeSortBase = 24;

/// Stable merge of sorted [a, a + na) and [b, b + nb) into out[0, na + nb):
/// on ties the element of `a` goes first.
template <typename T, typename Compare>
void merge_into(const T* a, std::size_t na, const T* b, std::size_t nb, T* out,
                Compare& cmp) {
  const T* const a_end = a + na;
  const T* const b_end = b + nb;
  while (a != a_end && b != b_end) {
    // Select rather than branch: on unsorted input the outcome is a coin
    // flip, and a mispredicted branch costs more than the copy.
    const bool take_b = cmp(*b, *a);
    *out++ = take_b ? *b : *a;
    b += take_b;
    a += !take_b;
  }
  out = std::copy(a, a_end, out);
  std::copy(b, b_end, out);
}

/// Top-down ping-pong mergesort step. On entry src[0, n) and dst[0, n) hold
/// the same elements; on exit dst[0, n) holds them stably sorted and src is
/// scratch. Each level sorts its halves into src, then merges them back into
/// dst, so the whole sort uses one scratch buffer.
template <typename T, typename Compare>
void merge_sort_into(T* src, T* dst, std::size_t n, Compare& cmp) {
  if (n <= kMergeSortBase) {
    insertion_sort(std::span<T>(dst, n), cmp);
    return;
  }
  const std::size_t mid = n / 2;
  merge_sort_into(dst, src, mid, cmp);
  merge_sort_into(dst + mid, src + mid, n - mid, cmp);
  merge_into<T>(src, mid, src + mid, n - mid, dst, cmp);
}

}  // namespace detail

/// Stable two-way merge of sorted ranges a and b into `out` (appended).
template <typename T, typename Compare = std::less<T>>
void merge_two(std::span<const T> a, std::span<const T> b, std::vector<T>& out,
               Compare cmp = {}) {
  const std::size_t base = out.size();
  out.resize(base + a.size() + b.size());
  detail::merge_into<T>(a.data(), a.size(), b.data(), b.size(),
                        out.data() + base, cmp);
}

/// Classic top-down sequential mergesort (the paper's section 3.5.1
/// sequential algorithm); stable. Splits at the midpoint down to runs of 24,
/// which are insertion-sorted, and merges back up through one scratch copy
/// of `xs` (the only allocation).
template <typename T, typename Compare = std::less<T>>
void merge_sort(std::vector<T>& xs, Compare cmp = {}) {
  if (xs.size() <= detail::kMergeSortBase) {
    insertion_sort(std::span<T>(xs), cmp);
    return;
  }
  std::vector<T> scratch(xs);
  detail::merge_sort_into(scratch.data(), xs.data(), xs.size(), cmp);
}

/// Sequential quicksort with median-of-three pivoting (the paper's section
/// 3.6.2 sequential algorithm).
template <typename T, typename Compare = std::less<T>>
void quick_sort(std::span<T> xs, Compare cmp = {}) {
  while (xs.size() > 24) {
    // Median-of-three pivot selection.
    const std::size_t n = xs.size();
    std::size_t mid = n / 2;
    if (cmp(xs[mid], xs[0])) std::swap(xs[0], xs[mid]);
    if (cmp(xs[n - 1], xs[0])) std::swap(xs[0], xs[n - 1]);
    if (cmp(xs[n - 1], xs[mid])) std::swap(xs[mid], xs[n - 1]);
    const T pivot = xs[mid];
    std::size_t i = 0, j = n - 1;
    while (true) {
      while (cmp(xs[i], pivot)) ++i;
      while (cmp(pivot, xs[j])) --j;
      if (i >= j) break;
      std::swap(xs[i], xs[j]);
      ++i;
      --j;
    }
    // Recurse into the smaller side, loop on the larger (O(log n) stack).
    const std::size_t split = j + 1;
    if (split < n - split) {
      quick_sort(xs.subspan(0, split), cmp);
      xs = xs.subspan(split);
    } else {
      quick_sort(xs.subspan(split), cmp);
      xs = xs.subspan(0, split);
    }
  }
  insertion_sort(xs, cmp);
}

/// K-way merge of sorted runs (stable across run order) — the local merge of
/// the one-deep mergesort's merge phase. A loser tree over the run heads:
/// each output element costs one root-to-leaf replay of ceil(log2 k)
/// compares, and equal heads go to the lower run index first.
template <typename T, typename Compare = std::less<T>>
std::vector<T> kway_merge(const std::vector<std::vector<T>>& runs, Compare cmp = {}) {
  const std::size_t k = runs.size();
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  std::vector<T> out(total);
  if (total == 0) return out;

  // Leaves are padded to a power of two with empty runs.
  std::size_t leaves = 1;
  while (leaves < k) leaves <<= 1;
  std::vector<const T*> head(leaves, nullptr), end(leaves, nullptr);
  for (std::size_t r = 0; r < k; ++r) {
    head[r] = runs[r].data();
    end[r] = runs[r].data() + runs[r].size();
  }
  // Does leaf a's head come out before leaf b's? Exhausted leaves never do;
  // on equal keys the lower leaf (run) index goes first.
  const auto before = [&](std::size_t a, std::size_t b) {
    if (head[a] == end[a]) return false;
    if (head[b] == end[b]) return true;
    return a < b ? !cmp(*head[b], *head[a]) : cmp(*head[a], *head[b]);
  };

  // loser[v] for internal node v in [1, leaves) holds the leaf that lost the
  // match at v; build bottom-up from each subtree's winner.
  std::vector<std::size_t> loser(leaves), winner(2 * leaves);
  for (std::size_t l = 0; l < leaves; ++l) winner[leaves + l] = l;
  for (std::size_t v = leaves - 1; v >= 1; --v) {
    const std::size_t a = winner[2 * v];
    const std::size_t b = winner[2 * v + 1];
    const bool a_wins = before(a, b);
    winner[v] = a_wins ? a : b;
    loser[v] = a_wins ? b : a;
  }
  std::size_t w = winner[1];
  for (T& slot : out) {
    slot = *head[w]++;
    // Replay the matches on the path from w's leaf to the root.
    for (std::size_t v = (leaves + w) / 2; v >= 1; v /= 2) {
      const std::size_t l = loser[v];
      const bool l_wins = before(l, w);
      loser[v] = l_wins ? w : l;
      w = l_wins ? l : w;
    }
  }
  return out;
}

/// Evenly sample `count` elements from a *sorted* local run (regular
/// sampling). Returns fewer if the run is smaller than `count`.
template <typename T>
std::vector<T> regular_sample(std::span<const T> sorted_run, std::size_t count) {
  std::vector<T> sample;
  if (sorted_run.empty() || count == 0) return sample;
  sample.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    // Positions at (k+1)/(count+1) through the run — interior quantiles.
    const std::size_t idx = (k + 1) * sorted_run.size() / (count + 1);
    sample.push_back(sorted_run[std::min(idx, sorted_run.size() - 1)]);
  }
  return sample;
}

/// Choose nparts-1 splitters from gathered samples: sort the samples and take
/// every (samples/nparts)-th. Splitter q marks the lower bound of part q+1.
template <typename T, typename Compare = std::less<T>>
std::vector<T> choose_splitters(std::vector<T> samples, int nparts, Compare cmp = {}) {
  std::sort(samples.begin(), samples.end(), cmp);
  std::vector<T> splitters;
  splitters.reserve(static_cast<std::size_t>(nparts > 0 ? nparts - 1 : 0));
  for (int q = 1; q < nparts; ++q) {
    if (samples.empty()) break;
    const std::size_t idx = block_range(samples.size(),
                                        static_cast<std::size_t>(nparts),
                                        static_cast<std::size_t>(q))
                                .lo;
    splitters.push_back(samples[std::min(idx, samples.size() - 1)]);
  }
  return splitters;
}

/// Partition a *sorted* run into nparts sorted sublists by splitters:
/// part q gets values v with  splitters[q-1] <= v < splitters[q]
/// (paper: "elements with values at most s_i belong to the i-th list").
template <typename T, typename Compare = std::less<T>>
std::vector<std::vector<T>> split_by_splitters(std::vector<T> sorted_run,
                                               const std::vector<T>& splitters,
                                               int nparts, Compare cmp = {}) {
  assert(static_cast<int>(splitters.size()) == nparts - 1 || sorted_run.empty() ||
         splitters.empty());
  std::vector<std::vector<T>> parts(static_cast<std::size_t>(nparts));
  std::size_t begin = 0;
  for (int q = 0; q < nparts; ++q) {
    std::size_t end = sorted_run.size();
    if (q < static_cast<int>(splitters.size())) {
      const auto it = std::lower_bound(
          sorted_run.begin() + static_cast<std::ptrdiff_t>(begin), sorted_run.end(),
          splitters[static_cast<std::size_t>(q)], cmp);
      end = static_cast<std::size_t>(it - sorted_run.begin());
    }
    parts[static_cast<std::size_t>(q)].assign(
        sorted_run.begin() + static_cast<std::ptrdiff_t>(begin),
        sorted_run.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  return parts;
}

}  // namespace ppa::algo
