// bench/async_dc.hpp
//
// The legacy thread-per-fork divide-and-conquer driver: the paper's Fig 1
// process tree taken literally, one std::async thread per fork. The library
// forks onto the work-stealing pool instead (dc::divide_and_conquer,
// core/traditional_dc.hpp); this driver is the measured baseline for that
// pool in bench/fig06_mergesort.cpp and bench/ablation_taskdc.cpp, and
// tests/test_task.cpp pins that it matches the pool driver.
//
// Live forks are capped at the hardware concurrency, so a k-way split at
// depth d no longer creates up to k^d threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "apps/sort/traditional_mergesort.hpp"
#include "core/traditional_dc.hpp"

namespace ppa::dc {

namespace detail {

/// Live std::async forks across every divide_and_conquer_async call in the
/// process; the cap keeps a k-way, depth-d recursion from creating k^d
/// threads.
inline std::atomic<int>& live_async_forks() {
  static std::atomic<int> count{0};
  return count;
}

[[nodiscard]] inline int async_fork_cap() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 2 : static_cast<int>(hc);
}

/// Claim one fork slot if the cap allows; the caller must release it (by
/// decrementing live_async_forks) when the forked thread finishes.
[[nodiscard]] inline bool try_claim_async_fork() {
  auto& live = live_async_forks();
  int current = live.load(std::memory_order_relaxed);
  const int cap = async_fork_cap();
  while (current < cap) {
    if (live.compare_exchange_weak(current, current + 1,
                                   std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

}  // namespace detail

/// Thread-per-fork driver with dc::divide_and_conquer's slots and recursion
/// shape (so identical results for deterministic specs). Each fork that fits
/// under the live-fork cap becomes a std::async thread; forks beyond the cap
/// are solved inline on the forking thread instead, so the process never
/// holds more live fork threads than hardware threads.
template <typename Problem, typename Solution, typename IsBase, typename Base,
          typename Split, typename Merge>
Solution divide_and_conquer_async(Problem problem, const IsBase& is_base,
                                  const Base& base, const Split& split,
                                  const Merge& merge, int parallel_depth = 0) {
  if (is_base(problem)) return base(std::move(problem));

  std::vector<Problem> subproblems = split(std::move(problem));
  std::vector<Solution> subsolutions(subproblems.size());

  if (parallel_depth > 0 && subproblems.size() > 1) {
    // Fork what the cap allows; solve the rest (and the first) inline.
    std::vector<std::pair<std::size_t, std::future<Solution>>> futures;
    futures.reserve(subproblems.size() - 1);
    for (std::size_t i = 1; i < subproblems.size(); ++i) {
      if (detail::try_claim_async_fork()) {
        try {
          futures.emplace_back(
              i, std::async(
                     std::launch::async,
                     [&is_base, &base, &split, &merge, parallel_depth](Problem sub) {
                       struct ReleaseSlot {
                         ~ReleaseSlot() {
                           detail::live_async_forks().fetch_sub(
                               1, std::memory_order_acq_rel);
                         }
                       } release;
                       return divide_and_conquer_async<Problem, Solution>(
                           std::move(sub), is_base, base, split, merge,
                           parallel_depth - 1);
                     },
                     std::move(subproblems[i])));
        } catch (...) {
          // Thread creation failed (the exact condition the cap guards
          // against): release the claimed slot, then surface the error.
          detail::live_async_forks().fetch_sub(1, std::memory_order_acq_rel);
          throw;
        }
      } else {
        subsolutions[i] = divide_and_conquer_async<Problem, Solution>(
            std::move(subproblems[i]), is_base, base, split, merge,
            parallel_depth - 1);
      }
    }
    subsolutions[0] = divide_and_conquer_async<Problem, Solution>(
        std::move(subproblems[0]), is_base, base, split, merge,
        parallel_depth - 1);
    for (auto& [i, future] : futures) subsolutions[i] = future.get();
  } else {
    for (std::size_t i = 0; i < subproblems.size(); ++i) {
      subsolutions[i] = divide_and_conquer_async<Problem, Solution>(
          std::move(subproblems[i]), is_base, base, split, merge, 0);
    }
  }
  return merge(std::move(subsolutions));
}

}  // namespace ppa::dc

namespace ppa::app {

/// app::traditional_mergesort on the thread-per-fork driver.
template <typename T, typename Compare = std::less<T>>
std::vector<T> traditional_mergesort_async(std::vector<T> data, int nprocs,
                                           Compare cmp = {}) {
  if (data.size() <= 1) return data;
  const int depth = dc::fork_depth_for(nprocs);
  const detail::MergesortSpec<T, Compare> spec{
      std::max<std::size_t>(1, data.size() >> static_cast<unsigned>(depth)), cmp};
  return dc::divide_and_conquer_async<std::vector<T>, std::vector<T>>(
      std::move(data),
      [&spec](const std::vector<T>& p) { return spec.is_base(p); },
      [&spec](std::vector<T> p) { return spec.base(std::move(p)); },
      [&spec](std::vector<T> p) { return spec.split(std::move(p)); },
      [&spec](std::vector<std::vector<T>> s) { return spec.merge(std::move(s)); },
      depth);
}

}  // namespace ppa::app
