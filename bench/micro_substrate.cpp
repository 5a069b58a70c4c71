// Micro-benchmarks of the sequential substrate algorithms (per-element
// costs that calibrate the performance model's elem_op-derived constants:
// sorting, k-way merge, FFT butterflies, stencil sweeps, skyline merge)
// plus mailbox-level primitives (push/pop throughput, multi-sender
// contention, wildcard receive) and two-rank SPMD rounds that send both
// ways at once (exchange, allreduce). Self-contained harness; emits JSON to
// BENCH_micro_substrate.json.
#include <complex>
#include <span>
#include <thread>
#include <vector>

#include "algorithms/fft.hpp"
#include "algorithms/skyline.hpp"
#include "algorithms/sorting.hpp"
#include "microbench.hpp"
#include "mpl/mailbox.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"
#include "support/rng.hpp"

namespace {

using namespace ppa;
using microbench::Reporter;
using microbench::Result;
using microbench::time_best_of;

void add_items_result(Reporter& rep, const char* name, double items, double sec,
                      double n) {
  Result r{name, {}};
  r.set("n", n);  // problem-size parameter (elements, k, grid dim) — not bytes
  r.set("seconds_per_op", sec);
  r.set("items_per_s", items / sec);
  rep.add(std::move(r));
}

void bench_sorts(Reporter& rep) {
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 16}) {
    const auto data = random_ints(n, -1000000, 1000000, 17);
    const double sec_merge = time_best_of(5, [&] {
      auto xs = data;
      algo::merge_sort(xs);
    });
    add_items_result(rep, "merge_sort", static_cast<double>(n), sec_merge,
                     static_cast<double>(n));
    const double sec_quick = time_best_of(5, [&] {
      auto xs = data;
      algo::quick_sort(std::span<int>(xs));
    });
    add_items_result(rep, "quick_sort", static_cast<double>(n), sec_quick,
                     static_cast<double>(n));
  }
}

void bench_kway_merge(Reporter& rep) {
  for (const int k : {2, 8, 32}) {
    std::vector<std::vector<int>> runs(static_cast<std::size_t>(k));
    for (int r = 0; r < k; ++r) {
      runs[static_cast<std::size_t>(r)] =
          random_ints(1 << 12, -1000000, 1000000, 23 + static_cast<std::uint64_t>(r));
      std::sort(runs[static_cast<std::size_t>(r)].begin(),
                runs[static_cast<std::size_t>(r)].end());
    }
    const double sec = time_best_of(5, [&] { (void)algo::kway_merge(runs); });
    add_items_result(rep, "kway_merge", static_cast<double>(k) * (1 << 12), sec,
                     static_cast<double>(k));
  }
}

void bench_fft(Reporter& rep) {
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 14}) {
    std::vector<algo::Complex> signal(n);
    Rng rng(29);
    for (auto& v : signal) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const double sec = time_best_of(5, [&] {
      auto xs = signal;
      algo::fft(std::span<algo::Complex>(xs));
    });
    add_items_result(rep, "fft", static_cast<double>(n), sec,
                     static_cast<double>(n));
  }
}

void bench_jacobi(Reporter& rep) {
  for (const std::size_t n : {std::size_t{128}, std::size_t{512}}) {
    Array2D<double> u(n, n, 1.0), v(n, n, 0.0);
    const double sec = time_best_of(5, [&] {
      for (std::size_t i = 1; i + 1 < n; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) {
          v(i, j) = 0.25 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1));
        }
      }
      std::swap(u, v);
    });
    add_items_result(rep, "jacobi_sweep",
                     static_cast<double>((n - 2) * (n - 2)), sec,
                     static_cast<double>(n));
  }
}

void bench_skyline(Reporter& rep) {
  for (const std::size_t n : {std::size_t{256}, std::size_t{4096}}) {
    Rng rng(31);
    std::vector<algo::Building> bs;
    for (std::size_t i = 0; i < n; ++i) {
      const double l = rng.uniform(0.0, 1000.0);
      bs.push_back({l, l + rng.uniform(0.5, 30.0), rng.uniform(1.0, 50.0)});
    }
    const double sec = time_best_of(5, [&] {
      (void)algo::skyline_divide_and_conquer(std::span<const algo::Building>(bs));
    });
    add_items_result(rep, "skyline_merge", static_cast<double>(n), sec,
                     static_cast<double>(n));
  }
}

// ----------------------------------------------------- mailbox primitives --

/// Uncontended push+pop pairs through one lane (the exact-match fast path).
void bench_mailbox_throughput(Reporter& rep) {
  using namespace ppa::mpl;
  const int msgs = microbench::smoke_mode() ? 10000 : 100000;
  Mailbox box(1);
  const int value = 42;
  const double sec = time_best_of(5, [&] {
    for (int i = 0; i < msgs; ++i) {
      box.push(Envelope{0, 0, pack_payload(std::span<const int>(&value, 1))});
      Envelope env;
      (void)box.try_pop(0, 0, env);
    }
  });
  Result r{"mailbox_push_pop", {}};
  r.set("seconds_per_op", sec / msgs);
  r.set("items_per_s", msgs / sec);
  rep.add(std::move(r));
}

/// Several senders streaming into one mailbox, each on its own lane; the
/// consumer drains them round-robin. Lanes remove sender-sender contention.
void bench_mailbox_contention(Reporter& rep) {
  using namespace ppa::mpl;
  const int per_sender = microbench::smoke_mode() ? 5000 : 50000;
  for (const int senders : {1, 2, 4, 8}) {
    Mailbox box(senders);
    const double sec = time_best_of(3, [&] {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(senders));
      for (int s = 0; s < senders; ++s) {
        threads.emplace_back([&box, s, per_sender] {
          const int v = s;
          for (int i = 0; i < per_sender; ++i) {
            box.push(Envelope{s, 0, pack_payload(std::span<const int>(&v, 1))});
          }
        });
      }
      for (int i = 0; i < per_sender; ++i) {
        for (int s = 0; s < senders; ++s) (void)box.pop(s, 0);
      }
      for (auto& t : threads) t.join();
    });
    Result r{"mailbox_multi_sender", {}};
    r.set("p", senders);
    r.set("seconds_per_op", sec / (static_cast<double>(per_sender) * senders));
    r.set("items_per_s", static_cast<double>(per_sender) * senders / sec);
    rep.add(std::move(r));
  }
}

/// Wildcard (kAnySource) receive across several populated lanes.
void bench_mailbox_wildcard(Reporter& rep) {
  using namespace ppa::mpl;
  const int msgs = microbench::smoke_mode() ? 10000 : 50000;
  const int sources = 8;
  Mailbox box(sources);
  const double sec = time_best_of(3, [&] {
    const int v = 1;
    for (int i = 0; i < msgs; ++i) {
      box.push(Envelope{i % sources, 0, pack_payload(std::span<const int>(&v, 1))});
    }
    for (int i = 0; i < msgs; ++i) (void)box.pop(kAnySource, 0);
  });
  Result r{"mailbox_wildcard_pop", {}};
  r.set("p", sources);
  r.set("seconds_per_op", sec / msgs);
  r.set("items_per_s", msgs / sec);
  rep.add(std::move(r));
}

/// Two ranks that send at the same time, as a halo exchange or an allreduce
/// does: each round both ranks send one double and then receive the other's
/// (`exchange_np2`), or both enter one allreduce (`allreduce_np2`). Unlike a
/// ping-pong, both ranks count into the job's trace and hand off through
/// their mailboxes at once, so state the ranks share shows up here.
void bench_spmd_np2(Reporter& rep) {
  using namespace ppa::mpl;
  const int rounds = microbench::smoke_mode() ? 5000 : 50000;
  const auto run = [&](const char* name, auto round) {
    const double sec = time_best_of(5, [&] {
      spmd_run(2, [&](Process& p) {
        for (int i = 0; i < rounds; ++i) round(p, i);
      });
    });
    Result r{name, {}};
    r.set("p", 2);
    r.set("seconds_per_op", sec / rounds);
    r.set("items_per_s", rounds / sec);
    rep.add(std::move(r));
  };
  run("exchange_np2", [](Process& p, int i) {
    const int peer = 1 - p.rank();
    p.send_value(peer, 0, static_cast<double>(i));
    (void)p.recv_value<double>(peer, 0);
  });
  run("allreduce_np2", [](Process& p, int i) {
    (void)p.allreduce(static_cast<double>(i), SumOp{});
  });
}

}  // namespace

int main() {
  Reporter rep("micro_substrate");
  bench_mailbox_throughput(rep);
  bench_mailbox_contention(rep);
  bench_mailbox_wildcard(rep);
  bench_spmd_np2(rep);
  bench_sorts(rep);
  bench_kway_merge(rep);
  bench_fft(rep);
  bench_jacobi(rep);
  bench_skyline(rep);
  return rep.write_json("BENCH_micro_substrate.json") ? 0 : 1;
}
