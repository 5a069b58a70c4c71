// Tests for the typed composition layer (core/compose.hpp): driver
// equivalence of composed graphs (sequential vs threaded vs scheduler-
// backed) including hosted SPMD stages at np in {1,2,4,8}, ordered and
// unordered farms hosting engine jobs, shape rejection with typed
// GraphShapeError at graph-build time, graph-anchored deadline plumbing
// (JobOptions::anchor), failure isolation — a failing hosted job fails
// only its graph run, never the scheduler serving it — and seeded property
// tests of the combinator laws on every driver.
//
// PPA_COMPOSE_SMOKE=1 (the TSan CI leg) shrinks the battery: np in {1,2},
// fewer stream items and fewer law cases, same assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "core/compose.hpp"
#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "support/ndarray.hpp"

namespace {

using namespace ppa;
using algo::Complex;

bool smoke_mode() {
  const char* v = std::getenv("PPA_COMPOSE_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<int> battery_nps() {
  if (smoke_mode()) return {1, 2};
  return {1, 2, 4, 8};
}

long battery_items() { return smoke_mode() ? 2 : 3; }

/// A counting source: emits 0..n-1.
auto counting_source(long n) {
  long next = 0;
  return compose::source([next, n]() mutable -> std::optional<long> {
    return next < n ? std::optional<long>(next++) : std::nullopt;
  });
}

std::shared_ptr<mpl::Scheduler> make_scheduler(int width) {
  return std::make_shared<mpl::Scheduler>(std::make_shared<mpl::Engine>(width));
}

// ---------------------------------------------------------- plain graphs --

TEST(Compose, PlainGraphMatchesPipelineSemantics) {
  const auto make = [](std::vector<long>& out) {
    return counting_source(200) |
           compose::stage([](long v) { return v * 3; }) |
           compose::farm(3, [] { return [](long v) { return v + 1; }; },
                         compose::ordered) |
           compose::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out;
  auto g1 = make(seq_out);
  g1.run_sequential();
  auto g2 = make(thr_out);
  compose::Config cfg;
  cfg.queue_capacity = 16;
  cfg.batch = 4;
  (void)g2.run_threaded(cfg);
  ASSERT_EQ(seq_out.size(), 200u);
  EXPECT_EQ(thr_out, seq_out);
}

TEST(Compose, SourceDirectlyIntoSink) {
  long sum = 0;
  auto g = counting_source(100) | compose::sink([&sum](long v) { sum += v; });
  g.run_sequential();
  EXPECT_EQ(sum, 4950);
}

TEST(Compose, NodeMetadataAndLabels) {
  auto g = counting_source(1) |
           compose::stage([](long v) { return v; }) |
           compose::engine_job(4, [](mpl::Process&, const long& v) { return v; }) |
           compose::engine_farm(3, 2,
                                [](mpl::Process&, const long& v) { return v; },
                                compose::unordered) |
           compose::sink([](long) {});
  const auto& meta = g.node_meta();
  ASSERT_EQ(meta.size(), 5u);
  EXPECT_EQ(g.hosted_width(), 4);
  EXPECT_EQ(meta[2].hosted_np, 4);
  EXPECT_EQ(meta[3].hosted_np, 2);
  EXPECT_EQ(meta[3].replicas, 3);
  EXPECT_EQ(g.node_label(0), "source");
  EXPECT_EQ(g.node_label(1), "stage#1");
  EXPECT_EQ(g.node_label(2), "hosted#2 (np=4)");
  EXPECT_EQ(g.node_label(3), "hosted-farm#3 (unordered, np=2)");
  EXPECT_EQ(g.node_label(4), "sink");

  // Ordered farms, plain and hosted.
  auto ordered_graph =
      counting_source(1) |
      compose::farm(2, [] { return [](long v) { return v; }; }, compose::ordered) |
      compose::engine_farm(2, 3, [](mpl::Process&, const long& v) { return v; },
                           compose::ordered) |
      compose::sink([](long) {});
  EXPECT_EQ(ordered_graph.node_label(1), "farm#1 (ordered)");
  EXPECT_EQ(ordered_graph.node_label(2), "hosted-farm#2 (ordered, np=3)");
  EXPECT_EQ(ordered_graph.hosted_width(), 3);

  // The degenerate graph: two nodes, nothing hosted.
  auto degenerate = counting_source(1) | compose::sink([](long) {});
  EXPECT_EQ(degenerate.node_meta().size(), 2u);
  EXPECT_EQ(degenerate.hosted_width(), 0);
  EXPECT_EQ(degenerate.node_label(0), "source");
  EXPECT_EQ(degenerate.node_label(1), "sink");

  // An ordered hosted farm after an unordered farm is rejected at graph
  // build, under its hosted label.
  int caught = 0;
  try {
    auto bad = counting_source(1) |
               compose::farm(2, [] { return [](long v) { return v; }; },
                             compose::unordered) |
               compose::engine_farm(2, 2, [](mpl::Process&, const long& v) { return v; },
                                    compose::ordered) |
               compose::sink([](long) {});
    (void)bad;
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "hosted-farm#2 (ordered, np=2)");
    EXPECT_EQ(e.required(), 0);
    EXPECT_EQ(e.available(), 0);
  }
  EXPECT_EQ(caught, 1);
}

// --------------------------------------------------- hosted-stage drivers --

/// Hosted body: np-wide sum of (item + rank) via allreduce — exercises real
/// collective communication inside the hosted job; rank 0's return is the
/// closed form np*v + np*(np-1)/2.
long hosted_ranksum(mpl::Process& p, const long& v) {
  const long mine = v + p.rank();
  return p.allreduce(mine, [](long a, long b) { return a + b; });
}

TEST(Compose, HostedStageRunsNpWideOnEveryDriver) {
  for (const int np : battery_nps()) {
    const long n = 20;
    const auto expect_item = [np](long v) {
      return np * v + static_cast<long>(np) * (np - 1) / 2;
    };
    const auto make = [&](std::vector<long>& out) {
      return counting_source(n) | compose::engine_job(np, hosted_ranksum) |
             compose::sink([&out](long v) { out.push_back(v); });
    };
    std::vector<long> seq_out, thr_out, sched_out;
    auto g1 = make(seq_out);
    g1.run_sequential();
    auto g2 = make(thr_out);
    (void)g2.run_threaded();
    auto sched = make_scheduler(std::max(np, 2));
    auto g3 = make(sched_out);
    (void)g3.run_scheduler(*sched);
    ASSERT_EQ(seq_out.size(), static_cast<std::size_t>(n)) << "np=" << np;
    for (long v = 0; v < n; ++v) {
      EXPECT_EQ(seq_out[static_cast<std::size_t>(v)], expect_item(v));
    }
    EXPECT_EQ(thr_out, seq_out) << "np=" << np;
    EXPECT_EQ(sched_out, seq_out) << "np=" << np;
  }
}

TEST(Compose, OrderedEngineFarmKeepsSequenceEveryDriver) {
  const int np = smoke_mode() ? 2 : 3;
  const long n = 40;
  const auto make = [&](std::vector<long>& out) {
    return counting_source(n) |
           compose::engine_farm(3, np, hosted_ranksum, compose::ordered) |
           compose::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out, sched_out;
  auto g1 = make(seq_out);
  g1.run_sequential();
  auto g2 = make(thr_out);
  (void)g2.run_threaded();
  auto sched = make_scheduler(2 * np);  // two hosted jobs side by side
  auto g3 = make(sched_out);
  (void)g3.run_scheduler(*sched);
  ASSERT_EQ(seq_out.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(thr_out, seq_out);   // ordered farm: exact sequence match
  EXPECT_EQ(sched_out, seq_out);
}

TEST(Compose, UnorderedEngineFarmIsAPermutationEveryDriver) {
  const int np = 2;
  const long n = 30;
  const auto make = [&](std::vector<long>& out) {
    return counting_source(n) |
           compose::engine_farm(4, np, hosted_ranksum, compose::unordered) |
           compose::sink([&out](long v) { out.push_back(v); });
  };
  std::vector<long> seq_out, thr_out, sched_out;
  auto g1 = make(seq_out);
  g1.run_sequential();
  auto g2 = make(thr_out);
  (void)g2.run_threaded();
  auto sched = make_scheduler(4);
  auto g3 = make(sched_out);
  (void)g3.run_scheduler(*sched);
  std::sort(seq_out.begin(), seq_out.end());
  std::sort(thr_out.begin(), thr_out.end());
  std::sort(sched_out.begin(), sched_out.end());
  EXPECT_EQ(thr_out, seq_out);   // same multiset, any order
  EXPECT_EQ(sched_out, seq_out);
}

// ------------------------------------------- flagship: ingest→poisson→fft --

/// One ingest item of the flagship graph: a Poisson problem whose interior
/// (16x16, a power of two) is then spectrally analyzed. nx=ny=18 keeps the
/// solves fast while still exercising the real solver.
app::PoissonProblem flagship_problem(long idx) {
  app::PoissonProblem prob;
  prob.nx = 18;
  prob.ny = 18;
  prob.tolerance = 1e-3;
  const double a = 1.0 + 0.25 * static_cast<double>(idx);
  prob.f = [a](double x, double y) { return a * (x - y); };
  prob.g = [a](double x, double y) { return a * x * y; };
  return prob;
}

/// Interior of the converged field as a complex grid (fft-ready).
Array2D<Complex> interior_as_complex(const Array2D<double>& u) {
  Array2D<Complex> a(u.rows() - 2, u.cols() - 2);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = Complex(u(i + 1, j + 1), 0.0);
    }
  }
  return a;
}

/// The hand-wired sequential reference: poisson_v1 + fft2d_v1, no graph.
std::vector<Array2D<Complex>> flagship_reference(long items) {
  std::vector<Array2D<Complex>> out;
  for (long i = 0; i < items; ++i) {
    auto solved = app::poisson_v1(flagship_problem(i));
    auto spectrum = interior_as_complex(solved.u);
    app::fft2d_v1(spectrum, seq);
    out.push_back(std::move(spectrum));
  }
  return out;
}

TEST(Compose, FlagshipGraphMatchesHandWiredBitwiseOnEveryDriver) {
  // The acceptance bar: the composed ingest→poisson→fft graph produces
  // bitwise-identical results to the hand-wired sequential reference on
  // every driver and every hosted width. Both hosted solves are
  // np-invariant (pinned by the poisson/fft2d app tests), which is what
  // makes this equality exact rather than approximate.
  const long items = battery_items();
  const auto reference = flagship_reference(items);
  for (const int np : battery_nps()) {
    const auto make = [&](std::vector<Array2D<Complex>>& out) {
      return counting_source(items) |
             compose::stage(flagship_problem) |
             app::poisson_component(np) |
             compose::stage([](const app::PoissonResult& r) {
               return interior_as_complex(r.u);
             }) |
             app::fft2d_component(np) |
             compose::sink([&out](Array2D<Complex> s) {
               out.push_back(std::move(s));
             });
    };
    std::vector<Array2D<Complex>> seq_out, thr_out, sched_out;
    auto g1 = make(seq_out);
    g1.run_sequential();
    auto g2 = make(thr_out);
    (void)g2.run_threaded();
    auto sched = make_scheduler(std::max(np, 2));
    auto g3 = make(sched_out);
    (void)g3.run_scheduler(*sched);
    ASSERT_EQ(seq_out.size(), reference.size()) << "np=" << np;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(seq_out[i], reference[i]) << "np=" << np << " item " << i;
      EXPECT_EQ(thr_out[i], reference[i]) << "np=" << np << " item " << i;
      EXPECT_EQ(sched_out[i], reference[i]) << "np=" << np << " item " << i;
    }
  }
}

// --------------------------------------------------------- shape checking --

TEST(Compose, HostedNodeRejectsNonPositiveWidthAtCombinatorCall) {
  const auto body = [](mpl::Process&, const long& v) { return v; };
  try {
    (void)compose::engine_job(0, body);
    ADD_FAILURE() << "engine_job(0) must throw";
  } catch (const GraphShapeError& e) {
    EXPECT_EQ(e.required(), 1);
    EXPECT_EQ(e.available(), 0);
  }
  EXPECT_THROW((void)compose::engine_farm(2, -1, body, compose::unordered),
               GraphShapeError);
}

TEST(Compose, UnorderedIntoOrderedRejectedAtGraphBuild) {
  // Composed graphs enforce the farm-order contract at build time on every
  // driver (the SPMD pipeline driver would reject the same shape at run
  // time): the order an ordered farm would restore after an unordered one
  // is already the nondeterministic completion order.
  int caught = 0;
  try {
    auto g = counting_source(10) |
             compose::farm(2, [] { return [](long v) { return v; }; },
                           compose::unordered) |
             compose::farm(2, [] { return [](long v) { return v; }; },
                           compose::ordered) |
             compose::sink([](long) {});
    (void)g;
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "farm#2 (ordered)");
  }
  EXPECT_EQ(caught, 1);
}

TEST(Compose, OverWideHostedJobRejectedBeforeAnythingRuns) {
  long pulled = 0;
  auto g = compose::source([&pulled]() -> std::optional<long> {
             ++pulled;
             return std::nullopt;
           }) |
           compose::engine_job(16, hosted_ranksum) |
           compose::sink([](long) {});
  auto sched = make_scheduler(4);
  int caught = 0;
  try {
    (void)g.run_scheduler(*sched);
  } catch (const GraphShapeError& e) {
    ++caught;
    EXPECT_EQ(e.node(), "hosted#1 (np=16)");
    EXPECT_EQ(e.required(), 16);
    EXPECT_EQ(e.available(), 4);
  }
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(pulled, 0);  // rejected before the source was touched
  // The same graph still runs on the inline drivers (spmd_run hosts any
  // width cold) and on a wide-enough scheduler.
  g.run_sequential();
  EXPECT_EQ(pulled, 1);
}

// --------------------------------------------------- failure propagation --

TEST(Compose, FailingHostedJobFailsOnlyItsGraphRun) {
  auto sched = make_scheduler(4);
  const auto make_failing = [&]() {
    return counting_source(10) |
           compose::engine_job(2,
                               [](mpl::Process& p, const long& v) {
                                 if (v == 3 && p.rank() == 0) {
                                   throw std::runtime_error("hosted body failure");
                                 }
                                 return p.allreduce(
                                     v, [](long a, long b) { return a + b; });
                               }) |
           compose::sink([](long) {});
  };
  for (int round = 0; round < 2; ++round) {
    auto g = make_failing();
    int caught = 0;
    try {
      (void)g.run_scheduler(*sched);
    } catch (const std::runtime_error& e) {
      ++caught;
      EXPECT_STREQ(e.what(), "hosted body failure");
    }
    EXPECT_EQ(caught, 1) << "round " << round;
  }
  // The scheduler (and its engine) survived both failed graph runs: a
  // fresh graph and a plain job both complete.
  std::vector<long> out;
  auto ok = counting_source(5) | compose::engine_job(2, hosted_ranksum) |
            compose::sink([&out](long v) { out.push_back(v); });
  (void)ok.run_scheduler(*sched);
  EXPECT_EQ(out.size(), 5u);
  const auto stats = sched->stats();
  EXPECT_GT(stats.completed, 0u);
}

TEST(Compose, FailingHostedJobFailsInlineDriversToo) {
  const auto make = [] {
    return counting_source(10) |
           compose::engine_job(2,
                               [](mpl::Process& p, const long& v) {
                                 if (v == 4 && p.rank() == 1) {
                                   throw std::runtime_error("inline hosted failure");
                                 }
                                 return p.allreduce(
                                     v, [](long a, long b) { return a + b; });
                               }) |
           compose::sink([](long) {});
  };
  auto g1 = make();
  EXPECT_THROW(g1.run_sequential(), std::runtime_error);
  auto g2 = make();
  EXPECT_THROW((void)g2.run_threaded(), std::runtime_error);
}

// ------------------------------------------------------ deadline plumbing --

TEST(Compose, AnchoredDeadlinePlumbing) {
  // JobOptions::anchor moves the start of the deadline clock: an anchor
  // already past its budget must make submission throw JobDeadlineExceeded
  // without admitting (or running) the job — deterministically.
  auto sched = make_scheduler(2);
  bool ran = false;
  mpl::JobOptions options;
  options.deadline = std::chrono::milliseconds(500);
  options.anchor = std::chrono::steady_clock::now() - std::chrono::seconds(2);
  EXPECT_THROW(sched->run_job(
                   2, [&ran](mpl::Process&) { ran = true; },
                   mpl::Priority::kNormal, options),
               mpl::JobDeadlineExceeded);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sched->stats().expired_queued, 1u);
  // Default anchor ({}): the clock starts at submission, so the same
  // budget admits and completes a quick job.
  mpl::JobOptions fresh;
  fresh.deadline = std::chrono::seconds(30);
  (void)sched->run_job(2, [&ran](mpl::Process&) { ran = true; },
                       mpl::Priority::kNormal, fresh);
  EXPECT_TRUE(ran);
}

TEST(Compose, GraphDeadlineIsSharedAcrossHostedJobs) {
  // run_scheduler anchors the graph's JobOptions once at run start, so the
  // budget is shared across hosted jobs: each item's job sleeps well under
  // the 50ms budget (a per-submission clock would admit and finish every
  // one), but their sum overruns it, so a later job is torn down mid-run
  // or refused pre-admission — either way JobDeadlineExceeded.
  auto sched = make_scheduler(2);
  mpl::JobOptions options;
  options.deadline = std::chrono::milliseconds(50);
  auto g = counting_source(4) |
           compose::engine_job(2,
                               [](mpl::Process& p, const long& v) {
                                 if (p.rank() == 0) {
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(30));
                                 }
                                 p.barrier();
                                 return v;
                               }) |
           compose::sink([](long) {});
  EXPECT_THROW((void)g.run_scheduler(*sched, compose::Config{},
                                     mpl::Priority::kNormal, options),
               mpl::JobDeadlineExceeded);
}


// ------------------------------------------------------ composition laws --
//
// Seeded property tests for the combinator algebra ("Arrows for Parallel
// Computation", PAPERS.md): farm(1, f) == stage(f), an ordered farm of any
// width == its stage, stage(f) | stage(g) == stage(g . f), and an identity
// stage is neutral. One seed draws a chain of filtering affine stages and
// farms (widths 1-4), its stream, its queue/batch sizes and the idle ranks
// run_process gets. Both sides of a law run on run_sequential, run_threaded,
// run_process and the compose graph's run_scheduler, and every output must
// equal the plain fold of the chain's functions bit for bit. A failure names
// its law and seed.

using LawFn = std::function<std::optional<double>(double)>;

/// A farm's worker factory: one named type for ordered and unordered farms,
/// so a chain's C++ type depends only on which of its nodes are farms.
struct LawWorkers {
  LawFn fn;
  LawFn operator()() const { return fn; }
};

struct LawNode {
  bool farm = false;
  int width = 1;
  bool ordered = true;
  LawFn fn;
};
using LawChain = std::vector<LawNode>;

/// The longest chain a law builds. Every chain shape is its own C++ type,
/// so this bounds the instantiations (2^(n+1) - 1 of them) and the compile.
constexpr std::size_t kLawMaxNodes = 3;

struct LawCase {
  std::uint64_t seed = 0;
  LawChain chain;
  std::shared_ptr<const std::vector<double>> items;
  compose::Config cfg;
  int idle_ranks = 0;
};

/// v -> a*v + b, dropping results whose floor is a multiple of `drop`.
LawFn draw_law_fn(std::mt19937_64& rng) {
  const double a = std::uniform_real_distribution<double>(-2.0, 2.0)(rng);
  const double b = std::uniform_real_distribution<double>(-8.0, 8.0)(rng);
  const long drop = std::uniform_int_distribution<int>(0, 2)(rng) == 0
                        ? std::uniform_int_distribution<long>(3, 7)(rng)
                        : 0;
  return [a, b, drop](double v) -> std::optional<double> {
    const double r = a * v + b;
    if (drop > 0 && static_cast<long>(std::floor(r)) % drop == 0) return std::nullopt;
    return r;
  };
}

/// A chain that every driver accepts: farms wider than one are ordered, an
/// unordered farm has no ordered farm downstream, and a farm right after an
/// ordered farm has one replica (run_process's shape contract).
LawCase draw_law_case(std::uint64_t seed, std::size_t max_nodes) {
  std::mt19937_64 rng(seed);
  LawCase c;
  c.seed = seed;
  const std::size_t nodes = std::uniform_int_distribution<std::size_t>(1, max_nodes)(rng);
  for (std::size_t k = 0; k < nodes; ++k) {
    LawNode n;
    n.farm = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
    if (n.farm) {
      n.width = std::uniform_int_distribution<int>(1, 4)(rng);
      n.ordered = n.width > 1 || std::uniform_int_distribution<int>(0, 1)(rng) == 1;
    }
    n.fn = draw_law_fn(rng);
    c.chain.push_back(std::move(n));
  }
  bool ordered_downstream = false;
  for (std::size_t k = nodes; k-- > 0;) {
    LawNode& n = c.chain[k];
    if (!n.farm) continue;
    if (ordered_downstream) n.ordered = true;
    ordered_downstream = ordered_downstream || n.ordered;
    if (k > 0 && c.chain[k - 1].farm) n.width = 1;
  }
  std::vector<double> items(std::uniform_int_distribution<std::size_t>(0, 120)(rng));
  for (auto& v : items) v = std::uniform_real_distribution<double>(-100.0, 100.0)(rng);
  c.items = std::make_shared<const std::vector<double>>(std::move(items));
  c.cfg.queue_capacity = std::uniform_int_distribution<std::size_t>(1, 64)(rng);
  c.cfg.batch = std::uniform_int_distribution<std::size_t>(1, 16)(rng);
  c.idle_ranks = std::uniform_int_distribution<int>(0, 2)(rng);
  return c;
}

std::string describe(const LawChain& chain) {
  std::string s = "source";
  for (const auto& n : chain) {
    s += n.farm ? " | farm(" + std::to_string(n.width) +
                      (n.ordered ? ", ordered)" : ", unordered)")
                : std::string(" | stage");
  }
  return s + " | sink";
}

/// The chain's meaning: its functions folded over the stream.
std::vector<double> law_oracle(const LawCase& c) {
  std::vector<double> out;
  for (double v : *c.items) {
    std::optional<double> r = v;
    for (const auto& n : c.chain) {
      if (r) r = n.fn(*r);
    }
    if (r) out.push_back(*r);
  }
  return out;
}

/// Every farm replaced by the stage it replicates.
LawChain as_stages(LawChain chain) {
  for (auto& n : chain) n.farm = false;
  return chain;
}

/// One stage computing the whole chain.
LawChain fused(const LawChain& chain) {
  LawNode n;
  n.fn = [chain](double v) -> std::optional<double> {
    std::optional<double> r = v;
    for (const auto& m : chain) {
      if (r) r = m.fn(*r);
    }
    return r;
  };
  return {n};
}

constexpr const char* kLawDrivers[] = {"run_sequential", "run_threaded", "run_process",
                                       "run_scheduler"};

/// Outputs of `pipe | sink` on the four drivers, in kLawDrivers order.
template <typename Pipe>
std::vector<std::vector<double>> run_every_driver(const Pipe& pipe, const LawCase& c,
                                                  mpl::Scheduler& sched) {
  std::vector<std::vector<double>> outs(4);
  const auto into = [](std::vector<double>& out) {
    return [&out](double v) { out.push_back(v); };
  };
  (pipe | pipeline::sink(into(outs[0]))).run_sequential();
  (void)(pipe | pipeline::sink(into(outs[1]))).run_threaded(c.cfg);
  const int required = (pipe | pipeline::sink([](double) {})).ranks_required();
  auto per_rank = mpl::spmd_collect<std::vector<double>>(
      required + c.idle_ranks, [&](mpl::Process& p) {
        std::vector<double> out;
        (pipe | pipeline::sink(into(out))).run_process(p, c.cfg);
        return out;
      });
  outs[2] = std::move(per_rank[static_cast<std::size_t>(required - 1)]);
  (void)(pipe | compose::sink(into(outs[3]))).run_scheduler(sched, c.cfg);
  return outs;
}

/// Append chain[i..] to `pipe`, then hand the open pipe to `done`.
template <std::size_t Left, typename Pipe, typename Done>
void build_chain(const Pipe& pipe, const LawChain& chain, std::size_t i, Done& done) {
  if (i == chain.size()) {
    done(pipe);
  } else if constexpr (Left > 0) {
    const LawNode& n = chain[i];
    if (!n.farm) {
      build_chain<Left - 1>(pipe | pipeline::stage(n.fn), chain, i + 1, done);
    } else if (n.ordered) {
      build_chain<Left - 1>(
          pipe | pipeline::farm(n.width, LawWorkers{n.fn}, pipeline::ordered), chain,
          i + 1, done);
    } else {
      build_chain<Left - 1>(
          pipe | pipeline::farm(n.width, LawWorkers{n.fn}, pipeline::unordered), chain,
          i + 1, done);
    }
  } else {
    ADD_FAILURE() << "law chain longer than " << kLawMaxNodes << " nodes";
  }
}

/// Run `chain` (one side of a law for case `c`) on every driver and compare
/// each output with the meaning of c's drawn chain.
void expect_law_side(const LawCase& c, const LawChain& chain, const char* side,
                     mpl::Scheduler& sched) {
  const auto want = law_oracle(c);
  const auto source = pipeline::source(
      [items = c.items, next = std::size_t{0}]() mutable -> std::optional<double> {
        if (next >= items->size()) return std::nullopt;
        return (*items)[next++];
      });
  auto check = [&](const auto& pipe) {
    const auto outs = run_every_driver(pipe, c, sched);
    for (std::size_t d = 0; d < outs.size(); ++d) {
      EXPECT_EQ(outs[d], want) << side << " " << describe(chain) << " on " << kLawDrivers[d];
    }
  };
  build_chain<kLawMaxNodes>(source, chain, 0, check);
}

std::size_t law_cases() { return smoke_mode() ? 4 : 32; }

/// Check `lhs(c) == rhs(c)` over law_cases() seeded cases `c` whose drawn
/// chains have up to `max_nodes` nodes.
template <typename Lhs, typename Rhs>
void check_law(const char* law, std::uint64_t base_seed, std::size_t max_nodes,
               const Lhs& lhs, const Rhs& rhs) {
  auto sched = make_scheduler(2);
  for (std::size_t k = 0; k < law_cases(); ++k) {
    const LawCase c = draw_law_case(base_seed + k, max_nodes);
    SCOPED_TRACE(std::string(law) + ", seed " + std::to_string(c.seed) +
                 ", queue " + std::to_string(c.cfg.queue_capacity) + ", batch " +
                 std::to_string(c.cfg.batch) + ", idle ranks " +
                 std::to_string(c.idle_ranks));
    expect_law_side(c, lhs(c), "lhs", *sched);
    expect_law_side(c, rhs(c), "rhs", *sched);
  }
}

TEST(ComposeLaws, FarmOfWidthOneIsItsStage) {
  check_law(
      "farm(1, f) == stage(f)", 0x1a'0000, kLawMaxNodes,
      [](const LawCase& c) {
        LawChain chain = c.chain;
        for (auto& n : chain) n.width = 1;
        return chain;
      },
      [](const LawCase& c) { return as_stages(c.chain); });
}

TEST(ComposeLaws, OrderedFarmOfAnyWidthIsItsStage) {
  check_law(
      "ordered farm(w, f) == stage(f)", 0x1b'0000, kLawMaxNodes,
      [](const LawCase& c) {
        LawChain chain = c.chain;
        for (auto& n : chain) {
          if (n.farm) n.ordered = true;
        }
        return chain;
      },
      [](const LawCase& c) { return as_stages(c.chain); });
}

TEST(ComposeLaws, StagesFuse) {
  check_law(
      "stage(f) | stage(g) == stage(g . f)", 0x1c'0000, kLawMaxNodes,
      [](const LawCase& c) { return as_stages(c.chain); },
      [](const LawCase& c) { return fused(c.chain); });
}

TEST(ComposeLaws, IdentityStageIsNeutral) {
  check_law(
      "stage(id) is neutral", 0x1d'0000, kLawMaxNodes - 1,
      [](const LawCase& c) { return c.chain; },
      [](const LawCase& c) {
        LawChain chain = c.chain;
        std::mt19937_64 rng(c.seed);
        const auto at = std::uniform_int_distribution<std::size_t>(0, chain.size())(rng);
        chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(at),
                     LawNode{false, 1, true,
                             [](double v) -> std::optional<double> { return v; }});
        return chain;
      });
}

}  // namespace
