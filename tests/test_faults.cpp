// Robustness tests for the fault-injection substrate (mpl/fault.hpp), per-job
// deadlines/cancellation (mpl/job.hpp), and the engine's stuck-job watchdog:
//
//   - FaultPlan unit behavior: deterministic draws, (rank, op) targeting,
//     disabled-by-default zero effect;
//   - typed teardown: JobDeadlineExceeded / JobCancelled / JobStalled
//     surface instead of bare WorldAborted, with bounded latency;
//   - the soak: hundreds of mixed jobs (poisson, pipeline, bnb, collectives)
//     under randomized seeded fault plans, asserting the engine returns to a
//     clean parked state after every injected failure and that the next
//     fault-free job is bitwise-identical to the no-fault reference.
//
// PPA_FAULT_SOAK_JOBS overrides the soak's job count (default 200; CI's
// TSan leg runs a reduced count).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/poisson/poisson.hpp"
#include "core/branch_and_bound.hpp"
#include "core/pipeline.hpp"
#include "mpl/engine.hpp"
#include "mpl/fault.hpp"
#include "mpl/job.hpp"
#include "mpl/scheduler.hpp"

namespace {

using namespace ppa;
using namespace ppa::mpl;
using namespace std::chrono_literals;

// ------------------------------------------------------------- FaultPlan --

TEST(FaultPlan, DisabledByDefault) {
  EXPECT_FALSE(fault_injection_active());
  EXPECT_EQ(fault_point(FaultSite::kMailboxPush, 0), FaultAction::kNone);
  EXPECT_EQ(fault_point(FaultSite::kRankBody, 3), FaultAction::kNone);
}

TEST(FaultPlan, ScopeInstallsAndRestores) {
  FaultPlan plan(1, {});
  {
    FaultInjectionScope scope(plan);
    EXPECT_TRUE(fault_injection_active());
  }
  EXPECT_FALSE(fault_injection_active());
}

TEST(FaultPlan, TargetsRankAndOpCount) {
  // One-shot crash of rank 1 at its third barrier (op counts start at 0).
  FaultPlan plan(7, {FaultRule{.site = FaultSite::kBarrier,
                              .rank = 1,
                              .at_op = 2,
                              .kind = FaultKind::kThrow}});
  for (int op = 0; op < 5; ++op) {
    EXPECT_EQ(plan.visit(FaultSite::kBarrier, 0), FaultAction::kNone)
        << "rank 0 must never match a rank-1 rule";
  }
  EXPECT_EQ(plan.visit(FaultSite::kBarrier, 1), FaultAction::kNone);  // op 0
  EXPECT_EQ(plan.visit(FaultSite::kBarrier, 1), FaultAction::kNone);  // op 1
  EXPECT_THROW(plan.visit(FaultSite::kBarrier, 1), FaultInjected);    // op 2
  EXPECT_EQ(plan.visit(FaultSite::kBarrier, 1), FaultAction::kNone)
      << "a period-0 rule is one-shot";
  EXPECT_EQ(plan.fired(0), 1u);
}

TEST(FaultPlan, PeriodicRuleKeepsFiring) {
  FaultPlan plan(7, {FaultRule{.site = FaultSite::kMailboxPush,
                              .rank = -1,
                              .at_op = 1,
                              .period = 3,
                              .kind = FaultKind::kDrop}});
  std::vector<int> dropped;
  for (int op = 0; op < 8; ++op) {
    if (plan.visit(FaultSite::kMailboxPush, 2) == FaultAction::kDropMessage) {
      dropped.push_back(op);
    }
  }
  EXPECT_EQ(dropped, (std::vector<int>{1, 4, 7}));
}

TEST(FaultPlan, ProbabilityDrawsAreDeterministic) {
  const auto run = [](std::uint64_t seed) {
    FaultPlan plan(seed, {FaultRule{.site = FaultSite::kMailboxPop,
                                   .rank = -1,
                                   .at_op = 0,
                                   .period = 1,
                                   .probability = 0.5,
                                   .kind = FaultKind::kDrop}});
    std::string pattern;
    for (int op = 0; op < 64; ++op) {
      pattern += plan.visit(FaultSite::kMailboxPop, 0) ==
                         FaultAction::kDropMessage
                     ? '1'
                     : '0';
    }
    return pattern;
  };
  const std::string a = run(42);
  EXPECT_EQ(a, run(42)) << "same seed, same decisions";
  EXPECT_NE(a, run(43)) << "different seed, different decisions";
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);
}

// ------------------------------------------------- deadlines and cancels --

TEST(JobControl, DeadlineUnblocksWedgedRecvWithTypedError) {
  Engine engine(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(engine.run(
                   2,
                   [](Process& p) {
                     (void)p.recv_value<int>((p.rank() + 1) % 2, 99);  // wedge
                   },
                   JobOptions{.deadline = 100ms}),
               JobDeadlineExceeded);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Teardown latency bound: deadline + monitor tick + generous CI slack.
  EXPECT_LT(elapsed, 2s) << "wedged job must be torn down promptly";
  // The engine parks cleanly and accepts the next job immediately.
  const auto sum = engine.run(2, [](Process& p) {
    (void)p.allreduce(p.rank() + 1, SumOp{});
  });
  EXPECT_GT(sum.messages, 0u);
}

TEST(JobControl, CancelReleasesRanksBlockedInBarrier) {
  Engine engine(4);
  CancelSource cancel;
  std::thread firer([&] {
    std::this_thread::sleep_for(20ms);
    cancel.cancel();
  });
  EXPECT_THROW(engine.run(
                   4,
                   [](Process& p) {
                     if (p.rank() != 0) p.barrier();  // never completes
                     while (!p.cancelled()) std::this_thread::sleep_for(1ms);
                     p.throw_if_cancelled();
                   },
                   JobOptions{.cancel = cancel.token()}),
               JobCancelled);
  firer.join();
  EXPECT_EQ(engine.world().tag_space().outstanding(), 0);
}

TEST(JobControl, CooperativePollExitsComputeLoop) {
  Engine engine(2);
  CancelSource cancel;
  std::atomic<int> polls{0};
  std::thread firer([&] {
    std::this_thread::sleep_for(10ms);
    cancel.cancel();
  });
  EXPECT_THROW(engine.run(
                   2,
                   [&](Process& p) {
                     // Pure compute: never blocks in the substrate, so only
                     // the cooperative flag can stop it.
                     while (!p.cancelled()) {
                       polls.fetch_add(1);
                       std::this_thread::sleep_for(500us);
                     }
                     throw JobCancelled{};
                   },
                   JobOptions{.cancel = cancel.token()}),
               JobCancelled);
  firer.join();
  EXPECT_GT(polls.load(), 0);
}

TEST(JobControl, WatchdogRescuesDroppedMessage) {
  Engine engine(2);
  // Drop rank 0's first send: rank 1's recv wedges with no failing rank —
  // only the no-progress watchdog can detect this.
  FaultPlan plan(3, {FaultRule{.site = FaultSite::kMailboxPush,
                              .rank = 0,
                              .at_op = 0,
                              .kind = FaultKind::kDrop}});
  const auto t0 = std::chrono::steady_clock::now();
  {
    FaultInjectionScope scope(plan);
    EXPECT_THROW(engine.run(
                     2,
                     [](Process& p) {
                       if (p.rank() == 0) p.send_value(1, 5, 42);
                       if (p.rank() == 1) (void)p.recv_value<int>(0, 5);
                     },
                     JobOptions{.watchdog_grace = 150ms}),
                 JobStalled);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  EXPECT_EQ(plan.fired(0), 1u);
  // Fault-free follow-up delivers the message that was "lost".
  int got = -1;
  engine.run(2, [&](Process& p) {
    if (p.rank() == 0) p.send_value(1, 5, 42);
    if (p.rank() == 1) got = p.recv_value<int>(0, 5);
  });
  EXPECT_EQ(got, 42);
}

TEST(JobControl, OptionFreeJobsUnaffectedByMonitor) {
  Engine engine(2);
  for (int i = 0; i < 20; ++i) {
    const auto trace = engine.run(2, [](Process& p) {
      (void)p.allreduce(p.rank(), SumOp{});
    });
    EXPECT_GT(trace.messages, 0u);
  }
  EXPECT_EQ(engine.jobs_run(), 20u);
}

TEST(JobControl, InjectedRankCrashIsDeterministic) {
  // kRankBody op counts advance once per rank per job, so "rank 2, op 1"
  // crashes exactly the second job — on every run of this test.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Engine engine(4);
    FaultPlan plan(11, {FaultRule{.site = FaultSite::kRankBody,
                                 .rank = 2,
                                 .at_op = 1,
                                 .kind = FaultKind::kThrow}});
    FaultInjectionScope scope(plan);
    const auto body = [](Process& p) { (void)p.allgather_value(p.rank()); };
    engine.run(4, body);  // job 1: op 0, no fault
    EXPECT_THROW(engine.run(4, body), FaultInjected);
    engine.run(4, body);  // one-shot rule: engine back to clean runs
    EXPECT_EQ(engine.jobs_run(), 3u);
  }
}

TEST(JobControl, InjectedSendFailureSurfacesAsRootCause) {
  Engine engine(4);
  FaultPlan plan(5, {FaultRule{.site = FaultSite::kMailboxPush,
                              .rank = 1,
                              .at_op = 0,
                              .kind = FaultKind::kThrow}});
  FaultInjectionScope scope(plan);
  // Even with a deadline armed, the injected failure is the root cause the
  // submitter sees — not a WorldAborted, not a deadline.
  EXPECT_THROW(engine.run(
                   4,
                   [](Process& p) { (void)p.allreduce(p.rank(), SumOp{}); },
                   JobOptions{.deadline = 5s}),
               FaultInjected);
}

TEST(JobControl, PipelineCancellationPropagatesThroughCreditWaits) {
  auto engine = std::make_shared<Engine>(4);
  Scheduler sched(engine);
  CancelSource cancel;
  std::atomic<long> produced{0};
  // Unbounded source against a sink slow enough that the producer lives in
  // credit waits; only cancellation ends the run.
  auto plan = pipeline::source([&]() -> std::optional<int> {
                produced.fetch_add(1);
                return 1;
              }) |
              pipeline::stage([](int v) { return v + 1; }) |
              pipeline::sink([](int) { std::this_thread::sleep_for(2ms); });
  std::thread firer([&] {
    std::this_thread::sleep_for(50ms);
    cancel.cancel();
  });
  EXPECT_THROW(plan.run_engine(sched, pipeline::Config{}, 0,
                               Priority::kNormal,
                               JobOptions{.cancel = cancel.token()}),
               JobCancelled);
  firer.join();
  EXPECT_GT(produced.load(), 0);
  EXPECT_EQ(engine->world().tag_space().outstanding(), 0)
      << "cancelled pipeline must still release its tag block";
  // The engine accepts a clean pipeline right after the cancelled one.
  long total = 0;
  int next = 0;
  auto clean = pipeline::source([&]() -> std::optional<int> {
                 return next < 8 ? std::optional<int>(next++) : std::nullopt;
               }) |
               pipeline::stage([](int v) { return v * 2; }) |
               pipeline::sink([&](int v) { total += v; });
  clean.run_engine(sched);
  EXPECT_EQ(total, 56);
}

// ------------------------------------------------------------------ soak --

/// One deterministic reference job: fixed-input double allreduce_vec plus a
/// neighbor exchange. Returns the result bits and the job trace, both of
/// which must be identical across fault-free runs on a clean engine.
struct CheckJobResult {
  std::vector<double> bits;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

CheckJobResult run_check_job(Engine& engine) {
  CheckJobResult out;
  std::vector<double> reduced;
  const auto trace = engine.run(4, [&](Process& p) {
    std::vector<double> local(64);
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = 1.0 / (1.0 + static_cast<double>(i) +
                        static_cast<double>(p.rank()));
    }
    const int right = (p.rank() + 1) % p.size();
    const int left = (p.rank() - 1 + p.size()) % p.size();
    p.send_value(right, 7, static_cast<double>(p.rank()) * 0.25);
    local[0] += p.recv_value<double>(left, 7);
    auto sum = p.allreduce_vec(std::span<const double>(local), SumOp{});
    if (p.rank() == 0) reduced = std::move(sum);
  });
  out.bits = std::move(reduced);
  out.messages = trace.messages;
  out.bytes = trace.bytes;
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Randomized-but-seeded fault plan for one soak round: always some delay
/// pressure, sometimes message drops, rank crashes, or send failures.
FaultPlan make_soak_plan(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<FaultRule> rules;
  const auto pick_site = [&] {
    constexpr FaultSite kSites[] = {FaultSite::kMailboxPush,
                                    FaultSite::kMailboxPop, FaultSite::kBarrier,
                                    FaultSite::kCollective};
    return kSites[rng() % 4];
  };
  const int delays = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < delays; ++i) {
    rules.push_back(FaultRule{.site = pick_site(),
                              .rank = static_cast<int>(rng() % 4),
                              .at_op = rng() % 16,
                              .period = 8 + rng() % 24,
                              .probability = 0.5,
                              .kind = FaultKind::kDelay,
                              .delay_us = 20 + static_cast<std::uint32_t>(rng() % 180)});
  }
  if (rng() % 10 < 4) {  // 40%: wire loss (wedges a receiver; watchdog rescues)
    rules.push_back(FaultRule{.site = FaultSite::kMailboxPush,
                              .rank = static_cast<int>(rng() % 4),
                              .at_op = rng() % 32,
                              .kind = FaultKind::kDrop});
  }
  if (rng() % 10 < 3) {  // 30%: a rank body crashes every few jobs
    rules.push_back(FaultRule{.site = FaultSite::kRankBody,
                              .rank = static_cast<int>(rng() % 4),
                              .at_op = rng() % 4,
                              .period = 5 + rng() % 7,
                              .kind = FaultKind::kThrow});
  }
  if (rng() % 10 < 3) {  // 30%: a send fails outright
    rules.push_back(FaultRule{.site = FaultSite::kMailboxPush,
                              .rank = static_cast<int>(rng() % 4),
                              .at_op = 4 + rng() % 40,
                              .kind = FaultKind::kThrow});
  }
  return FaultPlan(seed, std::move(rules));
}

int soak_job_count() {
  const char* env = std::getenv("PPA_FAULT_SOAK_JOBS");
  if (env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

TEST(FaultSoak, MixedJobsUnderRandomizedPlansLeaveEngineClean) {
  auto shared_engine = std::make_shared<Engine>(4);
  Engine& engine = *shared_engine;
  Scheduler sched(shared_engine);

  // Fault-free references, computed once on the clean engine.
  const CheckJobResult reference = run_check_job(engine);
  ASSERT_FALSE(reference.bits.empty());

  app::PoissonProblem poisson;
  poisson.nx = 17;
  poisson.ny = 17;
  poisson.tolerance = 1e-3;
  poisson.max_iters = 500;
  poisson.f = [](double x, double y) { return x - y; };
  poisson.g = [](double x, double y) { return x * y; };
  const auto poisson_ref = app::poisson_spmd(poisson, sched, 4);
  ASSERT_GT(poisson_ref.iterations, 0u);

  struct TernarySpec {
    struct Node {
      int depth = 0;
      int sum = 0;
    };
    using node_type = Node;
    [[nodiscard]] double bound(const Node& n) const { return n.sum; }
    [[nodiscard]] bool is_leaf(const Node& n) const { return n.depth == 3; }
    [[nodiscard]] double leaf_value(const Node& n) const { return n.sum; }
    [[nodiscard]] std::vector<Node> branch(const Node& n) const {
      std::vector<Node> kids;
      for (int v = 0; v < 3; ++v) kids.push_back({n.depth + 1, n.sum + v});
      return kids;
    }
  };
  TernarySpec bnb_spec;

  const int total_jobs = soak_job_count();
  const int plans = 20;
  const int jobs_per_plan = (total_jobs + plans - 1) / plans;
  // Safety net on every faulted job: nothing may wedge longer than the
  // watchdog grace (no-progress) or the deadline (slow-but-alive).
  const JobOptions safety{.deadline = 5s, .watchdog_grace = 250ms};

  int failures_seen = 0;
  int jobs_submitted = 0;
  for (int plan_index = 0; plan_index < plans; ++plan_index) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(plan_index);
    FaultPlan plan = make_soak_plan(seed);

    for (int j = 0; j < jobs_per_plan; ++j) {
      ++jobs_submitted;
      JobOptions options = safety;
      CancelSource cancel;  // fresh per job so earlier fires don't linger
      std::thread firer;
      if (jobs_submitted % 11 == 0) {
        // Cancellation in the mix: fired from a separate thread mid-job.
        options.cancel = cancel.token();
        firer = std::thread([&cancel] {
          std::this_thread::sleep_for(2ms);
          cancel.cancel();
        });
      } else if (jobs_submitted % 7 == 0) {
        options.deadline = 15ms;  // deadline expiry in the mix
      }

      bool failed = false;
      try {
        const FaultInjectionScope scope(plan);
        switch (j % 4) {
          case 0: {
            const auto r = app::poisson_spmd(poisson, sched, 2 + 2 * (j % 2),
                                             Priority::kNormal, options);
            (void)r;
            break;
          }
          case 1: {
            long total = 0;
            int next = 0;
            auto pl = pipeline::source([&]() -> std::optional<int> {
                        return next < 8 ? std::optional<int>(next++)
                                        : std::nullopt;
                      }) |
                      pipeline::stage([](int v) { return v + 1; }) |
                      pipeline::sink([&](int v) { total += v; });
            pl.run_engine(sched, pipeline::Config{}, 0,
                          Priority::kNormal, options);
            break;
          }
          case 2: {
            (void)bnb::solve_engine(bnb_spec, sched, TernarySpec::Node{}, 4,
                                    16, 2, nullptr, Priority::kNormal, options);
            break;
          }
          default:
            engine.run(
                4, [](Process& p) { (void)p.allgather_value(p.rank()); },
                options);
            break;
        }
      } catch (const FaultInjected&) {
        failed = true;
      } catch (const JobStalled&) {
        failed = true;
      } catch (const JobDeadlineExceeded&) {
        failed = true;
      } catch (const JobCancelled&) {
        failed = true;
      }
      // Any other exception type escapes and fails the test: the engine
      // must only ever surface the typed failure classes above.
      if (firer.joinable()) firer.join();
      if (failed) ++failures_seen;

      // Parked-state invariants after every job, failed or not.
      ASSERT_EQ(engine.world().tag_space().outstanding(), 0)
          << "plan " << seed << " job " << j << " leaked tags";

      if (failed) {
        // A fault-free job immediately after an injected failure must be
        // bitwise-identical to the clean reference (zeroed trace included).
        const CheckJobResult check = run_check_job(engine);
        ASSERT_TRUE(bitwise_equal(check.bits, reference.bits))
            << "plan " << seed << " job " << j
            << ": post-failure job diverged from the fault-free reference";
        ASSERT_EQ(check.messages, reference.messages);
        ASSERT_EQ(check.bytes, reference.bytes);
      }
    }

    // End of plan: full poisson solve, bitwise against the reference field.
    const auto clean = app::poisson_spmd(poisson, sched, 4);
    ASSERT_EQ(clean.iterations, poisson_ref.iterations);
    ASSERT_EQ(clean.u.rows(), poisson_ref.u.rows());
    ASSERT_TRUE(std::memcmp(clean.u.data(), poisson_ref.u.data(),
                            clean.u.size() * sizeof(double)) == 0)
        << "plan " << seed << ": poisson field diverged after the fault round";
  }

  EXPECT_GE(jobs_submitted, total_jobs);
  EXPECT_GT(failures_seen, 0) << "the soak never injected a visible fault — "
                                 "plans are too weak to exercise recovery";
  EXPECT_EQ(engine.world().tag_space().outstanding(), 0);
}

}  // namespace
