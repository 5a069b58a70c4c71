// ci/core_warning_check.cpp
//
// Warning canary for the archetype core: this translation unit includes
// every public core header (task runtime, parfor, the divide-and-conquer
// driver, the one-deep skeleton, branch and bound, the streaming pipeline)
// and the typed composition layer, instantiates the templates with
// representative types, and is compiled
// with -Wall -Wextra -Werror (see CMakeLists.txt). Any warning introduced
// in src/core/ fails the build here even if no test or app happens to
// instantiate the offending code path.
#include <numeric>
#include <optional>
#include <vector>

#include "core/core.hpp"

namespace ppa {

namespace {

struct CanaryOneDeepSpec {
  using value_type = int;
  using merge_sample_type = int;
  using merge_param_type = int;
  void local_solve(std::vector<int>&) const {}
  [[nodiscard]] std::vector<int> merge_sample(const std::vector<int>&) const {
    return {};
  }
  [[nodiscard]] std::vector<int> merge_params(const std::vector<int>&, int) const {
    return {};
  }
  [[nodiscard]] std::vector<std::vector<int>> repartition(std::vector<int>,
                                                          const std::vector<int>&,
                                                          int nparts) const {
    return std::vector<std::vector<int>>(static_cast<std::size_t>(nparts));
  }
  [[nodiscard]] std::vector<int> local_merge(std::vector<std::vector<int>>) const {
    return {};
  }
};
static_assert(onedeep::Spec<CanaryOneDeepSpec>);

struct CanaryBnbSpec {
  struct Node {
    int depth = 0;
  };
  using node_type = Node;
  [[nodiscard]] double bound(const Node&) const { return 0.0; }
  [[nodiscard]] bool is_leaf(const Node& n) const { return n.depth >= 1; }
  [[nodiscard]] double leaf_value(const Node&) const { return 0.0; }
  [[nodiscard]] std::vector<Node> branch(const Node& n) const {
    return {Node{n.depth + 1}};
  }
};
static_assert(bnb::Spec<CanaryBnbSpec>);

/// Force-instantiate the core templates (never executed).
[[maybe_unused]] void instantiate_all(mpl::Process& p) {
  parfor(4, seq, [](std::size_t) {});
  parfor(4, par(2), [](std::size_t) {});
  parfor(4, par_hw(), [](std::size_t) {});

  task::TaskGroup group;
  group.run([] {});
  group.wait();
  (void)task::default_fork_depth();

  const auto is_base = [](const std::vector<long>& v) { return v.size() <= 1; };
  const auto base = [](std::vector<long> v) {
    return std::accumulate(v.begin(), v.end(), 0L);
  };
  const auto split = [](std::vector<long> v) {
    std::vector<std::vector<long>> subs(2);
    subs[0] = std::move(v);
    return subs;
  };
  const auto merge = [](std::vector<long> sols) { return sols[0] + sols[1]; };
  (void)dc::divide_and_conquer<std::vector<long>, long>(
      {}, is_base, base, split, merge, 2);
  (void)dc::fork_depth_for(8);

  CanaryOneDeepSpec od;
  (void)onedeep::run_sequential(od, onedeep::block_distribute(std::vector<int>{1}, 1));
  (void)onedeep::run_process(od, p, std::vector<int>{1});

  CanaryBnbSpec bb;
  (void)bnb::solve_sequential(bb, CanaryBnbSpec::Node{});
  (void)bnb::solve_tasks(bb, CanaryBnbSpec::Node{}, 2);
  bnb::ProcessStats stats;
  (void)bnb::solve_process(bb, p, CanaryBnbSpec::Node{}, 8, 2, &stats);

  // Streaming pipeline: every combinator (plain and filtering stages, an
  // ordered farm of stateless workers, an unordered farm of stateful
  // flushing workers) through all three drivers.
  struct CanaryFlushWorker {
    long local = 0;
    std::optional<long> operator()(long v) {
      local += v;
      return std::nullopt;
    }
    std::vector<long> flush() { return {local}; }
  };
  long total = 0;
  long next = 0;
  // Farm-into-farm shape: legal for the local drivers only.
  auto plan = pipeline::source([next]() mutable -> std::optional<long> {
                return next < 4 ? std::optional<long>(next++) : std::nullopt;
              }) |
              pipeline::stage([](long v) { return v + 1; }) |
              pipeline::stage([](long v) -> std::optional<long> { return v; }) |
              pipeline::farm(2, [] { return [](long v) { return 2 * v; }; },
                             pipeline::ordered) |
              pipeline::farm(2, [] { return CanaryFlushWorker{}; },
                             pipeline::unordered) |
              pipeline::sink([&total](long v) { total += v; });
  (void)plan.ranks_required();
  // Instantiation only — never executed (back-to-back runs of one plan
  // would consume the source on the first run; see pipeline.hpp contract).
  plan.run_sequential();
  (void)plan.run_threaded(pipeline::Config{});
  // SPMD-legal shape (an ordered farm feeding a farm would be rejected by
  // run_process's layout validation): same combinators, serial successor.
  auto spmd_plan = pipeline::source([next]() mutable -> std::optional<long> {
                     return next < 4 ? std::optional<long>(next++) : std::nullopt;
                   }) |
                   pipeline::farm(2, [] { return [](long v) { return 2 * v; }; },
                                  pipeline::ordered) |
                   pipeline::stage([](long v) -> std::optional<long> { return v; }) |
                   pipeline::farm(2, [] { return CanaryFlushWorker{}; },
                                  pipeline::unordered) |
                   pipeline::sink([&total](long v) { total += v; });
  spmd_plan.run_process(p, pipeline::Config{});
}

/// Force-instantiate the persistent-engine API (never executed): job
/// submission and the recyclable tag allocator.
[[maybe_unused]] void instantiate_engine(mpl::Engine& engine) {
  (void)engine.width();
  (void)engine.jobs_run();
  (void)engine.run(1, [](mpl::Process&) {});
  (void)mpl::on_engine_rank_thread();
  (void)mpl::process_engine(1);
  {
    mpl::TagBlock block = engine.world().reserve_tags(2);
    (void)block.base();
    (void)block.count();
    (void)engine.world().tag_space().outstanding();
  }
}

/// Force-instantiate the space-sharing serving layer (never executed): the
/// scheduler's submission surface and the scheduler-backed archetype
/// drivers.
[[maybe_unused]] void instantiate_scheduler(mpl::Scheduler& scheduler) {
  (void)scheduler.width();
  (void)scheduler.stats();
  (void)scheduler.engine();
  (void)scheduler.run(1, [](mpl::Process&) {}, mpl::Priority::kHigh);
  mpl::TraceSnapshot snapshot;
  (void)scheduler.try_run_job(1, [](mpl::Process&) {}, snapshot);
  (void)mpl::process_scheduler(1);

  CanaryOneDeepSpec od;
  (void)onedeep::run_engine(od, scheduler,
                            onedeep::block_distribute(std::vector<int>{1}, 1));

  CanaryBnbSpec bb;
  bnb::ProcessStats stats;
  (void)bnb::solve_engine(bb, scheduler, CanaryBnbSpec::Node{}, 1, 8, 2, &stats);

  long total = 0;
  long next = 0;
  auto plan = pipeline::source([next]() mutable -> std::optional<long> {
                return next < 4 ? std::optional<long>(next++) : std::nullopt;
              }) |
              pipeline::stage([](long v) { return v + 1; }) |
              pipeline::sink([&total](long v) { total += v; });
  (void)plan.run_engine(scheduler, pipeline::Config{});
}

/// Force-instantiate the typed composition layer (never executed): every
/// combinator — plain and hosted nodes, ordered and unordered hosted farms,
/// the degenerate source|sink graph — every Graph entry point, the shape
/// metadata and checks, and the label of a hosted node on a bare plan.
[[maybe_unused]] void instantiate_compose(mpl::Scheduler& scheduler) {
  long total = 0;
  long next = 0;
  const auto hosted_sum = [](mpl::Process& p, const long& v) {
    return p.allreduce(v, [](long a, long b) { return a + b; });
  };
  auto graph = compose::source([next]() mutable -> std::optional<long> {
                 return next < 4 ? std::optional<long>(next++) : std::nullopt;
               }) |
               compose::stage([](long v) { return v + 1; }) |
               compose::engine_job(2, hosted_sum) |
               compose::farm(2, [] { return [](long v) { return 2 * v; }; },
                             compose::ordered) |
               compose::engine_farm(2, 2, hosted_sum, compose::ordered) |
               compose::engine_farm(2, 2,
                                    [](mpl::Process& p, const long& v) {
                                      return v + static_cast<long>(p.size());
                                    },
                                    compose::unordered) |
               compose::sink([&total](long v) { total += v; });
  compose::validate_farm_order(graph.node_meta(), "canary");
  compose::validate_hosted_widths(graph.node_meta(), graph.hosted_width(), "canary");
  graph.validate_width(scheduler.width(), "canary");
  (void)compose::node_label(graph.node_meta()[2], 2, graph.node_meta().size());
  (void)graph.node_label(0);
  graph.run_sequential();
  (void)graph.run_threaded(compose::Config{});
  (void)graph.run_scheduler(scheduler, compose::Config{}, mpl::Priority::kHigh,
                            mpl::JobOptions{});

  auto degenerate = compose::source([]() -> std::optional<int> { return {}; }) |
                    compose::sink([](int) {});
  (void)degenerate.node_meta();
  (void)degenerate.hosted_width();
  degenerate.run_sequential();

  // A hosted node on a bare pipeline plan: its label comes from the plan.
  auto plan = pipeline::source([]() -> std::optional<long> { return {}; }) |
              compose::engine_job(2, hosted_sum) |
              pipeline::sink([&total](long v) { total += v; });
  (void)plan.node_label(1);
  (void)plan.node_meta();
}

}  // namespace
}  // namespace ppa
