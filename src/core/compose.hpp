// ppa/core/compose.hpp
//
// Typed archetype composition: whole applications as checked combinator
// graphs. The archetypes stop being islands here — a pipeline stage can
// host an np-wide SPMD mesh solve, scheduled as a space-shared job on the
// warm engine, and the whole application is one typed graph:
//
//   auto g = compose::source(pull)                  // () -> optional<T>
//          | compose::stage(parse)                  // T -> U
//          | compose::engine_job(4, solve)          // (Process&, U) -> V on 4 ranks
//          | compose::engine_farm(3, 2, analyze,    // 3 replicas, each hosting
//                                 compose::unordered)  //   2-rank jobs
//          | compose::sink(emit);
//   g.run_sequential();                 // hosted jobs via spmd_run
//   g.run_threaded(cfg);                // stage threads + hosted spmd_run
//   g.run_scheduler(sched, cfg);        // hosted jobs space-share the engine
//
// A composed graph is a pipeline::Plan (core/pipeline.hpp) plus the bindings
// of its hosted stages. source, stage and farm *are* the pipeline's
// combinators, and so is operator|: the stage value-type threading that
// makes ill-typed pipelines fail to compile applies unchanged. Only
// compose::sink is distinct — attaching it closes the graph, builds the Plan
// and collects the hosted bindings from the node tuple. What compose adds:
//
//  * Hosted stages. engine_job(np, body) lifts an SPMD body
//    `Out body(mpl::Process&, const In&)` into a pipeline stage whose
//    callable (detail::HostedFn) runs each stream item as one np-wide job
//    (rank 0's return value continues downstream). engine_farm(width, np,
//    body, tag) is a pipeline farm of such callables — up to `width`
//    concurrent np-rank jobs. Both report hosted_np(), which is how the
//    plan's shape metadata (pipeline::NodeMeta) records them.
//    Determinism contract: body(item) must not depend on which replica ran
//    it (bodies receive identical inputs and np is fixed per node), so a
//    composed graph's output is bitwise-identical across all three drivers
//    for np-invariant bodies — the same bar every prior driver port met.
//  * Shape checking with typed errors. Violations throw GraphShapeError
//    (core/graph_error.hpp) naming the offending node: a hosted node with
//    np < 1 at combinator call, an ordered farm downstream of an unordered
//    one at graph build (the pipeline's farm-order check), and a hosted np
//    wider than the scheduler's engine at run_scheduler — before anything
//    runs.
//  * One deadline for the whole graph. run_scheduler's JobOptions are
//    anchored at the run's start (JobOptions::anchor): every hosted job is
//    charged against the remaining *graph* budget, queueing time included,
//    instead of each submission restarting the clock.
//
// Driver guidance: run_sequential is the debug mode (plain pull loop).
// run_threaded overlaps stages. Both run hosted jobs through spmd_run, which
// submits to the warm process engine and runs a cold world only when that
// engine is busy or the call is nested (mpl/spmd.hpp). run_scheduler is the
// serving shape: hosted jobs from concurrent farm replicas space-share the
// engine in disjoint rank sets, with priority classes and the anchored
// deadline. There is deliberately no run_process for composed graphs — the
// outer graph stays on local threads (items may be non-trivially-copyable,
// e.g. whole grids) while the width goes into the hosted jobs.
//
// Deadlock note: hosted submissions come from pipeline stage threads and
// pool tasks, never from engine rank threads, and hosted jobs never depend
// on one another — so scheduler queueing cannot wedge a composed run.
// run failure semantics: the first exception from any stage or hosted job
// (JobCancelled, JobDeadlineExceeded, a body throw, ...) cancels the graph
// run and is rethrown from run_* — it fails only this graph run, never the
// scheduler or engine, which keep serving other submitters.
//
// Thread-safety: runs of one Graph must not overlap (the pipeline source-
// consumption contract, plus the host binding is rebound per run). Distinct
// Graphs may run concurrently against the same Scheduler.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/graph_error.hpp"
#include "core/pipeline.hpp"
#include "mpl/job.hpp"
#include "mpl/process.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/spmd.hpp"

namespace ppa::compose {

// The combinators, tuning/ordering vocabulary and shape metadata are the
// pipeline's.
using pipeline::Config;
using pipeline::farm;
using pipeline::node_label;
using pipeline::NodeMeta;
using pipeline::ordered;
using pipeline::ordered_t;
using pipeline::RunStats;
using pipeline::source;
using pipeline::stage;
using pipeline::unordered;
using pipeline::unordered_t;
using pipeline::validate_farm_order;

/// Reject hosted nodes wider than `available` ranks (GraphShapeError naming
/// the first offender). `what` goes into the message ("run_scheduler", ...).
void validate_hosted_widths(const std::vector<NodeMeta>& meta, int available,
                            const std::string& what);

namespace detail {

/// How hosted stages execute, shared by every hosted node of one Graph run.
/// Rebound by Graph::run_* before the pipeline starts: inline (spmd_run)
/// for run_sequential/run_threaded, scheduler submission (with priority and
/// graph-anchored JobOptions) for run_scheduler. Hosted callables hold it
/// by shared_ptr so the binding survives node moves.
struct HostBinding {
  mpl::Scheduler* scheduler = nullptr;  ///< null = inline spmd_run
  mpl::Priority priority = mpl::Priority::kNormal;
  mpl::JobOptions options{};

  /// Run `body` as one np-wide job under the current binding. Defined in
  /// compose.cpp.
  void run(int np, const std::function<void(mpl::Process&)>& body) const;
};

using HostBindingPtr = std::shared_ptr<HostBinding>;

/// A hosted SPMD body lifted to a pipeline stage callable: In -> Out where
/// `Out body(mpl::Process&, const In&)` runs on np ranks and rank 0's
/// return value is the stage output. The generic operator() lets the
/// pipeline's type threading infer Out per input type exactly as it does
/// for plain stages.
template <typename Body>
class HostedFn {
 public:
  HostedFn(int np, Body body, HostBindingPtr binding)
      : np_(np), body_(std::move(body)), binding_(std::move(binding)) {}

  template <typename In>
  auto operator()(In&& item) {
    using Input = std::decay_t<In>;
    using Out = std::decay_t<
        std::invoke_result_t<Body&, mpl::Process&, const Input&>>;
    const Input input = std::forward<In>(item);
    // The slot, not a default-constructed Out: the body's result may be
    // expensive or non-default-constructible; only rank 0 fills it.
    std::optional<Out> result;
    binding_->run(np_, [&](mpl::Process& p) {
      Out out = body_(p, input);
      if (p.rank() == 0) result = std::move(out);
    });
    return std::move(*result);
  }

  [[nodiscard]] int hosted_np() const noexcept { return np_; }
  [[nodiscard]] const HostBindingPtr& binding() const noexcept { return binding_; }

 private:
  int np_;
  Body body_;
  HostBindingPtr binding_;
};

/// An engine_farm's worker factory: every replica is a copy of one HostedFn,
/// so all replicas share its host binding.
template <typename Body>
struct HostedWorkers {
  HostedFn<Body> prototype;

  HostedFn<Body> operator()() const { return prototype; }
  [[nodiscard]] int hosted_np() const noexcept { return prototype.hosted_np(); }
  [[nodiscard]] const HostBindingPtr& binding() const noexcept {
    return prototype.binding();
  }
};

/// What compose::sink returns: a sink that closes the graph into a Graph
/// instead of a bare pipeline::Plan.
template <typename F>
struct GraphSink {
  F fn;
};

}  // namespace detail

// ----------------------------------------------------------- combinators --

/// Hosted stage: each stream item runs `Out body(mpl::Process&, const In&)`
/// as one np-wide SPMD job; rank 0's return value continues downstream.
/// Throws GraphShapeError immediately if np < 1.
template <typename Body>
[[nodiscard]] auto engine_job(int np, Body&& body) {
  if (np < 1) {
    throw GraphShapeError("hosted stage", 1, np,
                          "engine_job: a hosted job needs at least one rank");
  }
  return pipeline::stage(detail::HostedFn<std::decay_t<Body>>(
      np, std::forward<Body>(body), std::make_shared<detail::HostBinding>()));
}

/// Hosted farm: `width` replicas of a hosted stage — up to `width`
/// concurrent np-rank jobs of the same body. The body is copied per
/// replica; all replicas share one host binding. Throws GraphShapeError
/// immediately if np < 1.
template <typename Body, typename Tag>
[[nodiscard]] auto engine_farm(int width, int np, Body&& body, Tag tag) {
  static_assert(std::is_same_v<Tag, ordered_t> || std::is_same_v<Tag, unordered_t>,
                "engine_farm needs compose::ordered or compose::unordered");
  if (np < 1) {
    throw GraphShapeError("hosted farm", 1, np,
                          "engine_farm: a hosted job needs at least one rank");
  }
  return pipeline::farm(
      width,
      detail::HostedWorkers<std::decay_t<Body>>{{np, std::forward<Body>(body),
                                                 std::make_shared<detail::HostBinding>()}},
      tag);
}

/// Stream sink: Item -> void. Attaching it with operator| closes the graph.
template <typename F>
[[nodiscard]] detail::GraphSink<std::decay_t<F>> sink(F&& fn) {
  return {std::forward<F>(fn)};
}

// ----------------------------------------------------------------- graph --

/// A closed composed graph: the pipeline plan plus the hosted-stage
/// bindings. Built by operator| when the sink is attached (which is also
/// where the farm-order check runs).
template <typename SrcF, typename SinkF, typename... Mids>
class Graph {
 public:
  using Plan = pipeline::Plan<SrcF, SinkF, Mids...>;

  Graph(Plan plan, std::vector<detail::HostBindingPtr> bindings)
      : plan_(std::move(plan)), bindings_(std::move(bindings)) {
    validate_farm_order(plan_.node_meta(), "graph build");
  }

  /// Shape metadata, source-to-sink (one entry per node).
  [[nodiscard]] const std::vector<NodeMeta>& node_meta() const noexcept {
    return plan_.node_meta();
  }
  /// The GraphShapeError label for node `j` (source = 0).
  [[nodiscard]] std::string node_label(std::size_t j) const {
    return plan_.node_label(j);
  }
  /// Widest hosted job in the graph (0 when nothing is hosted) — the
  /// minimum engine width run_scheduler needs.
  [[nodiscard]] int hosted_width() const noexcept {
    int w = 0;
    for (const auto& m : node_meta()) w = std::max(w, m.hosted_np);
    return w;
  }
  /// Check every hosted node fits `available` ranks; GraphShapeError names
  /// the first offender. run_scheduler calls this with the engine width.
  void validate_width(int available, const std::string& what) const {
    validate_hosted_widths(node_meta(), available, what);
  }

  /// Debug driver: plain pull loop; hosted jobs run np-wide via spmd_run.
  void run_sequential() {
    bind_inline();
    plan_.run_sequential();
  }

  /// Overlapped driver: one thread per serial node, farm batches on the
  /// work-stealing pool; hosted jobs via spmd_run, same as run_sequential.
  RunStats run_threaded(Config cfg = Config{}) {
    bind_inline();
    return plan_.run_threaded(cfg);
  }

  /// Serving driver: the outer graph runs threaded locally while hosted
  /// jobs are submitted to `scheduler` (space-shared, priority-classed,
  /// bounded admission queue). `options.deadline` is the budget for the
  /// whole graph run: it is anchored once, here, so every hosted job is
  /// charged against the remaining graph budget (queueing included) —
  /// JobOptions::anchor semantics in mpl/job.hpp. Throws GraphShapeError
  /// before anything runs if a hosted np exceeds the scheduler's width.
  RunStats run_scheduler(mpl::Scheduler& scheduler, Config cfg = Config{},
                         mpl::Priority priority = mpl::Priority::kNormal,
                         mpl::JobOptions options = {}) {
    validate_width(scheduler.width(), "run_scheduler");
    if (options.deadline.count() > 0 &&
        options.anchor == std::chrono::steady_clock::time_point{}) {
      options.anchor = std::chrono::steady_clock::now();
    }
    for (const auto& b : bindings_) {
      b->scheduler = &scheduler;
      b->priority = priority;
      b->options = options;
    }
    return plan_.run_threaded(cfg);
  }

 private:
  void bind_inline() {
    for (const auto& b : bindings_) *b = detail::HostBinding{};
  }

  Plan plan_;
  std::vector<detail::HostBindingPtr> bindings_;
};

// ------------------------------------------------------------- operator| --
//
// Only the two closing overloads are compose's; everything upstream of the
// sink is the pipeline's operator|. They live in detail, next to GraphSink,
// so argument-dependent lookup finds them from any namespace.

namespace detail {

template <typename SrcF, typename F, typename... Mids>
[[nodiscard]] auto close_graph(pipeline::SourceNode<SrcF> src, std::tuple<Mids...> mids,
                               GraphSink<F> snk) {
  std::vector<HostBindingPtr> bindings;
  const auto collect = [&bindings](const auto& node) {
    if constexpr (requires { node.fn.binding(); }) {
      bindings.push_back(node.fn.binding());
    } else if constexpr (requires { node.make_worker.binding(); }) {
      bindings.push_back(node.make_worker.binding());
    }
  };
  std::apply([&](const auto&... node) { (collect(node), ...); }, mids);
  return Graph<SrcF, F, Mids...>(
      pipeline::Plan<SrcF, F, Mids...>(std::move(src), std::move(mids),
                                       pipeline::SinkNode<F>{std::move(snk.fn)}),
      std::move(bindings));
}

template <typename SrcF, typename F>
[[nodiscard]] auto operator|(pipeline::SourceNode<SrcF> src, GraphSink<F> snk) {
  return close_graph(std::move(src), std::tuple<>{}, std::move(snk));
}

template <typename SrcF, typename... Mids, typename F>
[[nodiscard]] auto operator|(pipeline::detail::OpenPipe<SrcF, Mids...> open,
                             GraphSink<F> snk) {
  return close_graph(std::move(open.src), std::move(open.mids), std::move(snk));
}

}  // namespace detail

}  // namespace ppa::compose
