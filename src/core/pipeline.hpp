// ppa/core/pipeline.hpp
//
// The pipeline/stream archetype: a linear graph of stages through which an
// unbounded stream of items flows. This is the shape of continuous-service
// workloads (a request stream through parse → compute → respond), where the
// one-shot archetypes (one-deep D&C, mesh-spectral) do not fit: there is no
// final "gather the answer" — the computation is the steady state.
//
// A pipeline is composed from four combinators with operator| (the
// composable stage-combinator style of Braun et al., "Arrows for Parallel
// Computation"):
//
//   auto plan = pipeline::source(pull)        // () -> std::optional<T>
//             | pipeline::stage(f)            // T -> U, or T -> std::optional<U>
//             | pipeline::farm(k, make, pipeline::ordered)  // parallel stage
//             | pipeline::sink(consume);      // T -> void
//
// A *farm* replicates a serial stage k ways. Following the state-access
// patterns of Danelutto et al. ("State access patterns in embarrassingly
// parallel computations"), farm state is *replicated per worker*: the
// factory `make()` is called once per worker and each replica mutates only
// its own state. A worker may additionally expose
// `std::vector<Out> flush()`, called once at end-of-stream, to emit its
// accumulated local state (the map+reduce-at-drain pattern); because flush
// items surface in worker-completion order, they must be merged
// commutatively by the consumer. Which worker processes which item is
// driver-specific, so farm programs must be assignment-independent:
// stateless workers (any farm), or local accumulation merged commutatively
// (unordered farms).
//
// Ordering: an `ordered` farm re-emits results in input order (its output
// is indistinguishable from the serial stage it replicates); an `unordered`
// farm emits in completion order. In `run_process`, an ordered farm's
// successor must be a serial stage or the sink (the reordering point needs
// a single consumer), and no unordered farm may appear upstream of an
// ordered one (wire-level resequencing needs a seq-ordered input stream);
// both violations throw std::logic_error on every rank.
//
// Four drivers with one semantics (deterministic programs produce
// identical results; unordered-farm output is the same multiset):
//
//   run_sequential()  — plain pull loop, the paper's "debug in the
//                       sequential domain" mode; no queues, no threads.
//   run_threaded(cfg) — one thread per serial node; bounded inter-stage
//                       queues with blocking backpressure (occupancy never
//                       exceeds cfg.queue_capacity items — instrumented by
//                       RunStats high-water marks); items move in batches
//                       of cfg.batch; farm batches execute as tasks on the
//                       PR-3 work-stealing pool (core/task.hpp), at most
//                       `width` in flight, each checking out one worker
//                       replica.
//   run_process(p)    — SPMD: each node maps to a block of ranks (farms
//                       get `width` ranks) and every edge gets a dedicated
//                       mailbox tag pair from the world's recyclable tag
//                       space (rank 0 reserves an RAII TagBlock, the world
//                       agrees by broadcast, the block is released when the
//                       run ends). Flow control is credit-based: a
//                       producer spends one credit per batch sent to a
//                       consumer and the consumer returns the credit only
//                       after the batch is fully processed, so per-edge
//                       in-flight data is bounded by the same
//                       queue_capacity/batch budget the threaded queues
//                       enforce. Batches carry a [seq, flags, count]
//                       header; ordered-farm output is resequenced at the
//                       consuming rank.
//   run_engine(sched) — run_process submitted as one job through an
//                       mpl::Scheduler (scheduler.hpp) over a persistent
//                       engine: back-to-back runs reuse warm rank threads,
//                       mailbox lanes and recycled tag blocks — the serving
//                       shape for request streams.
//
// Exception contract: the first exception thrown by any stage (any driver)
// is rethrown exactly once from the run_* call, after shutdown has drained:
// in-flight farm tasks complete, every thread joins (threaded), or the SPMD
// world aborts and joins (run_process, via spmd_run's machinery).
//
// Thread-safety: runs must not overlap. A run *consumes* the source
// callable's captured state (farm workers are re-made per run, the source
// is not): re-running a plan whose source has terminated yields an empty
// stream, so construct a fresh plan per run unless the source is
// deliberately resumable. For run_process, construct the plan inside the
// SPMD body (one plan per rank): roles are disjoint across ranks, but the
// combinator callables themselves are not synchronized.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/graph_error.hpp"
#include "core/task.hpp"
#include "mpl/scheduler.hpp"
#include "mpl/process.hpp"

namespace ppa::pipeline {

/// Tuning knobs shared by the threaded and SPMD drivers.
struct Config {
  /// Bound on each inter-stage queue's occupancy, in items. The threaded
  /// driver blocks producers at this bound; the SPMD driver derives the
  /// per-edge credit budget from it.
  std::size_t queue_capacity = 256;
  /// Items transferred per batch (clamped to queue_capacity).
  std::size_t batch = 16;
};

/// Per-queue instrumentation from a threaded run.
struct QueueStats {
  std::size_t capacity = 0;    ///< configured bound (items)
  std::size_t high_water = 0;  ///< max observed occupancy (items)
  std::uint64_t batches = 0;   ///< batches that crossed the queue
};

/// Result of run_threaded: one entry per inter-stage queue, source-to-sink.
struct RunStats {
  std::vector<QueueStats> queues;
};

/// Farm output-ordering policies (tag types, see farm()).
struct ordered_t {};
struct unordered_t {};
inline constexpr ordered_t ordered{};
inline constexpr unordered_t unordered{};

// --------------------------------------------------------------- builder --

template <typename F>
struct SourceNode {
  F fn;  ///< () -> std::optional<Item>; nullopt ends the stream
};

template <typename F>
struct StageNode {
  F fn;  ///< Item -> Out, or Item -> std::optional<Out> (nullopt filters)
};

template <typename MW>
struct FarmNode {
  int width;        ///< worker replicas (>= 1)
  bool ordered;     ///< re-emit in input order?
  MW make_worker;   ///< () -> Worker; Worker: Item -> Out / std::optional<Out>
};

template <typename F>
struct SinkNode {
  F fn;  ///< Item -> void
};

template <typename F>
[[nodiscard]] SourceNode<std::decay_t<F>> source(F&& fn) {
  return {std::forward<F>(fn)};
}
template <typename F>
[[nodiscard]] StageNode<std::decay_t<F>> stage(F&& fn) {
  return {std::forward<F>(fn)};
}
/// `width` is clamped to at least one replica (a zero-width farm would
/// otherwise hang the threaded driver and divide by zero sequentially).
template <typename MW>
[[nodiscard]] FarmNode<std::decay_t<MW>> farm(int width, MW&& make_worker,
                                              ordered_t) {
  return {std::max(width, 1), true, std::forward<MW>(make_worker)};
}
template <typename MW>
[[nodiscard]] FarmNode<std::decay_t<MW>> farm(int width, MW&& make_worker,
                                              unordered_t) {
  return {std::max(width, 1), false, std::forward<MW>(make_worker)};
}
template <typename F>
[[nodiscard]] SinkNode<std::decay_t<F>> sink(F&& fn) {
  return {std::forward<F>(fn)};
}

// ---------------------------------------------------------------- shape --

/// Per-node shape metadata, source-to-sink. A Plan computes it once from its
/// node types; rank widths, labels and every shape check read it.
struct NodeMeta {
  enum class Kind { kSource, kStage, kFarm, kSink };
  Kind kind = Kind::kStage;
  int replicas = 1;    ///< farm width (serial nodes: 1)
  bool ordered = false;
  int hosted_np = 0;   ///< ranks per hosted job (0 = not a hosted node)
};

/// The node name a GraphShapeError reports for node `index` of `n_nodes`:
/// "source", "sink", "stage#2", "farm#1 (ordered)", "hosted#2 (np=4)",
/// "hosted-farm#3 (unordered, np=2)". Defined in pipeline.cpp.
[[nodiscard]] std::string node_label(const NodeMeta& meta, std::size_t index,
                                     std::size_t n_nodes);

/// Reject an ordered farm anywhere downstream of an unordered one, with a
/// GraphShapeError naming the ordered farm; `what` prefixes the message
/// ("run_process", "graph build"). The order such a farm would restore is
/// already the nondeterministic completion order.
void validate_farm_order(const std::vector<NodeMeta>& meta, const std::string& what);

namespace detail {

/// A stage callable or farm worker factory that runs each item as an np-wide
/// job reports np through hosted_np() (compose::engine_job/engine_farm).
template <typename F>
int hosted_np_of(const F& f) {
  if constexpr (requires { { f.hosted_np() } -> std::convertible_to<int>; }) {
    return f.hosted_np();
  } else {
    return 0;
  }
}

template <typename F>
NodeMeta node_meta(const StageNode<F>& node) {
  return {NodeMeta::Kind::kStage, 1, false, hosted_np_of(node.fn)};
}
template <typename MW>
NodeMeta node_meta(const FarmNode<MW>& node) {
  return {NodeMeta::Kind::kFarm, node.width, node.ordered,
          hosted_np_of(node.make_worker)};
}

// ------------------------------------------------------------ type plumbing

template <typename T>
struct unwrap_optional {
  using type = T;
  static constexpr bool is_optional = false;
};
template <typename T>
struct unwrap_optional<std::optional<T>> {
  using type = T;
  static constexpr bool is_optional = true;
};

template <typename Node>
inline constexpr bool is_farm_node = false;
template <typename MW>
inline constexpr bool is_farm_node<FarmNode<MW>> = true;

/// The item type a node emits given its input item type.
template <typename Node, typename In>
struct node_output;
template <typename F, typename In>
struct node_output<StageNode<F>, In> {
  using raw = std::invoke_result_t<F&, In&&>;
  using type = typename unwrap_optional<raw>::type;
};
template <typename MW, typename In>
struct node_output<FarmNode<MW>, In> {
  using worker = std::decay_t<std::invoke_result_t<MW&>>;
  using raw = std::invoke_result_t<worker&, In&&>;
  using type = typename unwrap_optional<raw>::type;
};
template <typename Node, typename In>
using node_output_t = typename node_output<Node, In>::type;

template <typename MW>
using farm_worker_t = std::decay_t<std::invoke_result_t<MW&>>;

/// Does the farm worker expose an end-of-stream flush()?
template <typename W, typename Out>
concept HasFlush = requires(W& w) {
  { w.flush() } -> std::same_as<std::vector<Out>>;
};

/// A worker with *any* flush() member must match the exact HasFlush
/// signature — otherwise a typo'd return type would silently skip the
/// flush in every driver, dropping all accumulated worker state. Called at
/// each driver's flush site so the mismatch is a compile error instead.
template <typename W, typename Out>
constexpr void assert_flush_signature() {
  if constexpr (requires(W& w) { w.flush(); }) {
    static_assert(HasFlush<W, Out>,
                  "farm worker flush() must return std::vector<Out> where Out "
                  "is the farm's output item type");
  }
}

// ------------------------------------------------------------ error slot --

/// First-exception capture shared by all threads of a run.
class ErrorSlot {
 public:
  void record(std::exception_ptr e) noexcept {
    const std::lock_guard<std::mutex> lk(mutex_);
    if (!error_) {
      error_ = std::move(e);
      set_.store(true, std::memory_order_release);
    }
  }
  [[nodiscard]] bool set() const noexcept {
    return set_.load(std::memory_order_acquire);
  }
  void rethrow_if_set() {
    if (!set()) return;
    std::exception_ptr e;
    {
      const std::lock_guard<std::mutex> lk(mutex_);
      e = std::exchange(error_, nullptr);
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
  std::atomic<bool> set_{false};
};

// --------------------------------------------------------- bounded queue --

/// Bounded MPMC queue of item batches with blocking backpressure. Occupancy
/// is counted in *items*; push blocks while the batch would exceed the
/// capacity (a batch larger than the whole capacity is admitted only into
/// an empty queue, so progress is always possible). close() ends the stream
/// after the queued batches drain; cancel() releases everyone immediately
/// (error shutdown).
template <typename Item>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  enum class PushStatus { kOk, kFull, kCancelled };

  /// Blocks until the batch fits; returns false if the queue was cancelled.
  /// For dedicated stage threads only — a pool task must use
  /// detail::push_helping instead, so the wait cannot starve queued tasks.
  bool push(std::vector<Item> batch) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return cancelled_ || fits(batch.size()); });
    if (cancelled_) return false;
    commit(std::move(batch));
    return true;
  }

  /// Bounded-wait push attempt: on kFull the batch is left untouched so the
  /// caller can do other work (help the pool) and retry.
  PushStatus try_push_for(std::vector<Item>& batch,
                          std::chrono::microseconds timeout) {
    std::unique_lock lock(mutex_);
    not_full_.wait_for(lock, timeout,
                       [&] { return cancelled_ || fits(batch.size()); });
    if (cancelled_) return PushStatus::kCancelled;
    if (!fits(batch.size())) return PushStatus::kFull;
    commit(std::move(batch));
    return PushStatus::kOk;
  }

  /// Blocks until a batch, close-after-drain, or cancel; nullopt ends.
  std::optional<std::vector<Item>> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return cancelled_ || closed_ || !queue_.empty(); });
    if (cancelled_) return std::nullopt;
    if (queue_.empty()) return std::nullopt;  // closed and drained
    std::vector<Item> batch = std::move(queue_.front());
    queue_.pop_front();
    items_ -= batch.size();
    not_full_.notify_one();
    return batch;
  }

  void close() {
    const std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
  }
  void cancel() {
    const std::lock_guard lock(mutex_);
    cancelled_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] QueueStats stats() const {
    const std::lock_guard lock(mutex_);
    return {capacity_, high_water_, batches_};
  }

 private:
  [[nodiscard]] bool fits(std::size_t n) const {
    return items_ + n <= capacity_ || items_ == 0;
  }
  void commit(std::vector<Item> batch) {
    assert(!closed_ && "push after close");
    items_ += batch.size();
    if (items_ > high_water_) high_water_ = items_;
    ++batches_;
    queue_.push_back(std::move(batch));
    not_empty_.notify_one();
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_, not_empty_;
  std::deque<std::vector<Item>> queue_;
  std::size_t capacity_;
  std::size_t items_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t batches_ = 0;
  bool closed_ = false;
  bool cancelled_ = false;
};

/// Push from a pool task: while the destination is full, execute other
/// queued pool tasks instead of parking. A parked pool thread could starve
/// the very tasks (a downstream farm's batches) whose completion would
/// drain the destination — helping breaks that cycle, making blocking
/// backpressure deadlock-free on any pool width and any farm placement.
/// Returns false if the queue was cancelled (error shutdown).
template <typename Item>
bool push_helping(BoundedQueue<Item>& queue, std::vector<Item> batch,
                  task::ThreadPool& pool) {
  for (;;) {
    switch (queue.try_push_for(batch, std::chrono::microseconds(200))) {
      case BoundedQueue<Item>::PushStatus::kOk:
        return true;
      case BoundedQueue<Item>::PushStatus::kCancelled:
        return false;
      case BoundedQueue<Item>::PushStatus::kFull:
        pool.try_run_one();  // run someone else's work while we wait
        break;
    }
  }
}

// ------------------------------------------------- farm worker checkout --

/// Hands out worker replica indices; at most `width` farm batches are in
/// flight because each must hold a replica. Replicas are released by the
/// pool task that used them, so acquisition always terminates.
class WorkerCheckout {
 public:
  explicit WorkerCheckout(std::size_t width) {
    for (std::size_t i = width; i > 0; --i) free_.push_back(i - 1);
  }
  std::size_t acquire() {
    std::unique_lock lock(mutex_);
    available_.wait(lock, [&] { return !free_.empty(); });
    const std::size_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  void release(std::size_t idx) {
    {
      const std::lock_guard lock(mutex_);
      free_.push_back(idx);
    }
    available_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::size_t> free_;
};

// ------------------------------------------------------------- reorderer --

/// Re-emits farm result batches in input-sequence order (threaded driver).
/// Batch seqs are contiguous from 0; results arriving early are buffered.
/// Empty result batches advance the sequence without touching the queue.
/// The mutex is *not* held across the (possibly blocking) queue push: a
/// single drainer at a time emits the contiguous run via push_helping, so
/// concurrent emitters just deposit into the buffer and move on — holding
/// the lock across a blocked push would serialize every other farm task
/// behind it. Because depositors return immediately (releasing their
/// worker replica), the buffer is NOT bounded by the in-flight cap alone;
/// the farm feeder bounds it by blocking in wait_backlog_below before
/// forking more work. The resulting bound is counted in *batches*:
/// roughly max(width, queue_capacity/batch) buffered plus up to `width`
/// in-flight deposits — it cannot drop below `width` batches without
/// idling replicas, so for wide farms the buffered output can exceed the
/// per-queue item budget by about a factor of width·batch/queue_capacity.
template <typename Out>
class Reorderer {
 public:
  bool emit(std::uint64_t seq, std::vector<Out> results, BoundedQueue<Out>& out,
            task::ThreadPool& pool) {
    std::unique_lock lock(mutex_);
    buffer_.emplace(seq, std::move(results));
    if (draining_) return true;  // the active drainer will pick it up
    draining_ = true;
    bool ok = true;
    bool emitted = false;
    while (ok && !buffer_.empty() && buffer_.begin()->first == next_) {
      std::vector<Out> front = std::move(buffer_.begin()->second);
      buffer_.erase(buffer_.begin());
      ++next_;
      emitted = true;
      if (!front.empty()) {
        lock.unlock();
        ok = push_helping(out, std::move(front), pool);
        lock.lock();
      }
    }
    draining_ = false;
    if (emitted) drained_.notify_all();
    return ok;
  }

  /// Block (the farm feeder) until fewer than `bound` result batches are
  /// buffered or `stop()` turns true (error shutdown). Uses a short timed
  /// wait so a cancellation that bypasses the drain loop cannot strand the
  /// feeder.
  template <typename Stop>
  void wait_backlog_below(std::size_t bound, const Stop& stop) {
    std::unique_lock lock(mutex_);
    while (buffer_.size() >= bound && !stop()) {
      drained_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable drained_;
  bool draining_ = false;
  std::uint64_t next_ = 0;
  std::map<std::uint64_t, std::vector<Out>> buffer_;
};

/// Deliver a worker's end-of-stream flush output in queue-batch-sized
/// chunks; `deliver` returns false to stop early (cancelled shutdown).
template <typename Out, typename Deliver>
void for_each_flush_chunk(std::vector<Out> flushed, std::size_t batch,
                          const Deliver& deliver) {
  for (std::size_t off = 0; off < flushed.size(); off += batch) {
    const std::size_t n = std::min(batch, flushed.size() - off);
    std::vector<Out> chunk(
        std::make_move_iterator(flushed.begin() + static_cast<std::ptrdiff_t>(off)),
        std::make_move_iterator(flushed.begin() +
                                static_cast<std::ptrdiff_t>(off + n)));
    if (!deliver(std::move(chunk))) return;
  }
}

// ------------------------------------------------------- SPMD wire layer --

/// Batch message header (followed by `count` items, memcpy'd).
struct WireHeader {
  std::uint64_t seq = 0;
  std::uint32_t flags = 0;
  std::uint32_t count = 0;
};
inline constexpr std::uint32_t kFlagEos = 1u;        ///< producer finished
inline constexpr std::uint32_t kFlagUnordered = 2u;  ///< bypass resequencing

template <typename Item>
struct WireBatch {
  std::uint64_t seq = 0;
  std::uint32_t flags = 0;
  int from = -1;  ///< producer rank (credit return address)
  std::vector<Item> items;
};

template <typename Item>
std::vector<std::byte> pack_batch(std::uint64_t seq, std::uint32_t flags,
                                  const std::vector<Item>& items) {
  static_assert(mpl::Wire<Item>, "run_process items must be trivially copyable");
  WireHeader h{seq, flags, static_cast<std::uint32_t>(items.size())};
  std::vector<std::byte> bytes(sizeof(WireHeader) + items.size() * sizeof(Item));
  std::memcpy(bytes.data(), &h, sizeof h);
  if (!items.empty()) {
    std::memcpy(bytes.data() + sizeof h, items.data(), items.size() * sizeof(Item));
  }
  return bytes;
}

template <typename Item>
WireBatch<Item> unpack_batch(const std::vector<std::byte>& bytes) {
  WireBatch<Item> b;
  WireHeader h;
  assert(bytes.size() >= sizeof h);
  std::memcpy(&h, bytes.data(), sizeof h);
  b.seq = h.seq;
  b.flags = h.flags;
  b.items.resize(h.count);
  assert(bytes.size() == sizeof h + h.count * sizeof(Item));
  if (h.count > 0) {
    std::memcpy(b.items.data(), bytes.data() + sizeof h, h.count * sizeof(Item));
  }
  return b;
}

/// Producer end of one pipeline edge: routes batches to consumers that have
/// granted credit, blocking on credit return when the budget is spent. One
/// credit corresponds to one in-flight batch toward that consumer, so the
/// edge's total in-flight data is bounded by credits · batch items.
template <typename Item>
class EdgeSender {
 public:
  EdgeSender(mpl::Process& p, int data_tag, int credit_tag,
             std::vector<int> consumers, std::uint32_t credit_per_consumer)
      : p_(p),
        data_tag_(data_tag),
        credit_tag_(credit_tag),
        budget_(credit_per_consumer),
        consumers_(std::move(consumers)),
        credits_(consumers_.size(), credit_per_consumer) {}

  void send(std::uint64_t seq, std::uint32_t flags, const std::vector<Item>& items) {
    // Cancellation propagates through the flow control: a producer blocked
    // in a credit wait is released by the abort (WorldAborted from recv),
    // and one that is busy *computing* between batches stops here, at its
    // next send, instead of filling downstream credit it no longer needs.
    if (p_.cancelled()) throw mpl::JobCancelled{};
    std::size_t c = 0;
    if (consumers_.size() == 1) {
      while (credits_[0] == 0) refill();
    } else {
      for (;;) {
        bool found = false;
        for (std::size_t k = 0; k < consumers_.size(); ++k) {
          const std::size_t idx = (round_robin_ + k) % consumers_.size();
          if (credits_[idx] > 0) {
            c = idx;
            round_robin_ = idx + 1;
            found = true;
            break;
          }
        }
        if (found) break;
        refill();
      }
    }
    --credits_[c];
    p_.send(consumers_[c], data_tag_, pack_batch(seq, flags, items));
  }

  /// End of stream: every consumer gets one EOS marker (credit-exempt),
  /// then the outstanding credit returns are drained. The drain leaves this
  /// edge's credit lane empty when the producer's role ends, which is what
  /// makes the run's tag block safe to *recycle* (see run_process): a
  /// reused credit tag can never observe a stale grant from a previous run.
  void send_eos() {
    for (const int c : consumers_) {
      p_.send(c, data_tag_, pack_batch<Item>(0, kFlagEos, {}));
    }
    // Terminates: every in-flight batch is acked by its consumer after
    // processing, and consumers process everything before honoring EOS.
    const auto outstanding = [this] {
      std::uint64_t spent = 0;
      for (const auto c : credits_) spent += budget_ - c;
      return spent;
    };
    while (outstanding() > 0) refill();
  }

 private:
  void refill() {
    const int src = consumers_.size() == 1 ? consumers_[0] : mpl::kAnySource;
    auto [from, grant] = p_.recv_any<std::uint32_t>(src, credit_tag_);
    for (std::size_t i = 0; i < consumers_.size(); ++i) {
      if (consumers_[i] == from) {
        assert(grant.size() == 1);
        credits_[i] += grant.front();
        return;
      }
    }
    assert(false && "credit from a rank that is not a consumer of this edge");
  }

  mpl::Process& p_;
  int data_tag_;
  int credit_tag_;
  std::uint32_t budget_;  ///< initial credits per consumer
  std::vector<int> consumers_;
  std::vector<std::uint32_t> credits_;
  std::size_t round_robin_ = 0;
};

/// Consumer end of one pipeline edge. recv() delivers the next batch —
/// resequenced into input order when the edge leaves an ordered farm — and
/// nullopt once every producer has sent EOS. The caller must ack() each
/// delivered batch after processing it; that returns the credit to the
/// producer, which is what makes the flow control end-to-end (a slow
/// consumer stalls its producers, transitively back to the source).
template <typename Item>
class EdgeReceiver {
 public:
  EdgeReceiver(mpl::Process& p, int data_tag, int credit_tag,
               std::vector<int> producers, bool resequence)
      : p_(p),
        data_tag_(data_tag),
        credit_tag_(credit_tag),
        producers_(std::move(producers)),
        eos_remaining_(producers_.size()),
        resequence_(resequence) {}

  std::optional<WireBatch<Item>> recv() {
    for (;;) {
      // See EdgeSender::send: consumers observe cancellation between
      // batches; a consumer blocked waiting for data is released by the
      // accompanying abort instead.
      if (p_.cancelled()) throw mpl::JobCancelled{};
      if (resequence_ && !pending_.empty() && pending_.begin()->first == next_seq_) {
        WireBatch<Item> b = std::move(pending_.begin()->second);
        pending_.erase(pending_.begin());
        ++next_seq_;
        return b;
      }
      if (eos_remaining_ == 0) {
        assert(pending_.empty() && "ordered edge ended with a sequence gap");
        return std::nullopt;
      }
      const int src = producers_.size() == 1 ? producers_[0] : mpl::kAnySource;
      auto [from, bytes] = p_.recv_any<std::byte>(src, data_tag_);
      WireBatch<Item> b = unpack_batch<Item>(bytes);
      b.from = from;
      if (b.flags & kFlagEos) {
        --eos_remaining_;
        continue;
      }
      if (!resequence_ || (b.flags & kFlagUnordered)) return b;
      if (b.seq == next_seq_) {
        ++next_seq_;
        return b;
      }
      pending_.emplace(b.seq, std::move(b));
    }
  }

  /// Return the batch's credit to its producer (call after processing).
  void ack(const WireBatch<Item>& b) {
    p_.send_value<std::uint32_t>(b.from, credit_tag_, 1);
  }

 private:
  mpl::Process& p_;
  int data_tag_;
  int credit_tag_;
  std::vector<int> producers_;
  std::size_t eos_remaining_;
  bool resequence_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, WireBatch<Item>> pending_;
};

/// Apply a stage/worker callable to every item of a batch, honoring
/// std::optional-filtering returns.
template <typename Out, typename Fn, typename In>
std::vector<Out> apply_batch(Fn& fn, std::vector<In> items) {
  std::vector<Out> out;
  out.reserve(items.size());
  for (auto& item : items) {
    using Raw = std::invoke_result_t<Fn&, In&&>;
    if constexpr (unwrap_optional<Raw>::is_optional) {
      auto r = fn(std::move(item));
      if (r) out.push_back(std::move(*r));
    } else {
      out.push_back(fn(std::move(item)));
    }
  }
  return out;
}

}  // namespace detail

// ------------------------------------------------------------------ plan --

template <typename SrcF, typename SinkF, typename... Mids>
class Plan {
  static constexpr std::size_t kMids = sizeof...(Mids);
  static constexpr std::size_t kEdges = kMids + 1;
  static constexpr std::size_t kNodes = kMids + 2;

  using MidTuple = std::tuple<Mids...>;
  template <std::size_t I>
  using mid_t = std::tuple_element_t<I, MidTuple>;

  using SrcItem = typename detail::unwrap_optional<
      std::invoke_result_t<SrcF&>>::type;

  template <std::size_t I>
  static constexpr auto edge_type_helper() {
    if constexpr (I == 0) {
      return std::type_identity<SrcItem>{};
    } else {
      using Prev = typename decltype(edge_type_helper<I - 1>())::type;
      return std::type_identity<detail::node_output_t<mid_t<I - 1>, Prev>>{};
    }
  }
  /// Item type flowing on edge I (edge 0 leaves the source; edge kMids
  /// enters the sink).
  template <std::size_t I>
  using edge_t = typename decltype(edge_type_helper<I>())::type;

 public:
  Plan(SourceNode<SrcF> src, MidTuple mids, SinkNode<SinkF> snk)
      : src_(std::move(src)),
        mids_(std::move(mids)),
        sink_(std::move(snk)),
        meta_(std::apply(
            [](const auto&... node) {
              return std::vector<NodeMeta>{{NodeMeta::Kind::kSource},
                                           detail::node_meta(node)...,
                                           {NodeMeta::Kind::kSink}};
            },
            mids_)) {}

  /// Shape metadata, one record per node, source-to-sink. The compose layer
  /// (core/compose.hpp) reads it to check a graph against an engine's width.
  [[nodiscard]] const std::vector<NodeMeta>& node_meta() const noexcept {
    return meta_;
  }

  /// Ranks run_process needs: one per serial node, `width` per farm.
  [[nodiscard]] int ranks_required() const {
    int total = 0;
    for (const auto& m : meta_) total += m.replicas;
    return total;
  }

  /// Ranks per node, source-to-sink (serial nodes 1, farms their replica
  /// count).
  [[nodiscard]] std::vector<int> node_widths() const {
    std::vector<int> widths;
    widths.reserve(kNodes);
    for (const auto& m : meta_) widths.push_back(m.replicas);
    return widths;
  }

  /// Nodes in the graph, counting source and sink.
  [[nodiscard]] static constexpr std::size_t node_count() noexcept {
    return kNodes;
  }

  /// The name GraphShapeError reports for node `j` (source = 0).
  [[nodiscard]] std::string node_label(std::size_t j) const {
    return pipeline::node_label(meta_[j], j, kNodes);
  }

  // ------------------------------------------------------- sequential --

  /// Version-1 execution: a plain pull loop. Farm items are dealt to worker
  /// replicas round-robin; farm flushes run at end-of-stream in pipeline
  /// and worker order.
  void run_sequential() {
    auto states = make_seq_states(std::make_index_sequence<kMids>{});
    while (auto item = src_.fn()) {
      feed_seq<0>(states, std::move(*item));
    }
    flush_seq<0>(states);
  }

  // --------------------------------------------------------- threaded --

  RunStats run_threaded(Config cfg = Config{}) {
    normalize(cfg);
    return run_threaded_impl(cfg, std::make_index_sequence<kMids>{});
  }

  // ------------------------------------------------------------- SPMD --

  /// SPMD driver; call from every rank of the world (collectively). Ranks
  /// beyond ranks_required() idle through the run. Throws on every rank if
  /// the world is too small or an ordered farm feeds another farm.
  void run_process(mpl::Process& p, Config cfg = Config{}) {
    normalize(cfg);
    const auto widths = node_widths();
    validate_process_layout();
    const int required = ranks_required();
    if (p.size() < required) {
      // Name the first node whose rank block does not fit the world.
      int acc = 0;
      std::size_t offender = kNodes - 1;
      for (std::size_t j = 0; j < kNodes; ++j) {
        acc += widths[j];
        if (acc > p.size()) {
          offender = j;
          break;
        }
      }
      throw GraphShapeError(node_label(offender), required, p.size(),
                            "run_process: world too small for the stage graph");
    }
    // Every edge gets a private [data, credit] tag pair; rank 0 alone
    // reserves a fresh block from the *world's* recyclable tag space and
    // the world agrees on it by broadcast, so concurrent/successive
    // pipelines never collide (and the tag space is spent once per run, not
    // once per rank). The block is released when rank 0's role completes:
    // the EOS credit drain leaves every lane of the block empty by the time
    // any rank finishes, and the next reserve on this world happens only
    // after the next run's broadcast — i.e. after every rank has left this
    // run — so recycling can never collide with in-flight traffic. On a
    // persistent engine this is what lets an unbounded stream of pipeline
    // jobs run on one World without exhausting the tag space.
    int reserved = 0;
    mpl::TagBlock block;
    if (p.rank() == 0) {
      block = p.world().reserve_tags(2 * static_cast<int>(kEdges));
      reserved = block.base();
    }
    const int tag_base = p.broadcast_value(reserved, 0);
    std::vector<int> base(kNodes);
    for (std::size_t j = 1; j < kNodes; ++j) base[j] = base[j - 1] + widths[j - 1];
    run_process_dispatch(p, cfg, widths, base, tag_base,
                         std::make_index_sequence<kNodes>{});
  }

  /// Submit this plan as one SPMD job on a persistent engine, through a
  /// space-sharing Scheduler (mpl/scheduler.hpp): every rank of the job runs
  /// run_process, and back-to-back submissions reuse the engine's warm rank
  /// threads, mailbox lanes and (recycled) tag blocks — the serving shape
  /// for a stream of pipeline requests. A narrow pipeline runs concurrently
  /// with other narrow jobs on a wide engine and queues (priority-ordered,
  /// bounded) when ranks are busy. `nprocs` defaults to exactly
  /// ranks_required(); it must fit the scheduler's width(). Remember the
  /// source-consumption contract: construct a fresh plan per run unless the
  /// source is deliberately resumable. `options` attaches a deadline /
  /// cancel token / watchdog to the job (mpl/job.hpp); a deadline counts
  /// from submission, so queueing time is charged against it (the serving
  /// SLO contract). On cancellation, stages blocked in credit or data waits
  /// release via the abort and computing stages stop at their next edge
  /// operation.
  mpl::TraceSnapshot run_engine(mpl::Scheduler& scheduler,
                                Config cfg = Config{}, int nprocs = 0,
                                mpl::Priority priority = mpl::Priority::kNormal,
                                const mpl::JobOptions& options = {}) {
    if (nprocs <= 0) nprocs = ranks_required();
    return scheduler.run(
        nprocs, [&](mpl::Process& p) { run_process(p, cfg); }, priority, options);
  }

 private:
  static void normalize(Config& cfg) {
    if (cfg.queue_capacity == 0) cfg.queue_capacity = 1;
    if (cfg.batch == 0) cfg.batch = 1;
    if (cfg.batch > cfg.queue_capacity) cfg.batch = cfg.queue_capacity;
  }

  void validate_process_layout() const {
    // Two wire-level constraints on ordered farms (both irrelevant to the
    // threaded driver, whose reordering happens inside the farm node):
    //
    //  * the successor must be a serial stage or the sink — resequencing
    //    needs a single consuming rank;
    //  * the input stream must still be in sequence order, i.e. no
    //    unordered farm may appear upstream. Resequencing (and its credit
    //    deadlock-freedom argument) relies on batches entering the ordered
    //    farm's workers in global seq order; an unordered farm scrambles
    //    the seqs, after which a withheld out-of-order ack can starve the
    //    producer holding the missing seq.
    for (std::size_t j = 1; j + 1 < kNodes; ++j) {
      if (meta_[j].ordered && meta_[j + 1].replicas > 1) {
        throw GraphShapeError(
            node_label(j), 1, meta_[j + 1].replicas,
            "run_process: an ordered farm must feed a serial stage or the sink "
            "(its resequencing point needs a single consuming rank)");
      }
    }
    validate_farm_order(meta_, "run_process");
  }

  /// Is there an ordered farm strictly after mid `i`? (Its resequencer
  /// would need the seq numbering still contiguous at this point.)
  [[nodiscard]] bool ordered_farm_after(std::size_t i) const {
    return std::any_of(meta_.begin() + static_cast<std::ptrdiff_t>(i + 2),
                       meta_.end(), [](const NodeMeta& m) { return m.ordered; });
  }

  // ------------------------------------------------- sequential driver --

  template <typename W>
  struct FarmSeqState {
    std::vector<W> workers;
    std::uint64_t next = 0;
  };

  template <std::size_t... Is>
  auto make_seq_states(std::index_sequence<Is...>) {
    return std::make_tuple(make_seq_state<Is>()...);
  }
  template <std::size_t I>
  auto make_seq_state() {
    if constexpr (detail::is_farm_node<mid_t<I>>) {
      auto& node = std::get<I>(mids_);
      using W = detail::farm_worker_t<decltype(node.make_worker)>;
      FarmSeqState<W> state;
      state.workers.reserve(static_cast<std::size_t>(node.width));
      for (int k = 0; k < node.width; ++k) state.workers.push_back(node.make_worker());
      return state;
    } else {
      return std::monostate{};
    }
  }

  template <std::size_t I, typename States, typename T>
  void feed_seq(States& states, T&& item) {
    if constexpr (I == kMids) {
      sink_.fn(std::forward<T>(item));
    } else {
      auto& node = std::get<I>(mids_);
      if constexpr (detail::is_farm_node<mid_t<I>>) {
        auto& state = std::get<I>(states);
        auto& worker = state.workers[state.next++ % state.workers.size()];
        forward_seq<I>(states, worker, std::forward<T>(item));
      } else {
        forward_seq<I>(states, node.fn, std::forward<T>(item));
      }
    }
  }
  template <std::size_t I, typename States, typename Fn, typename T>
  void forward_seq(States& states, Fn& fn, T&& item) {
    using Raw = std::invoke_result_t<Fn&, T&&>;
    if constexpr (detail::unwrap_optional<Raw>::is_optional) {
      auto r = fn(std::forward<T>(item));
      if (r) feed_seq<I + 1>(states, std::move(*r));
    } else {
      feed_seq<I + 1>(states, fn(std::forward<T>(item)));
    }
  }

  template <std::size_t I, typename States>
  void flush_seq(States& states) {
    if constexpr (I < kMids) {
      if constexpr (detail::is_farm_node<mid_t<I>>) {
        auto& state = std::get<I>(states);
        using W = typename std::decay_t<decltype(state.workers)>::value_type;
        detail::assert_flush_signature<W, edge_t<I + 1>>();
        if constexpr (detail::HasFlush<W, edge_t<I + 1>>) {
          for (auto& worker : state.workers) {
            for (auto& out : worker.flush()) {
              feed_seq<I + 1>(states, std::move(out));
            }
          }
        }
      }
      flush_seq<I + 1>(states);
    }
  }

  // --------------------------------------------------- threaded driver --

  template <std::size_t... Is>
  RunStats run_threaded_impl(const Config& cfg, std::index_sequence<Is...>) {
    std::tuple<detail::BoundedQueue<edge_t<Is>>..., detail::BoundedQueue<edge_t<kMids>>>
        queues{((void)Is, cfg.queue_capacity)..., cfg.queue_capacity};
    detail::ErrorSlot error;
    const auto cancel_all = [&queues] {
      std::apply([](auto&... q) { (q.cancel(), ...); }, queues);
    };
    {
      std::vector<std::jthread> threads;
      threads.reserve(kNodes);
      threads.emplace_back([&] { source_loop(cfg, std::get<0>(queues), error, cancel_all); });
      (threads.emplace_back([&] {
        mid_loop<Is>(cfg, std::get<Is>(queues), std::get<Is + 1>(queues), error,
                     cancel_all);
      }),
       ...);
      threads.emplace_back([&] {
        sink_loop(std::get<kMids>(queues), error, cancel_all);
      });
    }  // jthreads join
    error.rethrow_if_set();
    RunStats stats;
    stats.queues.reserve(kEdges);
    std::apply([&stats](auto&... q) { (stats.queues.push_back(q.stats()), ...); },
               queues);
    return stats;
  }

  template <typename Cancel>
  void source_loop(const Config& cfg, detail::BoundedQueue<SrcItem>& out,
                   detail::ErrorSlot& error, const Cancel& cancel_all) {
    try {
      std::vector<SrcItem> acc;
      acc.reserve(cfg.batch);
      while (auto item = src_.fn()) {
        acc.push_back(std::move(*item));
        if (acc.size() >= cfg.batch) {
          if (!out.push(std::move(acc))) break;
          acc = {};
          acc.reserve(cfg.batch);
        }
      }
      if (!acc.empty()) out.push(std::move(acc));
    } catch (...) {
      error.record(std::current_exception());
      cancel_all();
    }
    out.close();
  }

  template <std::size_t I, typename Cancel>
  void mid_loop(const Config& cfg, detail::BoundedQueue<edge_t<I>>& in,
                detail::BoundedQueue<edge_t<I + 1>>& out, detail::ErrorSlot& error,
                const Cancel& cancel_all) {
    if constexpr (detail::is_farm_node<mid_t<I>>) {
      farm_loop<I>(cfg, in, out, error, cancel_all);
    } else {
      try {
        while (auto batch = in.pop()) {
          auto results = detail::apply_batch<edge_t<I + 1>>(std::get<I>(mids_).fn,
                                                            std::move(*batch));
          if (!results.empty() && !out.push(std::move(results))) break;
        }
      } catch (...) {
        error.record(std::current_exception());
        cancel_all();
      }
      out.close();
    }
  }

  template <std::size_t I, typename Cancel>
  void farm_loop(const Config& cfg, detail::BoundedQueue<edge_t<I>>& in,
                 detail::BoundedQueue<edge_t<I + 1>>& out, detail::ErrorSlot& error,
                 const Cancel& cancel_all) {
    using Out = edge_t<I + 1>;
    auto& node = std::get<I>(mids_);
    using W = detail::farm_worker_t<decltype(node.make_worker)>;
    try {
      std::vector<W> workers;
      workers.reserve(static_cast<std::size_t>(node.width));
      for (int k = 0; k < node.width; ++k) workers.push_back(node.make_worker());
      detail::WorkerCheckout checkout(static_cast<std::size_t>(node.width));
      detail::Reorderer<Out> reorder;
      task::TaskGroup group;
      task::ThreadPool& pool = group.pool();
      // Bound on result batches parked in the reorderer awaiting their
      // turn: without it a blocked drainer would let completed batches
      // accumulate without limit while replicas keep being recycled.
      const std::size_t backlog_bound =
          std::max<std::size_t>(static_cast<std::size_t>(node.width),
                                std::max<std::size_t>(1, cfg.queue_capacity / cfg.batch));
      std::uint64_t seq = 0;
      while (auto batch = in.pop()) {
        if (error.set()) break;
        if (node.ordered) {
          reorder.wait_backlog_below(backlog_bound, [&] { return error.set(); });
        }
        const std::uint64_t s = seq++;
        const std::size_t wi = checkout.acquire();
        group.run([this, &node, &workers, &checkout, &reorder, &out, &error,
                   &cancel_all, &pool, wi, s, b = std::move(*batch)]() mutable {
          try {
            auto results = detail::apply_batch<Out>(workers[wi], std::move(b));
            if (node.ordered) {
              reorder.emit(s, std::move(results), out, pool);
            } else if (!results.empty()) {
              detail::push_helping(out, std::move(results), pool);
            }
          } catch (...) {
            error.record(std::current_exception());
            cancel_all();
          }
          checkout.release(wi);
        });
      }
      group.wait();  // drain in-flight farm tasks before shutdown
      detail::assert_flush_signature<W, Out>();
      if (!error.set()) {
        if constexpr (detail::HasFlush<W, Out>) {
          for (auto& worker : workers) {
            detail::for_each_flush_chunk(
                worker.flush(), cfg.batch, [&](std::vector<Out> chunk) {
                  return detail::push_helping(out, std::move(chunk), pool);
                });
          }
        }
      }
    } catch (...) {
      error.record(std::current_exception());
      cancel_all();
    }
    out.close();
  }

  template <typename Cancel>
  void sink_loop(detail::BoundedQueue<edge_t<kMids>>& in, detail::ErrorSlot& error,
                 const Cancel& cancel_all) {
    try {
      while (auto batch = in.pop()) {
        for (auto& item : *batch) sink_.fn(std::move(item));
      }
    } catch (...) {
      error.record(std::current_exception());
      cancel_all();
    }
  }

  // ------------------------------------------------------- SPMD driver --

  template <std::size_t... Js>
  void run_process_dispatch(mpl::Process& p, const Config& cfg,
                            const std::vector<int>& widths,
                            const std::vector<int>& base, int tag_base,
                            std::index_sequence<Js...>) {
    const int rank = p.rank();
    bool matched = false;
    ((matched = matched ||
                (rank >= base[Js] && rank < base[Js] + widths[Js] &&
                 (run_node_role<Js>(p, cfg, widths, base, tag_base), true))),
     ...);
    (void)matched;  // ranks beyond the graph idle through the run
  }

  [[nodiscard]] static std::uint32_t pair_credit(const Config& cfg, int wprod,
                                                 int wcons) {
    const std::size_t cap_batches =
        std::max<std::size_t>(1, cfg.queue_capacity / cfg.batch);
    const auto fan = static_cast<std::size_t>(std::max(wprod, wcons));
    return static_cast<std::uint32_t>(std::max<std::size_t>(1, cap_batches / fan));
  }

  static std::vector<int> node_ranks(const std::vector<int>& widths,
                                     const std::vector<int>& base, std::size_t j) {
    std::vector<int> ranks(static_cast<std::size_t>(widths[j]));
    for (std::size_t k = 0; k < ranks.size(); ++k) {
      ranks[k] = base[j] + static_cast<int>(k);
    }
    return ranks;
  }

  /// Build the sender for edge E (producer: node E, consumer: node E+1).
  template <std::size_t E, typename Item>
  detail::EdgeSender<Item> make_sender(mpl::Process& p, const Config& cfg,
                                       const std::vector<int>& widths,
                                       const std::vector<int>& base, int tag_base) {
    return detail::EdgeSender<Item>(
        p, tag_base + 2 * static_cast<int>(E), tag_base + 2 * static_cast<int>(E) + 1,
        node_ranks(widths, base, E + 1), pair_credit(cfg, widths[E], widths[E + 1]));
  }
  /// Build the receiver for edge E; resequences if the producer node is an
  /// ordered farm.
  template <std::size_t E, typename Item>
  detail::EdgeReceiver<Item> make_receiver(mpl::Process& p,
                                           const std::vector<int>& widths,
                                           const std::vector<int>& base,
                                           int tag_base) {
    return detail::EdgeReceiver<Item>(p, tag_base + 2 * static_cast<int>(E),
                                      tag_base + 2 * static_cast<int>(E) + 1,
                                      node_ranks(widths, base, E), meta_[E].ordered);
  }

  template <std::size_t J>
  void run_node_role(mpl::Process& p, const Config& cfg,
                     const std::vector<int>& widths, const std::vector<int>& base,
                     int tag_base) {
    if constexpr (J == 0) {
      run_source_role(p, cfg, widths, base, tag_base);
    } else if constexpr (J == kNodes - 1) {
      run_sink_role(p, widths, base, tag_base);
    } else {
      run_mid_role<J - 1>(p, cfg, widths, base, tag_base);
    }
  }

  void run_source_role(mpl::Process& p, const Config& cfg,
                       const std::vector<int>& widths, const std::vector<int>& base,
                       int tag_base) {
    auto tx = make_sender<0, SrcItem>(p, cfg, widths, base, tag_base);
    std::vector<SrcItem> acc;
    acc.reserve(cfg.batch);
    std::uint64_t seq = 0;
    while (auto item = src_.fn()) {
      acc.push_back(std::move(*item));
      if (acc.size() >= cfg.batch) {
        tx.send(seq++, 0, acc);
        acc.clear();
      }
    }
    if (!acc.empty()) tx.send(seq++, 0, acc);
    tx.send_eos();
  }

  template <std::size_t I>
  void run_mid_role(mpl::Process& p, const Config& cfg,
                    const std::vector<int>& widths, const std::vector<int>& base,
                    int tag_base) {
    using In = edge_t<I>;
    using Out = edge_t<I + 1>;
    auto rx = make_receiver<I, In>(p, widths, base, tag_base);
    auto tx = make_sender<I + 1, Out>(p, cfg, widths, base, tag_base);
    if constexpr (detail::is_farm_node<mid_t<I>>) {
      auto& node = std::get<I>(mids_);
      using W = detail::farm_worker_t<decltype(node.make_worker)>;
      W worker = node.make_worker();
      while (auto b = rx.recv()) {
        auto results = detail::apply_batch<Out>(worker, std::move(b->items));
        // An ordered farm forwards even empty batches — its consumer needs
        // contiguous sequence numbers to resequence. On unordered edges an
        // empty result (a fully filtering worker) sends nothing.
        if (node.ordered || !results.empty()) {
          tx.send(b->seq, b->flags & detail::kFlagUnordered, results);
        }
        rx.ack(*b);
      }
      detail::assert_flush_signature<W, Out>();
      if constexpr (detail::HasFlush<W, Out>) {
        detail::for_each_flush_chunk(worker.flush(), cfg.batch,
                                     [&](std::vector<Out> chunk) {
                                       tx.send(0, detail::kFlagUnordered, chunk);
                                       return true;
                                     });
      }
      tx.send_eos();
    } else {
      auto& node = std::get<I>(mids_);
      // With an ordered farm anywhere downstream, every source seq must
      // keep traveling — the farm's output resequencer needs the numbering
      // contiguous — so a batch filtered to empty is still forwarded.
      // Otherwise empties can be dropped here.
      const bool keep_empties = ordered_farm_after(I);
      while (auto b = rx.recv()) {
        auto results = detail::apply_batch<Out>(node.fn, std::move(b->items));
        if (keep_empties || !results.empty()) {
          tx.send(b->seq, b->flags & detail::kFlagUnordered, results);
        }
        rx.ack(*b);
      }
      tx.send_eos();
    }
  }

  void run_sink_role(mpl::Process& p, const std::vector<int>& widths,
                     const std::vector<int>& base, int tag_base) {
    using In = edge_t<kMids>;
    auto rx = make_receiver<kMids, In>(p, widths, base, tag_base);
    while (auto b = rx.recv()) {
      for (auto& item : b->items) sink_.fn(std::move(item));
      rx.ack(*b);
    }
  }

  SourceNode<SrcF> src_;
  MidTuple mids_;
  SinkNode<SinkF> sink_;
  std::vector<NodeMeta> meta_;
};

// -------------------------------------------------------- composition ----

namespace detail {

/// A source followed by zero or more mid nodes; becomes a Plan at the sink.
template <typename SrcF, typename... Mids>
struct OpenPipe {
  SourceNode<SrcF> src;
  std::tuple<Mids...> mids;
};

}  // namespace detail

template <typename SrcF, typename F>
[[nodiscard]] auto operator|(SourceNode<SrcF> src, StageNode<F> s) {
  return detail::OpenPipe<SrcF, StageNode<F>>{std::move(src),
                                              std::tuple<StageNode<F>>{std::move(s)}};
}
template <typename SrcF, typename MW>
[[nodiscard]] auto operator|(SourceNode<SrcF> src, FarmNode<MW> f) {
  return detail::OpenPipe<SrcF, FarmNode<MW>>{std::move(src),
                                              std::tuple<FarmNode<MW>>{std::move(f)}};
}
template <typename SrcF, typename F>
[[nodiscard]] auto operator|(SourceNode<SrcF> src, SinkNode<F> snk) {
  return Plan<SrcF, F>(std::move(src), std::tuple<>{}, std::move(snk));
}
template <typename SrcF, typename... Mids, typename F>
[[nodiscard]] auto operator|(detail::OpenPipe<SrcF, Mids...> open, StageNode<F> s) {
  return detail::OpenPipe<SrcF, Mids..., StageNode<F>>{
      std::move(open.src),
      std::tuple_cat(std::move(open.mids), std::tuple<StageNode<F>>{std::move(s)})};
}
template <typename SrcF, typename... Mids, typename MW>
[[nodiscard]] auto operator|(detail::OpenPipe<SrcF, Mids...> open, FarmNode<MW> f) {
  return detail::OpenPipe<SrcF, Mids..., FarmNode<MW>>{
      std::move(open.src),
      std::tuple_cat(std::move(open.mids), std::tuple<FarmNode<MW>>{std::move(f)})};
}
template <typename SrcF, typename... Mids, typename F>
[[nodiscard]] auto operator|(detail::OpenPipe<SrcF, Mids...> open, SinkNode<F> snk) {
  return Plan<SrcF, F, Mids...>(std::move(open.src), std::move(open.mids),
                                std::move(snk));
}

}  // namespace ppa::pipeline
