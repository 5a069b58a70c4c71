// ppa/mpl/process.hpp
//
// The per-rank handle given to each SPMD process body. Provides tagged
// point-to-point send/recv plus the collective operations the two archetypes
// require (paper sections 3.4 and 4.3):
//
//   one-deep divide and conquer:  all-to-all (split/merge redistribution),
//                                 gather + broadcast or allgather (parameter
//                                 computation), broadcast (parameter
//                                 distribution)
//   mesh-spectral:                grid redistribution (all-to-all), boundary
//                                 exchange (point-to-point, see meshspectral/),
//                                 broadcast of global data, reductions via
//                                 recursive doubling (paper Fig 9)
//
// Collective algorithms and their per-rank costs (p ranks, n payload bytes):
//
//   broadcast       binomial tree, shared payload   O(log p) msgs, O(n) copies
//   allgather       recursive doubling (p = 2^k)    O(log p) rounds
//                   ring (other p)                  p-1 rounds, O(n) bytes/rank
//   allreduce_vec   ring reduce-scatter + allgather 2(p-1) rounds, O(n) bytes
//                   (small vectors: binomial reduce + broadcast)
//   scatter         binomial tree of part-bundles   O(log p) msgs at root
//   reduce          binomial tree                   O(log p) rounds
//   allreduce       recursive doubling (p = 2^k)    O(log p) rounds
//   alltoall        direct personalized exchange    p-1 msgs/rank, adopted bufs
//
// No collective funnels O(p · n) work or traffic through a single root; tests
// pin this via the tracer's per-sender byte counters.
//
// Collective calls must be issued by all ranks in the same order (the SPMD
// discipline); internal message tags are derived from a per-rank collective
// sequence number, which therefore agrees across ranks and cannot collide
// with user tags (user tags must be non-negative; internal tags are negative).
//
// Thread-safety and blocking contract: a Process is the private handle of
// one rank's thread — do not share it across threads. send* never block;
// recv*, sendrecv, barrier and every collective block until satisfied (and
// throw WorldAborted if the world is torn down). Ownership fast paths:
// send(..., std::move(vec)) adopts the buffer (caller relinquishes it);
// recv_borrow returns a zero-copy view valid while the Received<T> lives;
// recv_into deserializes into caller-owned storage.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "mpl/fault.hpp"
#include "mpl/job.hpp"
#include "mpl/message.hpp"
#include "mpl/world.hpp"

namespace ppa::mpl {

/// Common reduction operators (associative and commutative).
struct MaxOp {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};
struct MinOp {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};
struct SumOp {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};

/// A received message whose typed contents are *borrowed* from the payload
/// buffer (zero-copy). Keep the object alive while using view().
template <Wire T>
class Received {
 public:
  Received(Envelope env) : env_(std::move(env)) {}  // NOLINT
  [[nodiscard]] std::span<const T> view() const { return payload_view<T>(env_.payload); }
  [[nodiscard]] int source() const noexcept { return env_.source; }
  [[nodiscard]] int tag() const noexcept { return env_.tag; }

 private:
  Envelope env_;
};

class Process {
 public:
  Process(World& world, int rank) : world_(world), rank_(rank), prank_(rank) {
    assert(rank >= 0 && rank < world.size());
  }
  /// Bind to one job of a space-shared World: this rank's *logical* rank
  /// is `rank` in [0, job.nprocs()); the physical rank it occupies is
  /// job.physical(rank). All communication, the barrier, the trace and
  /// cancellation are scoped to the job, so the body observes exactly
  /// what it would observe running solo on ranks [0, nprocs).
  Process(JobContext& job, int rank)
      : world_(job.world()), job_(&job), rank_(rank), prank_(job.physical(rank)) {
    assert(rank >= 0 && rank < job.nprocs());
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  /// Ranks participating in this SPMD computation. On an engine-backed
  /// World this is the *job's* width, which may be smaller than the
  /// engine capacity world().size().
  [[nodiscard]] int size() const noexcept {
    return job_ != nullptr ? job_->nprocs() : world_.active_size();
  }
  [[nodiscard]] World& world() noexcept { return world_; }
  /// This computation's communication trace: the job's own tracer on a
  /// space-shared World (concurrent jobs never mix counters), the World's
  /// otherwise.
  [[nodiscard]] CommTrace& trace() noexcept {
    return job_ != nullptr ? job_->trace() : world_.trace();
  }
  [[nodiscard]] bool is_root(int root = 0) const noexcept { return rank_ == root; }

  /// True when this job's cancellation was requested (the submitter's
  /// CancelToken fired, the deadline/watchdog tripped, or another rank
  /// called request_cancel()). Compute-heavy bodies should poll this
  /// between phases; blocked communication is released separately by the
  /// accompanying abort.
  [[nodiscard]] bool cancelled() const noexcept {
    return job_ != nullptr ? job_->cancel_requested() : world_.cancel_requested();
  }
  /// Poll-and-exit helper: throws JobCancelled when cancelled() is true,
  /// which marks the job as cancelled at the submitter.
  void throw_if_cancelled() const {
    if (cancelled()) throw JobCancelled{};
  }

  // --- point-to-point -----------------------------------------------------

  /// Send `data` to `dest` with user tag `tag` (must be >= 0). Never blocks.
  template <Wire T>
  void send(int dest, int tag, std::span<const T> data) {
    assert(tag >= 0 && "user tags must be non-negative");
    send_raw(dest, tag, pack_traced(data));
  }
  template <Wire T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send<T>(dest, tag, std::span<const T>(data));
  }
  /// Send adopting the vector's buffer: no serialization copy. The buffer
  /// becomes immutable shared payload; the distributed-memory discipline is
  /// preserved because the sender relinquishes it.
  template <Wire T>
  void send(int dest, int tag, std::vector<T>&& data) {
    assert(tag >= 0 && "user tags must be non-negative");
    send_raw(dest, tag, Payload::adopt(std::move(data)));
  }
  /// Send a single value.
  template <Wire T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  /// Block until a message matching (source, tag) arrives; returns payload.
  template <Wire T>
  std::vector<T> recv(int source, int tag) {
    return unpack_traced<T>(recv_envelope(source, tag).payload);
  }
  /// Receive a message known to carry exactly one value.
  template <Wire T>
  T recv_value(int source, int tag) {
    auto v = recv<T>(source, tag);
    assert(v.size() == 1);
    return v.front();
  }
  /// Receive returning the actual source (useful with kAnySource).
  template <Wire T>
  std::pair<int, std::vector<T>> recv_any(int source, int tag) {
    Envelope env = recv_envelope(source, tag);
    const int src = env.source;
    return {src, unpack_traced<T>(env.payload)};
  }
  /// Receive directly into caller-owned storage (one copy, no intermediate
  /// vector); returns the element count.
  template <Wire T>
  std::size_t recv_into(int source, int tag, std::span<T> out) {
    const Envelope env = recv_envelope(source, tag);
    trace().count_copy(rank_, env.payload.size());
    return unpack_into<T>(env.payload, out);
  }
  /// Receive borrowing the payload buffer (zero copies); the returned
  /// object owns the buffer and exposes a typed read-only view.
  template <Wire T>
  Received<T> recv_borrow(int source, int tag) {
    return Received<T>(recv_envelope(source, tag));
  }

  /// Combined send+recv (safe in any order because sends never block).
  template <Wire T>
  std::vector<T> sendrecv(int dest, int send_tag, std::span<const T> data,
                          int source, int recv_tag) {
    send(dest, send_tag, data);
    return recv<T>(source, recv_tag);
  }

  // --- collectives ----------------------------------------------------------

  /// Barrier synchronization across all ranks of this job.
  void barrier() {
    trace().count_op(rank_, Op::kBarrier);
    // Fault sites key on the *physical* rank: each physical rank belongs to
    // one job at a time, so its per-(site, rank) op-counter stream stays
    // deterministic even when concurrent jobs interleave arbitrarily.
    (void)fault_point(FaultSite::kBarrier, prank_);
    // Arrival is this rank's heartbeat: a rank *waiting* for stragglers has
    // done its part; only ranks that never arrive read as stalled.
    world_.bump_progress(prank_);
    (job_ != nullptr ? job_->barrier() : world_.barrier()).arrive_and_wait();
  }

  /// Binomial-tree broadcast of a buffer from `root`. On non-root ranks the
  /// contents of `data` are replaced; sizes need not match beforehand. The
  /// payload buffer is shared down the tree: each rank forwards the same
  /// immutable buffer (refcount bump) and performs exactly one unpack copy,
  /// so total physical copies are O(p · n) instead of O(p · n · depth).
  template <Wire T>
  void broadcast(std::vector<T>& data, int root = 0) {
    trace().count_op(rank_, Op::kBroadcast);
    collective_entry();
    const int tag = next_internal_tag();
    broadcast_impl(data, root, tag);
  }
  /// Broadcast a single value from root; returns the value on every rank.
  template <Wire T>
  T broadcast_value(T value, int root = 0) {
    std::vector<T> buf{value};
    broadcast(buf, root);
    return buf.front();
  }

  /// Gather per-rank blocks to `root`, as one vector per source rank
  /// (gatherv semantics: blocks may have different sizes). Non-root ranks
  /// receive an empty result.
  template <Wire T>
  std::vector<std::vector<T>> gather_parts(std::span<const T> local, int root = 0) {
    trace().count_op(rank_, Op::kGather);
    collective_entry();
    const int tag = next_internal_tag();
    return gather_parts_impl(local, root, tag);
  }
  /// Gather and concatenate in rank order at root.
  template <Wire T>
  std::vector<T> gather(std::span<const T> local, int root = 0) {
    auto parts = gather_parts(local, root);
    return concat(std::move(parts));
  }

  /// All ranks obtain every rank's block (gatherv semantics). Recursive
  /// doubling for power-of-two world sizes (log2 p rounds), ring otherwise
  /// (p-1 rounds, O(total) bytes per rank) — no gather-to-root bottleneck.
  /// Block sizes travel inline with the data (a per-block header), so no
  /// separate size exchange is needed.
  template <Wire T>
  std::vector<std::vector<T>> allgather_parts(std::span<const T> local) {
    trace().count_op(rank_, Op::kAllgather);
    collective_entry();
    const int tag = next_internal_tag();
    auto blocks = ((size() & (size() - 1)) == 0)
                      ? allgather_blocks_doubling(std::as_bytes(local), tag)
                      : allgather_blocks_ring(std::as_bytes(local), tag);
    std::vector<std::vector<T>> out;
    out.reserve(blocks.size());
    for (auto& b : blocks) {
      trace().count_copy(rank_, b.size());
      out.push_back(unpack<T>(std::span<const std::byte>(b)));
    }
    return out;
  }
  /// Allgather concatenated in rank order.
  template <Wire T>
  std::vector<T> allgather(std::span<const T> local) {
    return concat(allgather_parts(local));
  }
  template <Wire T>
  std::vector<T> allgather_value(const T& value) {
    return concat(allgather_parts(std::span<const T>(&value, 1)));
  }

  /// Root distributes parts[j] to rank j; returns this rank's part.
  /// `parts` is ignored on non-root ranks. Binomial tree: the root sends
  /// O(log p) subtree bundles instead of p-1 individual messages.
  template <Wire T>
  std::vector<T> scatter(const std::vector<std::vector<T>>& parts, int root = 0) {
    trace().count_op(rank_, Op::kScatter);
    collective_entry();
    const int tag = next_internal_tag();
    return scatter_impl(parts, root, tag);
  }

  /// Binomial-tree reduction to `root`. `op` must be associative; the
  /// combination order is deterministic for a given world size.
  template <Wire T, typename BinaryOp>
  T reduce(const T& local, BinaryOp op, int root = 0) {
    trace().count_op(rank_, Op::kReduce);
    collective_entry();
    const int tag = next_internal_tag();
    return reduce_impl(local, op, root, tag);
  }

  /// Allreduce. For power-of-two world sizes this is textbook recursive
  /// doubling (the paper's Fig 9); otherwise reduce-to-root plus broadcast.
  template <Wire T, typename BinaryOp>
  T allreduce(const T& local, BinaryOp op) {
    trace().count_op(rank_, Op::kAllreduce);
    collective_entry();
    const int p = size();
    if ((p & (p - 1)) == 0) {
      const int tag = next_internal_tag();
      T acc = local;
      for (int mask = 1; mask < p; mask <<= 1) {
        const int partner = rank_ ^ mask;
        send_raw(partner, tag, pack_traced(std::span<const T>(&acc, 1)));
        const T other = recv_internal_value<T>(partner, tag);
        acc = op(acc, other);
      }
      return acc;
    }
    const int tag_reduce = next_internal_tag();
    const int tag_bcast = next_internal_tag();
    T total = reduce_impl(local, op, 0, tag_reduce);
    std::vector<T> buf{total};
    broadcast_impl(buf, 0, tag_bcast);
    return buf.front();
  }

  /// Element-wise allreduce over equal-length vectors. Large vectors use a
  /// ring reduce-scatter + ring allgather (2(p-1) rounds, O(n) bytes and
  /// O(n) reduction work per rank — bandwidth-optimal, no root hotspot);
  /// small vectors use a binomial reduce + broadcast (latency-optimal).
  /// Both association orders are deterministic for a given world size.
  template <Wire T, typename BinaryOp>
  std::vector<T> allreduce_vec(std::span<const T> local, BinaryOp op) {
    trace().count_op(rank_, Op::kAllreduce);
    collective_entry();
    const int p = size();
    if (p == 1) return {local.begin(), local.end()};
    if (local.size_bytes() >= kRingAllreduceBytes &&
        local.size() >= static_cast<std::size_t>(p)) {
      return allreduce_vec_ring(local, op);
    }
    const int tag_reduce = next_internal_tag();
    const int tag_bcast = next_internal_tag();
    auto acc = reduce_vec_impl(local, op, 0, tag_reduce);
    broadcast_impl(acc, 0, tag_bcast);
    return acc;
  }

  /// Personalized all-to-all exchange ("every process p sending to every
  /// other process q a distinct portion of its data" — paper section 3.4).
  /// parts[j] is this rank's contribution destined for rank j; the result's
  /// element [i] is the part received from rank i (with [rank()] moved from
  /// the input, not sent through the mailbox). Outgoing buffers are adopted
  /// as payloads — no serialization copy.
  template <Wire T>
  std::vector<std::vector<T>> alltoall(std::vector<std::vector<T>> parts) {
    trace().count_op(rank_, Op::kAlltoall);
    collective_entry();
    assert(static_cast<int>(parts.size()) == size());
    const int tag = next_internal_tag();
    const int p = size();
    for (int dest = 0; dest < p; ++dest) {
      if (dest == rank_) continue;
      send_raw(dest, tag, Payload::adopt(std::move(parts[static_cast<std::size_t>(dest)])));
    }
    std::vector<std::vector<T>> received(static_cast<std::size_t>(p));
    received[static_cast<std::size_t>(rank_)] =
        std::move(parts[static_cast<std::size_t>(rank_)]);
    for (int src = 0; src < p; ++src) {
      if (src == rank_) continue;
      received[static_cast<std::size_t>(src)] = recv_internal<T>(src, tag);
    }
    return received;
  }

  /// Exclusive prefix scan (linear chain). Rank 0 receives `init`; rank r
  /// receives op(init, local_0, ..., local_{r-1}).
  template <Wire T, typename BinaryOp>
  T exscan(const T& local, BinaryOp op, const T& init = T{}) {
    trace().count_op(rank_, Op::kScan);
    collective_entry();
    const int tag = next_internal_tag();
    T acc = init;
    if (rank_ > 0) acc = recv_internal_value<T>(rank_ - 1, tag);
    if (rank_ + 1 < size()) {
      const T forward = op(acc, local);
      send_raw(rank_ + 1, tag, pack_traced(std::span<const T>(&forward, 1)));
    }
    return acc;
  }

 private:
  /// Vectors at or above this byte size take the ring allreduce path.
  static constexpr std::size_t kRingAllreduceBytes = 2048;

  /// Fault-injection site shared by every collective's entry (physical
  /// rank: see the barrier note on determinism under space-sharing).
  void collective_entry() { (void)fault_point(FaultSite::kCollective, prank_); }

  /// Physical rank occupied by logical rank `r` of this computation.
  [[nodiscard]] int physical(int r) const noexcept {
    return job_ != nullptr ? job_->physical(r) : r;
  }

  // Raw send with tracing; used by both user sends and collectives.
  // `dest` is a logical rank; envelopes travel with *physical* source ranks
  // (mailbox lanes are per physical sender) and recv_envelope translates
  // back, so job bodies only ever observe logical ranks.
  void send_raw(int dest, int tag, Payload payload) {
    trace().count_message(rank_, payload.size());
    // Sends never block, so a completed push is sender progress (heartbeat
    // for the watchdog) even when the matching receive is far away.
    world_.bump_progress(prank_);
    world_.mailbox(physical(dest)).push(Envelope{prank_, tag, std::move(payload)});
  }

  /// Serialize with physical-copy accounting.
  template <Wire T>
  Payload pack_traced(std::span<const T> data) {
    trace().count_copy(rank_, data.size_bytes());
    return pack_payload(data);
  }
  /// Deserialize with physical-copy accounting.
  template <Wire T>
  std::vector<T> unpack_traced(const Payload& payload) {
    trace().count_copy(rank_, payload.size());
    return unpack<T>(payload);
  }

  template <Wire T>
  std::vector<T> recv_internal(int source, int tag) {
    return unpack_traced<T>(recv_envelope(source, tag).payload);
  }
  template <Wire T>
  T recv_internal_value(int source, int tag) {
    auto v = recv_internal<T>(source, tag);
    assert(v.size() == 1);
    return v.front();
  }
  /// Pop from this rank's (physical) mailbox with logical<->physical
  /// translation: a non-wildcard `source` selects the lane of its physical
  /// rank, and the returned envelope's source is rewritten back to the
  /// sender's logical rank (wildcard receives can only match same-job
  /// senders — nobody else pushes into this job's mailboxes).
  Envelope recv_envelope(int source, int tag) {
    const int lane = source >= 0 ? physical(source) : source;
    Envelope env = world_.mailbox(prank_).pop(lane, tag);
    if (job_ != nullptr && env.source >= 0) env.source = job_->logical(env.source);
    return env;
  }

  /// Internal tags are negative and advance per collective call; SPMD order
  /// guarantees agreement across ranks. 2^30 tags before wrap-around.
  int next_internal_tag() noexcept {
    collective_seq_ = (collective_seq_ + 1) & 0x3FFFFFFF;
    return -1 - static_cast<int>(collective_seq_);
  }

  template <Wire T>
  void broadcast_impl(std::vector<T>& data, int root, int tag) {
    const int p = size();
    if (p == 1) return;
    const int vrank = (rank_ - root + p) % p;
    Payload payload;
    int mask = 1;
    if (vrank == 0) {
      payload = pack_traced(std::span<const T>(data));
      while (mask < p) mask <<= 1;
    } else {
      while (mask < p) {
        if (vrank & mask) break;
        mask <<= 1;
      }
      // Lowest set bit found: receive the shared buffer from the parent.
      payload = recv_envelope((vrank - mask + root) % p, tag).payload;
    }
    // Forward the same immutable buffer to children (refcount bumps only).
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < p) {
        send_raw((vrank + mask + root) % p, tag, payload);
      }
      mask >>= 1;
    }
    if (vrank != 0) data = unpack_traced<T>(payload);
  }

  template <Wire T>
  std::vector<std::vector<T>> gather_parts_impl(std::span<const T> local, int root,
                                                int tag) {
    const int p = size();
    if (rank_ != root) {
      send_raw(root, tag, pack_traced(local));
      return {};
    }
    std::vector<std::vector<T>> parts(static_cast<std::size_t>(p));
    parts[static_cast<std::size_t>(root)].assign(local.begin(), local.end());
    for (int src = 0; src < p; ++src) {
      if (src == root) continue;
      parts[static_cast<std::size_t>(src)] = recv_internal<T>(src, tag);
    }
    return parts;
  }

  template <Wire T, typename BinaryOp>
  T reduce_impl(const T& local, BinaryOp op, int root, int tag) {
    const int p = size();
    const int vrank = (rank_ - root + p) % p;
    T acc = local;
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vrank & mask) {
        const int dest = (vrank - mask + root) % p;
        send_raw(dest, tag, pack_traced(std::span<const T>(&acc, 1)));
        return acc;  // contribution handed off; value only meaningful at root
      }
      if (vrank + mask < p) {
        const int src = (vrank + mask + root) % p;
        const T other = recv_internal_value<T>(src, tag);
        acc = op(acc, other);
      }
    }
    return acc;
  }

  /// Element-wise binomial-tree reduction of equal-length vectors to `root`.
  template <Wire T, typename BinaryOp>
  std::vector<T> reduce_vec_impl(std::span<const T> local, BinaryOp op, int root,
                                 int tag) {
    const int p = size();
    const int vrank = (rank_ - root + p) % p;
    std::vector<T> acc(local.begin(), local.end());
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vrank & mask) {
        send_raw((vrank - mask + root) % p, tag, Payload::adopt(std::move(acc)));
        return {};  // contribution handed off
      }
      if (vrank + mask < p) {
        const int src = (vrank + mask + root) % p;
        const auto other = recv_borrow_internal<T>(src, tag);
        const auto view = other.view();
        assert(view.size() == acc.size());
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(acc[i], view[i]);
      }
    }
    return acc;
  }

  template <Wire T>
  Received<T> recv_borrow_internal(int source, int tag) {
    return Received<T>(recv_envelope(source, tag));
  }

  /// Ring allreduce: reduce-scatter (p-1 rounds over p contiguous segments)
  /// followed by ring allgather of the reduced segments (p-1 rounds).
  /// Segment s is accumulated in rank order s+1, s+2, ..., s (mod p) — a
  /// fixed association order for a given world size.
  template <Wire T, typename BinaryOp>
  std::vector<T> allreduce_vec_ring(std::span<const T> local, BinaryOp op) {
    const int p = size();
    const int tag_rs = next_internal_tag();
    const int tag_ag = next_internal_tag();
    const std::size_t n = local.size();
    std::vector<T> acc(local.begin(), local.end());
    const auto seg_lo = [&](int s) { return n * static_cast<std::size_t>(s) /
                                            static_cast<std::size_t>(p); };
    const auto segment = [&](int s) {
      return std::span<T>(acc).subspan(seg_lo(s), seg_lo(s + 1) - seg_lo(s));
    };
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;

    // Reduce-scatter: in round k, pass the running partial of segment
    // (rank - k) and fold the incoming partial of segment (rank - k - 1)
    // into the local copy. After p-1 rounds rank r owns segment (r+1) mod p.
    for (int k = 0; k < p - 1; ++k) {
      const int send_seg = (rank_ - k + p) % p;
      const int recv_seg = (rank_ - k - 1 + 2 * p) % p;
      const auto out = segment(send_seg);
      send_raw(right, tag_rs, pack_traced(std::span<const T>(out.data(), out.size())));
      const auto in = recv_borrow_internal<T>(left, tag_rs);
      const auto view = in.view();
      const auto mine = segment(recv_seg);
      assert(view.size() == mine.size());
      for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = op(view[i], mine[i]);
    }
    // Allgather: circulate the fully reduced segments around the ring.
    for (int k = 0; k < p - 1; ++k) {
      const int send_seg = (rank_ + 1 - k + 2 * p) % p;
      const int recv_seg = (rank_ - k + 2 * p) % p;
      const auto out = segment(send_seg);
      send_raw(right, tag_ag, pack_traced(std::span<const T>(out.data(), out.size())));
      const auto in = recv_borrow_internal<T>(left, tag_ag);
      const auto view = in.view();
      const auto mine = segment(recv_seg);
      assert(view.size() == mine.size());
      std::memcpy(mine.data(), view.data(), view.size() * sizeof(T));
      trace().count_copy(rank_, view.size() * sizeof(T));
    }
    return acc;
  }

  // ----- sized-block bundles (wire format for allgather/scatter) ----------
  //
  // A bundle is a byte sequence of records: [u64 origin_rank][u64 nbytes]
  // [nbytes bytes]. Sizes ride with the data, so ragged (gatherv-style)
  // blocks need no separate size exchange.

  struct BlockRef {
    std::uint64_t origin;
    std::span<const std::byte> bytes;
  };

  static void append_record(std::vector<std::byte>& bundle, std::uint64_t origin,
                            std::span<const std::byte> bytes) {
    const std::uint64_t header[2] = {origin, bytes.size()};
    const auto* h = reinterpret_cast<const std::byte*>(header);
    bundle.insert(bundle.end(), h, h + sizeof(header));
    bundle.insert(bundle.end(), bytes.begin(), bytes.end());
  }

  static std::vector<BlockRef> parse_bundle(std::span<const std::byte> bundle) {
    std::vector<BlockRef> blocks;
    std::size_t off = 0;
    while (off < bundle.size()) {
      std::uint64_t header[2];
      assert(off + sizeof(header) <= bundle.size());
      std::memcpy(header, bundle.data() + off, sizeof(header));
      off += sizeof(header);
      assert(off + header[1] <= bundle.size());
      blocks.push_back({header[0], bundle.subspan(off, header[1])});
      off += header[1];
    }
    return blocks;
  }

  /// Recursive-doubling allgather of one byte block per rank (p = 2^k).
  /// Round i exchanges all blocks accumulated so far with partner rank^2^i.
  std::vector<std::vector<std::byte>> allgather_blocks_doubling(
      std::span<const std::byte> local, int tag) {
    const int p = size();
    std::vector<std::vector<std::byte>> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(rank_)].assign(local.begin(), local.end());
    std::vector<int> held{rank_};
    for (int mask = 1; mask < p; mask <<= 1) {
      const int partner = rank_ ^ mask;
      std::vector<std::byte> bundle;
      for (const int r : held) {
        append_record(bundle, static_cast<std::uint64_t>(r),
                      blocks[static_cast<std::size_t>(r)]);
      }
      trace().count_copy(rank_, bundle.size());
      send_raw(partner, tag, Payload::adopt(std::move(bundle)));
      const Envelope env = recv_envelope(partner, tag);
      for (const auto& block : parse_bundle(env.payload.bytes())) {
        const auto r = static_cast<std::size_t>(block.origin);
        trace().count_copy(rank_, block.bytes.size());
        blocks[r].assign(block.bytes.begin(), block.bytes.end());
        held.push_back(static_cast<int>(r));
      }
    }
    return blocks;
  }

  /// Ring allgather of one byte block per rank (any p): p-1 rounds, each
  /// rank relaying the block it received in the previous round.
  std::vector<std::vector<std::byte>> allgather_blocks_ring(
      std::span<const std::byte> local, int tag) {
    const int p = size();
    std::vector<std::vector<std::byte>> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(rank_)].assign(local.begin(), local.end());
    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int k = 0; k < p - 1; ++k) {
      const int send_origin = (rank_ - k + p) % p;
      std::vector<std::byte> bundle;
      append_record(bundle, static_cast<std::uint64_t>(send_origin),
                    blocks[static_cast<std::size_t>(send_origin)]);
      trace().count_copy(rank_, bundle.size());
      send_raw(right, tag, Payload::adopt(std::move(bundle)));
      const Envelope env = recv_envelope(left, tag);
      for (const auto& block : parse_bundle(env.payload.bytes())) {
        const auto r = static_cast<std::size_t>(block.origin);
        trace().count_copy(rank_, block.bytes.size());
        blocks[r].assign(block.bytes.begin(), block.bytes.end());
      }
    }
    return blocks;
  }

  /// Binomial-tree scatter: the same tree as broadcast_impl, but each edge
  /// carries only the bundle of parts destined for the child's subtree.
  template <Wire T>
  std::vector<T> scatter_impl(const std::vector<std::vector<T>>& parts, int root,
                              int tag) {
    const int p = size();
    if (p == 1) {
      assert(parts.size() == 1);
      return parts.front();
    }
    const int vrank = (rank_ - root + p) % p;

    std::vector<T> mine;
    // subtree[v - vrank] holds the raw bytes destined for vrank v of this
    // node's subtree [vrank, vrank + span).
    std::vector<std::vector<std::byte>> subtree;
    int span_pow2 = 1;  // subtree width as a power of two
    if (vrank == 0) {
      assert(static_cast<int>(parts.size()) == p);
      while (span_pow2 < p) span_pow2 <<= 1;
      mine = parts[static_cast<std::size_t>(root)];
      subtree.resize(static_cast<std::size_t>(p));
      for (int v = 1; v < p; ++v) {
        const auto dest = static_cast<std::size_t>((v + root) % p);
        trace().count_copy(rank_, parts[dest].size() * sizeof(T));
        subtree[static_cast<std::size_t>(v)] =
            pack(std::span<const T>(parts[dest]));
      }
    } else {
      int mask = 1;
      while ((vrank & mask) == 0) mask <<= 1;
      span_pow2 = mask;
      const Envelope env = recv_envelope((vrank - mask + root) % p, tag);
      subtree.resize(static_cast<std::size_t>(std::min(mask, p - vrank)));
      for (const auto& block : parse_bundle(env.payload.bytes())) {
        const auto v = static_cast<int>(block.origin);
        assert(v >= vrank && v < vrank + static_cast<int>(subtree.size()));
        if (v == vrank) {
          trace().count_copy(rank_, block.bytes.size());
          mine = unpack<T>(block.bytes);
        } else {
          subtree[static_cast<std::size_t>(v - vrank)].assign(block.bytes.begin(),
                                                              block.bytes.end());
        }
      }
    }
    // Peel off child subtrees from widest to narrowest.
    for (int mask = span_pow2 >> 1; mask >= 1; mask >>= 1) {
      const int child = vrank + mask;
      if (child >= p) continue;
      const int child_end = std::min(child + mask, p);
      std::vector<std::byte> bundle;
      for (int v = child; v < child_end; ++v) {
        append_record(bundle, static_cast<std::uint64_t>(v),
                      subtree[static_cast<std::size_t>(v - vrank)]);
        subtree[static_cast<std::size_t>(v - vrank)].clear();
      }
      trace().count_copy(rank_, bundle.size());
      send_raw((child + root) % p, tag, Payload::adopt(std::move(bundle)));
    }
    return mine;
  }

  template <Wire T>
  static std::vector<T> concat(std::vector<std::vector<T>> parts) {
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  World& world_;
  JobContext* job_ = nullptr;  ///< non-null when bound to a space-shared job
  int rank_;                   ///< logical rank within the computation
  int prank_;                  ///< physical rank (== rank_ without a job)
  std::uint32_t collective_seq_ = 0;
};

}  // namespace ppa::mpl
