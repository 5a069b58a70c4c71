// ppa/mpl/trace.hpp
//
// Communication tracing. The paper's central claim is that an archetype
// *implies* a communication structure ("It is straightforward to infer the
// interprocess communication required ... from dataflow patterns"); the
// tracer lets tests assert that the implementation realizes exactly the
// predicted pattern (e.g. one all-to-all during the one-deep merge phase, one
// boundary exchange plus one allreduce per Jacobi step).
//
// Beyond message/op counts, the tracer distinguishes *logical* traffic
// (bytes addressed to a destination) from *physical* copies (bytes actually
// memcpy'd during pack/unpack). With shared-buffer payloads a broadcast
// moves O(p · n) logical bytes while copying only O(n) per rank; tests pin
// that property. Per-sender byte counters expose load imbalance: a
// root-bottlenecked collective shows up as one rank sending O(p · n) while
// the others send nothing.
//
// Thread-safety: each rank counts into its own cache-line-aligned shard
// (plus one overflow shard for ranks outside the trace's size, so a
// default-constructed trace still counts), so ranks sending at once never
// write a shared line. count_* calls are thread-safe, wait-free and never
// block. snapshot() sums the shards with relaxed loads: exact once the
// ranks have joined. TraceSnapshot is an immutable value type.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ppa::mpl {

/// Categories of traced events. kSend counts every point-to-point message
/// (including those issued internally by collectives); the collective
/// counters count one event per *participating rank* per call.
enum class Op : int {
  kSend = 0,
  kBarrier,
  kBroadcast,
  kGather,
  kAllgather,
  kScatter,
  kReduce,
  kAllreduce,
  kAlltoall,
  kScan,
  kCount_  // sentinel
};

inline constexpr int kOpCount = static_cast<int>(Op::kCount_);

[[nodiscard]] std::string op_name(Op op);

/// Immutable snapshot of trace counters.
struct TraceSnapshot {
  std::uint64_t messages = 0;     ///< total point-to-point messages
  std::uint64_t bytes = 0;        ///< total logical payload bytes
  std::uint64_t copies = 0;       ///< pack/unpack memcpy events
  std::uint64_t copied_bytes = 0; ///< bytes physically memcpy'd
  std::array<std::uint64_t, kOpCount> ops{};
  std::vector<std::uint64_t> sent_bytes_by_rank;  ///< logical bytes per sender

  [[nodiscard]] std::uint64_t op(Op o) const {
    return ops[static_cast<std::size_t>(o)];
  }
  /// Largest per-sender byte count (0 when per-rank tracking is off).
  [[nodiscard]] std::uint64_t max_sent_by_any_rank() const;
  /// Human-readable multi-line summary.
  [[nodiscard]] std::string to_string() const;
};

/// Thread-safe counters for the ranks of a World, one shard per rank.
/// Constructing with a world size enables per-sender byte accounting.
class CommTrace {
 public:
  explicit CommTrace(int nranks = 0);

  void count_message(int source, std::uint64_t payload_bytes) {
    Shard& s = shard(source);
    s.messages.fetch_add(1, std::memory_order_relaxed);
    s.bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  void count_copy(int rank, std::uint64_t copied) {
    Shard& s = shard(rank);
    s.copies.fetch_add(1, std::memory_order_relaxed);
    s.copied_bytes.fetch_add(copied, std::memory_order_relaxed);
  }
  void count_op(int rank, Op op) {
    shard(rank).ops[static_cast<std::size_t>(op)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void reset();
  [[nodiscard]] TraceSnapshot snapshot() const;

 private:
  /// One rank's counters; a shard's `bytes` is that rank's sent bytes.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> copies{0};
    std::atomic<std::uint64_t> copied_bytes{0};
    std::array<std::atomic<std::uint64_t>, kOpCount> ops{};
  };

  /// The rank's shard; negative and out-of-range ranks share the last one.
  Shard& shard(int rank) noexcept {
    const auto i = static_cast<std::size_t>(rank);
    return shards_[i < nranks_ ? i : nranks_];
  }

  std::size_t nranks_;
  std::vector<Shard> shards_;  ///< nranks_ rank shards, then the overflow
};

}  // namespace ppa::mpl
