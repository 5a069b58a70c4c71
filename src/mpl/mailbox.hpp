// ppa/mpl/mailbox.hpp
//
// Per-rank incoming message queue, organized as one *lane per sender rank*.
// Senders push envelopes (never blocking — lanes are unbounded, which makes
// the collective algorithms trivially deadlock-free); receivers block until
// a message matching (source, tag) arrives.
//
// Why lanes: the dominant receive is an exact (source, tag) match issued by
// collectives and neighbor exchanges. With a single deque that match is an
// O(all pending) scan under one mutex, and every push wakes every blocked
// receiver. With per-source lanes the match scans only messages queued from
// that source, senders to the same mailbox do not contend with each other,
// and a push wakes only a receiver waiting on that lane.
//
// Hot path: the lane table is a fixed array of atomic slots sized at
// construction (one per sender rank), so lane lookup is a single acquire
// load — no table lock. Sources beyond the pre-sized table (standalone /
// ad-hoc use) fall back to a small mutex-guarded overflow map.
//
// Semantics preserved from the single-deque design:
//   - FIFO per (source, tag) pair (MPI's non-overtaking guarantee): a lane
//     is FIFO per source, and tag filtering preserves relative order.
//   - Wildcards: kAnyTag scans the lane in arrival order; kAnySource picks
//     the globally earliest matching arrival across lanes (every envelope is
//     stamped with an arrival sequence number), which is the strongest —
//     and deterministic — ordering the old global deque provided. The stamp
//     and the enqueue are atomic per lane and the wildcard search rescans
//     until stable, so this holds even against concurrent producers:
//     successive kAnySource receives observe strictly increasing arrival
//     seqs, while interleaved lane-targeted receives see per-source FIFO.
//   - abort() releases every blocked receiver with WorldAborted.
//
// Thread-safety and blocking contract: a Mailbox is fully thread-safe —
// any thread may push; the owning rank (usually one thread) pops. push and
// try_pop never block; pop blocks (spin briefly, then park) until a match
// arrives or the world aborts. Envelopes transfer payload ownership by
// refcount — no data is copied through the queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "mpl/fault.hpp"
#include "mpl/message.hpp"

namespace ppa::mpl {

/// Thrown out of blocked operations when the SPMD world is torn down because
/// some rank failed; see World::abort().
struct WorldAborted : std::runtime_error {
  WorldAborted() : std::runtime_error("ppa::mpl world aborted (a rank failed)") {}
};

class Mailbox {
 public:
  /// `nsenders` sizes the lock-free lane table (one slot per possible
  /// source rank); higher source ranks still work via the overflow map.
  explicit Mailbox(int nsenders = 0);
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue a message (called by the *sender's* thread). Never blocks. The
  /// envelope is stamped and queued under the lane lock; spinning receivers
  /// are told after the unlock, parked ones by the notify that follows.
  void push(Envelope env);

  /// Block until a message matching (source, tag) is available and return it.
  /// Either selector may be a wildcard (kAnySource / kAnyTag).
  /// Throws WorldAborted if the world is aborted while waiting.
  Envelope pop(int source, int tag);

  /// Non-blocking variant; returns false if no matching message is queued.
  bool try_pop(int source, int tag, Envelope& out);

  /// Number of queued messages (diagnostic; takes each lane's lock).
  [[nodiscard]] std::size_t pending() const;

  /// Number of times a blocked receiver woke without finding a matching
  /// message (diagnostic; the single-deque design produced one per blocked
  /// receiver per unrelated push — the "wakeup storm").
  [[nodiscard]] std::uint64_t futile_wakeups() const noexcept {
    return futile_wakeups_.load(std::memory_order_relaxed);
  }

  /// Wake all blocked receivers with WorldAborted.
  void abort();

  /// Drop every queued message, restart arrival sequence numbering and
  /// clear any abort, re-arming the mailbox for a new job epoch. The lane
  /// table is preserved (that is the warm-start win: no re-allocation).
  /// Precondition: no thread is blocked in pop — the engine resets only
  /// between jobs, after every rank has rendezvoused.
  void reset();

  /// Identify the owning rank and its heartbeat counter (see
  /// World::bump_progress): every successful pop bumps the counter, and the
  /// fault-injection pop site reports `owner` as its rank. Optional — a
  /// standalone mailbox works without it.
  void bind_owner(int owner, std::atomic<std::uint64_t>* progress) noexcept {
    owner_ = owner;
    progress_ = progress;
  }

 private:
  /// One sender rank's FIFO queue with its own mutex and wakeup channel.
  /// `pushes` counts arrivals monotonically and is bumped after the push
  /// releases `mutex`; a receiver spins briefly on it (no lock) before
  /// parking on the condvar, which removes the futex round-trip from tight
  /// request/reply exchanges.
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Envelope> queue;
    std::atomic<std::uint64_t> pushes{0};
  };

  /// Minimum lane-table size for default-constructed mailboxes.
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] static bool tag_matches(const Envelope& env, int tag) noexcept {
    return tag == kAnyTag || env.tag == tag;
  }

  /// Lane for `source`; lock-free lookup for pre-sized sources, creating
  /// lazily (and via the overflow map beyond the table). The returned
  /// reference is stable for the mailbox's lifetime.
  Lane& lane_for(int source);
  Lane* slow_lane_for(int source);

  /// Visit every existing lane (table + overflow) in source order.
  template <typename F>
  void for_each_lane(F&& f) const;

  /// Extract the first tag-match from one lane; lane.mutex must be held.
  bool extract_from_lane(Lane& lane, int tag, Envelope& out);

  /// Extract the earliest-arrival tag-match across all lanes.
  bool extract_any_source(int tag, Envelope& out);

  Envelope pop_from_lane(int source, int tag);
  Envelope pop_any_source(int tag);

  std::vector<std::atomic<Lane*>> slots_;  ///< fixed size; lock-free reads

  // Lane creation and overflow sources (>= slots_.size()) are rare; both go
  // through growth_mutex_. owned_ keeps every lane alive for destruction.
  mutable std::mutex growth_mutex_;
  std::vector<std::unique_ptr<Lane>> owned_;
  std::vector<std::pair<int, Lane*>> overflow_;  ///< sorted by source

  // Wildcard receivers wait here; push notifies only when one is registered.
  std::mutex any_mutex_;
  std::condition_variable any_cv_;
  std::atomic<int> any_waiters_{0};

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> futile_wakeups_{0};
  std::atomic<bool> aborted_{false};

  int owner_ = -1;                               ///< see bind_owner
  std::atomic<std::uint64_t>* progress_ = nullptr;  ///< owner's heartbeat
};

}  // namespace ppa::mpl
