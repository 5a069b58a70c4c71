#include "mpl/mailbox.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <thread>
#include <utility>

namespace ppa::mpl {

namespace {
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spinning before sleeping only pays when another core can be producing
/// concurrently; on a single-CPU host it just delays the sender's schedule.
bool spin_worthwhile() {
  static const bool enabled = std::thread::hardware_concurrency() > 1;
  return enabled;
}
}  // namespace

Mailbox::Mailbox(int nsenders)
    : slots_(std::max(static_cast<std::size_t>(nsenders > 0 ? nsenders : 0),
                      kMinSlots)) {
  assert(nsenders >= 0);
  // Pre-create the lanes for known senders so the hot path never takes the
  // growth mutex.
  const std::scoped_lock lock(growth_mutex_);
  owned_.reserve(static_cast<std::size_t>(nsenders));
  for (int s = 0; s < nsenders; ++s) {
    owned_.push_back(std::make_unique<Lane>());
    slots_[static_cast<std::size_t>(s)].store(owned_.back().get(),
                                              std::memory_order_release);
  }
}

Mailbox::Lane& Mailbox::lane_for(int source) {
  assert(source >= 0 && "message source must be a valid rank");
  const auto idx = static_cast<std::size_t>(source);
  if (idx < slots_.size()) {
    Lane* lane = slots_[idx].load(std::memory_order_acquire);
    if (lane != nullptr) return *lane;
  }
  return *slow_lane_for(source);
}

Mailbox::Lane* Mailbox::slow_lane_for(int source) {
  const auto idx = static_cast<std::size_t>(source);
  const std::scoped_lock lock(growth_mutex_);
  if (idx < slots_.size()) {
    Lane* lane = slots_[idx].load(std::memory_order_relaxed);
    if (lane == nullptr) {
      owned_.push_back(std::make_unique<Lane>());
      lane = owned_.back().get();
      slots_[idx].store(lane, std::memory_order_release);
    }
    return lane;
  }
  const auto it = std::lower_bound(
      overflow_.begin(), overflow_.end(), source,
      [](const auto& entry, int s) { return entry.first < s; });
  if (it != overflow_.end() && it->first == source) return it->second;
  owned_.push_back(std::make_unique<Lane>());
  Lane* lane = owned_.back().get();
  overflow_.insert(it, {source, lane});
  return lane;
}

template <typename F>
void Mailbox::for_each_lane(F&& f) const {
  for (const auto& slot : slots_) {
    Lane* lane = slot.load(std::memory_order_acquire);
    if (lane != nullptr) f(*lane);
  }
  const std::scoped_lock lock(growth_mutex_);
  for (const auto& [source, lane] : overflow_) f(*lane);
}

void Mailbox::push(Envelope env) {
  // Fault-injection send site (one relaxed load when disabled): a kDelay
  // rule stalls this sender — reordering pressure against faster peers — a
  // kDrop rule discards the message after the sender's trace accounting
  // (wire loss: the receiver wedges until watchdog/deadline rescue), and a
  // kThrow rule raises FaultInjected out of the send.
  if (fault_point(FaultSite::kMailboxPush, env.source) ==
      FaultAction::kDropMessage) {
    return;
  }
  Lane& lane = lane_for(env.source);
  {
    // Stamp the arrival sequence number *inside* the lane critical section:
    // stamping and enqueueing are then atomic with respect to receivers
    // scanning this lane, which is what makes the wildcard stable-rescan in
    // extract_any_source sound (a message stamped before a scan begins is
    // guaranteed visible to that scan). Stamping outside the lock opened a
    // window where a lower-seq message was stamped but not yet queued, so a
    // concurrent kAnySource receive could return a later arrival first.
    const std::scoped_lock lock(lane.mutex);
    env.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    lane.queue.push_back(std::move(env));
  }
  // Publish to spinning receivers only after the unlock: a bump inside the
  // critical section lets a spinner see it while the lock is still held and
  // block on the mutex (a futex sleep/wake). Parked receivers rely on the
  // enqueue under the lock and the notify below, not on this counter.
  lane.pushes.fetch_add(1, std::memory_order_release);
  // Targeted wake: only a receiver parked on this lane is disturbed. (At
  // most one thread — the mailbox owner — ever waits on a lane in the SPMD
  // runtime, so notify_all costs the same as notify_one and is robust to
  // standalone multi-consumer use.)
  lane.cv.notify_all();
  // Wildcard receivers park on a separate channel; skip the notify entirely
  // when none is registered (the common case).
  if (any_waiters_.load(std::memory_order_acquire) > 0) {
    const std::scoped_lock lock(any_mutex_);
    any_cv_.notify_all();
  }
}

bool Mailbox::extract_from_lane(Lane& lane, int tag, Envelope& out) {
  for (auto it = lane.queue.begin(); it != lane.queue.end(); ++it) {
    if (tag_matches(*it, tag)) {
      out = std::move(*it);
      lane.queue.erase(it);
      return true;
    }
  }
  return false;
}

bool Mailbox::extract_any_source(int tag, Envelope& out) {
  // One full pass over the lanes (locking one lane at a time): the lane
  // holding the earliest-arrival match, and that arrival's seq.
  const auto find_best = [&](Lane*& best, std::uint64_t& best_seq) {
    best = nullptr;
    best_seq = std::numeric_limits<std::uint64_t>::max();
    for_each_lane([&](Lane& lane) {
      const std::scoped_lock lock(lane.mutex);
      for (const auto& env : lane.queue) {
        if (tag_matches(env, tag)) {
          if (env.seq < best_seq) {
            best_seq = env.seq;
            best = &lane;
          }
          break;  // later entries in this lane arrived later
        }
      }
    });
  };
  // A single pass is not enough when pushes race it: the pass may read
  // lane A before a low-seq message lands there and lane B after a
  // higher-seq one landed — choosing the later arrival. Because push
  // stamps and enqueues atomically under the lane lock, two facts hold:
  // (a) a pass sees every pending message stamped before the pass began,
  // and (b) the global stamp counter is the complete record of stamping —
  // if it did not move across a pass, no push raced it and the pass's
  // candidate is the true earliest (the uncontended fast path: one scan
  // plus two atomic loads). If the counter moved, rescan until a full
  // pass finds nothing earlier than the current candidate: the candidate
  // predates that stable pass, so by (a) any earlier pending message
  // would have been seen by it. The candidate seq strictly decreases
  // across rescans, so the loop terminates; the outer retry only fires
  // when a concurrent consumer stole the candidate (their progress).
  for (;;) {
    const std::uint64_t stamped_before = next_seq_.load(std::memory_order_acquire);
    Lane* best = nullptr;
    std::uint64_t best_seq = 0;
    find_best(best, best_seq);
    if (best == nullptr) return false;
    if (next_seq_.load(std::memory_order_acquire) != stamped_before) {
      bool stolen = false;
      for (;;) {
        Lane* again = nullptr;
        std::uint64_t again_seq = 0;
        find_best(again, again_seq);
        if (again == nullptr) {
          stolen = true;  // candidate consumed concurrently
          break;
        }
        if (again_seq < best_seq) {
          best = again;
          best_seq = again_seq;
          continue;
        }
        break;  // stable: nothing pending is earlier than the candidate
      }
      if (stolen) continue;
    }
    // Extract precisely the candidate (per-lane FIFO keeps seqs increasing
    // within a lane, so the first tag match is the earliest).
    {
      const std::scoped_lock lock(best->mutex);
      for (auto it = best->queue.begin(); it != best->queue.end(); ++it) {
        if (tag_matches(*it, tag)) {
          if (it->seq != best_seq) break;  // consumed; restart the search
          out = std::move(*it);
          best->queue.erase(it);
          return true;
        }
      }
    }
  }
}

Envelope Mailbox::pop_from_lane(int source, int tag) {
  Lane& lane = lane_for(source);
  // Bounded spin phase: probe the lane's push counter without the lock and
  // only attempt extraction when a new message has arrived. In tight
  // request/reply exchanges the reply lands within the spin window, saving
  // the condvar sleep/wake (futex) round-trip entirely.
  if (spin_worthwhile()) {
    constexpr int kSpinIters = 1500;
    std::uint64_t seen = ~std::uint64_t{0};
    for (int spin = 0; spin < kSpinIters; ++spin) {
      const std::uint64_t now = lane.pushes.load(std::memory_order_acquire);
      if (now != seen) {
        const std::scoped_lock lock(lane.mutex);
        Envelope env;
        if (extract_from_lane(lane, tag, env)) return env;
        if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
        seen = now;
      }
      cpu_pause();
    }
  }
  std::unique_lock lock(lane.mutex);
  bool waited = false;
  for (;;) {
    Envelope env;
    if (extract_from_lane(lane, tag, env)) return env;
    if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
    if (waited) futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
    lane.cv.wait(lock);
    waited = true;
  }
}

Envelope Mailbox::pop_any_source(int tag) {
  std::unique_lock lock(any_mutex_);
  any_waiters_.fetch_add(1, std::memory_order_release);
  bool waited = false;
  try {
    for (;;) {
      Envelope env;
      if (extract_any_source(tag, env)) {
        any_waiters_.fetch_sub(1, std::memory_order_release);
        return env;
      }
      if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
      if (waited) futile_wakeups_.fetch_add(1, std::memory_order_relaxed);
      any_cv_.wait(lock);
      waited = true;
    }
  } catch (...) {
    any_waiters_.fetch_sub(1, std::memory_order_release);
    throw;
  }
}

Envelope Mailbox::pop(int source, int tag) {
  // Fault-injection receive site (drops are meaningless here and ignored;
  // delays model a slow receiver, throws a receive failure).
  (void)fault_point(FaultSite::kMailboxPop, owner_);
  Envelope env =
      source == kAnySource ? pop_any_source(tag) : pop_from_lane(source, tag);
  // A completed receive is the owner's heartbeat: the watchdog reads these
  // counters to distinguish a slow job from a wedged one.
  if (progress_ != nullptr) progress_->fetch_add(1, std::memory_order_relaxed);
  return env;
}

bool Mailbox::try_pop(int source, int tag, Envelope& out) {
  if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
  bool found = false;
  if (source == kAnySource) {
    found = extract_any_source(tag, out);
  } else {
    Lane& lane = lane_for(source);
    const std::scoped_lock lock(lane.mutex);
    found = extract_from_lane(lane, tag, out);
  }
  if (found && progress_ != nullptr) {
    progress_->fetch_add(1, std::memory_order_relaxed);
  }
  return found;
}

std::size_t Mailbox::pending() const {
  std::size_t total = 0;
  for_each_lane([&total](Lane& lane) {
    const std::scoped_lock lock(lane.mutex);
    total += lane.queue.size();
  });
  return total;
}

void Mailbox::reset() {
  for_each_lane([](Lane& lane) {
    const std::scoped_lock lock(lane.mutex);
    lane.queue.clear();
  });
  next_seq_.store(0, std::memory_order_relaxed);
  aborted_.store(false, std::memory_order_release);
}

void Mailbox::abort() {
  aborted_.store(true, std::memory_order_release);
  for_each_lane([](Lane& lane) {
    {
      const std::scoped_lock lock(lane.mutex);
    }
    lane.cv.notify_all();
  });
  const std::scoped_lock lock(any_mutex_);
  any_cv_.notify_all();
}

}  // namespace ppa::mpl
