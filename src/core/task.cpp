#include "core/task.hpp"

#include <chrono>
#include <cstdlib>

namespace ppa::task {

namespace detail {

// ------------------------------------------------------- Chase–Lev deque --

/// Power-of-two circular buffer of job slots. Slots are atomic because a
/// thief may read an index the owner is concurrently overwriting after a
/// wrap; the top/bottom protocol guarantees the value actually *taken* was
/// fully published.
struct ChaseLevDeque::RingArray {
  explicit RingArray(std::int64_t capacity)
      : cap(capacity), mask(capacity - 1),
        slots(std::make_unique<std::atomic<Job*>[]>(
            static_cast<std::size_t>(capacity))) {}
  [[nodiscard]] Job* get(std::int64_t i) const noexcept {
    return slots[static_cast<std::size_t>(i & mask)].load(std::memory_order_relaxed);
  }
  void put(std::int64_t i, Job* job) noexcept {
    slots[static_cast<std::size_t>(i & mask)].store(job, std::memory_order_relaxed);
  }
  std::int64_t cap;
  std::int64_t mask;
  std::unique_ptr<std::atomic<Job*>[]> slots;
};

namespace {
constexpr std::int64_t kInitialDequeCapacity = 64;
}  // namespace

ChaseLevDeque::ChaseLevDeque() : array_(new RingArray(kInitialDequeCapacity)) {}

ChaseLevDeque::~ChaseLevDeque() { delete array_.load(std::memory_order_relaxed); }

ChaseLevDeque::RingArray* ChaseLevDeque::grow(RingArray* a, std::int64_t top,
                                              std::int64_t bottom) {
  auto* bigger = new RingArray(a->cap * 2);
  for (std::int64_t i = top; i < bottom; ++i) bigger->put(i, a->get(i));
  retired_.emplace_back(a);  // thieves may still hold a pointer to it
  array_.store(bigger, std::memory_order_release);
  return bigger;
}

void ChaseLevDeque::push(Job* job) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  RingArray* a = array_.load(std::memory_order_relaxed);
  if (b - t > a->cap - 1) a = grow(a, t, b);
  a->put(b, job);
  // Publishes the slot (and the job behind it) to a thief's acquire load of
  // bottom_. A release store orders exactly what the release fence plus
  // relaxed store did here, and ThreadSanitizer, which does not model
  // standalone fences, sees the hand-off.
  bottom_.store(b + 1, std::memory_order_release);
}

Job* ChaseLevDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  RingArray* a = array_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  Job* job = nullptr;
  if (t <= b) {
    job = a->get(b);
    if (t == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        job = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty
  }
  return job;
}

Job* ChaseLevDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  Job* job = nullptr;
  if (t < b) {
    RingArray* a = array_.load(std::memory_order_acquire);
    job = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; caller tries elsewhere
    }
  }
  return job;
}

}  // namespace detail

// ------------------------------------------------------------ ThreadPool --

namespace {

/// Identity of the current thread within a pool (set for worker threads).
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  int id = -1;
};
thread_local WorkerIdentity tl_worker;

int default_worker_count() {
  if (const char* env = std::getenv("PPA_TASK_WORKERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 2 : static_cast<int>(hc);
}

}  // namespace

ThreadPool::ThreadPool(int workers)
    : nworkers_(workers > 0 ? workers : default_worker_count()) {
  if (nworkers_ > 512) nworkers_ = 512;
  deques_.reserve(static_cast<std::size_t>(nworkers_));
  for (int i = 0; i < nworkers_; ++i) {
    deques_.push_back(std::make_unique<detail::ChaseLevDeque>());
  }
  threads_.reserve(static_cast<std::size_t>(nworkers_));
  for (int i = 0; i < nworkers_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Defensive drain: a correctly used pool is destroyed with no pending
  // jobs (every TaskGroup joins), but leaking would hide misuse in ASan.
  for (auto& dq : deques_) {
    while (detail::Job* j = dq->pop()) delete j;
  }
  for (detail::Job* j : injector_) delete j;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::submit(detail::Job* job) {
  // Enqueue before bumping ready_, so a throwing enqueue (allocation during
  // deque growth / injector push) leaves the counter untouched. A worker
  // that acquires the job in between decrements ready_ transiently below
  // zero; the pairing still nets out and the sleep condition only needs
  // "ready_ > 0 implies work may exist".
  const WorkerIdentity& who = tl_worker;
  if (who.pool == this) {
    deques_[static_cast<std::size_t>(who.id)]->push(job);
  } else {
    std::lock_guard<std::mutex> lk(inject_mu_);
    injector_.push_back(job);
  }
  ready_.fetch_add(1);  // seq_cst: see wake_one
  wake_one();
}

void ThreadPool::wake_one() {
  // Store-buffer pairing with the worker's sleep path: the submitter does
  // {ready_.fetch_add; sleepers_.load}, the worker does {sleepers_.fetch_add;
  // ready_.load (wait predicate)}. With all four accesses seq_cst at least
  // one side observes the other: either we see the sleeper and notify under
  // the mutex (serialized with its check-then-wait, so the notification
  // cannot be lost), or its predicate sees ready_ > 0 and it never sleeps.
  if (sleepers_.load() > 0) {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    sleep_cv_.notify_one();
  }
}

detail::Job* ThreadPool::pop_injector() {
  std::lock_guard<std::mutex> lk(inject_mu_);
  if (injector_.empty()) return nullptr;
  detail::Job* job = injector_.front();
  injector_.pop_front();
  return job;
}

detail::Job* ThreadPool::acquire(int worker_id) {
  // 1. Own deque (workers only): depth-first locality.
  if (worker_id >= 0) {
    if (detail::Job* job = deques_[static_cast<std::size_t>(worker_id)]->pop()) {
      ready_.fetch_sub(1, std::memory_order_relaxed);
      return job;
    }
  }
  // 2. External submissions.
  if (detail::Job* job = pop_injector()) {
    ready_.fetch_sub(1, std::memory_order_relaxed);
    return job;
  }
  // 3. Steal sweep over the other workers, starting after ourselves so
  // victims are spread rather than all thieves hammering deque 0.
  const int start = worker_id >= 0 ? worker_id + 1 : 0;
  for (int i = 0; i < nworkers_; ++i) {
    const int victim = (start + i) % nworkers_;
    if (victim == worker_id) continue;
    if (detail::Job* job = deques_[static_cast<std::size_t>(victim)]->steal()) {
      ready_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return job;
    }
  }
  return nullptr;
}

void ThreadPool::worker_main(int id) {
  tl_worker = WorkerIdentity{this, id};
  while (true) {
    if (detail::Job* job = acquire(id)) {
      job->execute();
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_mu_);
    if (stop_.load(std::memory_order_acquire)) break;
    sleepers_.fetch_add(1);  // seq_cst: see wake_one
    sleep_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) || ready_.load() > 0;
    });
    sleepers_.fetch_sub(1);
    if (stop_.load(std::memory_order_acquire)) break;
  }
  tl_worker = WorkerIdentity{};
}

bool ThreadPool::try_run_one() {
  const WorkerIdentity& who = tl_worker;
  const int my_id = (who.pool == this) ? who.id : -1;
  if (detail::Job* job = acquire(my_id)) {
    job->execute();
    return true;
  }
  return false;
}

void ThreadPool::help_until(const std::atomic<std::size_t>& pending) {
  const WorkerIdentity& who = tl_worker;
  const int my_id = (who.pool == this) ? who.id : -1;
  int idle_spins = 0;
  while (pending.load(std::memory_order_acquire) != 0) {
    if (detail::Job* job = acquire(my_id)) {
      job->execute();
      idle_spins = 0;
      continue;
    }
    // Nothing runnable here: the remaining tasks are executing on other
    // threads. Yield briefly, then back off to short sleeps.
    if (++idle_spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

int default_fork_depth() {
  const int contexts = ThreadPool::instance().workers() + 1;
  int depth = 0;
  int leaves = 1;
  while (leaves < 4 * contexts) {
    leaves *= 2;
    ++depth;
  }
  return depth;
}

}  // namespace ppa::task
