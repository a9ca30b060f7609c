#include "runtime/thread_pool.hpp"

#include <cassert>

#include "util/prng.hpp"

namespace dsp::runtime {

namespace {

// Identity of the current thread within a pool, set for the lifetime of
// worker_loop.  enqueue() consults it to tell owner-spawned tasks (push to
// the spawner's own deque) from external submissions (round-robin).
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

// Process-wide accumulation of destroyed pools' counters plus the live
// active-worker gauge.  Plain atomics: monotone stats, no ordering needed.
std::atomic<std::uint64_t> g_submitted{0};
std::atomic<std::uint64_t> g_executed{0};
std::atomic<std::uint64_t> g_steals{0};
std::atomic<std::uint64_t> g_steal_fails{0};
std::atomic<std::size_t> g_active{0};

}  // namespace

std::size_t resolve_worker_count(std::size_t requested,
                                 std::size_t reported_hardware) {
  if (requested > 0) return requested;
  if (reported_hardware == 0) return kUnknownHardwareWorkers;
  return reported_hardware;
}

std::size_t ThreadPool::hardware_threads() {
  return resolve_worker_count(0, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_worker_count(threads, std::thread::hardware_concurrency());
  queues_.reserve(threads);
  steal_cursors_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    // Per-worker seeded start offset; each worker then advances its cursor
    // round-robin across scans, so victim order is deterministic per
    // worker but different workers fan out from different starting points
    // instead of all hammering victim 0.
    steal_cursors_.push_back(Rng::mix_seed(t) % threads);
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t]() { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Invariant: submit refuses once stopping_ is set and workers drain the
  // whole pool before exiting, so no enqueued task — hence no outstanding
  // future — can be left behind after the joins.  (All workers are joined,
  // but the reads still formally need the capabilities.)
  {
    const MutexLock lock(mutex_);
    assert(pending_ == 0);
  }
  for (const std::unique_ptr<WorkerQueue>& queue : queues_) {
    const MutexLock lock(queue->mutex);
    assert(queue->tasks.empty());
  }
  g_submitted.fetch_add(submitted_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  g_executed.fetch_add(executed_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  g_steals.fetch_add(steals_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  g_steal_fails.fetch_add(steal_fails_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

SchedulerCounters ThreadPool::counters() const {
  SchedulerCounters counters;
  counters.submitted = submitted_.load(std::memory_order_relaxed);
  counters.executed = executed_.load(std::memory_order_relaxed);
  counters.steals = steals_.load(std::memory_order_relaxed);
  counters.steal_fails = steal_fails_.load(std::memory_order_relaxed);
  return counters;
}

void ThreadPool::enqueue(Task task) {
  const bool owner = tl_pool == this;
  std::size_t target;
  {
    const MutexLock lock(mutex_);
    DSP_REQUIRE(!stopping_,
                "ThreadPool::submit on a stopping pool: every task must be "
                "submitted before the pool's destructor begins");
    target = owner ? tl_worker : next_worker_++ % queues_.size();
    // Account before the push: a worker that sees pending_ > 0 but an
    // empty deque knows the task is in flight and rescans instead of
    // exiting (see worker_loop).
    ++pending_;
  }
  {
    const MutexLock lock(queues_[target]->mutex);
    if (owner) {
      queues_[target]->tasks.push_back(std::move(task));  // owner end: LIFO
    } else {
      queues_[target]->tasks.push_front(std::move(task));  // thief end: FIFO
    }
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Any worker may take the task (its own deque or by stealing).
  work_available_.notify_one();
}

bool ThreadPool::try_pop_own(std::size_t self, Task& task) {
  {
    const MutexLock lock(queues_[self]->mutex);
    if (queues_[self]->tasks.empty()) return false;
    task = std::move(queues_[self]->tasks.back());
    queues_[self]->tasks.pop_back();
  }
  const MutexLock lock(mutex_);
  --pending_;
  return true;
}

bool ThreadPool::try_steal(std::size_t self, Task& task) {
  const std::size_t workers = queues_.size();
  if (workers <= 1) return false;
  std::size_t cursor = steal_cursors_[self];
  std::size_t victim = workers;  // sentinel: nothing stolen yet
  std::size_t probes = 0;
  while (probes + 1 < workers && victim == workers) {
    cursor = (cursor + 1) % workers;
    if (cursor == self) continue;
    ++probes;
    const MutexLock lock(queues_[cursor]->mutex);
    if (queues_[cursor]->tasks.empty()) {
      steal_fails_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    task = std::move(queues_[cursor]->tasks.front());
    queues_[cursor]->tasks.pop_front();
    victim = cursor;
  }
  steal_cursors_[self] = cursor;
  if (victim == workers) return false;
  steals_.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(mutex_);
  --pending_;
  return true;
}

void ThreadPool::run_task(Task& task) {
  active_.fetch_add(1, std::memory_order_relaxed);
  g_active.fetch_add(1, std::memory_order_relaxed);
  task();  // packaged_task: exceptions land in the future, not here.
  g_active.fetch_sub(1, std::memory_order_relaxed);
  active_.fetch_sub(1, std::memory_order_relaxed);
  executed_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_pool = this;
  tl_worker = self;
  for (;;) {
    Task task;
    if (try_pop_own(self, task) || try_steal(self, task)) {
      run_task(task);
      continue;
    }
    {
      MutexLock lock(mutex_);
      while (!stopping_ && pending_ == 0) work_available_.wait(lock);
      // Drain before exiting even when stopping: every submitted future
      // must become ready, or a waiting caller would deadlock.
      if (stopping_ && pending_ == 0) break;
    }
    // Accounted work exists but the scan found nothing: the producer is
    // between its counter increment and its deque push, or the task sits
    // on a deque another worker is about to drain.  Yield and rescan rather
    // than sleeping — the gap is two lock scopes wide, and a sleep here
    // could miss the already-sent notification.
    std::this_thread::yield();
  }
  tl_pool = nullptr;
  tl_worker = 0;
}

SchedulerCounters scheduler_totals() {
  SchedulerCounters totals;
  totals.submitted = g_submitted.load(std::memory_order_relaxed);
  totals.executed = g_executed.load(std::memory_order_relaxed);
  totals.steals = g_steals.load(std::memory_order_relaxed);
  totals.steal_fails = g_steal_fails.load(std::memory_order_relaxed);
  return totals;
}

std::size_t process_active_workers() {
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace dsp::runtime
