#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <deque>

#include "common/fault_injection.h"

namespace matcha::exec {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  helpers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    helpers_.emplace_back([this, i] { helper_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : helpers_) t.join();
}

void ThreadPool::helper_loop(int slot) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // Fixed slot ownership: this thread IS slot `slot` in every dispatch
      // (per-slot state -- engines, first-touch-placed arenas -- must stay on
      // its thread). A capped dispatch simply leaves the high slots asleep.
      if (slot >= target_) continue;
      job = job_;
    }
    std::exception_ptr err;
    try {
      (*job)(slot);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::run(const std::function<void(int)>& fn, int max_workers) {
  const int participants =
      std::min(num_threads_, std::max(1, max_workers));
  if (participants == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    first_error_ = nullptr;
    target_ = participants;
    pending_ = participants - 1;
    ++generation_;
  }
  // Slots are fixed per helper thread, and notify_one cannot target a
  // specific waiter -- waking an arbitrary helper could leave a needed slot
  // asleep forever. notify_all is the only correct wakeup; non-participating
  // helpers observe slot >= target_ and re-sleep without running anything.
  cv_start_.notify_all();
  std::exception_ptr caller_err;
  try {
    fn(0);
  } catch (...) {
    caller_err = std::current_exception();
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  job_ = nullptr;
  if (caller_err) std::rethrow_exception(caller_err);
  if (first_error_) std::rethrow_exception(first_error_);
}

// ---------------------------------------------------------------------------
// Work-stealing dataflow dispatch.
// ---------------------------------------------------------------------------

/// Shared state of one run_tasks call. The deques are mutex-protected rather
/// than lock-free (Chase-Lev): every task here is a gate bootstrapping --
/// milliseconds of FFTs -- so queue traffic is a few locks per millisecond
/// per worker and the simplicity is worth far more than the nanoseconds.
struct ThreadPool::TaskSink::State {
  struct WorkerDeque {
    std::mutex mu;
    std::deque<uint64_t> q;
  };

  explicit State(int workers) : deques(workers) {}

  std::vector<WorkerDeque> deques;
  std::atomic<int64_t> remaining{0};  ///< tasks not yet executed
  std::atomic<bool> abort{false};     ///< a task threw; drain and bail
  std::atomic<bool> timed_out{false}; ///< the watchdog tripped; drain and bail
  std::atomic<int64_t> steals{0};

  // Idle coordination. `epoch` ticks on every push so a worker that scanned
  // every deque empty cannot sleep through work pushed after its scan: it
  // records the epoch before scanning and sleeps only while the epoch is
  // unchanged. Mutating the epoch under the mutex (not just atomically) is
  // what closes the classic check-then-sleep race.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  uint64_t epoch = 0;
  int idlers = 0;

  void announce_work() {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(idle_mu);
      ++epoch;
      wake = idlers > 0;
    }
    if (wake) idle_cv.notify_one();
  }

  void announce_done() {
    {
      std::lock_guard<std::mutex> lk(idle_mu);
      ++epoch;
    }
    idle_cv.notify_all();
  }
};

void ThreadPool::TaskSink::push(uint64_t task) {
  auto& d = state_.deques[static_cast<size_t>(slot_)];
  {
    std::lock_guard<std::mutex> lk(d.mu);
    d.q.push_back(task);
  }
  state_.announce_work();
}

ThreadPool::TaskRunStats ThreadPool::run_tasks(
    std::span<const uint64_t> seeds, int64_t total_tasks, const TaskFn& fn,
    std::chrono::steady_clock::time_point deadline) {
  TaskRunStats stats;
  if (total_tasks <= 0) {
    stats.workers = 0; // nothing dispatched, nobody participated
    return stats;
  }
  const int participants =
      static_cast<int>(std::min<int64_t>(num_threads_, total_tasks));
  stats.workers = participants;

  TaskSink::State state(participants);
  state.remaining.store(total_tasks, std::memory_order_relaxed);
  // Seed round-robin so the initial frontier is spread before anyone wakes.
  for (size_t i = 0; i < seeds.size(); ++i) {
    state.deques[i % static_cast<size_t>(participants)].q.push_back(seeds[i]);
  }

  const auto worker = [&](int slot) {
    TaskSink sink(state, slot);
    auto& own = state.deques[static_cast<size_t>(slot)];
    // Pop own deque newest-first (operand locality). When dry, steal
    // oldest-first from the next slot up, wrapping around the crew.
    const auto try_get = [&](uint64_t& task, bool& stolen) {
      {
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.q.empty()) {
          task = own.q.back();
          own.q.pop_back();
          stolen = false;
          return true;
        }
      }
      for (int v = 1; v < participants; ++v) {
        auto& victim =
            state.deques[static_cast<size_t>((slot + v) % participants)];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.q.empty()) {
          task = victim.q.front();
          victim.q.pop_front();
          stolen = true;
          return true;
        }
      }
      return false;
    };
    const bool watched = deadline != kNoDeadline;
    for (;;) {
      if (state.remaining.load(std::memory_order_acquire) <= 0 ||
          state.abort.load(std::memory_order_relaxed) ||
          state.timed_out.load(std::memory_order_relaxed)) {
        return;
      }
      // One clock read per task (tasks are ms-scale bootstraps; the read is
      // noise). The announce wakes idle workers so they observe the trip.
      if (watched && std::chrono::steady_clock::now() >= deadline) {
        state.timed_out.store(true, std::memory_order_relaxed);
        state.announce_done();
        return;
      }
      uint64_t task = 0;
      bool stolen = false;
      bool got = try_get(task, stolen);
      if (!got) {
        // Every deque looked empty. Capture the epoch BEFORE rescanning,
        // then scan once more: a push that raced the first scan either
        // landed before the capture (the rescan finds it) or after (the
        // epoch differs and the wait predicate falls straight through).
        uint64_t seen;
        {
          std::lock_guard<std::mutex> lk(state.idle_mu);
          seen = state.epoch;
        }
        got = try_get(task, stolen);
        if (!got) {
          std::unique_lock<std::mutex> lk(state.idle_mu);
          ++state.idlers;
          const auto ready = [&] {
            return state.epoch != seen ||
                   state.remaining.load(std::memory_order_acquire) <= 0 ||
                   state.abort.load(std::memory_order_relaxed) ||
                   state.timed_out.load(std::memory_order_relaxed);
          };
          // A watched idle wait is bounded by the deadline: waking on the
          // timeout loops back to the deadline check above, so a run can
          // never sleep past its budget waiting for work that will not come.
          if (watched) {
            state.idle_cv.wait_until(lk, deadline, ready);
          } else {
            state.idle_cv.wait(lk, ready);
          }
          --state.idlers;
          continue;
        }
      }
      if (stolen) state.steals.fetch_add(1, std::memory_order_relaxed);
      if (fault::should_fire(fault::kSitePoolStall)) {
        // A straggler worker, not a failure: the task still runs after a
        // bounded stall. Under chaos this perturbs scheduling order and
        // exercises the steal/idle paths without changing any result.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      try {
        fn(sink, task);
      } catch (...) {
        // Unblock the crew: nothing new will be pushed, remaining never
        // drains, so every worker must give up on the run.
        state.abort.store(true, std::memory_order_relaxed);
        state.announce_done();
        throw; // run()'s per-slot machinery records the first error
      }
      if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state.announce_done();
        return;
      }
    }
  };

  run(worker, participants);
  stats.steals = state.steals.load(std::memory_order_relaxed);
  stats.timed_out = state.timed_out.load(std::memory_order_relaxed);
  return stats;
}

} // namespace matcha::exec
