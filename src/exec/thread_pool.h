// Persistent worker pool for the batch executor: one fixed crew of threads,
// two dispatch shapes. `run` is fork-join (every participating slot runs the
// same callable once); `run_tasks` is a dataflow scheduler -- workers drain
// per-worker deques of ready tasks, push follow-on tasks as dependencies
// resolve, and steal from each other when their own deque runs dry, so no
// barrier ever separates one dependence level from the next.
//
// Both shapes cap the number of *participating* slots (the caller always
// occupies participating slot 0). Slot ownership is fixed -- helper thread i
// is slot i in every dispatch -- so per-slot state built once (engines,
// first-touch-placed workspaces) keeps its thread and memory locality for
// the pool's lifetime; a capped dispatch briefly wakes the non-participating
// helpers, which observe the cap and re-sleep without running.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace matcha::exec {

class ThreadPool {
 public:
  /// `num_threads` total execution slots; the calling thread occupies slot 0,
  /// so num_threads - 1 helper threads are spawned.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Invoke fn(slot) once per participating slot, slots 0..P-1 where
  /// P = min(num_threads, max_workers), and block until all return. Slot
  /// ownership is FIXED: helper thread i always runs slot i (the caller is
  /// slot 0), so per-slot state built in one dispatch (worker engines,
  /// first-touch-placed scratch arenas) stays on the same OS thread -- and
  /// the same NUMA node / core complex -- in every later dispatch. Helpers
  /// with slot >= P observe the generation bump and go back to sleep without
  /// running. The first exception thrown by any slot is rethrown on the
  /// caller after the join.
  void run(const std::function<void(int)>& fn, int max_workers = 1 << 30);

  /// Handed to every run_tasks worker: identifies the worker's slot and
  /// accepts follow-on tasks that became ready while running the current one.
  class TaskSink {
   public:
    int slot() const { return slot_; }
    /// Enqueue a now-ready task onto this worker's deque (LIFO for the owner,
    /// stealable FIFO from the far end by idle workers).
    void push(uint64_t task);

   private:
    friend class ThreadPool;
    struct State;
    TaskSink(State& state, int slot) : state_(state), slot_(slot) {}
    State& state_;
    int slot_;
  };

  using TaskFn = std::function<void(TaskSink&, uint64_t)>;

  struct TaskRunStats {
    int workers = 1;       ///< slots that participated
    int64_t steals = 0;    ///< tasks executed off another worker's deque
    bool timed_out = false; ///< the run hit its deadline before draining
  };

  /// "No deadline": run_tasks never watches the clock.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Dataflow dispatch: seed `seeds` across the participating workers'
  /// deques, then run fn(sink, task) for every task until exactly
  /// `total_tasks` have executed (seeds plus everything pushed through the
  /// sink -- the caller's readiness refcounts must guarantee that count is
  /// reached). Workers pop their own deque newest-first; when dry they steal
  /// oldest-first, scanning the crew from the next slot up. An idle worker
  /// sleeps until new work is pushed or the run drains. Participation is
  /// capped at min(num_threads, total_tasks). The first exception thrown by
  /// a task aborts the run (remaining queued tasks are dropped) and is
  /// rethrown on the caller.
  ///
  /// Watchdog: with a `deadline`, the run is abandoned cooperatively once
  /// steady_clock passes it -- workers finish the task they are on, drop
  /// everything still queued, and return with stats.timed_out = true (no
  /// exception: the caller decides what an incomplete run means). A task
  /// that never returns still wedges its own worker; the deadline bounds
  /// every *scheduling* wait, which is the hang mode a lost wakeup or a
  /// dependency cycle in the caller's refcounts would produce.
  TaskRunStats run_tasks(std::span<const uint64_t> seeds, int64_t total_tasks,
                         const TaskFn& fn,
                         std::chrono::steady_clock::time_point deadline =
                             kNoDeadline);

 private:
  void helper_loop(int slot);

  int num_threads_;
  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int target_ = 0;  ///< participating slots for the current generation
  int pending_ = 0; ///< helpers still running the current generation
  bool stop_ = false;
  std::exception_ptr first_error_;
};

} // namespace matcha::exec
