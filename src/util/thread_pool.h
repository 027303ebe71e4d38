// Fixed-size thread pool for embarrassingly parallel work (batched SSSP for
// training-sample generation, per-level training shards, serving batches).
#ifndef RNE_UTIL_THREAD_POOL_H_
#define RNE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.h"

namespace rne {

class TaskGroup;

/// Canonical resolution of a `num_threads` option shared by every parallel
/// builder: 0 means hardware concurrency, and the result is always >= 1.
/// Matches the ThreadPool constructor so "0 = hardware" behaves identically
/// whether the caller sizes a pool or branches on the resolved count.
inline size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Simple task-queue thread pool. Tasks are void() closures. Completion is
/// tracked per task group, so independent clients (e.g. two concurrent
/// serving batches, or a ParallelFor racing an engine batch) sharing one
/// pool never wait on each other's work. Submit()/Wait() without an explicit
/// group use a pool-default group, preserving the original single-client
/// API. Not copyable or movable.
///
/// A task that throws does not take the process down: the first exception
/// per group is captured at the worker boundary and rethrown from that
/// group's Wait(); later exceptions in the same group are dropped.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on the pool-default group.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted via Submit() has completed, then
  /// rethrows the first exception thrown by one of them (if any) and clears
  /// it. Tasks owned by explicit TaskGroups are not waited on.
  void Wait();

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion
  /// (of this call's tasks only). Rethrows the first exception from fn.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// Index of the calling pool worker in [0, num_threads()), or
  /// kNotAWorker when called from a thread that is not a pool worker.
  /// Parallel builders use this to pick a per-worker scratch slot without
  /// locking.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);
  static size_t CurrentWorkerIndex();

 private:
  friend class TaskGroup;

  /// Completion state shared by the tasks of one logical batch.
  struct GroupState {
    Mutex mu;
    CondVar done;
    size_t pending RNE_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error RNE_GUARDED_BY(mu);
  };

  void SubmitToGroup(const std::shared_ptr<GroupState>& group,
                     std::function<void()> task);
  /// Waits for `group` to drain, then rethrows and clears its first error.
  static void WaitOnGroup(GroupState& group);
  void WorkerLoop(size_t worker_index);

  struct QueuedTask {
    std::shared_ptr<GroupState> group;
    std::function<void()> fn;
  };

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar task_available_;
  std::queue<QueuedTask> tasks_ RNE_GUARDED_BY(mu_);
  bool shutdown_ RNE_GUARDED_BY(mu_) = false;
  std::shared_ptr<GroupState> default_group_;
};

/// Handle for one batch of tasks on a shared ThreadPool. Wait() blocks only
/// on tasks submitted through this group and rethrows the first exception
/// one of them threw. The destructor waits for stragglers (exceptions are
/// swallowed there; call Wait() to observe them).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> task);
  void Wait();

 private:
  ThreadPool* pool_;
  std::shared_ptr<ThreadPool::GroupState> state_;
};

}  // namespace rne

#endif  // RNE_UTIL_THREAD_POOL_H_
