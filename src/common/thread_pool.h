#ifndef DYNVIEW_COMMON_THREAD_POOL_H_
#define DYNVIEW_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dynview {

/// A fixed-size worker pool shared by the execution engine (grounding
/// fan-out, morsel-driven operators, view partition materialisation) and the
/// query server (requests, reply encoding).
///
/// The pool deliberately has no notion of task priorities or futures: the
/// engine's parallelism is fork/join-shaped, so `ParallelFor` — in which the
/// calling thread participates and which borrows only the workers idle at
/// that moment — covers every use, nested or not. Caller participation makes
/// the pool deadlock-free under nesting: even if every worker is busy, the
/// caller drains its own iteration space.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is valid: every ParallelFor then
  /// runs inline, which is the `ExecConfig{num_threads=1}` serial mode).
  /// `max_queued` bounds the pending-task queue (backpressure; see
  /// TrySubmit); 0 = unbounded.
  explicit ThreadPool(size_t num_workers, size_t max_queued = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues `fn` for execution on some worker thread (unconditionally;
  /// ignores the queue cap — for work that MUST run).
  void Submit(std::function<void()> fn);

  /// Enqueues `fn` unless the queue already holds `max_queued` pending
  /// tasks; returns false (dropping `fn`) when full.
  bool TrySubmit(std::function<void()> fn);

  /// Instantaneous pending-task count (tasks queued, not yet claimed by a
  /// worker). Advisory by nature — the depth can change before the caller
  /// acts on it — but exact at the moment of the read. The query server
  /// reports it in kResourceExhausted shed responses so clients can tell
  /// pool backpressure ("queue 1024/1024") from a real execution error.
  size_t ApproxQueueDepth() const;

  /// The TrySubmit cap this pool was built with (0 = unbounded).
  size_t max_queued() const { return max_queued_; }

  /// Runs `fn(0) … fn(n-1)` across the workers plus the calling thread and
  /// returns when all iterations finished. Iterations are claimed from a
  /// shared counter, so completion order is nondeterministic — callers that
  /// need deterministic output write into index `i` of a pre-sized buffer
  /// and merge in index order afterwards. Helpers are queued for at most
  /// as many workers as are idle at the call (waiting on the queue with
  /// nothing pending ahead of them), within the `max_queued` cap; with none
  /// idle — no workers, `n == 1`, or every worker busy, as under a full
  /// server — the loop runs inline on the caller.
  ///
  /// When `cancel` is non-null and becomes true, iterations claimed
  /// afterwards are skipped (counted complete without running `fn`), so a
  /// tripped query guard stops a fan-out within one morsel; the caller must
  /// check its guard/cancellation state before consuming per-iteration
  /// results, since skipped slots were never written.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::atomic<bool>* cancel = nullptr);

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  size_t idle_ = 0;  // Waiting workers + helpers done with their share.
  size_t max_queued_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace dynview

#endif  // DYNVIEW_COMMON_THREAD_POOL_H_
