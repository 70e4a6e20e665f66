#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace dynview {

ThreadPool::ThreadPool(size_t num_workers, size_t max_queued)
    : max_queued_(max_queued) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (max_queued_ > 0 && queue_.size() >= max_queued_) return false;
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
  return true;
}

size_t ThreadPool::ApproxQueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) return;  // stop_ set and queue drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const std::atomic<bool>* cancel) {
  if (n == 0) return;
  // Shared by the caller and the helper tasks; the helpers may outlive this
  // call (a queued helper that starts after all iterations are claimed finds
  // next >= total and exits without touching anything else).
  struct Batch {
    Batch(const std::function<void(size_t)>& f, const std::atomic<bool>* c,
          size_t n)
        : fn(f), cancel(c), total(n) {}
    /// `pool` is set for a helper: its worker counts as idle from the end
    /// of its share, before the caller can return and start the next loop.
    void Drain(ThreadPool* pool = nullptr) {
      size_t ran = 0;
      for (size_t i; (i = next.fetch_add(1)) < total; ++ran) {
        // Iterations claimed after cancellation complete without running:
        // the first guard trip stops sibling tasks within one morsel.
        if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) {
          fn(i);
        }
      }
      if (pool != nullptr) {
        std::lock_guard<std::mutex> lock(pool->mu_);
        ++pool->idle_;
      }
      if (ran > 0) {
        std::lock_guard<std::mutex> lock(mu);
        done += ran;
        if (done == total) cv.notify_all();
      }
    }
    std::function<void(size_t)> fn;
    const std::atomic<bool>* cancel;
    const size_t total;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // Guarded by mu.
  };
  auto batch = std::make_shared<Batch>(fn, cancel, n);
  size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Helpers go only to idle workers: waiting on the queue with nothing
    // pending ahead of them. With none idle (no workers, n == 1, or a
    // fan-out run by a worker while every other one serves a request) the
    // caller drains the loop alone and nothing is queued.
    const size_t idle = idle_ - std::min(idle_, queue_.size());
    helpers = std::min(idle, n - 1);
    if (max_queued_ > 0) {
      helpers = std::min(helpers, max_queued_ - std::min(max_queued_,
                                                         queue_.size()));
    }
    for (size_t h = 0; h < helpers; ++h) {
      queue_.push_back([this, batch] {
        batch->Drain(this);
        std::lock_guard<std::mutex> lock(mu_);
        --idle_;  // WorkerLoop counts this worker again when it waits.
      });
    }
  }
  for (size_t h = 0; h < helpers; ++h) cv_.notify_one();
  batch->Drain();  // The caller participates.
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] { return batch->done == n; });
}

}  // namespace dynview
