#include "server/admission.h"

#include <utility>
#include <vector>

namespace dynview {

namespace {
size_t DefaultConcurrency(ThreadPool* pool) {
  size_t workers = pool != nullptr ? pool->num_workers() : 0;
  return workers > 0 ? workers : 1;
}
}  // namespace

AdmissionController::AdmissionController(ThreadPool* pool,
                                         const AdmissionOptions& options)
    : pool_(pool),
      max_concurrent_(options.max_concurrent > 0 ? options.max_concurrent
                                                 : DefaultConcurrency(pool)),
      options_(options) {}

AdmissionController::Outcome AdmissionController::Admit(
    Lane lane, uint64_t session, std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  Outcome out;

  size_t& session_inflight = per_session_[session];
  if (options_.max_inflight_per_session > 0 &&
      session_inflight >= options_.max_inflight_per_session) {
    out.reason = ShedReason::kSessionCap;
    out.queue_depth = std::to_string(session_inflight) + "/" +
                      std::to_string(options_.max_inflight_per_session);
    out.retry_after_ms = options_.retry_after_ms;
    out.status = Status::ResourceExhausted(
        "session concurrency cap reached (" + out.queue_depth +
        " requests in flight); await a reply before sending more");
    return out;
  }

  if (running_ < max_concurrent_) {
    if (pool_->TrySubmit(task)) {
      ++running_;
      ++session_inflight;
      out.admitted = true;
      return out;
    }
    // The engine's own backpressure cap refused the submission: the pool
    // queue is full of already-admitted work (morsel helpers, other
    // requests). Shed with the *pool* depth so clients can tell this apart
    // from an admission-queue shed — and from a real execution error.
    out.reason = ShedReason::kPoolSaturated;
    out.queue_depth = std::to_string(pool_->ApproxQueueDepth()) + "/" +
                      std::to_string(pool_->max_queued());
    out.retry_after_ms = options_.retry_after_ms;
    out.status = Status::ResourceExhausted(
        "thread pool queue full (" + out.queue_depth +
        " pending tasks); shed, retry after backoff");
    return out;
  }

  std::deque<Pending>& q = lane == Lane::kCheap ? cheap_ : heavy_;
  size_t cap =
      lane == Lane::kCheap ? options_.max_queued_cheap : options_.max_queued_heavy;
  if (q.size() >= cap) {
    out.reason = ShedReason::kQueueFull;
    out.queue_depth = std::to_string(q.size()) + "/" + std::to_string(cap);
    out.retry_after_ms =
        options_.retry_after_ms * static_cast<int>(1 + q.size());
    out.status = Status::ResourceExhausted(
        std::string("admission queue full (") +
        (lane == Lane::kCheap ? "cheap " : "heavy ") + out.queue_depth +
        "); shed, retry after backoff");
    return out;
  }
  q.push_back(Pending{lane, session, std::move(task)});
  ++session_inflight;
  out.admitted = true;
  out.queued = true;
  return out;
}

void AdmissionController::OnComplete(Lane lane, uint64_t session) {
  (void)lane;
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ > 0) --running_;
  auto it = per_session_.find(session);
  if (it != per_session_.end()) {
    if (it->second > 1) {
      --it->second;
    } else {
      per_session_.erase(it);
    }
  }
  DispatchLocked();
}

bool AdmissionController::PopNextLocked(Pending* p) {
  // Cheap lane overtakes: diagnostics never convoy.
  std::deque<Pending>* q = !cheap_.empty()   ? &cheap_
                           : !heavy_.empty() ? &heavy_
                                             : nullptr;
  if (q == nullptr) return false;
  *p = std::move(q->front());
  q->pop_front();
  return true;
}

void AdmissionController::DispatchLocked() {
  Pending p{Lane::kCheap, 0, nullptr};
  while (running_ < max_concurrent_ && PopNextLocked(&p)) {
    if (pool_->TrySubmit(p.task)) {
      ++running_;
      continue;
    }
    if (running_ == 0) {
      // Progress guarantee: with nothing of ours running, no completion
      // will ever retry this dispatch — force the submission through.
      pool_->Submit(p.task);
      ++running_;
      continue;
    }
    // Pool saturated but our own work is still draining; put it back and
    // let the next completion retry.
    (p.lane == Lane::kCheap ? cheap_ : heavy_).push_front(std::move(p));
    return;
  }
}

void AdmissionController::Shutdown() {
  for (;;) {
    Pending p{Lane::kCheap, 0, nullptr};
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!PopNextLocked(&p)) return;
      // Account it as running so the task's own OnComplete balances.
      ++running_;
    }
    p.task();  // Observes the server's stopping flag; returns quickly.
  }
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{running_, cheap_.size(), heavy_.size()};
}

}  // namespace dynview
