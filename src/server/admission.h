#ifndef DYNVIEW_SERVER_ADMISSION_H_
#define DYNVIEW_SERVER_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"

namespace dynview {

/// Admission policy knobs. Zero means "pick a default from the pool size"
/// where noted; queue caps of zero mean "no queueing — run or shed".
struct AdmissionOptions {
  /// Requests executing concurrently on the pool (both lanes combined).
  /// 0 = one per pool worker, minimum 1. Keeping this at or below the
  /// worker count means admitted work starts immediately instead of
  /// stacking up behind the engine's own morsel tasks.
  size_t max_concurrent = 0;

  /// Bounded wait queues, one per lane. A request arriving with its lane's
  /// queue full is shed with kResourceExhausted + a retry-after hint —
  /// bounded delay for everyone admitted beats unbounded delay for all.
  size_t max_queued_heavy = 16;
  size_t max_queued_cheap = 64;

  /// Admitted-but-unfinished requests (running + queued) any one session
  /// may hold. Exceeding it sheds with kResourceExhausted; a single
  /// pipelining client cannot monopolize the server.
  size_t max_inflight_per_session = 8;

  /// Base of the retry-after hint attached to shed responses; the hint
  /// scales linearly with the lane's queue depth at shed time, so clients
  /// back off harder the deeper the overload.
  int retry_after_ms = 10;
};

/// Two-lane admission control in front of a ThreadPool.
///
/// The heavy lane carries federated execution (query / execute); the cheap
/// lane carries diagnostics (explain / lint / prepare). Both share one
/// concurrency budget, but whenever a slot frees the cheap queue drains
/// first — an EXPLAIN never waits behind a convoy of scans. This is the
/// classic two-priority admission shape (cf. SEDA / per-class admission in
/// commercial federated gateways) kept deliberately minimal.
///
/// Degradation contract: every path out of Admit is deterministic — run,
/// queue, or shed with kResourceExhausted carrying a retry-after hint and a
/// "<depth>/<cap>" queue detail. A ThreadPool::TrySubmit refusal (the
/// engine's own backpressure cap) surfaces the same way, with the *pool*
/// queue depth, so clients can distinguish the two shed points. Nothing
/// ever blocks the caller (the server's reactor thread).
class AdmissionController {
 public:
  enum class Lane { kCheap = 0, kHeavy = 1 };

  /// Why a request was shed (for metrics and the error detail).
  enum class ShedReason { kNone, kQueueFull, kSessionCap, kPoolSaturated };

  struct Outcome {
    bool admitted = false;  // Running or queued.
    bool queued = false;
    ShedReason reason = ShedReason::kNone;
    Status status;            // kResourceExhausted when shed.
    int retry_after_ms = 0;   // Shed only.
    std::string queue_depth;  // "<depth>/<cap>" at the shed point.
  };

  /// `pool` is borrowed and must outlive the controller.
  AdmissionController(ThreadPool* pool, const AdmissionOptions& options);

  /// Admits, queues, or sheds `task`. Admitted tasks run on the pool (or
  /// later, when a slot frees); the task MUST call OnComplete(lane, session)
  /// exactly once when it finishes, whatever happens inside it.
  Outcome Admit(Lane lane, uint64_t session, std::function<void()> task);

  /// Releases the slot held by a finished task and dispatches the next
  /// queued request (cheap lane first).
  void OnComplete(Lane lane, uint64_t session);

  /// Runs every queued task inline on the calling thread (they are expected
  /// to observe the server's stopping flag and return quickly). Used by
  /// QueryServer::Stop so inflight accounting drains to zero.
  void Shutdown();

  struct Snapshot {
    size_t running = 0;
    size_t queued_cheap = 0;
    size_t queued_heavy = 0;
  };
  Snapshot snapshot() const;

  size_t max_concurrent() const { return max_concurrent_; }

 private:
  struct Pending {
    Lane lane;
    uint64_t session;
    std::function<void()> task;
  };

  /// Pops the best queued request (cheap first) and submits it. Call with
  /// `mu_` held; temporarily keeps it held (TrySubmit has its own lock, no
  /// ordering cycle). On pool refusal with other tasks still running, the
  /// request is requeued at the front — a completion will retry.
  void DispatchLocked();
  /// Pops the best queued request (cheap lane first) into `p`; false when
  /// both queues are empty. Call with `mu_` held.
  bool PopNextLocked(Pending* p);

  ThreadPool* pool_;
  const size_t max_concurrent_;
  const AdmissionOptions options_;

  mutable std::mutex mu_;
  size_t running_ = 0;
  std::deque<Pending> cheap_;
  std::deque<Pending> heavy_;
  std::unordered_map<uint64_t, size_t> per_session_;
};

}  // namespace dynview

#endif  // DYNVIEW_SERVER_ADMISSION_H_
