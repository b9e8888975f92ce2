#pragma once
// Dynamic batching for the in-process inference server: coalesce
// concurrent single-image requests into the batches the parallel
// inference path (Engine::classify_batch) already eats.
//
// Shape of the system:
//
//   submit() ──> per-model FIFO queue ──> dispatcher thread ──┐
//   submit() ──>        ...             (one per scheduler)   │
//                                                             v
//                                       classify_batch on the shared
//                                       deterministic thread pool
//
// A batch leaves a model's queue as soon as EITHER max_batch requests
// are waiting OR the oldest request has waited max_delay (the latency
// deadline) — so light traffic pays at most the deadline in extra
// latency while heavy traffic fills batches and rides the parallel
// path at full occupancy. Admission control bounds every queue:
// submit() against a full queue fails immediately with a typed
// RejectError instead of growing the queue without bound.
//
// Determinism: batching never changes a result. classify_batch
// guarantees per-image outputs bit-identical to serial classify()
// regardless of batch composition or thread count (the fixed-partition
// contract of util/thread_pool.h), so however requests happen to
// coalesce, every response is bit-identical to calling classify_batch
// directly — tests/test_serve_scheduler.cpp enforces this at threads
// 1/2/4/7. Admission is deterministic too: acceptance depends only on
// the queue depth at submit time, never on timing inside the pool.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace bkc::serve {

/// Why a submission was refused.
enum class RejectReason {
  kQueueFull,  ///< the model's queue is at SchedulerOptions::max_queue
  kStopped,    ///< the scheduler is stopping / stopped
  kBadInput,   ///< wrong image shape, or a NaN / inf pixel
};

const char* to_string(RejectReason reason);

/// The typed admission-control error: thrown by submit() instead of
/// queueing without bound. Carries the machine-readable reason next to
/// the human-readable message.
class RejectError : public std::runtime_error {
 public:
  RejectError(RejectReason reason, const std::string& message)
      : std::runtime_error(message), reason_(reason) {}
  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

struct SchedulerOptions {
  /// Dispatch a model's queue as soon as this many requests are waiting.
  int max_batch = 8;
  /// Latency deadline: dispatch the queue no later than this long after
  /// its oldest request was accepted, full batch or not.
  std::chrono::microseconds max_delay{2000};
  /// Admission bound per model queue; submit() beyond it rejects with
  /// RejectReason::kQueueFull.
  std::size_t max_queue = 64;
  /// classify_batch fan-out per dispatched batch (util/thread_pool.h).
  int num_threads = 1;
};

/// The batching scheduler. One background dispatcher thread serves any
/// number of models and submitting threads; results arrive through
/// std::future (fulfilled with the class-score tensor, or with the
/// exception classify_batch threw). Destruction stops the scheduler,
/// draining every queued request first — a future obtained from
/// submit() is always eventually fulfilled.
class BatchScheduler {
 public:
  explicit BatchScheduler(SchedulerOptions options = {});
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queue one image for `model` on behalf of `tenant`. Returns the
  /// future of its class scores. Throws RejectError (kBadInput) when the
  /// image does not have the model's input shape or holds a NaN / inf
  /// pixel (checked before queueing, so a bad image never reaches a
  /// batch it could fail for other tenants), RejectError (kQueueFull)
  /// when the model's queue is at max_queue, RejectError (kStopped)
  /// after stop(), and CheckError on a null handle. The handle is pinned by
  /// the queued request until its batch dispatches, so the registry
  /// cannot evict a model with work in flight.
  std::future<Tensor> submit(ModelHandle model, std::string tenant,
                             Tensor image);

  /// Stop accepting work, dispatch everything still queued, and join
  /// the dispatcher. Idempotent; called by the destructor.
  void stop();

  /// A consistent copy of the per-model / per-tenant counters.
  StatsSnapshot stats() const { return stats_.snapshot(); }

  const SchedulerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    ModelHandle model;
    std::promise<Tensor> promise;
    Tensor image;
    std::string tenant;
    Clock::time_point enqueued;
  };

  void dispatcher_loop();
  /// Run one drained batch outside the lock: classify, fulfill the
  /// promises, record the dispatch.
  void run_batch(std::vector<Request> batch, Clock::time_point dispatch);

  SchedulerOptions options_;
  ServeStats stats_;

  std::mutex mutex_;
  std::condition_variable cv_;
  /// Per-model FIFO queues, keyed by model name. An entry exists only
  /// while requests are queued (erased when drained), so the scheduler
  /// itself never pins a ModelHandle between batches.
  std::map<std::string, std::deque<Request>> queues_;
  bool stopping_ = false;
  std::mutex join_mutex_;  ///< serializes stop() callers around join()
  std::thread dispatcher_;
};

}  // namespace bkc::serve
