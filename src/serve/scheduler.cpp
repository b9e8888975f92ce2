#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace bkc::serve {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kStopped:
      return "stopped";
    case RejectReason::kBadInput:
      return "bad_input";
  }
  unreachable("RejectReason out of range");
}

BatchScheduler::BatchScheduler(SchedulerOptions options)
    : options_(options) {
  check(options.max_batch >= 1,
        "BatchScheduler: max_batch must be >= 1");
  check(options.max_delay.count() >= 0,
        "BatchScheduler: max_delay must be >= 0");
  check(options.max_queue >= 1,
        "BatchScheduler: max_queue must be >= 1");
  check(options.num_threads >= 1,
        "BatchScheduler: num_threads must be >= 1");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

BatchScheduler::~BatchScheduler() { stop(); }

std::future<Tensor> BatchScheduler::submit(ModelHandle model,
                                           std::string tenant,
                                           Tensor image) {
  check(model != nullptr, "BatchScheduler::submit: null model handle");
  const std::string& name = model->name();
  // Validate before queueing: classify_batch fails a whole batch when
  // one image is bad, so an image that would throw must be refused here,
  // against its own tenant only.
  const FeatureShape expected = model->engine().model().input_shape();
  std::string problem;
  if (image.shape() != expected) {
    problem = "image shape " + image.shape().to_string() +
              " does not match the model input " + expected.to_string();
  } else if (!std::all_of(image.data().begin(), image.data().end(),
                          [](float v) { return std::isfinite(v); })) {
    problem = "image holds a NaN or inf pixel";
  }
  if (!problem.empty()) {
    stats_.record_reject(name, tenant);
    throw RejectError(RejectReason::kBadInput,
                      "BatchScheduler::submit: " + problem + " (model '" +
                          name + "', tenant '" + tenant + "')");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    stats_.record_reject(name, tenant);
    throw RejectError(RejectReason::kStopped,
                      "BatchScheduler::submit: scheduler is stopped "
                      "(model '" + name + "', tenant '" + tenant + "')");
  }
  std::deque<Request>& queue = queues_[name];
  if (queue.size() >= options_.max_queue) {
    // Admission control: refuse now, deterministically, instead of
    // letting the queue grow without bound. The depth check depends
    // only on what is queued at this instant, never on pool timing.
    stats_.record_reject(name, tenant);
    throw RejectError(
        RejectReason::kQueueFull,
        "BatchScheduler::submit: queue for model '" + name + "' is full (" +
            std::to_string(options_.max_queue) + " requests); tenant '" +
            tenant + "' rejected");
  }
  Request request{.model = std::move(model),
                  .promise = {},
                  .image = std::move(image),
                  .tenant = tenant,
                  .enqueued = Clock::now()};
  std::future<Tensor> future = request.promise.get_future();
  queue.push_back(std::move(request));
  stats_.record_accept(name, tenant);
  lock.unlock();
  cv_.notify_one();
  return future;
}

void BatchScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // joinable() + join() under their own mutex so concurrent stop()
  // callers (user thread + destructor) cannot double-join.
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void BatchScheduler::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // A queue is ready when it is full, past its deadline, or the
    // scheduler is draining for stop(). Among ready queues, serve the
    // one whose OLDEST request has waited longest (ties broken by model
    // name via map order) so no model is starved by another's traffic;
    // when none is ready, sleep until the earliest deadline or a
    // submit/stop wakes us to re-evaluate.
    const Clock::time_point now = Clock::now();
    auto ready = queues_.end();
    Clock::time_point earliest_deadline = Clock::time_point::max();
    bool any_pending = false;
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
      const std::deque<Request>& queue = it->second;
      if (queue.empty()) continue;
      any_pending = true;
      const Clock::time_point deadline =
          queue.front().enqueued + options_.max_delay;
      const bool is_ready =
          stopping_ ||
          queue.size() >= static_cast<std::size_t>(options_.max_batch) ||
          deadline <= now;
      if (is_ready) {
        if (ready == queues_.end() ||
            queue.front().enqueued < ready->second.front().enqueued) {
          ready = it;
        }
      } else {
        earliest_deadline = std::min(earliest_deadline, deadline);
      }
    }
    if (ready == queues_.end()) {
      if (!any_pending && stopping_) return;
      if (any_pending) {
        cv_.wait_until(lock, earliest_deadline);
      } else {
        cv_.wait(lock);
      }
      continue;
    }
    std::deque<Request>& queue = ready->second;
    const std::size_t take = std::min(
        queue.size(), static_cast<std::size_t>(options_.max_batch));
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    // Drop the drained entry so the scheduler pins no ModelHandle
    // between batches (registry eviction stays possible).
    if (queue.empty()) queues_.erase(ready);
    lock.unlock();
    run_batch(std::move(batch), Clock::now());
    lock.lock();
  }
}

void BatchScheduler::run_batch(std::vector<Request> batch,
                               Clock::time_point dispatch) {
  check(!batch.empty(), "BatchScheduler::run_batch: empty batch");
  const ModelHandle& model = batch.front().model;

  std::vector<Tensor> images;
  std::vector<DispatchedRequest> dispatched;
  images.reserve(batch.size());
  dispatched.reserve(batch.size());
  for (Request& request : batch) {
    images.push_back(std::move(request.image));
    const auto queued = std::chrono::duration_cast<std::chrono::nanoseconds>(
        dispatch - request.enqueued);
    dispatched.push_back(
        {request.tenant,
         static_cast<std::uint64_t>(std::max<std::int64_t>(
             queued.count(), 0))});
  }
  stats_.record_batch(model->name(), dispatched, options_.max_batch);

  try {
    // One classify_batch call per dispatched batch — exactly what a
    // caller batching by hand would run, so per-image results are
    // bit-identical to the direct path (classify_batch's own
    // serial-equivalence guarantee makes them independent of how
    // requests happened to coalesce). classify_batch leases one
    // Workspace per worker from the engine's pool (bnn/memory_plan.h),
    // so steady-state serving performs no per-image heap allocation
    // beyond the score tensors themselves.
    std::vector<Tensor> scores =
        model->engine().classify_batch(images, options_.num_threads);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(scores[i]));
    }
  } catch (...) {
    // A failed batch fails every request in it with the same
    // exception; the futures stay fulfilled. submit() refuses the known
    // per-image causes (shape, non-finite pixels), so this is left for
    // failures no single request caused. A
    // promise that already received its value keeps it (set_exception
    // on a satisfied promise throws future_error, swallowed here).
    const std::exception_ptr error = std::current_exception();
    for (Request& request : batch) {
      try {
        request.promise.set_exception(error);
      } catch (const std::future_error&) {
      }
    }
  }
}

}  // namespace bkc::serve
