// Integration tests for serve/scheduler.h — dynamic batching over the
// shared registry.
//
// The load-bearing guarantee: batching NEVER changes a result. Every
// response must be bit-identical to calling classify_batch directly on
// the same engine, at every scheduler thread count (1/2/4/7) and
// however the requests happened to coalesce into batches. On top of
// that: the deadline flushes partial batches, a full batch dispatches
// without waiting for the deadline, admission control rejects
// deterministically at max_queue with a typed error, stop() drains
// every accepted request, and the counters add up.

#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bnn/weights.h"
#include "core/engine.h"
#include "serve/registry.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::serve {
namespace {

using namespace std::chrono_literals;

void expect_scores_bit_identical(const Tensor& actual,
                                 const Tensor& expected,
                                 const std::string& context) {
  ASSERT_EQ(actual.data().size(), expected.data().size()) << context;
  for (std::size_t v = 0; v < actual.data().size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual.data()[v]),
              std::bit_cast<std::uint32_t>(expected.data()[v]))
        << context << " value " << v;
  }
}

class ServeSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/scheduler_model.bkcm";
    Engine engine(test::tiny_config(27));
    engine.compress(2);
    engine.save_compressed(path_);
    registry_ = std::make_unique<ModelRegistry>(2);
    model_ = registry_->open("tiny", path_);
  }

  void TearDown() override {
    model_.reset();
    registry_.reset();
    std::remove(path_.c_str());
  }

  std::vector<Tensor> sample_images(int count, std::uint64_t seed) const {
    bnn::WeightGenerator gen(seed);
    std::vector<Tensor> images;
    images.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      images.push_back(
          gen.sample_activation(model_->engine().model().input_shape()));
    }
    return images;
  }

  std::string path_;
  std::unique_ptr<ModelRegistry> registry_;
  ModelHandle model_;
};

// The acceptance criterion of the serving PR: the served path is
// bit-identical to the direct classify_batch path at every thread
// count, regardless of how the scheduler batched the requests.
TEST_F(ServeSchedulerTest, ServedResultsBitIdenticalToDirectAcrossThreads) {
  const std::vector<Tensor> images = sample_images(10, 99);
  const std::vector<Tensor> expected =
      model_->engine().classify_batch(images, 1);

  for (int threads : {1, 2, 4, 7}) {
    SchedulerOptions options;
    options.max_batch = 3;  // forces multiple, unevenly filled batches
    options.max_delay = 1ms;
    options.num_threads = threads;
    BatchScheduler scheduler(options);

    std::vector<std::future<Tensor>> futures;
    for (const Tensor& image : images) {
      futures.push_back(scheduler.submit(model_, "tenant", image));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Tensor scores = futures[i].get();
      expect_scores_bit_identical(
          scores, expected[i],
          "threads " + std::to_string(threads) + " image " +
              std::to_string(i));
    }
    scheduler.stop();
  }
}

TEST_F(ServeSchedulerTest, DeadlineFlushesAPartialBatch) {
  SchedulerOptions options;
  options.max_batch = 100;  // the queue can never fill; only the
                            // deadline can dispatch these requests
  options.max_delay = 2ms;
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(2, 7);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& image : images) {
    futures.push_back(scheduler.submit(model_, "tenant", image));
  }
  // Generous bound (sanitizer builds are slow); the point is that the
  // futures complete at all without the batch ever filling.
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, 2u);
  EXPECT_EQ(stats.total.dispatched, 2u);
  EXPECT_GE(stats.total.batches, 1u);
}

TEST_F(ServeSchedulerTest, FullBatchDispatchesWithoutWaitingForDeadline) {
  SchedulerOptions options;
  options.max_batch = 4;
  options.max_delay = std::chrono::minutes(10);  // never reached in-test
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(4, 11);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& image : images) {
    futures.push_back(scheduler.submit(model_, "tenant", image));
  }
  // Completion long before the 10-minute deadline proves the size
  // trigger fired.
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.dispatched, 4u);
  EXPECT_EQ(stats.total.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.total.batch_occupancy(), 1.0);
}

TEST_F(ServeSchedulerTest, QueueFullRejectsDeterministically) {
  SchedulerOptions options;
  options.max_batch = 64;  // > max_queue: the size trigger can't fire
  options.max_delay = std::chrono::minutes(10);
  options.max_queue = 6;
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(7, 13);
  std::vector<std::future<Tensor>> futures;
  // Exactly max_queue submissions are admitted...
  for (int i = 0; i < 6; ++i) {
    futures.push_back(scheduler.submit(model_, "tenant", images[
        static_cast<std::size_t>(i)]));
  }
  // ...and the next is refused with the typed reason, every time.
  try {
    scheduler.submit(model_, "tenant", images[6]);
    FAIL() << "expected RejectError";
  } catch (const RejectError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
    EXPECT_NE(std::string(e.what()).find("tiny"), std::string::npos);
  }
  EXPECT_THROW(scheduler.submit(model_, "tenant", images[6]), RejectError);

  // stop() drains everything that was admitted.
  scheduler.stop();
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, 6u);
  EXPECT_EQ(stats.total.rejects, 2u);
  EXPECT_EQ(stats.total.dispatched, 6u);
}

// One tenant's bad image must not fail another tenant's batch: a
// wrongly shaped or non-finite image is refused at submit, so the batch
// it would have joined serves the other tenant unchanged.
TEST_F(ServeSchedulerTest, BadImagesAreRejectedWithoutFailingOtherTenants) {
  SchedulerOptions options;
  options.max_batch = 8;
  options.max_delay = std::chrono::minutes(10);  // one batch, at stop()
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(3, 41);
  const std::vector<Tensor> expected =
      model_->engine().classify_batch(images, 1);
  const FeatureShape shape = model_->engine().model().input_shape();
  const Tensor wrong_shape(
      FeatureShape{shape.channels, shape.height + 1, shape.width});
  Tensor non_finite = images[1];
  non_finite.data()[7] = std::numeric_limits<float>::quiet_NaN();

  auto expect_bad_input = [&](const Tensor& image) {
    try {
      scheduler.submit(model_, "tenant-b", image);
      FAIL() << "expected RejectError";
    } catch (const RejectError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kBadInput);
      EXPECT_STREQ(to_string(e.reason()), "bad_input");
      EXPECT_NE(std::string(e.what()).find("tenant-b"), std::string::npos);
    }
  };
  std::vector<std::future<Tensor>> futures;
  futures.push_back(scheduler.submit(model_, "tenant-a", images[0]));
  expect_bad_input(wrong_shape);
  futures.push_back(scheduler.submit(model_, "tenant-a", images[1]));
  expect_bad_input(non_finite);
  futures.push_back(scheduler.submit(model_, "tenant-a", images[2]));
  scheduler.stop();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_scores_bit_identical(futures[i].get(), expected[i],
                                "tenant-a image " + std::to_string(i));
  }
  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.per_tenant.at("tenant-b").rejects, 2u);
  EXPECT_EQ(stats.per_tenant.at("tenant-b").requests, 0u);
  EXPECT_EQ(stats.per_tenant.at("tenant-a").rejects, 0u);
  EXPECT_EQ(stats.per_tenant.at("tenant-a").dispatched, 3u);
  EXPECT_EQ(stats.total.batches, 1u);
}

TEST_F(ServeSchedulerTest, SubmitAfterStopRejectsAsStopped) {
  BatchScheduler scheduler;
  scheduler.stop();
  const std::vector<Tensor> images = sample_images(1, 17);
  try {
    scheduler.submit(model_, "tenant", images[0]);
    FAIL() << "expected RejectError";
  } catch (const RejectError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kStopped);
  }
  EXPECT_EQ(scheduler.stats().total.rejects, 1u);
}

TEST_F(ServeSchedulerTest, NullHandleIsACheckError) {
  BatchScheduler scheduler;
  const std::vector<Tensor> images = sample_images(1, 19);
  EXPECT_THROW(scheduler.submit(nullptr, "tenant", images[0]), CheckError);
}

TEST_F(ServeSchedulerTest, DestructorDrainsQueuedRequests) {
  const std::vector<Tensor> images = sample_images(3, 23);
  std::vector<std::future<Tensor>> futures;
  {
    SchedulerOptions options;
    options.max_batch = 100;
    options.max_delay = std::chrono::minutes(10);
    BatchScheduler scheduler(options);
    for (const Tensor& image : images) {
      futures.push_back(scheduler.submit(model_, "tenant", image));
    }
    // No stop(): the destructor must dispatch what is queued.
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
}

TEST_F(ServeSchedulerTest, QueuedRequestsPinTheModelAgainstEviction) {
  SchedulerOptions options;
  options.max_batch = 100;
  options.max_delay = std::chrono::minutes(10);
  BatchScheduler scheduler(options);
  const std::vector<Tensor> images = sample_images(1, 29);
  std::future<Tensor> future =
      scheduler.submit(model_, "tenant", images[0]);

  // The caller drops its handle; the queued request still pins it.
  model_.reset();
  EXPECT_EQ(registry_->evict_unused(), 0u);
  EXPECT_TRUE(registry_->contains("tiny"));

  scheduler.stop();
  EXPECT_NO_THROW(future.get());
  // Drained: nothing pins the model any more.
  EXPECT_EQ(registry_->evict_unused(), 1u);
  EXPECT_FALSE(registry_->contains("tiny"));
}

TEST_F(ServeSchedulerTest, PerTenantAndPerModelCountersAddUp) {
  SchedulerOptions options;
  options.max_batch = 2;
  options.max_delay = 1ms;
  BatchScheduler scheduler(options);

  const std::vector<Tensor> images = sample_images(6, 31);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 6; ++i) {
    const std::string tenant = (i % 3 == 0) ? "tenant-x" : "tenant-y";
    futures.push_back(
        scheduler.submit(model_, tenant, images[static_cast<std::size_t>(i)]));
  }
  for (auto& future : futures) future.get();
  scheduler.stop();

  const StatsSnapshot stats = scheduler.stats();
  EXPECT_EQ(stats.total.requests, 6u);
  EXPECT_EQ(stats.total.dispatched, 6u);
  ASSERT_EQ(stats.per_model.size(), 1u);
  EXPECT_EQ(stats.per_model.at("tiny").requests, 6u);
  EXPECT_EQ(stats.per_model.at("tiny").dispatched, 6u);
  ASSERT_EQ(stats.per_tenant.size(), 2u);
  EXPECT_EQ(stats.per_tenant.at("tenant-x").requests, 2u);
  EXPECT_EQ(stats.per_tenant.at("tenant-y").requests, 4u);
  EXPECT_EQ(stats.per_tenant.at("tenant-x").dispatched +
                stats.per_tenant.at("tenant-y").dispatched,
            6u);
  // Queue time is measured for every dispatched request.
  EXPECT_EQ(stats.total.queue.count(), 6u);
  EXPECT_GE(stats.total.mean_queue_ms(), 0.0);
}

TEST_F(ServeSchedulerTest, OptionValidation) {
  SchedulerOptions options;
  options.max_batch = 0;
  EXPECT_THROW(BatchScheduler{options}, CheckError);
  options = {};
  options.max_queue = 0;
  EXPECT_THROW(BatchScheduler{options}, CheckError);
  options = {};
  options.num_threads = 0;
  EXPECT_THROW(BatchScheduler{options}, CheckError);
  options = {};
  options.max_delay = std::chrono::microseconds(-1);
  EXPECT_THROW(BatchScheduler{options}, CheckError);
}

}  // namespace
}  // namespace bkc::serve
