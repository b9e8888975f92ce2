// Self-tests of the benchmark harness's own logic: the percentile and
// sample-count rule, seeded determinism of the schedule and the image
// pools, the oracle's bit-exact comparison, metric naming, and the
// tracer's self-time arithmetic. Build the bkcbench_tests target and run
// it; it prints one line per failed expectation and exits non-zero if
// any failed.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "util/check.h"

namespace {

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    ++g_failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const bkc::CheckError&) {
    return true;
  }
  return false;
}

using namespace bkcbench;

void test_percentile_rule() {
  // p needs at least ten samples strictly above it.
  expect(percentile_supported(20, 50.0), "20 samples support p50");
  expect(!percentile_supported(19, 50.0), "19 samples do not support p50");
  expect(percentile_supported(100, 90.0), "100 samples support p90");
  expect(!percentile_supported(99, 90.0), "99 samples do not support p90");
  expect(percentile_supported(1000, 99.0), "1000 samples support p99");
  expect(!percentile_supported(999, 99.0), "999 samples do not support p99");
  expect(percentile_supported(40, 75.0), "40 samples support p75");
  expect(!percentile_supported(0, 50.0), "an empty sample supports nothing");

  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Percentile p90 = supported_percentile(values, 90.0);
  expect(p90.samples == 100, "percentile carries its sample count");
  expect(p90.p == 90.0, "percentile carries its rank");
  expect(p90.value > 90.0 && p90.value < 91.0, "p90 of 1..100 interpolates");
  expect(throws([&] { supported_percentile(values, 99.0); }),
         "an unsupported percentile is refused");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

TrafficMix fleet_like_mix() {
  TrafficMix mix;
  mix.rate_per_s = 80.0;
  mix.seconds = 25.0;
  mix.model_shares = {0.3, 0.7};
  mix.tenant_shares = {0.6, 0.3, 0.1};
  mix.pool_sizes = {16, 32};
  return mix;
}

bool same_schedule(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].model != b[i].model ||
        a[i].tenant != b[i].tenant || a[i].image != b[i].image) {
      return false;
    }
  }
  return true;
}

void test_schedule_determinism() {
  const TrafficMix mix = fleet_like_mix();
  const std::vector<Arrival> a = poisson_schedule(mix, 7);
  const std::vector<Arrival> b = poisson_schedule(mix, 7);
  const std::vector<Arrival> c = poisson_schedule(mix, 8);
  expect(same_schedule(a, b), "same seed, identical schedule");
  expect(!same_schedule(a, c), "different seed, different schedule");
  expect(a.size() == 2000, "exactly rate * seconds arrivals");

  bool sorted = true;
  bool in_window = true;
  bool in_pool = true;
  std::size_t big = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_s < a[i - 1].due_s) sorted = false;
    if (a[i].due_s < 0.0 || a[i].due_s >= mix.seconds) in_window = false;
    if (a[i].image < 0 || a[i].image >= mix.pool_sizes[a[i].model]) in_pool = false;
    if (a[i].model == 0) ++big;
  }
  expect(sorted, "arrivals are in due order");
  expect(in_window, "arrivals fall inside the window");
  expect(in_pool, "every arrival names an image of its model's pool");
  // 30% big with n = 2000: sd ~ 20, so 5 sd either side.
  expect(big > 500 && big < 700, "model shares are respected");
}

void test_pool_determinism() {
  const bkc::FeatureShape shape{3, 16, 16};
  const std::vector<bkc::Tensor> a = image_pool(shape, 4, derive_seed(5, 100));
  const std::vector<bkc::Tensor> b = image_pool(shape, 4, derive_seed(5, 100));
  const std::vector<bkc::Tensor> c = image_pool(shape, 4, derive_seed(6, 100));
  bool same = a.size() == 4 && b.size() == 4;
  bool differs = false;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = bit_identical(a[i], b[i]);
    differs = differs || !bit_identical(a[i], c[i]);
  }
  expect(same, "same seed, identical image pool");
  expect(differs, "different seed, different image pool");
  expect(derive_seed(5, 1) != derive_seed(5, 2), "streams get distinct seeds");
}

void test_oracle_catches_one_flipped_bit() {
  bkc::Tensor expected(bkc::FeatureShape{10, 1, 1});
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  bkc::Tensor actual = expected;
  expect(bit_identical(expected, actual), "identical scores compare equal");
  for (std::size_t bit = 0; bit < 32; ++bit) {
    bkc::Tensor flipped = expected;
    std::uint32_t word = 0;
    std::memcpy(&word, &flipped.data()[7], sizeof word);
    word ^= 1u << bit;
    std::memcpy(&flipped.data()[7], &word, sizeof word);
    expect(!bit_identical(expected, flipped),
           "a flip of score bit " + std::to_string(bit) + " is caught");
  }
  bkc::Tensor zero(bkc::FeatureShape{1, 1, 1});
  bkc::Tensor negative_zero(bkc::FeatureShape{1, 1, 1});
  negative_zero.data()[0] = -0.0f;
  expect(!bit_identical(zero, negative_zero), "-0.0 differs from 0.0");
  expect(!bit_identical(expected, bkc::Tensor(bkc::FeatureShape{5, 2, 1})),
         "a shape mismatch is caught");
}

void test_metric_names() {
  for (const char* good : {"setup_s", "bnn.conv3x3_gmac_s.e112",
                           "serve.big.latency_p50_ms", "a-b", "9lives"}) {
    expect(valid_metric_name(good), std::string("accepts ") + good);
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "semi;colon",
                          "slash/name", "tab\tname"}) {
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  expect(!valid_metric_name(std::string(65, 'a')), "rejects 65 characters");

  const std::string line = result_line(
      true, 3, 0, {{"latency_p50_ms", 1.5, "ms"}, {"setup_s", 0.25, "s"}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}",
         "result line format");
  expect(throws([] { result_line(true, 1, 0, {{"bad name", 1.0, "s"}}); }),
         "result line refuses a bad name");
  expect(throws([] {
           result_line(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}});
         }),
         "result line refuses a repeated name");
}

void test_tracer() {
  Tracer tracer;
  expect(tracer.begin("off") == -1, "a disabled tracer records nothing");
  tracer.set_enabled(true);
  {
    ScopedSpan parent(tracer, "parent", -1, 42);
    {
      ScopedSpan child(tracer, "child", parent.id(), 42, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::vector<Tracer::Span> spans = tracer.spans();
  expect(spans.size() == 2, "two closed spans");
  expect(spans.size() == 2 && spans[1].parent == spans[0].id &&
             spans[1].request == 42,
         "child links to its parent and request");
  const auto self = tracer.self_ms_by_name();
  const double child_ms = tracer.durations_ms("child").at(0).at(0);
  const double parent_ms = tracer.durations_ms("parent").at(-1).at(0);
  expect(child_ms >= 20.0, "child lasts its sleep");
  expect(std::abs(self.at("parent") - (parent_ms - child_ms)) < 1e-6,
         "self time is duration minus children");
  const std::string json = tracer.chrome_json();
  expect(json.find("\"traceEvents\"") != std::string::npos &&
             json.find("\"ph\": \"X\"") != std::string::npos,
         "chrome trace-event export");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_schedule_determinism();
  test_pool_determinism();
  test_oracle_catches_one_flipped_bit();
  test_metric_names();
  test_tracer();
  if (g_failures > 0) {
    std::cout << g_failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "bkcbench_tests: all passed\n";
  return 0;
}
