#pragma once
// The workload-independent half of the benchmark: seeded input
// generation, the percentile rule, the bit-exact oracle comparison,
// metric naming and result formatting, and the in-memory span tracer.
// Everything here is deterministic or pure so harness_test.cpp can pin
// it; bkcbench.cpp holds the workloads that drive the library.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.h"

namespace bkcbench {

using Clock = std::chrono::steady_clock;

/// Seconds / milliseconds between two steady-clock points.
double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------- stats

/// True when `samples` values leave at least `min_beyond` of them above
/// the p-th percentile (p in [0, 100]) — the rule for which percentile
/// of a run may be reported at all.
bool percentile_supported(std::size_t samples, double p,
                          std::size_t min_beyond = 10);

/// A percentile together with the sample count it was taken over.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The p-th percentile (linear interpolation) of `values`; CheckError
/// when the sample does not support p under percentile_supported().
Percentile supported_percentile(std::span<const double> values, double p);

double median(std::vector<double> values);

// ------------------------------------------------------- seeded inputs

/// Independent 64-bit seed for stream `stream` of run seed `seed`, so
/// the schedule and each image pool draw from unrelated generators.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// `count` natural-image-like inputs of `shape`, identical for equal
/// seeds (bnn::WeightGenerator::sample_activation).
std::vector<bkc::Tensor> image_pool(const bkc::FeatureShape& shape,
                                    std::size_t count, std::uint64_t seed);

/// One open-loop arrival: when it is due (seconds after the start),
/// which model and tenant it belongs to, and which image of that
/// model's pool it sends.
struct Arrival {
  double due_s = 0.0;
  int model = 0;
  int tenant = 0;
  int image = 0;
};

/// An open-loop traffic mix over a fixed window.
struct TrafficMix {
  double rate_per_s = 0.0;
  double seconds = 0.0;
  std::vector<double> model_shares;   ///< weights, one per model
  std::vector<double> tenant_shares;  ///< weights, one per tenant
  std::vector<int> pool_sizes;        ///< images per model pool
};

/// A Poisson arrival schedule with exactly round(rate * seconds)
/// arrivals: conditioned on its count, a Poisson process's arrival
/// times are sorted i.i.d. uniforms over the window, so fixing the
/// count removes count noise without changing the inter-arrival law.
/// Identical for equal seeds.
std::vector<Arrival> poisson_schedule(const TrafficMix& mix,
                                      std::uint64_t seed);

// --------------------------------------------------------------- oracle

/// True when `actual` has `expected`'s shape and every score has the
/// same bit pattern (NaN-safe; -0.0 differs from 0.0).
bool bit_identical(const bkc::Tensor& expected, const bkc::Tensor& actual);

// -------------------------------------------------------------- metrics

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
/// are at most 64 characters.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line: one compact JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`. CheckError on
/// an invalid or repeated metric name or a non-finite value.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// -------------------------------------------------------------- tracing

/// In-memory span recorder. A span is one timed call into a layer's
/// public function: name, optional index (block or extent), steady-clock
/// start/end, parent span and request id. Spans stay in memory until
/// the run ends and are exported as Chrome trace-event JSON (opens in
/// Perfetto). Thread-safe; while disabled, begin() records nothing.
class Tracer {
 public:
  struct Span {
    int id = -1;
    const char* name = "";
    std::int64_t index = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = -1;
    std::uint32_t thread = 0;
  };

  Tracer();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span and returns its id (-1 while disabled). `name` must be
  /// a string literal (stored by pointer).
  int begin(const char* name, int parent = -1, std::int64_t request = -1,
            std::int64_t index = -1);
  /// Closes span `id`; a no-op for -1.
  void end(int id);

  /// Closed spans, in the order they were opened; a span's id is its
  /// position among all spans ever opened.
  std::vector<Span> spans() const;

  /// Durations (ms) of the closed spans named `name`, by index: the
  /// inner vector holds one entry per call, in call order.
  std::map<std::int64_t, std::vector<double>> durations_ms(
      std::string_view name) const;

  /// Total self time (ms) per span name: each span's duration minus the
  /// part of its interval covered by its children.
  std::map<std::string, double> self_ms_by_name() const;

  std::string chrome_json() const;

 private:
  std::uint32_t thread_number();

  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;        ///< guarded by mutex_
  std::vector<bool> open_;         ///< guarded by mutex_
  std::map<std::size_t, std::uint32_t> threads_;  ///< guarded by mutex_
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = -1,
             std::int64_t request = -1, std::int64_t index = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent, request, index)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace bkcbench
