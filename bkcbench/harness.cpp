#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include "bnn/weights.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bkcbench {

using bkc::check;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool percentile_supported(std::size_t samples, double p,
                          std::size_t min_beyond) {
  if (samples == 0 || p < 0.0 || p > 100.0) return false;
  const double beyond = static_cast<double>(samples) * (100.0 - p) / 100.0;
  // A hair of slack so that e.g. 1000 samples support p99 (10 beyond)
  // despite 100 - 99 not being exact in binary.
  return beyond + 1e-9 >= static_cast<double>(min_beyond);
}

Percentile supported_percentile(std::span<const double> values, double p) {
  check(percentile_supported(values.size(), p),
        "percentile p" + std::to_string(p) + " needs at least 10 samples "
        "beyond it; the run has only " + std::to_string(values.size()));
  return {p, bkc::percentile(values, p), values.size()};
}

double median(std::vector<double> values) {
  check(!values.empty(), "median of an empty sample");
  return bkc::percentile(values, 50.0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<bkc::Tensor> image_pool(const bkc::FeatureShape& shape,
                                    std::size_t count, std::uint64_t seed) {
  bkc::bnn::WeightGenerator generator(seed);
  std::vector<bkc::Tensor> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(generator.sample_activation(shape));
  }
  return pool;
}

std::vector<Arrival> poisson_schedule(const TrafficMix& mix,
                                      std::uint64_t seed) {
  check(mix.rate_per_s > 0.0 && mix.seconds > 0.0,
        "poisson_schedule: rate and window must be positive");
  check(!mix.model_shares.empty() &&
            mix.model_shares.size() == mix.pool_sizes.size(),
        "poisson_schedule: one pool size per model share");
  check(!mix.tenant_shares.empty(), "poisson_schedule: no tenants");
  const auto count =
      static_cast<std::size_t>(std::llround(mix.rate_per_s * mix.seconds));
  bkc::Rng rng(seed);
  std::vector<Arrival> schedule(count);
  for (Arrival& a : schedule) a.due_s = rng.uniform() * mix.seconds;
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& x, const Arrival& y) { return x.due_s < y.due_s; });
  for (Arrival& a : schedule) {
    a.model = static_cast<int>(rng.weighted_pick(mix.model_shares));
    a.tenant = static_cast<int>(rng.weighted_pick(mix.tenant_shares));
    a.image = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(mix.pool_sizes[a.model])));
  }
  return schedule;
}

bool bit_identical(const bkc::Tensor& expected, const bkc::Tensor& actual) {
  if (!(expected.shape() == actual.shape())) return false;
  const auto a = expected.data();
  const auto b = actual.data();
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    check(valid_metric_name(m.name), "invalid metric name '" + m.name + "'");
    check(seen.insert(m.name).second, "metric '" + m.name + "' repeated");
    if (i > 0) out += ", ";
    out += bkc::json::quoted(m.name) + ": {\"value\": " +
           bkc::json::number(m.value) +
           ", \"unit\": " + bkc::json::quoted(m.unit) + "}";
  }
  out += "}}";
  return out;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint32_t Tracer::thread_number() {
  const std::size_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] =
      threads_.emplace(key, static_cast<std::uint32_t>(threads_.size() + 1));
  return it->second;
}

int Tracer::begin(const char* name, int parent, std::int64_t request,
                  std::int64_t index) {
  if (!enabled()) return -1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  std::lock_guard lock(mutex_);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.name = name;
  span.index = index;
  span.start_ns = now;
  span.end_ns = now;
  span.parent = parent;
  span.request = request;
  span.thread = thread_number();
  spans_.push_back(span);
  open_.push_back(true);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  std::lock_guard lock(mutex_);
  check(static_cast<std::size_t>(id) < spans_.size() && open_[id],
        "Tracer::end: span is not open");
  spans_[id].end_ns = now;
  open_[id] = false;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  std::vector<Span> closed;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!open_[i]) closed.push_back(spans_[i]);
  }
  return closed;
}

std::map<std::int64_t, std::vector<double>> Tracer::durations_ms(
    std::string_view name) const {
  std::map<std::int64_t, std::vector<double>> out;
  for (const Span& s : spans()) {
    if (name == s.name) {
      out[s.index].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (open_[i]) continue;
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::vector<Span> closed = spans();
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const Span& s = closed[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": " + bkc::json::quoted(s.name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.thread) +
           ", \"ts\": " + bkc::json::number(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " +
           bkc::json::number(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"request\": " + std::to_string(s.request) +
           ", \"index\": " + std::to_string(s.index) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace bkcbench
