// bkcbench: the repository's end-to-end benchmark.
//
//   bkcbench --workload offline64|fleet_mix --seed N --seconds S
//            --trace 0|1 --workdir DIR
//
// One process runs one workload. It generates every input from --seed,
// sets the workload up (build, compress, save, open, load, simulate,
// warm up) several times and keeps the last set-up, then drives the
// library for --seconds and checks every output bit for bit against a
// scalar-kernel oracle computed during the first set-up. With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, taken from spans the benchmark records
// around its calls into each module's public functions (the spans are
// also written to DIR as Chrome trace-event JSON). See README.md for the
// workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bnn/bconv_kernels.h"
#include "bnn/layers.h"
#include "bnn/memory_plan.h"
#include "bnn/reactnet.h"
#include "bnn/weights.h"
#include "compress/serialize.h"
#include "core/engine.h"
#include "harness.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "util/check.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/thread_pool.h"

// ------------------------------------------------ allocation counter
//
// bnn.allocs_per_classify reads this process-wide operator-new counter
// around warm Engine::classify_into calls. Every allocating form the
// standard library may route through is replaced, as in
// tests/test_zero_alloc.cpp; the cost is one relaxed atomic add.

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size ? size : alignment) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bkcbench {
namespace {

using bkc::check;
using bkc::Engine;
using bkc::FeatureShape;
using bkc::Tensor;
namespace bnn = bkc::bnn;
namespace compress = bkc::compress;
namespace hwsim = bkc::hwsim;
namespace serve = bkc::serve;

// ---------------------------------------------------------- constants

/// Set-ups per run; setup_s and the compress.* set-up timings report
/// the median.
constexpr int kSetupRepeats = 3;
/// Timed repetitions of each layer probe (after one untimed warm-up).
constexpr int kProbeReps = 5;

constexpr std::size_t kOfflineBatch = 16;
constexpr std::size_t kOfflinePool = 32;

/// fleet_mix arrivals: 70% `big` at about 37 ms per single-request batch
/// keeps the one dispatcher about a third busy, so compute rather than
/// queueing sets the latency (README.md, "Workloads").
constexpr double kFleetRatePerS = 12.0;
constexpr double kFleetBigShare = 0.7;
constexpr double kFleetSloMs = 150.0;
constexpr std::size_t kFleetBigPool = 16;
constexpr std::size_t kFleetSmallPool = 32;
/// Length of the fleet_mix serve probe in the traced runs of the
/// workloads that do not serve: 360 arrivals, as in a 30 s fleet_mix run.
constexpr double kServeProbeSeconds = 30.0;
/// Open-loop validity: a run whose generator sends later than this is
/// not an open-loop measurement and is refused.
constexpr double kMaxLatenessP95Ms = 10.0;
constexpr double kMaxLatenessMs = 100.0;

/// Tolerance of the traced run's decomposition check: the separately
/// timed parts of one forward pass must add up to within this share of
/// the whole.
constexpr double kDecompositionTolerance = 0.15;

/// Per-workload latency reporting. `tail_p` is the highest percentile a
/// run of the documented length supports with >= 10 samples beyond it;
/// `slo_ms` is the limit slo_met_frac counts against.
struct WorkloadSpec {
  const char* name;
  double tail_p;
  double slo_ms;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"offline64", 75.0, 600.0},
    {"fleet_mix", 95.0, kFleetSloMs},
};

// ------------------------------------------------------------ options

struct Options {
  WorkloadSpec workload{};
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    check(key.rfind("--", 0) == 0 && i + 1 < argc,
          "usage: bkcbench --workload W --seed N --seconds S --trace 0|1 "
          "--workdir DIR");
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "workdir"}) {
    check(args.count(required) == 1,
          std::string("missing --") + required);
  }
  check(args.size() == 5, "unknown option");
  Options opt;
  bool found = false;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args["workload"] == w.name) {
      opt.workload = w;
      found = true;
    }
  }
  check(found, "unknown workload '" + args["workload"] + "'");
  opt.seed = std::stoull(args["seed"]);
  opt.seconds = std::stod(args["seconds"]);
  check(opt.seconds > 0.0, "--seconds must be positive");
  check(args["trace"] == "0" || args["trace"] == "1", "--trace takes 0 or 1");
  opt.trace = args["trace"] == "1";
  opt.workdir = args["workdir"];
  return opt;
}

// ---------------------------------------------------------- utilities

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bnn::ReActNetConfig paper_at(std::int64_t input_size) {
  bnn::ReActNetConfig config = bnn::paper_reactnet_config();
  config.input_size = input_size;
  return config;
}

/// Sum over indices of the median duration of span `name`.
double sum_of_medians(const Tracer& tracer, std::string_view name) {
  double total = 0.0;
  for (const auto& [index, durations] : tracer.durations_ms(name)) {
    total += median(durations);
  }
  return total;
}

/// Accumulates one-line JSON metadata (already-encoded values).
class Meta {
 public:
  void add(const std::string& key, const std::string& json_value) {
    fields_.emplace_back(key, json_value);
  }
  void add_number(const std::string& key, double v) {
    add(key, bkc::json::number(v, bkc::json::NonFinitePolicy::kNull));
  }
  void add_string(const std::string& key, const std::string& v) {
    add(key, bkc::json::quoted(v));
  }
  void add_percentile(const std::string& key, const Percentile& p) {
    add(key, "{\"p\": " + bkc::json::number(p.p) +
                 ", \"samples\": " + std::to_string(p.samples) + "}");
  }
  std::string line() const {
    std::string out = "{\"meta\": {";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += bkc::json::quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// CPU time of the whole guest from /proc/stat, in clock ticks: the time
/// its vCPUs ran, and the time the hypervisor held them back while they
/// had work (steal). Zeros when /proc/stat cannot be read.
struct HostCpu {
  double busy = 0.0;
  double steal = 0.0;
};

HostCpu read_host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  double user = 0.0, nice = 0.0, system = 0.0, idle = 0.0, iowait = 0.0,
         irq = 0.0, softirq = 0.0, steal = 0.0;
  in >> label >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || label != "cpu") return {};
  return {user + nice + system + irq + softirq, steal};
}

/// Share of the CPU time the guest wanted between `a` and `b` that the
/// host withheld. On a shared host this swings from ~1% to over 30% for
/// minutes at a time and stretches every timing with it, so the
/// end-to-end timings are scaled by (1 - share): they count the time the
/// program was allowed to run. The raw values go to the meta line.
double steal_share(const HostCpu& a, const HostCpu& b) {
  const double busy = b.busy - a.busy;
  const double steal = b.steal - a.steal;
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

/// Outcome counters of the timed operations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// ------------------------------------------------------------- set-up

struct ModelSpec {
  std::string name;
  bnn::ReActNetConfig config;
  std::size_t pool_size = 0;
};

/// A workload's seeded inputs and their reference scores.
struct Inputs {
  std::vector<std::vector<Tensor>> pools;    ///< per model
  std::vector<std::vector<Tensor>> oracles;  ///< per model, per image
};

Inputs make_inputs(const std::vector<ModelSpec>& specs, std::uint64_t seed) {
  Inputs inputs;
  for (std::size_t m = 0; m < specs.size(); ++m) {
    const bnn::ReActNetConfig& c = specs[m].config;
    inputs.pools.push_back(image_pool({c.input_channels, c.input_size, c.input_size},
                                      specs[m].pool_size, derive_seed(seed, 100 + m)));
  }
  inputs.oracles.resize(specs.size());
  return inputs;
}

/// The served side of a workload after one set-up: either engines
/// loaded from mapped containers, or a model registry.
struct Served {
  std::vector<std::unique_ptr<compress::MappedBkcm>> mapped;
  std::vector<std::unique_ptr<Engine>> engines;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<serve::ModelHandle> handles;
  std::vector<std::string> paths;
  hwsim::SampledSpeedupReport sampled;  ///< model 0's simulation

  const Engine& engine(std::size_t m) const {
    return registry ? handles[m]->engine() : *engines[m];
  }
  const compress::MappedBkcm& container(std::size_t m) const {
    return registry ? handles[m]->mapped() : *mapped[m];
  }
};

/// Wall times of one set-up's stages (seconds). build/compress/save are
/// summed over the workload's models.
struct SetupTimes {
  double setup_s = 0.0;
  double build_s = 0.0;
  double compress_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double load_s = 0.0;
  double registry_open_s = 0.0;
  double sim_s = 0.0;
  double oracle_s = 0.0;  ///< not part of setup_s
  double steal_share = 0.0;
  double raw_setup_s = 0.0;  ///< setup_s before the steal correction
};

/// One complete set-up: build and compress every model, save it,
/// open and load it back (through a ModelRegistry when `via_registry`),
/// run the sampled hardware simulation on model 0 and warm the serving
/// path (one batch per model).
/// When `inputs` has no oracle yet, the reference scores are computed on
/// each in-memory engine before it is saved, with the scalar kernels
/// forced; that time is excluded from setup_s.
Served set_up(const std::vector<ModelSpec>& specs, bool via_registry,
              const std::string& workdir, int repeat, int threads,
              Inputs& inputs, SetupTimes& times) {
  const Clock::time_point start = Clock::now();
  const HostCpu cpu_start = read_host_cpu();
  Served served;
  for (std::size_t m = 0; m < specs.size(); ++m) {
    Clock::time_point t = Clock::now();
    Engine engine(specs[m].config);
    times.build_s += seconds_between(t, Clock::now());

    t = Clock::now();
    engine.compress(threads);
    times.compress_s += seconds_between(t, Clock::now());

    if (inputs.oracles[m].empty()) {
      t = Clock::now();
      bkc::simd::ScopedForceScalar scalar;
      inputs.oracles[m] = engine.classify_batch(inputs.pools[m], threads);
      times.oracle_s += seconds_between(t, Clock::now());
    }

    const std::string path = workdir + "/" + specs[m].name + "_r" +
                             std::to_string(repeat) + ".bkcm";
    t = Clock::now();
    engine.save_compressed(path);
    times.save_s += seconds_between(t, Clock::now());
    served.paths.push_back(path);
  }

  if (via_registry) {
    const Clock::time_point t = Clock::now();
    served.registry = std::make_unique<serve::ModelRegistry>(threads);
    for (std::size_t m = 0; m < specs.size(); ++m) {
      served.handles.push_back(
          served.registry->open(specs[m].name, served.paths[m]));
    }
    times.registry_open_s = seconds_between(t, Clock::now());
  } else {
    for (std::size_t m = 0; m < specs.size(); ++m) {
      Clock::time_point t = Clock::now();
      served.mapped.push_back(std::make_unique<compress::MappedBkcm>(
          compress::MappedBkcm::open(served.paths[m])));
      times.open_s += seconds_between(t, Clock::now());
      t = Clock::now();
      served.engines.push_back(std::make_unique<Engine>(
          Engine::load_compressed(*served.mapped[m], threads)));
      times.load_s += seconds_between(t, Clock::now());
    }
  }

  Clock::time_point t = Clock::now();
  hwsim::SamplingConfig sampling;
  sampling.num_threads = threads;
  served.sampled = served.engine(0).simulate_speedup_sampled(sampling);
  times.sim_s = seconds_between(t, Clock::now());

  // Warm-up: the serving path's first calls create the thread pool and
  // the engine's workspaces, so run one batch per model at the run's
  // fan-out.
  for (std::size_t m = 0; m < specs.size(); ++m) {
    const std::vector<Tensor>& pool = inputs.pools[m];
    const std::size_t n = std::min(pool.size(), kOfflineBatch);
    served.engine(m).classify_batch({pool.begin(), pool.begin() + n}, threads);
  }
  times.raw_setup_s = seconds_between(start, Clock::now()) - times.oracle_s;
  times.steal_share = steal_share(cpu_start, read_host_cpu());
  times.setup_s = times.raw_setup_s * (1.0 - times.steal_share);
  return served;
}

/// Runs set_up kSetupRepeats times and keeps the last; `median_times`
/// receives the per-stage medians.
Served set_up_repeated(const std::vector<ModelSpec>& specs, bool via_registry,
                       const std::string& workdir, int threads,
                       Inputs& inputs, SetupTimes& median_times) {
  std::vector<SetupTimes> all;
  Served served;
  for (int r = 0; r < kSetupRepeats; ++r) {
    served = Served{};  // release the previous set-up first
    all.emplace_back();
    served = set_up(specs, via_registry, workdir, r, threads, inputs,
                    all.back());
  }
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : all) v.push_back(s.*field);
    return median(v);
  };
  median_times.setup_s = med(&SetupTimes::setup_s);
  median_times.build_s = med(&SetupTimes::build_s);
  median_times.compress_s = med(&SetupTimes::compress_s);
  median_times.save_s = med(&SetupTimes::save_s);
  median_times.open_s = med(&SetupTimes::open_s);
  median_times.load_s = med(&SetupTimes::load_s);
  median_times.registry_open_s = med(&SetupTimes::registry_open_s);
  median_times.sim_s = med(&SetupTimes::sim_s);
  median_times.steal_share = med(&SetupTimes::steal_share);
  median_times.raw_setup_s = med(&SetupTimes::raw_setup_s);
  median_times.oracle_s = all.front().oracle_s;
  return served;
}

/// Whole-model bits before compression over bits after (streams plus
/// decode tables), summed over the served containers' stored reports.
double compression_ratio(const Served& served, std::size_t models) {
  double before = 0.0;
  double after = 0.0;
  for (std::size_t m = 0; m < models; ++m) {
    const compress::ModelReport& r = served.container(m).report();
    before += static_cast<double>(r.model_bits);
    after += static_cast<double>(r.model_bits) / r.model_ratio_with_tables;
  }
  return before / after;
}

// ------------------------------------------------------ timed loops

/// Latencies of one timed loop, split at the point where a traced run
/// switches tracing on (all in `untraced` for an untraced run).
struct LoopResult {
  std::vector<double> latency_ms;  ///< every successful operation
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double images = 0.0;
  double elapsed_s = 0.0;
  double steal_share = 0.0;  ///< over the whole loop
  Tally tally;
};

/// Operations a closed loop runs at least, even past --seconds, so that
/// its tail percentile stays supported when the code is slow.
std::size_t min_operations(double tail_p) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - tail_p / 100.0)));
}

void record_latency(LoopResult& r, double ms, bool traced) {
  r.latency_ms.push_back(ms);
  (traced ? r.traced_ms : r.untraced_ms).push_back(ms);
}

/// One timed operation of a closed loop: its latency, and the images it
/// completed correctly (0 when an output differed from the oracle).
struct Outcome {
  double ms = 0.0;
  double images = 0.0;
};

/// One client in a closed loop: `op(request)` back to back for --seconds,
/// and at least min_operations times. A traced run switches tracing on
/// halfway through.
template <typename Op>
LoopResult run_closed_loop(const Options& opt, Tracer& tracer, Op&& op) {
  LoopResult r;
  const HostCpu cpu_start = read_host_cpu();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  const Clock::time_point trace_from =
      opt.trace ? start + (end - start) / 2 : Clock::time_point::max();
  const std::size_t min_ops = min_operations(opt.workload.tail_p);
  for (std::int64_t request = 0;
       Clock::now() < end || r.tally.attempted < min_ops; ++request) {
    const bool traced = Clock::now() >= trace_from;
    tracer.set_enabled(traced);
    ++r.tally.attempted;
    try {
      const Outcome outcome = op(request);
      if (outcome.images == 0.0) {
        ++r.tally.failed;
        continue;
      }
      record_latency(r, outcome.ms, traced);
      r.images += outcome.images;
    } catch (const std::exception& e) {
      std::cerr << opt.workload.name << ": operation failed: " << e.what() << "\n";
      ++r.tally.failed;
    }
  }
  r.elapsed_s = seconds_between(start, Clock::now());
  r.steal_share = steal_share(cpu_start, read_host_cpu());
  tracer.set_enabled(false);
  return r;
}

/// offline64: classify_batch on batches of kOfflineBatch images drawn
/// from the seeded pool.
LoopResult run_offline(const Engine& engine, const Inputs& inputs,
                       const Options& opt, int threads, Tracer& tracer) {
  bkc::Rng rng(derive_seed(opt.seed, 1));
  const std::vector<Tensor>& pool = inputs.pools[0];
  std::vector<Tensor> batch(kOfflineBatch);
  std::vector<std::size_t> index(kOfflineBatch);
  return run_closed_loop(opt, tracer, [&](std::int64_t request) {
    for (std::size_t i = 0; i < kOfflineBatch; ++i) {
      index[i] = rng.below(pool.size());
      batch[i] = pool[index[i]];
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<Tensor> scores;
    {
      ScopedSpan span(tracer, "core.Engine::classify_batch", -1, request);
      scores = engine.classify_batch(batch, threads);
    }
    const double ms = ms_between(t0, Clock::now());
    bool ok = scores.size() == kOfflineBatch;
    for (std::size_t i = 0; ok && i < kOfflineBatch; ++i) {
      ok = bit_identical(inputs.oracles[0][index[i]], scores[i]);
    }
    return Outcome{ms, ok ? static_cast<double>(kOfflineBatch) : 0.0};
  });
}

/// What the open-loop fleet run measured beyond the common loop result.
struct FleetResult {
  LoopResult loop;
  std::vector<std::vector<double>> model_latency_ms;  ///< per model
  std::vector<double> lateness_ms;                    ///< send - due
  std::vector<double> submit_us;
  std::uint64_t rejected = 0;
  serve::StatsSnapshot stats;
};

/// fleet_mix: seeded Poisson arrivals at kFleetRatePerS, sent by one
/// generator thread into one BatchScheduler (default options at the
/// run's fan-out). One waiter thread per model collects that model's
/// futures in FIFO order — batches of one model complete in submit
/// order, so the time a waiter sees a future ready is its completion
/// time. Latency counts from the request's due time. A rejected,
/// failed or wrong response counts as failed and misses the SLO.
/// Requests due from `trace_from_s` on are traced.
FleetResult run_fleet(const Served& served, const Inputs& inputs,
                      double seconds, std::uint64_t seed, double trace_from_s,
                      int threads, Tracer& tracer) {
  TrafficMix mix;
  mix.rate_per_s = kFleetRatePerS;
  mix.seconds = seconds;
  mix.model_shares = {kFleetBigShare, 1.0 - kFleetBigShare};
  mix.tenant_shares = {0.6, 0.3, 0.1};
  for (const auto& pool : inputs.pools) {
    mix.pool_sizes.push_back(static_cast<int>(pool.size()));
  }
  const std::vector<Arrival> schedule = poisson_schedule(mix, derive_seed(seed, 2));
  const char* tenants[] = {"tenant-a", "tenant-b", "tenant-c"};

  FleetResult out;
  const std::size_t models = inputs.pools.size();
  out.model_latency_ms.resize(models);
  std::vector<double> latency(schedule.size(), -1.0);  // -1: failed

  struct Pending {
    std::size_t request = 0;
    std::future<Tensor> future;
  };
  struct WaitQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> items;  ///< guarded by mutex
    bool closed = false;        ///< guarded by mutex
  };
  std::vector<WaitQueue> queues(models);

  serve::SchedulerOptions options;
  options.num_threads = threads;
  serve::BatchScheduler scheduler(options);
  const HostCpu cpu_start = read_host_cpu();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].due_s));
  };
  std::vector<Clock::time_point> completed(schedule.size(), start);

  std::vector<std::thread> waiters;
  // Closes every wait queue and joins the waiters on every exit path,
  // before the scheduler (declared earlier) drains and stops.
  struct JoinWaiters {
    std::vector<WaitQueue>& queues;
    std::vector<std::thread>& threads;
    void operator()() {
      for (WaitQueue& q : queues) {
        {
          std::lock_guard lock(q.mutex);
          q.closed = true;
        }
        q.cv.notify_one();
      }
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
    ~JoinWaiters() { (*this)(); }
  } join_waiters{queues, waiters};
  for (std::size_t m = 0; m < models; ++m) {
    waiters.emplace_back([&, m] {
      WaitQueue& q = queues[m];
      for (;;) {
        Pending p;
        {
          std::unique_lock lock(q.mutex);
          q.cv.wait(lock, [&] { return q.closed || !q.items.empty(); });
          if (q.items.empty()) return;
          p = std::move(q.items.front());
          q.items.pop_front();
        }
        const Arrival& a = schedule[p.request];
        try {
          Tensor scores;
          {
            ScopedSpan span(tracer, "serve.future::get", -1,
                            static_cast<std::int64_t>(p.request), a.model);
            scores = p.future.get();
          }
          const Clock::time_point done = Clock::now();
          if (bit_identical(inputs.oracles[a.model][a.image], scores)) {
            completed[p.request] = done;
            latency[p.request] = ms_between(due(p.request), done);
          }
        } catch (const std::exception& e) {
          std::cerr << "fleet_mix: request " << p.request
                    << " failed: " << e.what() << "\n";
        }
      }
    });
  }

  // The generator, on this thread.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    tracer.set_enabled(a.due_s >= trace_from_s);
    std::this_thread::sleep_until(due(i));
    Tensor image = inputs.pools[a.model][a.image];
    const Clock::time_point sent = Clock::now();
    out.lateness_ms.push_back(ms_between(due(i), sent));
    try {
      std::future<Tensor> future;
      {
        ScopedSpan span(tracer, "serve.BatchScheduler::submit", -1,
                        static_cast<std::int64_t>(i), a.model);
        future = scheduler.submit(served.handles[a.model], tenants[a.tenant],
                                  std::move(image));
      }
      out.submit_us.push_back(ms_between(sent, Clock::now()) * 1e3);
      WaitQueue& q = queues[a.model];
      {
        std::lock_guard lock(q.mutex);
        q.items.push_back({i, std::move(future)});
      }
      q.cv.notify_one();
    } catch (const serve::RejectError&) {
      ++out.rejected;
    } catch (const std::exception& e) {
      std::cerr << "fleet_mix: submit " << i << " failed: " << e.what() << "\n";
    }
  }
  join_waiters();
  out.loop.steal_share = steal_share(cpu_start, read_host_cpu());
  tracer.set_enabled(false);
  out.stats = scheduler.stats();
  scheduler.stop();

  LoopResult& r = out.loop;
  Clock::time_point last = start;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    ++r.tally.attempted;
    if (latency[i] < 0.0) {
      ++r.tally.failed;
      continue;
    }
    record_latency(r, latency[i], schedule[i].due_s >= trace_from_s);
    out.model_latency_ms[schedule[i].model].push_back(latency[i]);
    r.images += 1.0;
    last = std::max(last, completed[i]);
  }
  r.elapsed_s = seconds_between(start, last);
  return out;
}

// ------------------------------------------------------- layer probes

/// Runs `round(rep)` once untimed, then kProbeReps times with the
/// tracer on; each call inside a round is one span. Interleaving all the
/// calls of a probe round by round keeps slow drifts of the host (other
/// load, clock changes) from biasing one part against another.
template <typename Round>
void probe_rounds(Tracer& tracer, Round&& round) {
  tracer.set_enabled(false);
  round(0);
  tracer.set_enabled(true);
  for (int rep = 1; rep <= kProbeReps; ++rep) round(rep);
}

/// One span around `fn()`.
template <typename Fn>
void traced_call(Tracer& tracer, const char* name, int parent, int rep,
                 std::int64_t index, Fn&& fn) {
  ScopedSpan span(tracer, name, parent, rep, index);
  fn();
}

struct ForwardProbe {
  double forward_ms = 0.0;
  double conv3x3_ms = 0.0;
  double conv1x1_ms = 0.0;
  double block_other_ms = 0.0;
  double head_ms = 0.0;
  double classify_1t_ms = 0.0;
  double classify_nt_ms = 0.0;
};

/// One-thread decomposition of a forward pass, plus Engine::classify at
/// 1 and at `threads` threads. The whole pass, every BasicBlock, every
/// block's binary convs, and stand-ins for the stem, global pool and
/// classifier (same shapes, own weights: their cost does not depend on
/// weight values) are timed as separate calls on activations with the
/// shapes of op_records(). block_other is the blocks' time minus their
/// convs; the head is timed on its own, so the parts can be checked
/// against the whole.
ForwardProbe probe_forward(const Engine& engine, std::uint64_t seed,
                           int threads, Tracer& tracer) {
  ScopedSpan probe(tracer, "probe.forward");
  const int parent = probe.id();
  const bnn::ReActNet& model = engine.model();
  const bnn::ReActNetConfig& config = model.config();
  bnn::WeightGenerator gen(seed);
  bnn::Workspace ws(model.memory_plan());
  const Tensor image = gen.sample_activation(model.input_shape());
  Tensor scores(FeatureShape{config.num_classes, 1, 1});

  // Block inputs follow the op records: each 3x3 conv reads its block's
  // input.
  std::vector<FeatureShape> block_inputs;
  for (const bnn::OpRecord& r : model.op_records()) {
    if (r.op_class == bnn::OpClass::kConv3x3) block_inputs.push_back(r.input_shape);
  }
  check(block_inputs.size() == model.num_blocks(),
        "probe_forward: one 3x3 conv per block expected");
  struct BlockIo {
    Tensor input, output, mid;
    std::vector<Tensor> halves;
  };
  std::vector<BlockIo> io(model.num_blocks());
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    const bnn::BasicBlock& block = model.block(b);
    io[b].input = gen.sample_activation(block_inputs[b]);
    io[b].output = Tensor(block.output_shape(block_inputs[b]));
    io[b].mid = Tensor(block.conv3x3().output_shape(block_inputs[b]));
    for (const bnn::BinaryConv2d* conv : block.conv1x1s()) {
      io[b].halves.emplace_back(conv->output_shape(io[b].mid.shape()));
    }
  }

  const bnn::Int8Conv2d stem(
      "stem",
      gen.sample_float_weights(
          {config.stem_channels, config.input_channels, 3, 3}),
      gen.sample_floats(static_cast<std::size_t>(config.stem_channels)),
      bkc::ConvGeometry{config.stem_stride, 1});
  Tensor stem_out(stem.output_shape(image.shape()));
  check(stem_out.shape() == block_inputs.front(),
        "probe_forward: stem stand-in does not match the model");
  const Tensor features = gen.sample_activation(io.back().output.shape());
  const bnn::GlobalAvgPool pool;
  Tensor pooled(pool.output_shape(features.shape()));
  const std::int64_t in = pooled.shape().channels;
  const bnn::Int8Linear classifier(
      "classifier", in, config.num_classes,
      gen.sample_floats(static_cast<std::size_t>(in * config.num_classes)),
      gen.sample_floats(static_cast<std::size_t>(config.num_classes)));

  probe_rounds(tracer, [&](int rep) {
    traced_call(tracer, "bnn.ReActNet::forward_into", parent, rep, -1,
                [&] { model.forward_into(image, scores, ws); });
    traced_call(tracer, "core.Engine::classify", parent, rep, 1,
                [&] { engine.classify(image, 1); });
    traced_call(tracer, "core.Engine::classify", parent, rep, threads,
                [&] { engine.classify(image, threads); });
    ws.arena().reset();
    for (std::size_t b = 0; b < model.num_blocks(); ++b) {
      const bnn::BasicBlock& block = model.block(b);
      const auto i = static_cast<std::int64_t>(b);
      traced_call(tracer, "bnn.BasicBlock::forward_into", parent, rep, i,
                  [&] { block.forward_into(io[b].input, io[b].output, ws); });
      traced_call(tracer, "bnn.BinaryConv2d::forward_into[3x3]", parent, rep, i,
                  [&] { block.conv3x3().forward_into(io[b].input, io[b].mid, ws); });
      const std::vector<const bnn::BinaryConv2d*> conv1s = block.conv1x1s();
      for (std::size_t k = 0; k < conv1s.size(); ++k) {
        traced_call(tracer, "bnn.BinaryConv2d::forward_into[1x1]", parent, rep,
                    2 * i + static_cast<std::int64_t>(k),
                    [&] { conv1s[k]->forward_into(io[b].mid, io[b].halves[k], ws); });
      }
    }
    traced_call(tracer, "bnn.Int8Conv2d::forward_into", parent, rep, -1,
                [&] { stem.forward_into(image, stem_out, ws); });
    traced_call(tracer, "bnn.GlobalAvgPool::forward_into", parent, rep, -1,
                [&] { pool.forward_into(features, pooled, ws); });
    traced_call(tracer, "bnn.Int8Linear::forward_into", parent, rep, -1,
                [&] { classifier.forward_into(pooled, scores, ws); });
  });

  ForwardProbe out;
  out.forward_ms = sum_of_medians(tracer, "bnn.ReActNet::forward_into");
  out.conv3x3_ms = sum_of_medians(tracer, "bnn.BinaryConv2d::forward_into[3x3]");
  out.conv1x1_ms = sum_of_medians(tracer, "bnn.BinaryConv2d::forward_into[1x1]");
  out.block_other_ms = sum_of_medians(tracer, "bnn.BasicBlock::forward_into") -
                       out.conv3x3_ms - out.conv1x1_ms;
  out.head_ms = sum_of_medians(tracer, "bnn.Int8Conv2d::forward_into") +
                sum_of_medians(tracer, "bnn.GlobalAvgPool::forward_into") +
                sum_of_medians(tracer, "bnn.Int8Linear::forward_into");
  const auto classify = tracer.durations_ms("core.Engine::classify");
  out.classify_1t_ms = median(classify.at(1));
  out.classify_nt_ms = median(classify.at(threads));
  return out;
}

/// One-thread GMAC/s of the model's 3x3 binary convs at every input
/// extent of the 64x64 and 224x224 schedules. The probe reuses the
/// model's own convs (every workload's main model has paper width, so
/// its convs are the ones both schedules run) on activations with each
/// schedule's op-record shapes; MACs come from the same records.
std::map<std::int64_t, double> probe_conv3x3_extents(const bnn::ReActNet& model,
                                                     std::uint64_t seed,
                                                     Tracer& tracer) {
  ScopedSpan probe(tracer, "probe.conv3x3_extents");
  bnn::WeightGenerator gen(seed);
  struct Case {
    const bnn::BinaryConv2d* conv;
    Tensor input, output;
    std::int64_t extent, index;
    double macs;
  };
  std::vector<Case> cases;
  bnn::MemoryPlan plan;
  for (const std::int64_t size : {64, 224}) {
    bnn::ReActNetConfig config = model.config();
    config.input_size = size;
    const std::vector<bnn::OpRecord> records = bnn::op_records_for(config);
    const bnn::MemoryPlan p = bnn::plan_reactnet_forward(records);
    plan.activation_floats = std::max(plan.activation_floats, p.activation_floats);
    plan.scratch_bytes = std::max(plan.scratch_bytes, p.scratch_bytes);
    plan.pack_words = std::max(plan.pack_words, p.pack_words);
    std::size_t b = 0;
    for (const bnn::OpRecord& r : records) {
      if (r.op_class != bnn::OpClass::kConv3x3) continue;
      const bnn::BinaryConv2d& conv = model.block(b).conv3x3();
      check(conv.kernel().shape() == r.kernel_shape,
            "probe_conv3x3_extents: model is not paper width");
      const std::int64_t extent = r.input_shape.height;
      cases.push_back({&conv, gen.sample_activation(r.input_shape),
                       Tensor(r.output_shape), extent,
                       extent * 100 + static_cast<std::int64_t>(b),
                       static_cast<double>(r.macs)});
      ++b;
    }
  }
  bnn::Workspace ws(plan);
  probe_rounds(tracer, [&](int rep) {
    for (Case& c : cases) {
      traced_call(tracer, "bnn.BinaryConv2d::forward_into[extent]", probe.id(),
                  rep, c.index, [&] { c.conv->forward_into(c.input, c.output, ws); });
    }
  });
  const auto durations = tracer.durations_ms("bnn.BinaryConv2d::forward_into[extent]");
  std::map<std::int64_t, double> macs;
  std::map<std::int64_t, double> ms;
  for (const Case& c : cases) {
    macs[c.extent] += c.macs;
    ms[c.extent] += median(durations.at(c.index));
  }
  std::map<std::int64_t, double> gmac_s;
  for (const auto& [extent, m] : macs) gmac_s[extent] = m / ms[extent] / 1e6;
  return gmac_s;
}

/// Heap allocations per warm Engine::classify_into at the run's fan-out,
/// read from the process-wide operator-new counter.
double probe_allocs_per_classify(const Engine& engine, std::uint64_t seed,
                                 int threads, Tracer& tracer) {
  bnn::WeightGenerator gen(seed);
  const Tensor image = gen.sample_activation(engine.model().input_shape());
  bnn::Workspace ws = engine.make_workspace();
  Tensor scores(FeatureShape{engine.model().config().num_classes, 1, 1});
  engine.classify_into(image, scores, ws, threads);
  engine.classify_into(image, scores, ws, threads);
  constexpr int kCalls = 10;
  ScopedSpan span(tracer, "core.Engine::classify_into", -1, -1, threads);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kCalls; ++i) engine.classify_into(image, scores, ws, threads);
  return static_cast<double>(g_allocations.load() - before) / kCalls;
}

/// Median wall time (us) of one empty parallel_for over `threads`
/// chunks: the fixed cost of every fan-out.
double probe_parallel_for_us(int threads, Tracer& tracer) {
  ScopedSpan probe(tracer, "probe.util");
  constexpr int kCalls = 2000;
  std::vector<double> us;
  us.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    bkc::parallel_for(threads, threads, [](std::int64_t, std::int64_t) {});
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

// ------------------------------------------------------------ outputs

struct Emitter {
  Meta meta;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

void add_host_meta(Meta& meta, const Options& opt, int threads) {
  meta.add_string("workload", opt.workload.name);
  meta.add_number("seed", static_cast<double>(opt.seed));
  meta.add_number("seconds", opt.seconds);
  meta.add("trace", opt.trace ? "true" : "false");
  meta.add_number("nproc", std::thread::hardware_concurrency());
  meta.add_number("threads", threads);
  meta.add_string("compiler", "gcc " __VERSION__);
  meta.add_string("build_type", BKCBENCH_BUILD_TYPE);
  meta.add_string("conv_kernel", bnn::active_conv_kernel().name);
  meta.add("scalar_forced", bkc::simd::scalar_forced() ? "true" : "false");
  meta.add_number("setup_repeats", kSetupRepeats);
}

/// The workload's models: model 0 is the one the layer probes use.
std::vector<ModelSpec> model_specs(const std::string& workload) {
  if (workload == "offline64") return {{"paper64", paper_at(64), kOfflinePool}};
  return {{"big", paper_at(64), kFleetBigPool},
          {"small", bnn::tiny_reactnet_config(), kFleetSmallPool}};
}

int run(const Options& opt) {
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  const std::string workload = opt.workload.name;
  const bool fleet = workload == "fleet_mix";
  std::filesystem::create_directories(opt.workdir);

  Tracer tracer;
  Emitter out;
  add_host_meta(out.meta, opt, threads);

  const Clock::time_point run_start = Clock::now();
  const std::vector<ModelSpec> specs = model_specs(workload);
  Inputs inputs = make_inputs(specs, opt.seed);
  out.meta.add_number("inputs_s", seconds_between(run_start, Clock::now()));
  SetupTimes setup;
  Served served =
      set_up_repeated(specs, fleet, opt.workdir, threads, inputs, setup);
  const Engine& engine = served.engine(0);

  // Timed loop.
  LoopResult loop;
  FleetResult fleet_result;
  if (workload == "offline64") {
    loop = run_offline(engine, inputs, opt, threads, tracer);
  } else {
    fleet_result = run_fleet(
        served, inputs, opt.seconds, opt.seed,
        opt.trace ? opt.seconds / 2.0 : std::numeric_limits<double>::infinity(),
        threads, tracer);
    loop = fleet_result.loop;
  }
  Tally tally = loop.tally;
  check(!loop.latency_ms.empty(), "no operation succeeded");

  if (fleet) {
    const Percentile late95 = supported_percentile(fleet_result.lateness_ms, 95.0);
    const double late_max = *std::max_element(fleet_result.lateness_ms.begin(),
                                              fleet_result.lateness_ms.end());
    out.meta.add_number("gen_late_ms_p95", late95.value);
    out.meta.add_number("gen_late_ms_max", late_max);
    if (late95.value > kMaxLatenessP95Ms || late_max > kMaxLatenessMs) {
      std::cout << out.meta.line() << "\n";
      std::cerr << "fleet_mix: invalid run: the generator ran late (p95 "
                << late95.value << " ms, max " << late_max << " ms; limits "
                << kMaxLatenessP95Ms << " / " << kMaxLatenessMs << " ms)\n";
      return 3;
    }
  }

  if (!opt.trace) {
    // Timings count the time the host let the program run (steal_share).
    const double ran = 1.0 - loop.steal_share;
    std::vector<double> latency;
    for (const double ms : loop.latency_ms) latency.push_back(ms * ran);
    const Percentile p50 = supported_percentile(latency, 50.0);
    const Percentile tail = supported_percentile(latency, opt.workload.tail_p);
    const auto slo_met = std::count_if(latency.begin(), latency.end(), [&](double ms) {
      return ms <= opt.workload.slo_ms;
    });
    out.meta.add_percentile("latency_p50_ms", p50);
    out.meta.add_percentile("latency_tail_ms", tail);
    out.meta.add_number("slo_ms", opt.workload.slo_ms);
    out.meta.add_number("steal_share_loop", loop.steal_share);
    out.meta.add_number("steal_share_setup", setup.steal_share);
    out.meta.add_number("raw_setup_s", setup.raw_setup_s);
    out.meta.add_number("raw_images_per_s", loop.images / loop.elapsed_s);
    out.meta.add_number("raw_latency_p50_ms", p50.value / ran);
    out.add("setup_s", setup.setup_s, "s");
    // An open loop's throughput is its offered rate, not compute-bound
    // time, so only the closed loop's is scaled.
    out.add("images_per_s", loop.images / (loop.elapsed_s * (fleet ? 1.0 : ran)),
            "img/s");
    out.add("latency_p50_ms", p50.value, "ms");
    out.add("latency_tail_ms", tail.value, "ms");
    out.add("slo_met_frac",
            static_cast<double>(slo_met) / static_cast<double>(loop.tally.attempted),
            "fraction");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("compression_ratio", compression_ratio(served, specs.size()), "x");
    out.add("sim_hw_speedup", served.sampled.report.model_hw_speedup(), "x");
  } else {
    tracer.set_enabled(true);
    const double overhead =
        median(loop.traced_ms) / median(loop.untraced_ms) - 1.0;

    // bnn and core
    const ForwardProbe fwd = probe_forward(engine, opt.seed, threads, tracer);
    const double parts =
        fwd.conv3x3_ms + fwd.conv1x1_ms + fwd.block_other_ms + fwd.head_ms;
    const double mismatch = std::fabs(parts - fwd.forward_ms) / fwd.forward_ms;
    out.meta.add_number("decomposition_mismatch", mismatch);
    out.meta.add_number("decomposition_tolerance", kDecompositionTolerance);
    ++tally.attempted;
    if (mismatch > kDecompositionTolerance) {
      std::cerr << "traced run: bnn parts sum to " << parts << " ms against a "
                << fwd.forward_ms << " ms forward pass\n";
      ++tally.failed;
    }
    out.add("bnn.forward_ms", fwd.forward_ms, "ms");
    out.add("bnn.conv3x3_ms", fwd.conv3x3_ms, "ms");
    out.add("bnn.conv1x1_ms", fwd.conv1x1_ms, "ms");
    out.add("bnn.block_other_ms", fwd.block_other_ms, "ms");
    out.add("bnn.head_ms", fwd.head_ms, "ms");
    for (const auto& [extent, gmac] :
         probe_conv3x3_extents(engine.model(), opt.seed, tracer)) {
      out.add("bnn.conv3x3_gmac_s.e" + std::to_string(extent), gmac, "GMAC/s");
    }
    double macs = 0.0;
    for (const bnn::OpRecord& r : engine.model().op_records()) {
      macs += static_cast<double>(r.macs);
    }
    out.add("bnn.macs_per_image", macs, "count");
    out.add("bnn.allocs_per_classify",
            probe_allocs_per_classify(engine, opt.seed, threads, tracer), "count");
    out.add("bnn.arena_bytes",
            static_cast<double>(engine.memory_plan().arena_bytes()), "bytes");
    out.add("core.classify_overhead_ms", fwd.classify_1t_ms - fwd.forward_ms, "ms");
    out.add("core.intra_op_speedup", fwd.classify_1t_ms / fwd.classify_nt_ms, "x");

    // util: both workloads fan out once per classify_batch call, so
    // fan-outs per image are batches per image.
    out.add("util.parallel_for_us", probe_parallel_for_us(threads, tracer), "us");
    const double fanouts =
        fleet ? static_cast<double>(fleet_result.stats.total.batches) /
                    static_cast<double>(fleet_result.stats.total.dispatched)
              : 1.0 / static_cast<double>(kOfflineBatch);
    out.add("util.fanouts_per_image", fanouts, "count");

    // compress: set-up stages of model 0 (fleet_mix opens through the
    // registry, so its open/load are timed here on model 0's container).
    double open_s = setup.open_s;
    double load_s = setup.load_s;
    if (fleet) {
      ScopedSpan probe(tracer, "probe.compress");
      std::vector<double> opens;
      std::vector<double> loads;
      for (int rep = 0; rep < kSetupRepeats; ++rep) {
        Clock::time_point t = Clock::now();
        compress::MappedBkcm mapped = [&] {
          ScopedSpan span(tracer, "compress.MappedBkcm::open", probe.id(), rep);
          return compress::MappedBkcm::open(served.paths[0]);
        }();
        opens.push_back(seconds_between(t, Clock::now()));
        t = Clock::now();
        {
          ScopedSpan span(tracer, "core.Engine::load_compressed", probe.id(), rep);
          Engine loaded = Engine::load_compressed(mapped, threads);
        }
        loads.push_back(seconds_between(t, Clock::now()));
      }
      open_s = median(opens);
      load_s = median(loads);
    }
    const compress::ModelReport& report = served.container(0).report();
    out.add("compress.build_s", setup.build_s, "s");
    out.add("compress.compress_s", setup.compress_s, "s");
    out.add("compress.save_s", setup.save_s, "s");
    out.add("compress.open_s", open_s, "s");
    out.add("compress.load_s", load_s, "s");
    out.add("compress.container_bytes",
            static_cast<double>(served.container(0).file_bytes().size()), "bytes");
    out.add("compress.kernel_ratio",
            static_cast<double>(report.conv3x3_bits) /
                static_cast<double>(report.conv3x3_clustering_bits),
            "x");

    // hwsim
    hwsim::SpeedupReport exact;
    const Clock::time_point t_exact = Clock::now();
    {
      ScopedSpan span(tracer, "core.Engine::simulate_speedup");
      exact = engine.simulate_speedup();
    }
    const double exact_s = seconds_between(t_exact, Clock::now());
    const double cycles = static_cast<double>(exact.total_baseline) +
                          static_cast<double>(exact.total_sw) +
                          static_cast<double>(exact.total_hw);
    out.add("hwsim.sampled_s", setup.sim_s, "s");
    out.add("hwsim.exact_s", exact_s, "s");
    out.add("hwsim.mcycles_per_s", cycles / 1e6 / exact_s, "Mcycle/s");
    out.add("hwsim.sampled_rel_err",
            std::fabs(served.sampled.report.model_hw_speedup() -
                      exact.model_hw_speedup()) /
                exact.model_hw_speedup(),
            "fraction");

    // serve: the fleet_mix loop itself, or a short fleet_mix probe for
    // the workloads that do not serve.
    FleetResult probe_fleet;
    double registry_open_s = setup.registry_open_s;
    const FleetResult* f = &fleet_result;
    if (!fleet) {
      const std::vector<ModelSpec> fleet_specs = model_specs("fleet_mix");
      Inputs fleet_inputs = make_inputs(fleet_specs, opt.seed);
      SetupTimes fleet_setup;
      const std::string probe_dir = opt.workdir + "/serve_probe";
      std::filesystem::create_directories(probe_dir);
      const Served fleet_served = set_up(fleet_specs, true, probe_dir, 0,
                                         threads, fleet_inputs, fleet_setup);
      registry_open_s = fleet_setup.registry_open_s;
      probe_fleet = run_fleet(fleet_served, fleet_inputs, kServeProbeSeconds,
                              opt.seed, 0.0, threads, tracer);
      tracer.set_enabled(true);
      tally.attempted += probe_fleet.loop.tally.attempted;
      tally.failed += probe_fleet.loop.tally.failed;
      f = &probe_fleet;
    }
    out.meta.add_string("serve_metrics_from",
                        fleet ? "timed loop" : "fleet_mix serve probe");
    const serve::Counters& total = f->stats.total;
    out.add("serve.registry_open_s", registry_open_s, "s");
    out.add("serve.submit_us_p95", supported_percentile(f->submit_us, 95.0).value, "us");
    out.add("serve.queue_ms_mean", total.mean_queue_ms(), "ms");
    out.add("serve.queue_ms_max", total.queue.max() / 1e6, "ms");
    out.add("serve.batch_occupancy", total.batch_occupancy(), "fraction");
    out.add("serve.big.latency_p50_ms", median(f->model_latency_ms[0]), "ms");
    out.add("serve.small.latency_p50_ms", median(f->model_latency_ms[1]), "ms");
    out.add("serve.rejected", static_cast<double>(f->rejected), "count");
    out.add("serve.gen_late_ms_p95",
            supported_percentile(f->lateness_ms, 95.0).value, "ms");
    out.add("trace_overhead_frac", overhead, "fraction");

    tracer.set_enabled(false);
    const std::string trace_path = opt.workdir + "/trace_" + workload + "_" +
                                   std::to_string(opt.seed) + ".json";
    std::ofstream(trace_path) << tracer.chrome_json();
    out.meta.add_string("trace_file", trace_path);
    std::string self = "{";
    for (const auto& [name, ms] : tracer.self_ms_by_name()) {
      if (self.size() > 1) self += ", ";
      self += bkc::json::quoted(name) + ": " + bkc::json::number(ms);
    }
    out.meta.add("self_ms_by_span", self + "}");
  }

  out.meta.add_number("oracle_s", setup.oracle_s);
  out.meta.add_number("wall_s", seconds_between(run_start, Clock::now()));
  out.meta.add_number("attempted", static_cast<double>(tally.attempted));
  out.meta.add_number("failed", static_cast<double>(tally.failed));
  std::cout << out.meta.line() << "\n";
  std::cout << result_line(tally.failed == 0, tally.attempted, tally.failed,
                           out.metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace bkcbench

int main(int argc, char** argv) {
  try {
    return bkcbench::run(bkcbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "bkcbench: " << e.what() << "\n";
    return 2;
  }
}
