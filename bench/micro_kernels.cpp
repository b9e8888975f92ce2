// Microbenchmarks (google-benchmark) of the primitive operations:
// xnor/popcount convolution throughput (one series per registered
// kernel variant and 3x3 shape of the paper model), codec encode/decode
// rates (bit-serial reference vs the table-driven multi-symbol path),
// frequency analysis and the bit stream - the building blocks whose
// costs the timing model abstracts.
//
// Every dispatchable variant is gated by a bit-identity self-check
// against its scalar reference before any timing runs, so a number in
// BENCH_kernels.json always describes a *correct* kernel.
//
// Custom main: `--json out.json` is shorthand for google-benchmark's
// --benchmark_out=out.json --benchmark_out_format=json; the checked-in
// BENCH_kernels.json at the repo root is produced this way.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bnn/bconv_kernels.h"
#include "core/bkc.h"

namespace {

using namespace bkc;

bnn::PackedKernel make_kernel(const KernelShape& shape, std::uint64_t seed) {
  bnn::WeightGenerator gen(seed);
  const auto dist =
      bnn::SequenceDistribution::fitted({0.645, 0.951});
  return gen.sample_kernel3x3(shape.out_channels, shape.in_channels, dist);
}

bnn::PackedKernel make_kernel(std::int64_t channels, std::uint64_t seed) {
  return make_kernel(KernelShape{channels, channels, 3, 3}, seed);
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.data().size_bytes() == b.data().size_bytes() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

// One series per (registered conv kernel, distinct 3x3 shape of the
// paper model at 64x64 and 224x224 input), pinned via the override so
// every variant is measured from the same binary on the shapes the
// model actually runs. Input shape, geometry and MACs come from
// op_records(); the input is packed once with its halo, so the timed
// loop is the kernel alone at one thread.
struct Conv3x3Shape {
  FeatureShape input;
  KernelShape kernel;
  ConvGeometry geometry;
  std::uint64_t macs = 0;

  std::string label() const {
    // Appended piecewise: gcc 12 raises a false -Wrestrict on chained
    // string operator+ here.
    std::string s = "c";
    s += std::to_string(input.channels);
    s += '_';
    s += std::to_string(input.height);
    s += 'x';
    s += std::to_string(input.width);
    s += "_s";
    s += std::to_string(geometry.stride);
    return s;
  }
};

std::vector<Conv3x3Shape> paper_conv3x3_shapes() {
  std::vector<Conv3x3Shape> shapes;
  for (const std::int64_t size : {64, 224}) {
    bnn::ReActNetConfig config = bnn::paper_reactnet_config();
    config.input_size = size;
    for (const bnn::OpRecord& r : bnn::op_records_for(config)) {
      if (r.op_class != bnn::OpClass::kConv3x3) continue;
      const Conv3x3Shape shape{r.input_shape, r.kernel_shape, r.geometry,
                               r.macs};
      const bool seen = std::any_of(
          shapes.begin(), shapes.end(),
          [&](const Conv3x3Shape& s) { return s.label() == shape.label(); });
      if (!seen) shapes.push_back(shape);
    }
  }
  return shapes;
}

void BM_BinaryConv3x3(benchmark::State& state,
                      const bnn::ConvKernelInfo& info,
                      const Conv3x3Shape& shape) {
  bnn::WeightGenerator gen(3);
  bnn::PackedFeature input;
  bnn::pack_feature_into(gen.sample_activation(shape.input), input,
                         shape.geometry.padding);
  const auto kernel = make_kernel(shape.kernel, 5);
  Tensor out(shape.geometry.output_shape(shape.input, shape.kernel));

  Tensor reference(out.shape());
  {
    bnn::ScopedConvKernelOverride pin(bnn::scalar_conv_kernel());
    bnn::binary_conv2d_into(input, kernel, shape.geometry, reference);
  }
  bnn::ScopedConvKernelOverride pin(info);
  bnn::binary_conv2d_into(input, kernel, shape.geometry, out);
  if (!bit_identical(out, reference)) {
    state.SkipWithError("kernel variant is not bit-identical to scalar");
    return;
  }
  for (auto _ : state) {
    bnn::binary_conv2d_into(input, kernel, shape.geometry, out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(shape.macs),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_GroupedEncode(benchmark::State& state) {
  const auto kernel = make_kernel(128, 7);
  const auto table = compress::FrequencyTable::from_kernel(kernel);
  const compress::GroupedHuffmanCodec codec(table);
  const auto sequences = bnn::extract_sequences(kernel);
  for (auto _ : state) {
    std::size_t bits = 0;
    benchmark::DoNotOptimize(codec.encode(sequences, bits));
  }
  state.counters["seq/s"] = benchmark::Counter(
      static_cast<double>(sequences.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GroupedEncode);

// The two decode paths over the same stream: `scalar` walks the node
// prefix bit by bit (decode_one), `multi` resolves a 12-bit window per
// table lookup (compress/multi_decode.h).
void BM_GroupedDecode(benchmark::State& state, bool multi) {
  const auto kernel = make_kernel(128, 9);
  const auto table = compress::FrequencyTable::from_kernel(kernel);
  const compress::GroupedHuffmanCodec codec(table);
  const auto sequences = bnn::extract_sequences(kernel);
  std::size_t bits = 0;
  const auto stream = codec.encode(sequences, bits);
  if (codec.decode_scalar(stream, bits, sequences.size()) != sequences ||
      codec.decode_multi(stream, bits, sequences.size()) != sequences) {
    state.SkipWithError("decode paths disagree with the encoded input");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multi ? codec.decode_multi(stream, bits, sequences.size())
              : codec.decode_scalar(stream, bits, sequences.size()));
  }
  state.counters["seq/s"] = benchmark::Counter(
      static_cast<double>(sequences.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_FullHuffmanDecode(benchmark::State& state) {
  const auto kernel = make_kernel(128, 11);
  const auto table = compress::FrequencyTable::from_kernel(kernel);
  const auto codec = compress::HuffmanCodec::build(table);
  const auto sequences = bnn::extract_sequences(kernel);
  std::size_t bits = 0;
  const auto stream = codec.encode(sequences, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(stream, bits, sequences.size()));
  }
  state.counters["seq/s"] = benchmark::Counter(
      static_cast<double>(sequences.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FullHuffmanDecode);

void BM_FrequencyAnalysis(benchmark::State& state) {
  const auto kernel = make_kernel(256, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compress::FrequencyTable::from_kernel(kernel));
  }
}
BENCHMARK(BM_FrequencyAnalysis);

void BM_ClusteringPass(benchmark::State& state) {
  const auto kernel = make_kernel(256, 15);
  const auto table = compress::FrequencyTable::from_kernel(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::cluster_sequences(table, {}));
  }
}
BENCHMARK(BM_ClusteringPass);

void BM_BitstreamWrite(benchmark::State& state) {
  for (auto _ : state) {
    BitWriter writer;
    for (int i = 0; i < 10000; ++i) {
      writer.write_bits(static_cast<std::uint64_t>(i) & 0x7F, 7);
    }
    benchmark::DoNotOptimize(writer.take());
  }
  state.counters["bits/s"] = benchmark::Counter(
      70000.0, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BitstreamWrite);

void register_variant_benchmarks() {
  for (const bnn::ConvKernelInfo& info : bnn::conv_kernels()) {
    for (const Conv3x3Shape& shape : paper_conv3x3_shapes()) {
      const std::string name =
          std::string("BM_BinaryConv3x3/") + info.name + "/" + shape.label();
      benchmark::RegisterBenchmark(
          name.c_str(), [&info, shape](benchmark::State& state) {
            BM_BinaryConv3x3(state, info, shape);
          });
    }
  }
  for (const bool multi : {false, true}) {
    const std::string name =
        std::string("BM_GroupedDecode/") + (multi ? "multi" : "scalar");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [multi](benchmark::State& state) { BM_GroupedDecode(state, multi); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Translate `--json FILE` into google-benchmark's spelling; everything
  // else passes through untouched.
  std::vector<char*> args;
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 2);
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      // A missing or empty file name used to fall through to
      // google-benchmark (confusing "unrecognized argument" or a
      // --benchmark_out= with no path); reject it by name instead.
      const std::string file =
          arg == "--json" ? (i + 1 < argc ? argv[++i] : "") : arg.substr(7);
      if (file.empty()) {
        std::cerr << "micro_kernels: --json requires a file name\n";
        return 2;
      }
      storage.push_back("--benchmark_out=" + file);
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(arg);
    }
  }
  for (std::string& s : storage) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());

  register_variant_benchmarks();
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
