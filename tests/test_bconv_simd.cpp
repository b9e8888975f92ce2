// The dispatch contract of bnn/bconv_kernels.h: every registered
// convolution kernel (AVX2 on hosts that have it) is bit-identical to
// the scalar reference for every shape, geometry and thread count - not
// approximately equal, memcmp-equal. The sweep is deliberately hostile:
// odd widths, channel counts straddling the 64-lane tail mask, strides
// and paddings larger than tiny inputs, 1x1 next to 3x3, and the paper
// model's own 3x3 shapes. Every case runs on inputs packed with
// halo == padding and with a wider halo, and is diffed against the
// scalar kernel on a halo-less pack: the scalar kernel bounds-tests
// every tap, so it is an oracle that does not rely on the halo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bconv_kernels.h"
#include "bnn/bitpack.h"
#include "bnn/reactnet.h"
#include "support/support.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace bkc::bnn {
namespace {

const int kThreadCounts[] = {1, 2, 4, 7};

struct ConvCase {
  std::int64_t channels, height, width, out_channels;
  std::int64_t kernel, stride, padding;

  bool operator==(const ConvCase&) const = default;

  std::string label() const {
    std::string s = "c";
    s += std::to_string(channels);
    s += '_';
    s += std::to_string(height);
    s += 'x';
    s += std::to_string(width);
    s += "_o";
    s += std::to_string(out_channels);
    s += "_k";
    s += std::to_string(kernel);
    s += 's';
    s += std::to_string(stride);
    s += 'p';
    s += std::to_string(padding);
    return s;
  }
};

// ~50 shapes. Channel counts bracket every word boundary the tail mask
// can straddle (63/64/65, 96 = word + half, 127/128/129, multi-word);
// spatial extents mix odd/even and include inputs so small that every
// output pixel's window reaches into the padding.
std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  const std::int64_t tail_channels[] = {1,  17,  63,  64,  65, 96,
                                        127, 128, 129, 192, 320};
  // 3x3 "same" convs over every tail-mask regime, odd spatial sizes.
  for (std::int64_t c : tail_channels) {
    cases.push_back({c, 7, 5, 4, 3, 1, 1});
  }
  // The same channels with stride 2 (uneven output grids).
  for (std::int64_t c : tail_channels) {
    cases.push_back({c, 9, 7, 3, 3, 2, 1});
  }
  // 1x1 convs (no spatial window, pure channel reduction).
  for (std::int64_t c : {1, 63, 64, 65, 96, 129, 256}) {
    cases.push_back({c, 5, 7, 6, 1, 1, 0});
    cases.push_back({c, 4, 4, 2, 1, 2, 0});
  }
  // Valid (padding 0) and wide (padding 2) 3x3 windows.
  for (std::int64_t c : {33, 64, 96, 128}) {
    cases.push_back({c, 8, 6, 5, 3, 1, 0});
    cases.push_back({c, 6, 8, 5, 3, 1, 2});
  }
  // Degenerate spatial extents: windows that all touch the padding, a
  // single-pixel plane, stride larger than the kernel.
  cases.push_back({70, 2, 2, 3, 3, 1, 1});  // no pixel free of padding
  cases.push_back({70, 3, 3, 3, 3, 1, 1});  // one pixel free of padding
  cases.push_back({64, 1, 1, 4, 1, 1, 0});  // single pixel, 1x1
  cases.push_back({64, 3, 9, 4, 3, 4, 1});  // stride > kernel
  cases.push_back({100, 11, 3, 2, 3, 1, 1});  // tall and narrow
  cases.push_back({320, 3, 3, 8, 3, 1, 1});  // 5 words per pixel
  return cases;
}

// The paper model's 3x3 convs at 64x64 and 224x224 input (4x4, 2x2
// and the stride-2 steps down to 7x7), distinct shapes only, with input
// shape and geometry taken from op_records(). Output channels are
// computed independently, so each case keeps only the first 16 to stay
// fast in the sanitizer builds.
std::vector<ConvCase> paper_conv3x3_cases() {
  std::vector<ConvCase> cases;
  for (const std::int64_t size : {64, 224}) {
    ReActNetConfig config = paper_reactnet_config();
    config.input_size = size;
    for (const OpRecord& r : op_records_for(config)) {
      if (r.op_class != OpClass::kConv3x3) continue;
      const ConvCase c{r.input_shape.channels,
                       r.input_shape.height,
                       r.input_shape.width,
                       std::min<std::int64_t>(r.kernel_shape.out_channels, 16),
                       r.kernel_shape.kernel_h,
                       r.geometry.stride,
                       r.geometry.padding};
      if (std::find(cases.begin(), cases.end(), c) == cases.end()) {
        cases.push_back(c);
      }
    }
  }
  return cases;
}

void seeded_inputs(const ConvCase& c, std::uint64_t seed, Tensor& input,
                   PackedKernel& kernel) {
  Rng rng(seed);
  input = test::random_pm1_tensor({c.channels, c.height, c.width}, rng);
  const WeightTensor weights = test::random_pm1_weights(
      {c.out_channels, c.channels, c.kernel, c.kernel}, rng);
  kernel = test::pack_kernel(weights);
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size_bytes()),
            0)
      << label;
}

TEST(BconvSimd, RegistryHasScalarFirstAndUniqueNames) {
  const auto kernels = conv_kernels();
  ASSERT_GE(kernels.size(), 1u);
  EXPECT_STREQ(kernels.front().name, "scalar");
  EXPECT_EQ(kernels.front().fn, scalar_conv_kernel().fn);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    for (std::size_t j = i + 1; j < kernels.size(); ++j) {
      EXPECT_STRNE(kernels[i].name, kernels[j].name);
    }
  }
}

TEST(BconvSimd, ForcedScalarPinsTheReference) {
  simd::ScopedForceScalar force;
  EXPECT_TRUE(simd::scalar_forced());
  EXPECT_STREQ(active_conv_kernel().name, "scalar");
}

TEST(BconvSimd, OverrideWinsAndRestores) {
  const auto kernels = conv_kernels();
  const ConvKernelInfo& widest = kernels.back();
  const char* before = active_conv_kernel().name;
  {
    ScopedConvKernelOverride pin(widest);
    EXPECT_STREQ(active_conv_kernel().name, widest.name);
    // An override outranks even a scalar force: the suites below rely
    // on pinning the AVX2 kernel while everything else stays scalar.
    simd::ScopedForceScalar force;
    EXPECT_STREQ(active_conv_kernel().name, widest.name);
  }
  EXPECT_STREQ(active_conv_kernel().name, before);
}

// Runs every registered kernel at every thread count on `c`, packed
// with halo == padding and with halo == padding + 2, and diffs each
// output against the scalar kernel called directly on a halo-less pack.
void expect_every_kernel_matches_scalar(const ConvCase& c,
                                        std::uint64_t seed) {
  Tensor input;
  PackedKernel kernel;
  seeded_inputs(c, seed, input, kernel);
  const ConvGeometry geometry{.stride = c.stride, .padding = c.padding};
  const PackedFeature bare = test::pack_feature(input);
  Tensor reference(geometry.output_shape(bare.shape(), kernel.shape()));
  scalar_conv_kernel().fn(bare, kernel, geometry, reference, 0,
                          c.out_channels);

  Tensor out(reference.shape());
  PackedFeature padded;
  for (const std::int64_t halo : {c.padding, c.padding + 2}) {
    pack_feature_into(input, padded, halo);
    for (const ConvKernelInfo& info : conv_kernels()) {
      ScopedConvKernelOverride pin(info);
      for (int threads : kThreadCounts) {
        ScopedNumThreads scoped(threads);
        // A sentinel catches output pixels a kernel never writes.
        std::fill(out.data().begin(), out.data().end(), -12345.0f);
        binary_conv2d_into(padded, kernel, geometry, out);
        expect_bit_identical(out, reference,
                             c.label() + " halo=" + std::to_string(halo) +
                                 " kernel=" + info.name +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(BconvSimd, EveryKernelBitIdenticalToScalarAcrossShapesAndThreads) {
  std::uint64_t seed = 0x51D00000;
  for (const ConvCase& c : conv_cases()) {
    expect_every_kernel_matches_scalar(c, seed++);
  }
}

TEST(BconvSimd, EveryKernelBitIdenticalToScalarOnPaperConv3x3Shapes) {
  const std::vector<ConvCase> cases = paper_conv3x3_cases();
  // 64x64 reaches 4x4 and 2x2; 224x224 steps down to 7x7 by stride 2.
  const auto has = [&](std::int64_t extent, std::int64_t stride) {
    return std::any_of(cases.begin(), cases.end(), [&](const ConvCase& c) {
      return c.height == extent && c.stride == stride;
    });
  };
  EXPECT_TRUE(has(4, 1));
  EXPECT_TRUE(has(2, 1));
  EXPECT_TRUE(has(14, 2));
  EXPECT_TRUE(has(7, 1));
  std::uint64_t seed = 0x9A9E0000;
  for (const ConvCase& c : cases) {
    expect_every_kernel_matches_scalar(c, seed++);
  }
}

TEST(BconvSimd, ActiveDispatchMatchesForcedScalarOnAnchorShapes) {
  // Whatever active_conv_kernel() picks on this host (AVX2 where
  // available, scalar elsewhere), the engine-visible results must equal
  // the forced-scalar run - the user-facing form of the contract.
  for (const ConvCase& c : {ConvCase{96, 8, 8, 6, 3, 1, 1},
                            ConvCase{130, 6, 10, 4, 1, 1, 0}}) {
    Tensor input;
    PackedKernel kernel;
    seeded_inputs(c, 0xA11C40 + c.channels, input, kernel);
    const PackedFeature feature = test::pack_feature(input);
    const ConvGeometry geometry{.stride = c.stride, .padding = c.padding};
    Tensor forced;
    {
      simd::ScopedForceScalar force;
      forced = test::binary_conv2d(feature, kernel, geometry);
    }
    const Tensor dispatched = test::binary_conv2d(feature, kernel, geometry);
    expect_bit_identical(dispatched, forced, c.label());
  }
}

}  // namespace
}  // namespace bkc::bnn
