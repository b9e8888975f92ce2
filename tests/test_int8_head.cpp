// The int8 stem and classifier (bnn::Int8Conv2d, bnn::Int8Linear)
// against the loops they replaced (support/int8_reference.h), byte for
// byte, through forward_into.
//
// The production layers sum int16 products in int32 and walk output
// channels in fixed chunks; the reference sums in int64, one output at
// a time, with a bounds test on every tap. Integer sums are exact in any
// order, and quantization and dequantization are the same float
// expressions, so every score must match to the bit. The sweep covers
// the chunk boundaries (out_channels 1, 31, 33, 64, 65, 129), strides,
// paddings and kernel sizes the loops branch on, and inputs that hit the
// rounding and clamping edges: all zero, exact .5 ties, elements at
// +-max and a single non-zero. Also covered: the int32 exactness bound
// the constructors enforce, the rejection of NaN / inf input, and input
// so small that its scale would underflow to zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bnn/layers.h"
#include "bnn/memory_plan.h"
#include "bnn/weights.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::bnn {
namespace {

struct ConvCase {
  std::int64_t out_channels;
  std::int64_t in_channels;
  std::int64_t kernel;
  std::int64_t stride;
  std::int64_t padding;
  std::int64_t height;
  std::int64_t width;
};

std::string describe(const ConvCase& c) {
  return std::to_string(c.in_channels) + "->" +
         std::to_string(c.out_channels) + " k" + std::to_string(c.kernel) +
         " s" + std::to_string(c.stride) + " p" + std::to_string(c.padding) +
         " " + std::to_string(c.height) + "x" + std::to_string(c.width);
}

const ConvCase kConvCases[] = {
    // The paper stem at its two input sizes, at odd extents, and the
    // tiny model's stem.
    {32, 3, 3, 2, 1, 64, 64},
    {32, 3, 3, 2, 1, 224, 224},
    {32, 3, 3, 2, 1, 33, 31},
    {4, 3, 3, 2, 1, 32, 32},
    // Input channel counts.
    {8, 1, 3, 1, 1, 9, 7},
    {8, 5, 3, 2, 1, 11, 12},
    // Output channel counts around the accumulation chunk.
    {1, 3, 3, 1, 1, 8, 8},
    {31, 3, 3, 2, 1, 9, 10},
    {33, 3, 3, 2, 1, 9, 10},
    {64, 3, 3, 2, 1, 9, 10},
    {65, 3, 3, 1, 1, 7, 6},
    {129, 2, 3, 2, 1, 7, 9},
    // Strides and paddings, 1x1 and 3x3 kernels.
    {6, 3, 3, 3, 1, 13, 11},
    {6, 3, 3, 1, 0, 6, 9},
    {6, 3, 3, 2, 2, 7, 8},
    {6, 3, 3, 3, 2, 10, 10},
    {6, 4, 1, 1, 0, 5, 7},
    {6, 4, 1, 2, 0, 7, 5},
    {6, 4, 1, 1, 1, 4, 4},
};

/// Input patterns that exercise the quantizer's edges.
enum class Pattern {
  kSeeded,     ///< sample_activation
  kZero,       ///< all zero: scale 1, every code 0
  kTies,       ///< max 127 -> scale exactly 1, pixels m/2: exact .5 ties
  kTiesScaled, ///< max 31.75 -> scale exactly 0.25, pixels m/8
  kExtremes,   ///< every other element at +-max (codes +-127)
  kSingle,     ///< one non-zero element
};

const Pattern kPatterns[] = {Pattern::kSeeded,     Pattern::kZero,
                             Pattern::kTies,       Pattern::kTiesScaled,
                             Pattern::kExtremes,   Pattern::kSingle};

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kSeeded: return "seeded";
    case Pattern::kZero: return "zero";
    case Pattern::kTies: return "ties";
    case Pattern::kTiesScaled: return "ties_scaled";
    case Pattern::kExtremes: return "extremes";
    case Pattern::kSingle: return "single";
  }
  return "?";
}

Tensor make_input(const FeatureShape& shape, Pattern pattern,
                  std::uint64_t seed) {
  WeightGenerator gen(seed);
  Tensor t = gen.sample_activation(shape);
  std::span<float> d = t.data();
  switch (pattern) {
    case Pattern::kSeeded:
      break;
    case Pattern::kZero:
      std::fill(d.begin(), d.end(), 0.0f);
      break;
    case Pattern::kTies:
    case Pattern::kTiesScaled: {
      // std::round takes a tie away from zero; a half-to-even rounding
      // would differ on every odd m.
      const float unit = pattern == Pattern::kTies ? 0.5f : 0.125f;
      for (std::size_t i = 0; i < d.size(); ++i) {
        const auto m = static_cast<int>((i * 37) % 509) - 254;  // -254..254
        d[i] = unit * static_cast<float>(m);
      }
      d[d.size() / 2] = 254.0f * unit;  // pins the max, hence the scale
      break;
    }
    case Pattern::kExtremes:
      for (std::size_t i = 0; i < d.size(); i += 2) {
        d[i] = (i / 2) % 2 == 0 ? 8.0f : -8.0f;
      }
      break;
    case Pattern::kSingle:
      std::fill(d.begin(), d.end(), 0.0f);
      d[d.size() / 3] = -0.7f;
      break;
  }
  return t;
}

/// A workspace whose arena holds any quantization scratch of the sweep.
Workspace sweep_workspace() {
  return Workspace(MemoryPlan{.activation_floats = 0,
                              .scratch_bytes = 1 << 20,
                              .pack_words = 0});
}

void expect_bytes_equal(const Tensor& actual, const Tensor& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.shape(), expected.shape()) << context;
  EXPECT_EQ(std::memcmp(actual.data().data(), expected.data().data(),
                        expected.data().size_bytes()),
            0)
      << context;
}

/// forward_into of `layer` against the oracle's bytes; it must leave
/// the arena mark where it found it.
template <typename Layer, typename Oracle>
void expect_matches_oracle(const Layer& layer, const Oracle& oracle,
                           const Tensor& input, Workspace& workspace,
                           const std::string& context) {
  const Tensor expected = oracle.forward(input);
  Arena& arena = workspace.arena();
  arena.allocate_span<float>(3);  // a live allocation below the layer's
  const std::size_t mark = arena.mark();
  Tensor out(layer.output_shape(input.shape()));
  std::fill(out.data().begin(), out.data().end(), -1.0f);
  layer.forward_into(input, out, workspace);
  EXPECT_EQ(arena.mark(), mark) << context;
  arena.reset();
  expect_bytes_equal(out, expected, context);
}

TEST(Int8Head, ConvMatchesOracleOverShapesAndInputs) {
  Workspace workspace = sweep_workspace();
  std::uint64_t seed = 100;
  for (const ConvCase& c : kConvCases) {
    WeightGenerator gen(++seed);
    const KernelShape ks{c.out_channels, c.in_channels, c.kernel, c.kernel};
    const ConvGeometry geometry{c.stride, c.padding};
    const WeightTensor w = gen.sample_float_weights(ks, 0.5f);
    const std::vector<float> bias =
        gen.sample_floats(static_cast<std::size_t>(c.out_channels), 0.05f);
    const Int8Conv2d conv("stem", w, bias, geometry);
    const test::ReferenceInt8Conv2d oracle(w, bias, geometry);
    for (const Pattern p : kPatterns) {
      const Tensor input =
          make_input({c.in_channels, c.height, c.width}, p, seed);
      expect_matches_oracle(conv, oracle, input, workspace,
                            describe(c) + " " + pattern_name(p));
    }
  }
}

TEST(Int8Head, ConvWithExtremeWeightsMatchesOracle) {
  // All weights and activations at +-max: every product is +-127^2, the
  // largest accumulator magnitudes the layer can see.
  Workspace workspace = sweep_workspace();
  for (const ConvCase& c : {ConvCase{33, 5, 3, 1, 1, 6, 5},
                            ConvCase{32, 3, 3, 2, 1, 16, 16}}) {
    const KernelShape ks{c.out_channels, c.in_channels, c.kernel, c.kernel};
    std::vector<float> values(static_cast<std::size_t>(ks.size()));
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = (i % 7) < 4 ? 2.0f : -2.0f;
    }
    const WeightTensor w(ks, values);
    const std::vector<float> bias(static_cast<std::size_t>(c.out_channels),
                                  0.5f);
    const ConvGeometry geometry{c.stride, c.padding};
    const Int8Conv2d conv("stem", w, bias, geometry);
    const test::ReferenceInt8Conv2d oracle(w, bias, geometry);
    Tensor input(FeatureShape{c.in_channels, c.height, c.width});
    std::fill(input.data().begin(), input.data().end(), 1.5f);
    expect_matches_oracle(conv, oracle, input, workspace,
                          describe(c) + " all +max");
    input.data()[0] = -1.5f;
    expect_matches_oracle(conv, oracle, input, workspace,
                          describe(c) + " mixed max");
  }
}

TEST(Int8Head, LinearMatchesOracleOverShapesAndInputs) {
  Workspace workspace = sweep_workspace();
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {1024, 1000}, {1, 1}, {7, 3}, {4096, 10}};
  std::uint64_t seed = 200;
  for (const auto& [in, out] : shapes) {
    WeightGenerator gen(++seed);
    const std::vector<float> w =
        gen.sample_floats(static_cast<std::size_t>(in * out), 0.05f);
    const std::vector<float> bias =
        gen.sample_floats(static_cast<std::size_t>(out), 0.01f);
    const Int8Linear fc("classifier", in, out, w, bias);
    const test::ReferenceInt8Linear oracle(in, out, w, bias);
    for (const Pattern p : kPatterns) {
      const Tensor input = make_input({in, 1, 1}, p, seed);
      expect_matches_oracle(fc, oracle, input, workspace,
                            std::to_string(in) + "->" + std::to_string(out) +
                                " " + pattern_name(p));
    }
  }
}

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Int8Head, ConstructorsRejectSumsThatCouldOverflowInt32) {
  // int32 max / 127^2 = 133144 products per output is the exact limit.
  const std::int64_t limit = std::numeric_limits<std::int32_t>::max() /
                             (127 * 127);
  ASSERT_EQ(limit, 133144);
  EXPECT_NO_THROW(Int8Conv2d("wide", WeightTensor(KernelShape{1, limit, 1, 1}),
                             {0.0f}, {1, 0}));
  const std::string conv_message = message_of([&] {
    Int8Conv2d("wide_stem", WeightTensor(KernelShape{1, limit + 1, 1, 1}),
               {0.0f}, {1, 0});
  });
  EXPECT_NE(conv_message.find("wide_stem"), std::string::npos) << conv_message;
  EXPECT_NE(conv_message.find("int32"), std::string::npos) << conv_message;

  const auto n = static_cast<std::size_t>(limit);
  EXPECT_NO_THROW(Int8Linear("fc", limit, 1, std::vector<float>(n), {0.0f}));
  const std::string fc_message = message_of([&] {
    Int8Linear("wide_fc", limit + 1, 1, std::vector<float>(n + 1), {0.0f});
  });
  EXPECT_NE(fc_message.find("wide_fc"), std::string::npos) << fc_message;
  EXPECT_NE(fc_message.find("int32"), std::string::npos) << fc_message;
}

const float kNonFinite[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};

/// `layer` must refuse `input` with a message naming the layer and the
/// problem.
template <typename Layer>
void expect_rejects_non_finite(const Layer& layer, const Tensor& input,
                               const std::string& context) {
  Workspace workspace = sweep_workspace();
  Tensor out(layer.output_shape(input.shape()));
  const std::string message =
      message_of([&] { layer.forward_into(input, out, workspace); });
  EXPECT_NE(message.find(layer.name()), std::string::npos)
      << context << ": " << message;
  EXPECT_NE(message.find("non-finite input activation"), std::string::npos)
      << context << ": " << message;
}

TEST(Int8Head, StemRejectsNonFiniteInput) {
  WeightGenerator gen(11);
  const Int8Conv2d stem("stem.conv3x3",
                        gen.sample_float_weights({8, 3, 3, 3}, 0.5f),
                        gen.sample_floats(8, 0.05f), {2, 1});
  for (const float bad : kNonFinite) {
    Tensor input = gen.sample_activation({3, 9, 9});
    input.data()[40] = bad;
    expect_rejects_non_finite(stem, input, std::to_string(bad));
  }
}

TEST(Int8Head, ClassifierRejectsNonFiniteInput) {
  WeightGenerator gen(12);
  const Int8Linear fc("classifier.fc", 16, 4, gen.sample_floats(64, 0.05f),
                      gen.sample_floats(4, 0.01f));
  for (const float bad : kNonFinite) {
    Tensor input = gen.sample_activation({16, 1, 1});
    input.data()[15] = bad;
    expect_rejects_non_finite(fc, input, std::to_string(bad));
  }
}

/// `out` must be finite and equal to `bias`, byte for byte.
void expect_bias_only(const Tensor& out, const std::vector<float>& bias,
                      const std::string& context) {
  ASSERT_EQ(out.data().size() % bias.size(), 0u) << context;
  const std::size_t plane = out.data().size() / bias.size();
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    const float v = out.data()[i];
    EXPECT_TRUE(std::isfinite(v)) << context << " at " << i;
    EXPECT_EQ(std::memcmp(&v, &bias[i / plane], sizeof(float)), 0)
        << context << " at " << i << ": " << v;
  }
}

TEST(Int8Head, StemOnSubnormalOnlyInputGivesBias) {
  // 1e-45f rounds to the smallest subnormal, 2^-149: max / 127
  // underflows to 0, and a zero scale would quantize every 0 as 0 / 0 =
  // NaN and cast that to int8. The scale is 1 instead, every code is 0,
  // and the output is the bias alone.
  WeightGenerator gen(13);
  const WeightTensor w = gen.sample_float_weights({4, 3, 3, 3}, 0.5f);
  const std::vector<float> bias = gen.sample_floats(4, 0.05f);
  const Int8Conv2d stem("stem", w, bias, {2, 1});
  Tensor input(FeatureShape{3, 8, 8});
  input.data()[17] = 1e-45f;
  Workspace workspace = sweep_workspace();
  Tensor out(stem.output_shape(input.shape()));
  stem.forward_into(input, out, workspace);
  expect_bias_only(out, bias, "stem");
  expect_bytes_equal(
      out, test::ReferenceInt8Conv2d(w, bias, {2, 1}).forward(input),
      "stem oracle");
}

TEST(Int8Head, ClassifierOnSubnormalOnlyInputGivesBias) {
  WeightGenerator gen(14);
  const std::vector<float> w = gen.sample_floats(16 * 5, 0.05f);
  const std::vector<float> bias = gen.sample_floats(5, 0.01f);
  const Int8Linear fc("classifier", 16, 5, w, bias);
  Tensor input(FeatureShape{16, 1, 1});
  input.data()[9] = -1e-45f;
  Workspace workspace = sweep_workspace();
  Tensor out(fc.output_shape(input.shape()));
  fc.forward_into(input, out, workspace);
  expect_bias_only(out, bias, "classifier");
  expect_bytes_equal(
      out, test::ReferenceInt8Linear(16, 5, w, bias).forward(input),
      "classifier oracle");
}

TEST(Int8Head, ConstructorsRejectNonFiniteWeights) {
  for (const float bad : kNonFinite) {
    WeightTensor w(KernelShape{2, 1, 3, 3});
    w.data()[5] = bad;
    const std::string conv_message =
        message_of([&] { Int8Conv2d("bad_stem", w, {0.0f, 0.0f}, {1, 1}); });
    EXPECT_NE(conv_message.find("bad_stem"), std::string::npos)
        << conv_message;
    std::vector<float> fc_weights(6, 0.1f);
    fc_weights[2] = bad;
    const std::string fc_message = message_of(
        [&] { Int8Linear("bad_fc", 3, 2, fc_weights, {0.0f, 0.0f}); });
    EXPECT_NE(fc_message.find("bad_fc"), std::string::npos) << fc_message;
  }
}

}  // namespace
}  // namespace bkc::bnn
