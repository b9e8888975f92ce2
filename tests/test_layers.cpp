// Tests for the non-conv layers of the ReActNet block.

#include "bnn/layers.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "bnn/memory_plan.h"
#include "bnn/weights.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::bnn {
namespace {

using test::forward;
using test::reference_conv2d;

TEST(BatchNorm, AffinePerChannel) {
  BatchNorm bn("bn", {2.0f, -1.0f}, {0.5f, 1.0f});
  Tensor t(FeatureShape{2, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor out = forward(bn, t);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 4.5f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), -2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 1), -3.0f);
}

TEST(BatchNorm, ChannelMismatchThrows) {
  BatchNorm bn("bn", {1.0f}, {0.0f});
  Tensor t(FeatureShape{2, 1, 1});
  EXPECT_THROW(forward(bn, t), CheckError);
}

TEST(RPReLU, ShiftSlopeShift) {
  // y = PReLU(x - shift_in) + shift_out with slope on the negative side.
  RPReLU act("act", /*shift_in=*/{1.0f}, /*slope=*/{0.5f},
             /*shift_out=*/{10.0f});
  Tensor t(FeatureShape{1, 1, 3}, {3.0f, 1.0f, -1.0f});
  const Tensor out = forward(act, t);
  EXPECT_FLOAT_EQ(out.data()[0], 2.0f + 10.0f);   // positive branch
  EXPECT_FLOAT_EQ(out.data()[1], 0.0f + 10.0f);   // at the knee
  EXPECT_FLOAT_EQ(out.data()[2], -1.0f + 10.0f);  // 0.5 * (-2) + 10
}

TEST(AvgPool2x2, Averages) {
  AvgPool2x2 pool;
  Tensor t(FeatureShape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
  const Tensor out = forward(pool, t);
  EXPECT_EQ(out.shape(), (FeatureShape{1, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
}

TEST(AvgPool2x2, OddSizeThrows) {
  AvgPool2x2 pool;
  Tensor t(FeatureShape{1, 3, 2});
  EXPECT_THROW(forward(pool, t), CheckError);
}

TEST(GlobalAvgPool, ReducesToOnePixel) {
  GlobalAvgPool pool;
  Tensor t(FeatureShape{2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 10});
  const Tensor out = forward(pool, t);
  EXPECT_EQ(out.shape(), (FeatureShape{2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 4.0f);
}

TEST(Int8Conv, ApproximatesFloatConv) {
  WeightGenerator gen(3);
  const KernelShape ks{4, 3, 3, 3};
  const WeightTensor w = gen.sample_float_weights(ks, 0.5f);
  Int8Conv2d conv("stem", w, std::vector<float>(4, 0.0f),
                  {.stride = 2, .padding = 1});
  const Tensor input = gen.sample_activation({3, 8, 8});
  const Tensor q_out = forward(conv, input);
  const Tensor f_out =
      reference_conv2d(input, w, {.stride = 2, .padding = 1}, 0.0f);
  ASSERT_EQ(q_out.shape(), f_out.shape());
  // int8 quantization error stays small relative to the output scale.
  float max_abs = 0.0f;
  for (float v : f_out.data()) max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t i = 0; i < q_out.data().size(); ++i) {
    EXPECT_NEAR(q_out.data()[i], f_out.data()[i], 0.05f * max_abs + 0.05f);
  }
}

TEST(Int8Linear, ApproximatesFloatGemv) {
  WeightGenerator gen(5);
  const std::int64_t in = 32;
  const std::int64_t out = 7;
  const auto w = gen.sample_floats(static_cast<std::size_t>(in * out), 0.3f);
  const auto bias = gen.sample_floats(static_cast<std::size_t>(out), 0.1f);
  Int8Linear fc("fc", in, out, w, bias);
  Tensor input(FeatureShape{in, 1, 1});
  for (auto& v : input.data()) v = static_cast<float>(gen.rng().normal());
  const Tensor got = forward(fc, input);
  for (std::int64_t o = 0; o < out; ++o) {
    float expect = bias[static_cast<std::size_t>(o)];
    for (std::int64_t i = 0; i < in; ++i) {
      expect += w[static_cast<std::size_t>(o * in + i)] *
                input.at(i, 0, 0);
    }
    EXPECT_NEAR(got.at(o, 0, 0), expect, 0.15f);
  }
}

TEST(Int8Linear, RequiresFlatInput) {
  Int8Linear fc("fc", 4, 2, std::vector<float>(8, 0.1f),
                std::vector<float>(2, 0.0f));
  Tensor t(FeatureShape{4, 2, 1});
  EXPECT_THROW(forward(fc, t), CheckError);
}

TEST(LayerInfo, BinaryConvClassification) {
  PackedKernel k3(KernelShape{4, 8, 3, 3});
  BinaryConv2d c3("c3", std::move(k3), {.stride = 1, .padding = 1});
  EXPECT_EQ(c3.info({8, 4, 4}).op_class, OpClass::kConv3x3);
  EXPECT_EQ(c3.info({8, 4, 4}).precision_bits, 1);
  EXPECT_EQ(c3.info({8, 4, 4}).storage_bits, 4u * 8u * 9u);

  PackedKernel k1(KernelShape{4, 8, 1, 1});
  BinaryConv2d c1("c1", std::move(k1), {.stride = 1, .padding = 0});
  EXPECT_EQ(c1.info({8, 4, 4}).op_class, OpClass::kConv1x1);
}

TEST(LayerInfo, SetKernelShapeGuard) {
  PackedKernel k(KernelShape{4, 8, 3, 3});
  BinaryConv2d conv("c", std::move(k), {.stride = 1, .padding = 1});
  EXPECT_THROW(conv.set_kernel(PackedKernel(KernelShape{4, 8, 1, 1})),
               CheckError);
  conv.set_kernel(PackedKernel(KernelShape{4, 8, 3, 3}));  // ok
}

TEST(OpClassNames, MatchTableI) {
  EXPECT_EQ(op_class_name(OpClass::kInputLayer), "Input Layer");
  EXPECT_EQ(op_class_name(OpClass::kOutputLayer), "Output Layer");
  EXPECT_EQ(op_class_name(OpClass::kConv1x1), "Conv 1x1");
  EXPECT_EQ(op_class_name(OpClass::kConv3x3), "Conv 3x3");
  EXPECT_EQ(op_class_name(OpClass::kOther), "Others");
}

// ---- forward_into: the one entry point of every layer ----

/// Workspace big enough for any layer in these tests.
Workspace test_workspace() {
  return Workspace(MemoryPlan{.activation_floats = 4096,
                              .scratch_bytes = 16384,
                              .pack_words = 1024});
}

Tensor random_activation(const FeatureShape& shape, std::uint64_t seed) {
  WeightGenerator gen(seed);
  return gen.sample_activation(shape);
}

void expect_bytes_equal(const Tensor& actual, const Tensor& expected) {
  ASSERT_EQ(actual.shape(), expected.shape());
  EXPECT_EQ(std::memcmp(actual.data().data(), expected.data().data(),
                        expected.data().size_bytes()),
            0);
}

TEST(ForwardInto, BinaryConvMatchesReferenceConv) {
  // BinaryConv2d packs its float input itself (bit = v >= 0), so on any
  // activation it equals the float reference conv of the sign of that
  // activation, with -1 padding.
  WeightGenerator gen(31);
  const Tensor input = random_activation({8, 6, 6}, 61);
  Tensor signs = input;
  for (float& v : signs.data()) v = v >= 0.0f ? 1.0f : -1.0f;
  for (const auto& [k, geometry] :
       {std::pair{KernelShape{4, 8, 3, 3}, ConvGeometry{1, 1}},
        std::pair{KernelShape{8, 8, 1, 1}, ConvGeometry{1, 0}},
        std::pair{KernelShape{8, 8, 3, 3}, ConvGeometry{2, 1}}}) {
    const PackedKernel kernel = gen.sample_kernel(k);
    const WeightTensor weights = test::unpack_kernel(kernel);
    const BinaryConv2d conv("conv", kernel, geometry);
    expect_bytes_equal(forward(conv, input),
                       reference_conv2d(signs, weights, geometry, -1.0f));
  }
}

TEST(ForwardInto, AliasSafeLayersRunInPlace) {
  // BatchNorm and RPReLU document in-place support — the block
  // orchestration overwrites its own buffers through them.
  WeightGenerator gen(33);
  const Tensor input = random_activation({4, 5, 5}, 67);
  Workspace workspace = test_workspace();
  const auto expect_in_place_matches = [&](const auto& layer) {
    const Tensor expected = forward(layer, input);
    Tensor in_place = input;
    TensorView view(in_place);
    layer.forward_into(view, view, workspace);
    expect_bytes_equal(in_place, expected);
  };
  expect_in_place_matches(BatchNorm("bn", gen.sample_floats(4, 0.1f, 1.0f),
                                    gen.sample_floats(4, 0.05f)));
  expect_in_place_matches(RPReLU("act", gen.sample_floats(4, 0.1f),
                                 gen.sample_floats(4, 0.05f, 0.25f),
                                 gen.sample_floats(4, 0.1f)));
}

TEST(ForwardInto, ShapeMismatchThrows) {
  const BatchNorm bn("bn", {1.0f, 1.0f}, {0.0f, 0.0f});
  Workspace workspace = test_workspace();
  Tensor input(FeatureShape{2, 3, 3});
  Tensor wrong(FeatureShape{2, 3, 4});
  EXPECT_THROW(bn.forward_into(input, wrong, workspace), CheckError);
}

TEST(ResidualAddInto, SumsAndAliases) {
  const Tensor a = random_activation({3, 4, 4}, 73);
  const Tensor b = random_activation({3, 4, 4}, 74);
  Tensor expected = a;
  for (std::size_t i = 0; i < expected.data().size(); ++i) {
    expected.data()[i] += b.data()[i];
  }
  Tensor out(a.shape());
  residual_add_into(a, b, out);
  expect_bytes_equal(out, expected);
  // Aliased form: out == a, the in-place residual the block uses.
  Tensor aliased = a;
  TensorView view(aliased);
  residual_add_into(view, b, view);
  expect_bytes_equal(aliased, expected);
}

TEST(ResidualAddInto, ShapeMismatchThrows) {
  Tensor a(FeatureShape{1, 1, 2});
  Tensor b(FeatureShape{1, 2, 1});
  Tensor out(FeatureShape{1, 1, 2});
  EXPECT_THROW(residual_add_into(a, b, out), CheckError);
}

}  // namespace
}  // namespace bkc::bnn
