// Tests for the dense tensor substrate and the reference convolution
// (tests/support/bnn_reference.h).

#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "support/support.h"
#include "util/check.h"

namespace bkc {
namespace {

using test::reference_conv2d;

TEST(Shapes, FeatureShapeSize) {
  const FeatureShape s{3, 4, 5};
  EXPECT_EQ(s.size(), 60);
  EXPECT_EQ(s.to_string(), "3x4x5");
}

TEST(Shapes, KernelShapeSize) {
  const KernelShape k{8, 16, 3, 3};
  EXPECT_EQ(k.size(), 8 * 16 * 9);
  EXPECT_EQ(k.receptive_size(), 16 * 9);
}

TEST(Shapes, ConvGeometryOutputExtent) {
  ConvGeometry g{.stride = 2, .padding = 1};
  EXPECT_EQ(g.out_extent(224, 3), 112);
  ConvGeometry same{.stride = 1, .padding = 1};
  EXPECT_EQ(same.out_extent(14, 3), 14);
  ConvGeometry valid{.stride = 1, .padding = 0};
  EXPECT_EQ(valid.out_extent(5, 3), 3);
}

TEST(Shapes, ConvGeometryRejectsBadInputs) {
  ConvGeometry g{.stride = 1, .padding = 0};
  EXPECT_THROW(g.out_extent(2, 3), CheckError);
  ConvGeometry bad{.stride = 0, .padding = 0};
  EXPECT_THROW(bad.out_extent(4, 3), CheckError);
}

TEST(Tensor, AtReadsWhatWasWritten) {
  Tensor t(FeatureShape{2, 3, 4});
  t.at(1, 2, 3) = 7.5f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 7.5f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t(FeatureShape{2, 3, 4});
  EXPECT_THROW(t.at(2, 0, 0), CheckError);
  EXPECT_THROW(t.at(0, 3, 0), CheckError);
  EXPECT_THROW(t.at(0, 0, 4), CheckError);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(FeatureShape{1, 2, 2}, {1.0f, 2.0f}), CheckError);
}

TEST(ReferenceConv, IdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor input(FeatureShape{1, 3, 3});
  for (int i = 0; i < 9; ++i) input.data()[i] = static_cast<float>(i);
  WeightTensor w(KernelShape{1, 1, 1, 1}, {1.0f});
  const Tensor out = reference_conv2d(input, w, {.stride = 1, .padding = 0});
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], static_cast<float>(i));
  }
}

TEST(ReferenceConv, SumKernelWithPadding) {
  // All-ones input, all-ones 3x3 kernel, pad with -1: corner outputs see
  // 4 real ones and 5 padded -1s = -1; the centre sees 9.
  Tensor input(FeatureShape{1, 3, 3});
  for (auto& v : input.data()) v = 1.0f;
  WeightTensor w(KernelShape{1, 1, 3, 3});
  for (auto& v : w.data()) v = 1.0f;
  const Tensor out = reference_conv2d(input, w, {.stride = 1, .padding = 1},
                                      /*pad_value=*/-1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 4.0f - 5.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 6.0f - 3.0f);
}

TEST(ReferenceConv, StrideTwoShape) {
  Tensor input(FeatureShape{2, 8, 8});
  WeightTensor w(KernelShape{3, 2, 3, 3});
  const Tensor out = reference_conv2d(input, w, {.stride = 2, .padding = 1});
  EXPECT_EQ(out.shape(), (FeatureShape{3, 4, 4}));
}

TEST(ReferenceConv, ChannelMismatchThrows) {
  Tensor input(FeatureShape{2, 4, 4});
  WeightTensor w(KernelShape{1, 3, 3, 3});
  EXPECT_THROW(reference_conv2d(input, w, {.stride = 1, .padding = 1}),
               CheckError);
}

}  // namespace
}  // namespace bkc
