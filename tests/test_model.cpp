// Tests for OpRecord resolution and the storage breakdown.

#include "bnn/model.h"

#include <gtest/gtest.h>

#include "bnn/weights.h"
#include "util/check.h"

namespace bkc::bnn {
namespace {

TEST(MakeRecord, CarriesInfoShapesAndGeometry) {
  WeightGenerator gen(11);
  const BinaryConv2d conv("conv", gen.sample_kernel({4, 8, 3, 3}),
                          ConvGeometry{2, 1});
  const FeatureShape input{8, 6, 6};
  const OpRecord r = make_record(conv.info(input), input,
                                 conv.kernel().shape(), conv.geometry());
  EXPECT_EQ(r.name, "conv");
  EXPECT_EQ(r.op_class, OpClass::kConv3x3);
  EXPECT_EQ(r.precision_bits, 1);
  EXPECT_EQ(r.input_shape, input);
  EXPECT_EQ(r.output_shape, (FeatureShape{4, 3, 3}));
  EXPECT_EQ(r.kernel_shape, (KernelShape{4, 8, 3, 3}));
  EXPECT_EQ(r.geometry.stride, 2);
  EXPECT_EQ(r.geometry.padding, 1);
  EXPECT_EQ(r.storage_bits, 4u * 8u * 9u);
  EXPECT_EQ(r.macs, 4u * 9u * (8u * 9u));

  // Layers without a kernel leave kernel shape and geometry zero.
  const OpRecord pool = make_record(GlobalAvgPool().info(input), input);
  EXPECT_EQ(pool.output_shape, (FeatureShape{8, 1, 1}));
  EXPECT_EQ(pool.kernel_shape, KernelShape{});
  EXPECT_EQ(pool.geometry.stride, ConvGeometry{}.stride);
}

TEST(StorageBreakdown, AggregatesByClass) {
  StorageBreakdown b;
  b.add({.name = "a",
         .op_class = OpClass::kConv3x3,
         .storage_bits = 900,
         .macs = 100});
  b.add({.name = "b",
         .op_class = OpClass::kConv3x3,
         .storage_bits = 100,
         .macs = 100});
  b.add({.name = "c",
         .op_class = OpClass::kOutputLayer,
         .storage_bits = 1000,
         .macs = 200});
  EXPECT_EQ(b.total_bits, 2000u);
  EXPECT_DOUBLE_EQ(b.bits_fraction(OpClass::kConv3x3), 0.5);
  EXPECT_DOUBLE_EQ(b.macs_fraction(OpClass::kOutputLayer), 0.5);
  EXPECT_DOUBLE_EQ(b.bits_fraction(OpClass::kConv1x1), 0.0);
}

TEST(StorageBreakdown, EmptyThrows) {
  StorageBreakdown b;
  EXPECT_THROW(b.bits_fraction(OpClass::kConv3x3), CheckError);
}

}  // namespace
}  // namespace bkc::bnn
