#pragma once
// The int8 stem and classifier loops as they stood before the int32
// rewrite of bnn::Int8Conv2d / bnn::Int8Linear: dynamic symmetric
// quantization, then one int64 sum per output with a bounds test on
// every tap. Kept unchanged as the oracle the production layers must
// match byte for byte (tests/test_int8_head.cpp). Finite inputs only:
// a NaN or inf reaches a float-to-int8 cast here, which the production
// layers reject instead.

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace bkc::test {

/// Reference of bnn::Int8Conv2d: weights [out][in][ky][kx] quantized
/// symmetrically to int8.
class ReferenceInt8Conv2d {
 public:
  ReferenceInt8Conv2d(const WeightTensor& weights, std::vector<float> bias,
                      ConvGeometry geometry);

  Tensor forward(const Tensor& input) const;

 private:
  KernelShape shape_;
  std::vector<std::int8_t> weights_;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
  ConvGeometry geometry_;
};

/// Reference of bnn::Int8Linear: weights [out][in] quantized
/// symmetrically to int8; expects a Cx1x1 input.
class ReferenceInt8Linear {
 public:
  ReferenceInt8Linear(std::int64_t in_features, std::int64_t out_features,
                      std::span<const float> weights,
                      std::vector<float> bias);

  Tensor forward(const Tensor& input) const;

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  std::vector<std::int8_t> weights_;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
};

}  // namespace bkc::test
