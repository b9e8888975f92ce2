#include "support/int8_reference.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bkc::test {

namespace {

/// Symmetric scale so that max |w| maps to 127; 1 when max / 127 is 0
/// (all zero, or only values below about 127 * 2^-149), like the
/// production layers.
float symmetric_scale(std::span<const float> values) {
  float max_abs = 0.0f;
  for (float v : values) max_abs = std::max(max_abs, std::abs(v));
  const float scale = max_abs / 127.0f;
  return scale > 0.0f ? scale : 1.0f;
}

std::int8_t quantize_value(float v, float scale) {
  const float q = std::round(v / scale);
  return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

}  // namespace

ReferenceInt8Conv2d::ReferenceInt8Conv2d(const WeightTensor& weights,
                                         std::vector<float> bias,
                                         ConvGeometry geometry)
    : shape_(weights.shape()), bias_(std::move(bias)), geometry_(geometry) {
  check(static_cast<std::int64_t>(bias_.size()) == shape_.out_channels,
        "ReferenceInt8Conv2d: bias size must equal out_channels");
  weight_scale_ = symmetric_scale(weights.data());
  weights_.reserve(static_cast<std::size_t>(weights.size()));
  for (float v : weights.data()) {
    weights_.push_back(quantize_value(v, weight_scale_));
  }
}

Tensor ReferenceInt8Conv2d::forward(const Tensor& input) const {
  const FeatureShape in_shape = input.shape();
  const FeatureShape out_shape = geometry_.output_shape(in_shape, shape_);
  Tensor out(out_shape);
  std::vector<std::int8_t> q_input(input.data().size());

  // Dynamic symmetric activation quantization (padding quantizes to 0).
  const float in_scale = symmetric_scale(input.data());
  for (std::size_t i = 0; i < q_input.size(); ++i) {
    q_input[i] = quantize_value(input.data()[i], in_scale);
  }
  auto q_at = [&](std::int64_t c, std::int64_t y, std::int64_t x) -> int {
    if (y < 0 || y >= in_shape.height || x < 0 || x >= in_shape.width) {
      return 0;
    }
    return q_input[static_cast<std::size_t>(
        (c * in_shape.height + y) * in_shape.width + x)];
  };
  auto w_at = [&](std::int64_t o, std::int64_t i, std::int64_t ky,
                  std::int64_t kx) -> int {
    return weights_[static_cast<std::size_t>(
        ((o * shape_.in_channels + i) * shape_.kernel_h + ky) *
            shape_.kernel_w +
        kx)];
  };

  const float dequant = weight_scale_ * in_scale;
  for (std::int64_t o = 0; o < out_shape.channels; ++o) {
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      for (std::int64_t ox = 0; ox < out_shape.width; ++ox) {
        std::int64_t acc = 0;
        const std::int64_t base_y = oy * geometry_.stride - geometry_.padding;
        const std::int64_t base_x = ox * geometry_.stride - geometry_.padding;
        for (std::int64_t i = 0; i < shape_.in_channels; ++i) {
          for (std::int64_t ky = 0; ky < shape_.kernel_h; ++ky) {
            for (std::int64_t kx = 0; kx < shape_.kernel_w; ++kx) {
              acc += static_cast<std::int64_t>(
                         q_at(i, base_y + ky, base_x + kx)) *
                     w_at(o, i, ky, kx);
            }
          }
        }
        out.at(o, oy, ox) = static_cast<float>(acc) * dequant +
                            bias_[static_cast<std::size_t>(o)];
      }
    }
  }
  return out;
}

ReferenceInt8Linear::ReferenceInt8Linear(std::int64_t in_features,
                                         std::int64_t out_features,
                                         std::span<const float> weights,
                                         std::vector<float> bias)
    : in_features_(in_features),
      out_features_(out_features),
      bias_(std::move(bias)) {
  check(static_cast<std::int64_t>(weights.size()) ==
            in_features * out_features,
        "ReferenceInt8Linear: weight size must be in*out");
  check(static_cast<std::int64_t>(bias_.size()) == out_features,
        "ReferenceInt8Linear: bias size must equal out_features");
  weight_scale_ = symmetric_scale(weights);
  weights_.reserve(weights.size());
  for (float v : weights) weights_.push_back(quantize_value(v, weight_scale_));
}

Tensor ReferenceInt8Linear::forward(const Tensor& input) const {
  check(input.shape() == FeatureShape{in_features_, 1, 1},
        "ReferenceInt8Linear expects a Cx1x1 input");
  Tensor out(FeatureShape{out_features_, 1, 1});
  std::vector<std::int8_t> q_input(input.data().size());
  const float in_scale = symmetric_scale(input.data());
  for (std::size_t i = 0; i < q_input.size(); ++i) {
    q_input[i] = quantize_value(input.data()[i], in_scale);
  }
  const float dequant = weight_scale_ * in_scale;
  for (std::int64_t o = 0; o < out_features_; ++o) {
    std::int64_t acc = 0;
    const std::size_t row = static_cast<std::size_t>(o * in_features_);
    for (std::int64_t i = 0; i < in_features_; ++i) {
      acc += static_cast<std::int64_t>(
                 weights_[row + static_cast<std::size_t>(i)]) *
             q_input[static_cast<std::size_t>(i)];
    }
    out.at(o, 0, 0) = static_cast<float>(acc) * dequant +
                      bias_[static_cast<std::size_t>(o)];
  }
  return out;
}

}  // namespace bkc::test
