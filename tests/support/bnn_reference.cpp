#include "support/bnn_reference.h"

#include "bnn/bconv.h"
#include "util/check.h"

namespace bkc::test {

bnn::PackedFeature pack_feature(const Tensor& input) {
  bnn::PackedFeature packed(input.shape());
  const auto& s = input.shape();
  for (std::int64_t c = 0; c < s.channels; ++c) {
    for (std::int64_t y = 0; y < s.height; ++y) {
      for (std::int64_t x = 0; x < s.width; ++x) {
        packed.set_bit(c, y, x, input.at(c, y, x) >= 0.0f ? 1 : 0);
      }
    }
  }
  return packed;
}

Tensor unpack_feature(const bnn::PackedFeature& packed) {
  Tensor out(packed.shape());
  const auto& s = packed.shape();
  for (std::int64_t c = 0; c < s.channels; ++c) {
    for (std::int64_t y = 0; y < s.height; ++y) {
      for (std::int64_t x = 0; x < s.width; ++x) {
        out.at(c, y, x) = packed.bit(c, y, x) ? 1.0f : -1.0f;
      }
    }
  }
  return out;
}

bnn::PackedKernel pack_kernel(const WeightTensor& weights) {
  bnn::PackedKernel packed(weights.shape());
  const auto& k = weights.shape();
  for (std::int64_t o = 0; o < k.out_channels; ++o) {
    for (std::int64_t i = 0; i < k.in_channels; ++i) {
      for (std::int64_t ky = 0; ky < k.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < k.kernel_w; ++kx) {
          packed.set_bit(o, i, ky, kx,
                         weights.at(o, i, ky, kx) >= 0.0f ? 1 : 0);
        }
      }
    }
  }
  return packed;
}

WeightTensor unpack_kernel(const bnn::PackedKernel& packed) {
  WeightTensor out(packed.shape());
  const auto& k = packed.shape();
  for (std::int64_t o = 0; o < k.out_channels; ++o) {
    for (std::int64_t i = 0; i < k.in_channels; ++i) {
      for (std::int64_t ky = 0; ky < k.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < k.kernel_w; ++kx) {
          out.at(o, i, ky, kx) = packed.bit(o, i, ky, kx) ? 1.0f : -1.0f;
        }
      }
    }
  }
  return out;
}

Tensor binary_conv2d(const bnn::PackedFeature& input,
                     const bnn::PackedKernel& kernel, ConvGeometry geometry) {
  check(input.shape().channels == kernel.shape().in_channels,
        "binary_conv2d: channel mismatch (" + input.shape().to_string() +
            " vs " + kernel.shape().to_string() + ")");
  Tensor out(geometry.output_shape(input.shape(), kernel.shape()));
  if (input.halo() < geometry.padding) {
    bnn::PackedFeature padded;
    bnn::pack_feature_into(unpack_feature(input), padded, geometry.padding);
    bnn::binary_conv2d_into(padded, kernel, geometry, out);
  } else {
    bnn::binary_conv2d_into(input, kernel, geometry, out);
  }
  return out;
}

Tensor reference_conv2d(const Tensor& input, const WeightTensor& weights,
                        ConvGeometry geometry, float pad_value) {
  const FeatureShape in_shape = input.shape();
  const FeatureShape out_shape = geometry.output_shape(in_shape,
                                                       weights.shape());
  Tensor out(out_shape);
  const auto& k = weights.shape();
  auto at_padded = [&](std::int64_t c, std::int64_t y, std::int64_t x) {
    if (y < 0 || y >= in_shape.height || x < 0 || x >= in_shape.width) {
      return pad_value;
    }
    return input.at(c, y, x);
  };
  for (std::int64_t o = 0; o < out_shape.channels; ++o) {
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      for (std::int64_t ox = 0; ox < out_shape.width; ++ox) {
        double acc = 0.0;
        const std::int64_t base_y = oy * geometry.stride - geometry.padding;
        const std::int64_t base_x = ox * geometry.stride - geometry.padding;
        for (std::int64_t i = 0; i < k.in_channels; ++i) {
          for (std::int64_t ky = 0; ky < k.kernel_h; ++ky) {
            for (std::int64_t kx = 0; kx < k.kernel_w; ++kx) {
              const float v = at_padded(i, base_y + ky, base_x + kx);
              acc += static_cast<double>(v) * weights.at(o, i, ky, kx);
            }
          }
        }
        out.at(o, oy, ox) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

}  // namespace bkc::test
