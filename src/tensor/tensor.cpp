#include "tensor/tensor.h"

#include <utility>

namespace bkc {

Tensor::Tensor(FeatureShape shape)
    : shape_(shape), data_(static_cast<std::size_t>(shape.size()), 0.0f) {
  check(shape.channels >= 0 && shape.height >= 0 && shape.width >= 0,
        "Tensor: negative dimension");
}

Tensor::Tensor(FeatureShape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  check(static_cast<std::int64_t>(data_.size()) == shape.size(),
        "Tensor: data size does not match shape " + shape.to_string());
}

float& Tensor::at(std::int64_t c, std::int64_t y, std::int64_t x) {
  check(c >= 0 && c < shape_.channels && y >= 0 && y < shape_.height &&
            x >= 0 && x < shape_.width,
        "Tensor::at out of range");
  return data_[static_cast<std::size_t>((c * shape_.height + y) *
                                            shape_.width +
                                        x)];
}

float Tensor::at(std::int64_t c, std::int64_t y, std::int64_t x) const {
  return const_cast<Tensor*>(this)->at(c, y, x);
}

WeightTensor::WeightTensor(KernelShape shape)
    : shape_(shape), data_(static_cast<std::size_t>(shape.size()), 0.0f) {
  check(shape.out_channels >= 0 && shape.in_channels >= 0 &&
            shape.kernel_h >= 0 && shape.kernel_w >= 0,
        "WeightTensor: negative dimension");
}

WeightTensor::WeightTensor(KernelShape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  check(static_cast<std::int64_t>(data_.size()) == shape.size(),
        "WeightTensor: data size does not match shape " + shape.to_string());
}

float& WeightTensor::at(std::int64_t o, std::int64_t i, std::int64_t ky,
                        std::int64_t kx) {
  check(o >= 0 && o < shape_.out_channels && i >= 0 &&
            i < shape_.in_channels && ky >= 0 && ky < shape_.kernel_h &&
            kx >= 0 && kx < shape_.kernel_w,
        "WeightTensor::at out of range");
  return data_[static_cast<std::size_t>(
      ((o * shape_.in_channels + i) * shape_.kernel_h + ky) *
          shape_.kernel_w +
      kx)];
}

float WeightTensor::at(std::int64_t o, std::int64_t i, std::int64_t ky,
                       std::int64_t kx) const {
  return const_cast<WeightTensor*>(this)->at(o, i, ky, kx);
}

}  // namespace bkc
