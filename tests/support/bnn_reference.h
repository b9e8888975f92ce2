#pragma once
// Allocating forms of the packing and binary-conv entry points, plus
// the float reference convolution. The library runs only the
// caller-storage forms (bnn::pack_feature_into,
// bnn::binary_conv2d_into); these build a fresh object per call and
// serve the packing and conv suites as fixtures and oracles.

#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::test {

/// Binarize (Eq. 1: bit = v >= 0) and channel-pack a float feature map,
/// without a halo: one checked set_bit per element, obviously correct,
/// the bit-identity oracle for bnn::pack_feature_into.
bnn::PackedFeature pack_feature(const Tensor& input);

/// Expand a packed feature back to a +/-1-valued float tensor.
Tensor unpack_feature(const bnn::PackedFeature& packed);

/// Binarize and channel-pack float weights (OIHW).
bnn::PackedKernel pack_kernel(const WeightTensor& weights);

/// Expand a packed kernel back to +/-1-valued float weights.
WeightTensor unpack_kernel(const bnn::PackedKernel& packed);

/// bnn::binary_conv2d_into into a fresh tensor. An input whose halo is
/// narrower than the padding is re-packed with a halo of
/// `geometry.padding` first, so any PackedFeature works here.
Tensor binary_conv2d(const bnn::PackedFeature& input,
                     const bnn::PackedKernel& kernel, ConvGeometry geometry);

/// Reference (slow, obviously-correct) float convolution. All binary
/// conv implementations are tested for exact agreement against this on
/// +/-1 tensors. Padding positions contribute `pad_value` (the paper
/// pads binary convs with -1, see Sec IV-B).
Tensor reference_conv2d(const Tensor& input, const WeightTensor& weights,
                        ConvGeometry geometry, float pad_value = -1.0f);

}  // namespace bkc::test
