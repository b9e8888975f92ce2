#include "bnn/bconv.h"

#include "bnn/bconv_kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc::bnn {

Tensor binary_conv2d(const PackedFeature& input, const PackedKernel& kernel,
                     ConvGeometry geometry) {
  const FeatureShape in_shape = input.shape();
  const KernelShape k_shape = kernel.shape();
  check(in_shape.channels == k_shape.in_channels,
        "binary_conv2d: channel mismatch (" + in_shape.to_string() + " vs " +
            k_shape.to_string() + ")");
  const FeatureShape out_shape = geometry.output_shape(in_shape, k_shape);
  Tensor out(out_shape);
  if (input.halo() < geometry.padding) {
    PackedFeature padded;
    pack_feature_into(unpack_feature(input), padded, geometry.padding);
    binary_conv2d_into(padded, kernel, geometry, out);
  } else {
    binary_conv2d_into(input, kernel, geometry, out);
  }
  return out;
}

void binary_conv2d_into(const PackedFeature& input, const PackedKernel& kernel,
                        ConvGeometry geometry, TensorView out) {
  check(input.shape().channels == kernel.shape().in_channels,
        "binary_conv2d_into: channel mismatch between input and kernel");
  check(input.words_per_pixel() == kernel.words_per_position(),
        "binary_conv2d_into: packing mismatch");
  const FeatureShape out_shape =
      geometry.output_shape(input.shape(), kernel.shape());
  check(out.shape() == out_shape,
        "binary_conv2d_into: out view does not have the output shape");
  if (input.halo() < geometry.padding) {
    throw CheckError("binary_conv2d_into: input halo " +
                     std::to_string(input.halo()) +
                     " is narrower than the conv padding " +
                     std::to_string(geometry.padding) +
                     "; pack with halo >= padding");
  }

  // Dispatch is resolved once, on the calling thread; every chunk runs
  // the same kernel. Output channels are independent (each one reads
  // the shared input and its own kernel slice, and writes its own
  // output plane), so the outer loop fans out across threads; every
  // kernel accumulates integers per (o, oy, ox) in isolation, keeping
  // results bit-identical at any thread count *and* for any registered
  // kernel (the contract tests/test_bconv_simd.cpp enforces).
  const ConvKernelFn fn = active_conv_kernel().fn;
  parallel_for(out_shape.channels, current_num_threads(),
               [&](std::int64_t o_begin, std::int64_t o_end) {
                 fn(input, kernel, geometry, out, o_begin, o_end);
               });
}

Tensor binary_conv2d(const Tensor& input, const PackedKernel& kernel,
                     ConvGeometry geometry) {
  PackedFeature packed;
  pack_feature_into(input, packed, geometry.padding);
  return binary_conv2d(packed, kernel, geometry);
}

std::int64_t binary_conv2d_word_ops(const FeatureShape& input,
                                    const KernelShape& kernel,
                                    ConvGeometry geometry) {
  const FeatureShape out = geometry.output_shape(input, kernel);
  return out.channels * out.height * out.width * kernel.kernel_h *
         kernel.kernel_w * words_per_group(kernel.in_channels);
}

}  // namespace bkc::bnn
