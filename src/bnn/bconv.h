#pragma once
// Binary convolution via xnor + popcount (Eq. 2 of the paper).
//
// For +/-1 operands the dot product of two length-K bit vectors is
//   dot = 2 * popcount(xnor(w, x)) - K
// because every matching bit pair contributes +1 and every differing
// pair -1. The engine walks the channel-packed layout directly: one
// 64-bit xnor+popcount covers 64 channels, mirroring daBNN's NEON path.
//
// Spatial padding follows the paper (Sec IV-B): padded positions hold
// the value -1 (stored bit 0) and *do* contribute to the dot product,
// exactly like the reference convolution with pad_value = -1. The
// padded input is materialized by packing with a halo (bnn/bitpack.h):
// its zero rim is the -1 padding, so the convolution never needs a
// bounds test.

#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

/// Binary convolution into caller-provided storage of exactly the
/// geometry's output shape (CheckError otherwise): the integer dot
/// products as floats (range [-K, K] with K = in_channels * kernel_h *
/// kernel_w). Works for any kernel size; the paper's models use 3x3 and
/// 1x1. `input` must have been packed with halo >= geometry.padding
/// (CheckError naming both otherwise); the caller owns the pack scratch
/// (typically the Workspace's, filled via pack_feature_into).
///
/// The per-output-channel loop runs on bkc::current_num_threads()
/// threads (util/thread_pool.h); results are bit-identical at every
/// thread count because each output channel is computed independently.
/// Engine::classify(image, num_threads) is the usual way to set this.
/// The fan-out goes through parallel_for, which allocates nothing, so
/// every thread count performs zero heap allocations.
///
/// The inner pixel loop dispatches to the widest kernel the CPU
/// supports (bnn/bconv_kernels.h: AVX2 today, scalar reference
/// otherwise); every kernel is bit-identical to the scalar path, and
/// BKC_FORCE_SCALAR / -DBKC_DISABLE_SIMD pin the reference.
void binary_conv2d_into(const PackedFeature& input, const PackedKernel& kernel,
                        ConvGeometry geometry, TensorView out);

/// Number of xnor+popcount word operations one call performs; the
/// timing model uses the same accounting.
std::int64_t binary_conv2d_word_ops(const FeatureShape& input,
                                    const KernelShape& kernel,
                                    ConvGeometry geometry);

}  // namespace bkc::bnn
