#pragma once
// Neural network layers used by ReActNet (Fig. 1 of the paper).
//
// The binary fast path (BinaryConv2d) runs on the channel-packed layout;
// everything else (batch norm, RPReLU, int8 stem/classifier) runs in
// full precision exactly as the paper describes: "batch-norm and Prelu
// activation functions ... are computed using full-precision", while the
// input and output layers are quantized to 8 bits (Sec II-B).

#include <cstdint>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

class Workspace;  // bnn/memory_plan.h

/// Operation classes used for the Table I storage / execution-time
/// breakdown.
enum class OpClass {
  kInputLayer,   ///< 8-bit quantized stem convolution
  kOutputLayer,  ///< 8-bit quantized fully-connected classifier
  kConv1x1,      ///< 1-bit 1x1 convolutions
  kConv3x3,      ///< 1-bit 3x3 convolutions (the compression target)
  kOther,        ///< activation / normalization layers etc.
};

/// Printable name matching the paper's Table I rows.
std::string op_class_name(OpClass op);

/// Static description of a layer instance: storage, arithmetic work and
/// output shape for a given input shape. This feeds both the Table I
/// accounting and the hwsim trace generator.
struct LayerInfo {
  std::string name;
  OpClass op_class = OpClass::kOther;
  std::uint64_t storage_bits = 0;  ///< parameter storage
  std::uint64_t macs = 0;          ///< multiply-accumulate (or equivalent) ops
  int precision_bits = 32;         ///< operand precision (1, 8 or 32)
  FeatureShape output_shape;
};

// Every layer runs through one entry point,
//   void forward_into(ConstTensorView input, TensorView output,
//                     Workspace& workspace) const;
// which writes into caller-provided storage of output_shape(input's
// shape) and draws any temporary storage from `workspace` (the int8
// quantization scratch from its arena, the binary conv's pack from its
// pack scratch), so a warm forward allocates nothing. `output` must not
// alias `input`, except that BatchNorm and RPReLU run in place; the
// block orchestration relies on that. info() describes the layer for
// the op-record walk (it builds a name string, so forward paths use
// output_shape() instead).

/// 1-bit convolution (Eq. 2). Holds the channel-packed kernel;
/// forward_into binarizes + packs its input (the sign that precedes
/// each binary conv in ReActNet) and runs the xnor/popcount engine.
class BinaryConv2d {
 public:
  BinaryConv2d(std::string name, PackedKernel kernel, ConvGeometry geometry);

  /// Packs the input into the workspace's shared pack scratch (caller-
  /// provided storage, no per-call pack allocation) with a halo of
  /// geometry().padding, then convolves into `output`.
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  /// Convolve an already packed input (halo >= geometry().padding) into
  /// `output`: the entry for callers that feed one pack to several
  /// convs.
  void forward_packed_into(const PackedFeature& input,
                           TensorView output) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return geometry_.output_shape(input_shape, kernel_.shape());
  }
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return name_; }

  const PackedKernel& kernel() const { return kernel_; }
  /// Replace the kernel (used by the compression pipeline to install
  /// clustered weights). The shape must not change.
  void set_kernel(PackedKernel kernel);
  const ConvGeometry& geometry() const { return geometry_; }

 private:
  std::string name_;
  PackedKernel kernel_;
  ConvGeometry geometry_;
};

/// 8-bit quantized convolution for the input layer. Weights are stored
/// as int8 with a single symmetric scale; activations are quantized
/// dynamically per call (std::round(v / scale), clamped to [-127, 127]).
///
/// Exactness: every int8 x int8 product is at most 127^2 = 16129, so it
/// fits int16 exactly, and each output sums receptive_size() of them in
/// int32. The constructor rejects a kernel whose receptive_size() * 127^2
/// could exceed int32, so the integer sum is exact and independent of
/// summation order; dequantization is then one float multiply and one
/// add per output. The weights are held transposed as [tap][out_channel]
/// int16 so that one loop over a fixed chunk of output channels
/// vectorizes in the baseline ISA.
///
/// An input holding NaN or +-inf cannot be quantized: forward_into
/// throws CheckError naming the layer (the check is part of
/// the scale pass and allocates only when it fails). Non-finite weights
/// are rejected at construction.
class Int8Conv2d {
 public:
  /// Quantizes `weights` symmetrically to int8. Throws CheckError when
  /// receptive_size() * 127^2 exceeds int32 or a weight is not finite.
  Int8Conv2d(std::string name, const WeightTensor& weights,
             std::vector<float> bias, ConvGeometry geometry,
             OpClass op_class = OpClass::kInputLayer);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return geometry_.output_shape(input_shape, shape_);
  }
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return name_; }

 private:
  std::string name_;
  KernelShape shape_;
  /// Quantized weights, [tap][out_channel] with each tap's row
  /// zero-padded to padded_outs_ channels.
  std::vector<std::int16_t> weights_;
  std::int64_t padded_outs_ = 0;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
  ConvGeometry geometry_;
  OpClass op_class_;
};

/// 8-bit quantized fully-connected classifier (the output layer).
/// Expects a Cx1x1 input. Same quantization, exactness bound
/// (in_features * 127^2 must fit int32, checked at construction) and
/// non-finite rejection as Int8Conv2d; each output is an int32 dot
/// product over one contiguous int8 weight row.
class Int8Linear {
 public:
  /// weights laid out [out][in]; quantized symmetrically to int8.
  /// Throws CheckError when in_features * 127^2 exceeds int32 or a
  /// weight is not finite.
  Int8Linear(std::string name, std::int64_t in_features,
             std::int64_t out_features, std::vector<float> weights,
             std::vector<float> bias);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const;
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return name_; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::string name_;
  std::int64_t in_features_;
  std::int64_t out_features_;
  std::vector<std::int8_t> weights_;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
};

/// Inference-folded batch normalization: y = scale_c * x + bias_c.
class BatchNorm {
 public:
  BatchNorm(std::string name, std::vector<float> scale,
            std::vector<float> bias);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;  // alias-safe
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return input_shape;
  }
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return name_; }

 private:
  std::string name_;
  std::vector<float> scale_;
  std::vector<float> bias_;
};

/// ReActNet's RPReLU activation: a PReLU whose input and output are
/// shifted by learnable per-channel biases:
///   y = PReLU(x - shift_in_c) + shift_out_c
/// with PReLU(v) = v > 0 ? v : slope_c * v. (Sec II-B: "the Prelu
/// activation is biased by shifting and reshaping its input".)
class RPReLU {
 public:
  RPReLU(std::string name, std::vector<float> shift_in,
         std::vector<float> slope, std::vector<float> shift_out);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;  // alias-safe
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return input_shape;
  }
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return name_; }

 private:
  std::string name_;
  std::vector<float> shift_in_;
  std::vector<float> slope_;
  std::vector<float> shift_out_;
};

/// 2x2 stride-2 average pooling (ReActNet's downsampling shortcut).
class AvgPool2x2 {
 public:
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return {input_shape.channels, input_shape.height / 2,
            input_shape.width / 2};
  }
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return "avgpool2x2"; }
};

/// Global average pooling to Cx1x1 (before the classifier).
class GlobalAvgPool {
 public:
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return {input_shape.channels, 1, 1};
  }
  LayerInfo info(const FeatureShape& input_shape) const;
  std::string name() const { return "global_avgpool"; }
};

/// Element-wise sum of two equally-shaped tensors (the residual
/// connection); `out` may alias `a` (the in-place residual the block
/// orchestration uses).
void residual_add_into(ConstTensorView a, ConstTensorView b, TensorView out);

}  // namespace bkc::bnn
