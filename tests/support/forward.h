#pragma once
// The library's one forward path, forward_into over a Workspace, in the
// form the suites assert on: a call that returns a fresh tensor.

#include "bnn/memory_plan.h"
#include "bnn/reactnet.h"
#include "tensor/tensor.h"

namespace bkc::test {

/// A plan whose arena holds the scratch of any one layer or BasicBlock
/// on an input of shape `input`: int8 quantization (one byte per input
/// element), or a block's 3x3 conv output plus its stride-2 pooled
/// shortcut (each at most the input's floats). The pack scratch grows
/// on first use.
bnn::MemoryPlan layer_plan(const FeatureShape& input);

/// Output of `layer` (any bnn layer, or a BasicBlock) on `input`,
/// through a fresh workspace built from layer_plan.
template <typename Layer>
Tensor forward(const Layer& layer, const Tensor& input) {
  bnn::Workspace workspace(layer_plan(input.shape()));
  Tensor output(layer.output_shape(input.shape()));
  layer.forward_into(input, output, workspace);
  return output;
}

/// Class scores of `model` on `image`, through a fresh workspace built
/// from the model's memory plan.
Tensor forward(const bnn::ReActNet& model, const Tensor& image);

}  // namespace bkc::test
