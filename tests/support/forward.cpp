#include "support/forward.h"

namespace bkc::test {

bnn::MemoryPlan layer_plan(const FeatureShape& input) {
  const auto float_bytes = static_cast<std::int64_t>(
      Arena::aligned_size(static_cast<std::size_t>(input.size()) *
                          sizeof(float)));
  return {.activation_floats = 0, .scratch_bytes = 2 * float_bytes,
          .pack_words = 0};
}

Tensor forward(const bnn::ReActNet& model, const Tensor& image) {
  bnn::Workspace workspace(model.memory_plan());
  Tensor scores(FeatureShape{model.config().num_classes, 1, 1});
  model.forward_into(image, scores, workspace);
  return scores;
}

}  // namespace bkc::test
