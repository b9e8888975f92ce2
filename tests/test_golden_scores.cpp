// Checked-in class scores of two seeded models, compared bit for bit:
// the oracle of record for the forward path.
//
// The goldens hold every score's IEEE-754 bit pattern as eight hex
// digits, one line per image. They pin the arithmetic of the whole
// forward (int8 stem, binary blocks, pooling, int8 classifier) to bytes
// recorded once, so a rewrite of any loop must reproduce them exactly
// instead of agreeing only with itself. The bytes are checked three
// ways: ReActNet::forward_into at threads 1/2/4/7, forward_into with the
// scalar conv kernel forced, and Engine::classify_batch (the path the
// serve scheduler and the end-to-end benchmark run) at threads 1/2/4/7.
// Regenerate with BKC_UPDATE_GOLDEN=1 only when a change of results is
// intended.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bnn/memory_plan.h"
#include "bnn/reactnet.h"
#include "bnn/weights.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace bkc {
namespace {

const int kThreadCounts[] = {1, 2, 4, 7};

/// Three seeded images plus one whose quantized stem input sits on
/// exact .5 ties: the maximum is 127, so the activation scale is
/// exactly 1 and every pixel m/2 divides to m/2 with no rounding.
std::vector<Tensor> golden_images(const bnn::ReActNet& model,
                                  std::uint64_t seed) {
  bnn::WeightGenerator gen(seed);
  std::vector<Tensor> images;
  for (int i = 0; i < 3; ++i) {
    images.push_back(gen.sample_activation(model.input_shape()));
  }
  Tensor ties(model.input_shape());
  std::span<float> data = ties.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto m = static_cast<int>(i % 509) - 254;  // -254 .. 254
    data[i] = 0.5f * static_cast<float>(m);
  }
  data[0] = 127.0f;
  images.push_back(std::move(ties));
  return images;
}

std::string render(const std::vector<Tensor>& scores) {
  std::string out;
  char word[9];
  for (const Tensor& s : scores) {
    for (float v : s.data()) {
      std::snprintf(word, sizeof(word), "%08x",
                    std::bit_cast<std::uint32_t>(v));
      out += word;
    }
    out += '\n';
  }
  return out;
}

std::vector<Tensor> run_forward_into(const bnn::ReActNet& model,
                                     const std::vector<Tensor>& images) {
  bnn::Workspace workspace(model.memory_plan());
  std::vector<Tensor> scores;
  for (const Tensor& image : images) {
    Tensor out(FeatureShape{model.config().num_classes, 1, 1});
    model.forward_into(image, out, workspace);
    scores.push_back(std::move(out));
  }
  return scores;
}

void expect_scores_match_golden(const bnn::ReActNetConfig& config,
                                const std::string& golden) {
  const Engine engine(config);
  const bnn::ReActNet& model = engine.model();
  const std::vector<Tensor> images = golden_images(model, 1234);
  test::expect_matches_golden(golden, render(run_forward_into(model, images)));
  const std::string expected = test::read_golden(golden);
  {
    simd::ScopedForceScalar force;
    EXPECT_EQ(render(run_forward_into(model, images)), expected)
        << golden << " forward_into, scalar kernel forced";
  }
  for (const int threads : kThreadCounts) {
    {
      ScopedNumThreads scoped(threads);
      EXPECT_EQ(render(run_forward_into(model, images)), expected)
          << golden << " forward_into, threads " << threads;
    }
    EXPECT_EQ(render(engine.classify_batch(images, threads)), expected)
        << golden << " classify_batch, threads " << threads;
  }
}

TEST(GoldenScores, TinyModelMatchesCheckedInBytes) {
  expect_scores_match_golden(test::tiny_config(42), "scores_tiny.hex");
}

TEST(GoldenScores, Paper64ModelMatchesCheckedInBytes) {
  bnn::ReActNetConfig config = bnn::paper_reactnet_config(42);
  config.input_size = 64;
  expect_scores_match_golden(config, "scores_paper64.hex");
}

}  // namespace
}  // namespace bkc
