// Trainer tests: the STE training loop must actually learn a synthetic
// task, and the *trained* model must survive conversion and deployment with
// its accuracy intact -- closing the paper's Figure 1 loop with learned
// (not random) weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "converter/convert.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "train/trainer.h"

namespace lce {
namespace {

// Synthetic stripe-orientation task on noisy 8x8 images: class 0 has
// horizontal stripes, class 1 vertical. Local 3x3 features detect the
// orientation and global pooling aggregates them -- learnable by a tiny
// conv net (a task whose information survives global average pooling,
// unlike e.g. "which half is brighter").
void MakeBatch(Rng& rng, int n, std::vector<float>* x, std::vector<int>* y) {
  x->assign(static_cast<std::size_t>(n) * 64, 0.0f);
  y->assign(n, 0);
  for (int i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.UniformInt(2));
    (*y)[i] = cls;
    const int phase = static_cast<int>(rng.UniformInt(2));
    for (int r = 0; r < 8; ++r) {
      for (int c = 0; c < 8; ++c) {
        const int k = cls == 0 ? r : c;
        (*x)[static_cast<std::size_t>(i) * 64 + r * 8 + c] =
            ((k + phase) % 2 == 0 ? 1.0f : -1.0f) + rng.Uniform(-0.5f, 0.5f);
      }
    }
  }
}

Graph TinyBnn(std::uint64_t seed) {
  Graph g;
  ModelBuilder b(g, seed);
  int x = b.Input(8, 8, 1);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);  // fp stem
  // BatchNorm (not ReLU!) precedes binarization: a ReLU would make every
  // sign +1 and kill the binarized path -- the reason real BNNs binarize
  // pre-activations.
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);  // binarized body
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 2);
  x = b.Softmax(x);
  g.MarkOutput(x);
  return g;
}

TEST(Trainer, RejectsUnsupportedOps) {
  Graph g;
  ModelBuilder b(g, 1);
  int x = b.Input(4, 4, 4);
  x = b.Concat({x, x});  // unsupported by the trainer
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 2);
  x = b.Softmax(x);
  g.MarkOutput(x);
  train::Trainer trainer(g);
  EXPECT_FALSE(trainer.status().ok());
  EXPECT_EQ(trainer.status().code(), StatusCode::kUnimplemented);
}

TEST(Trainer, RequiresSoftmaxHead) {
  Graph g;
  ModelBuilder b(g, 2);
  int x = b.Input(4, 4, 4);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 2);
  g.MarkOutput(x);  // no softmax
  train::Trainer trainer(g);
  EXPECT_FALSE(trainer.status().ok());
}

TEST(Trainer, LossDecreasesAndTaskIsLearned) {
  Graph g = TinyBnn(11);
  train::Trainer trainer(g);
  ASSERT_TRUE(trainer.status().ok()) << trainer.status().message();

  Rng rng(3);
  std::vector<float> x;
  std::vector<int> y;
  MakeBatch(rng, 64, &x, &y);

  const float initial_acc = trainer.Evaluate(x, y);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 300; ++step) {
    const float loss = trainer.Step(x, y);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  const float final_acc = trainer.Evaluate(x, y);

  EXPECT_LT(last_loss, first_loss * 0.5f) << "loss must drop substantially";
  EXPECT_GE(final_acc, 0.9f) << "initial acc was " << initial_acc;

  // Generalization to a fresh batch from the same distribution.
  std::vector<float> x2;
  std::vector<int> y2;
  MakeBatch(rng, 64, &x2, &y2);
  EXPECT_GE(trainer.Evaluate(x2, y2), 0.9f);
}

TEST(Trainer, TrainedModelSurvivesConversion) {
  Graph g = TinyBnn(11);
  train::Trainer trainer(g);
  ASSERT_TRUE(trainer.status().ok());

  Rng rng(3);
  std::vector<float> x;
  std::vector<int> y;
  MakeBatch(rng, 64, &x, &y);
  for (int step = 0; step < 300; ++step) trainer.Step(x, y);
  const float trained_acc = trainer.Evaluate(x, y);
  ASSERT_GE(trained_acc, 0.9f);

  // Convert the trained graph and run it sample by sample.
  Graph converted = CloneGraph(g);
  ASSERT_TRUE(Convert(converted).ok());
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(converted, {}, &model).ok());
  ExecutionContext exec(model);
  int correct = 0;
  for (int i = 0; i < 64; ++i) {
    Tensor in = exec.input(0);
    std::copy(x.begin() + i * 64, x.begin() + (i + 1) * 64, in.data<float>());
    exec.Invoke();
    const float* probs = exec.output(0).data<float>();
    correct += (probs[1] > probs[0] ? 1 : 0) == y[i] ? 1 : 0;
  }
  const float deployed_acc = static_cast<float>(correct) / 64.0f;
  EXPECT_FLOAT_EQ(deployed_acc, trained_acc)
      << "conversion must preserve the learned behaviour exactly";
}

TEST(Trainer, BinaryWeightsStayClipped) {
  Graph g = TinyBnn(13);
  train::Trainer trainer(g);
  ASSERT_TRUE(trainer.status().ok());
  Rng rng(5);
  std::vector<float> x;
  std::vector<int> y;
  MakeBatch(rng, 32, &x, &y);
  for (int step = 0; step < 50; ++step) trainer.Step(x, y);
  // Latent binarized weights must remain inside [-1, 1] (the STE window).
  for (const auto& n : g.nodes()) {
    if (!n->alive || !n->attrs.binarize_weights) continue;
    const Value& w = g.value(n->inputs[1]);
    const float* p = w.constant_data.data<float>();
    for (std::int64_t i = 0; i < w.constant_data.num_elements(); ++i) {
      ASSERT_LE(std::abs(p[i]), 1.0f) << "latent weight escaped the clip";
    }
  }
}

TEST(Trainer, ForwardTracksUpdatedParametersAtAnyBatch) {
  // Step's pre-update loss must be the loss of the *current* parameters at
  // the step's own batch size: after 50 updates at batch 64, a batch-7 step
  // must report the mean cross-entropy that a fresh batch-1 compile of the
  // trained graph gives on the same seven samples. A forward that reused
  // packed weights or attr vectors from an earlier step, or that mishandled
  // a batch other than the training batch, would disagree.
  Graph g = TinyBnn(11);
  train::Trainer trainer(g);
  ASSERT_TRUE(trainer.status().ok());
  Rng rng(3);
  std::vector<float> x;
  std::vector<int> y;
  MakeBatch(rng, 64, &x, &y);
  for (int step = 0; step < 50; ++step) trainer.Step(x, y);

  std::vector<float> x7;
  std::vector<int> y7;
  MakeBatch(rng, 7, &x7, &y7);
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  double expected = 0.0;
  for (int i = 0; i < 7; ++i) {
    std::copy(x7.begin() + i * 64, x7.begin() + (i + 1) * 64,
              exec.input(0).data<float>());
    exec.Invoke();
    const float p = exec.output(0).data<float>()[y7[i]];
    expected -= std::log(std::max(p, 1e-12f));  // the trainer's floor
  }
  expected /= 7.0;
  EXPECT_NEAR(trainer.Step(x7, y7), expected, 1e-5);
}

TEST(Trainer, ResidualMiniQuickNetTrains) {
  // A QuickNet-shaped mini model: fp stem, two one-padded binarized
  // residual layers, a max-pool transition, classifier -- everything the
  // trainer's op subset must compose.
  Graph g;
  ModelBuilder b(g, 31);
  int x = b.Input(8, 8, 1);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.BatchNorm(x);
  for (int layer = 0; layer < 2; ++layer) {
    int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
    y = b.BatchNorm(y);
    x = b.Add(x, y);  // residual connection over each layer (paper 5.1)
  }
  x = b.MaxPool(x, 2, 2, Padding::kValid);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 2);
  x = b.Softmax(x);
  g.MarkOutput(x);

  train::Trainer trainer(g);
  ASSERT_TRUE(trainer.status().ok()) << trainer.status().message();
  Rng rng(3);
  std::vector<float> xb;
  std::vector<int> yb;
  MakeBatch(rng, 64, &xb, &yb);
  for (int step = 0; step < 300; ++step) trainer.Step(xb, yb);
  EXPECT_GE(trainer.Evaluate(xb, yb), 0.9f);

  // And the trained residual model converts + deploys identically.
  const float trained_acc = trainer.Evaluate(xb, yb);
  Graph converted = CloneGraph(g);
  ASSERT_TRUE(Convert(converted).ok());
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(converted, {}, &model).ok());
  ExecutionContext exec(model);
  int correct = 0;
  for (int i = 0; i < 64; ++i) {
    Tensor in = exec.input(0);
    std::copy(xb.begin() + i * 64, xb.begin() + (i + 1) * 64,
              in.data<float>());
    exec.Invoke();
    const float* probs = exec.output(0).data<float>();
    correct += (probs[1] > probs[0] ? 1 : 0) == yb[i] ? 1 : 0;
  }
  EXPECT_FLOAT_EQ(correct / 64.0f, trained_acc);
}

TEST(Trainer, ReActStyleBlockTrains) {
  // ReActNet-style block: RSign (channel shift + sign) into a binarized
  // conv, residual Add, RPReLU (shift + per-channel PReLU + shift) --
  // exercises the PRelu/shift gradients.
  Graph g;
  ModelBuilder b(g, 41);
  int x = b.Input(8, 8, 1);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.BatchNorm(x);
  {
    int y = b.ChannelShift(x);  // RSign shift
    y = b.BinaryConv(y, 32, 3, 1, Padding::kSameOne);
    y = b.BatchNorm(y);
    y = b.Add(y, x);
    x = b.RPRelu(y);
  }
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 2);
  x = b.Softmax(x);
  g.MarkOutput(x);

  train::Trainer trainer(g);
  ASSERT_TRUE(trainer.status().ok()) << trainer.status().message();
  Rng rng(3);
  std::vector<float> xb;
  std::vector<int> yb;
  MakeBatch(rng, 64, &xb, &yb);
  for (int step = 0; step < 300; ++step) trainer.Step(xb, yb);
  EXPECT_GE(trainer.Evaluate(xb, yb), 0.9f);
}

}  // namespace
}  // namespace lce
