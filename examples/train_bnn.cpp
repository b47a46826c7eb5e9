// Training a BNN end to end: the complete Figure 1 workflow in one binary.
//
//   1. Build a training-dialect BNN (float-emulated binarization).
//   2. Train it with the straight-through estimator on a synthetic
//      stripe-orientation task (Adam on the latent binary weights, SGD with
//      momentum on the full-precision variables -- the paper's section 5.1
//      recipe).
//   3. Convert the *trained* graph to the inference dialect, serialize it,
//      reload it, and verify the deployed model classifies identically.
//
// Usage: ./build/examples/train_bnn
#include <cstdio>
#include <vector>

#include "lce.h"
#include "train/trainer.h"

using namespace lce;

namespace {

// Class 0: horizontal stripes; class 1: vertical stripes; noisy.
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

}  // namespace

int main() {
  // --- 1. Build.
  Graph g;
  ModelBuilder b(g, 11);
  int x = b.Input(8, 8, 1);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  x = b.BatchNorm(x);  // binarize pre-activations (never post-ReLU!)
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 2);
  x = b.Softmax(x);
  g.MarkOutput(x);

  // --- 2. Train.
  train::Trainer trainer(g);
  LCE_CHECK(trainer.status().ok());
  Rng rng(3);
  std::vector<float> train_x, test_x;
  std::vector<int> train_y, test_y;
  MakeBatch(rng, 64, &train_x, &train_y);
  MakeBatch(rng, 64, &test_x, &test_y);

  std::printf("step %4d  acc %.2f (before training)\n", 0,
              trainer.Evaluate(train_x, train_y));
  for (int step = 1; step <= 300; ++step) {
    const float loss = trainer.Step(train_x, train_y);
    if (step % 60 == 0) {
      std::printf("step %4d  loss %.4f  train acc %.2f\n", step, loss,
                  trainer.Evaluate(train_x, train_y));
    }
  }
  const float train_acc = trainer.Evaluate(train_x, train_y);
  const float test_acc = trainer.Evaluate(test_x, test_y);
  std::printf("trained: train acc %.2f, held-out acc %.2f\n", train_acc,
              test_acc);

  // --- 3. Convert, deploy, verify.
  Graph deployed = CloneGraph(g);
  ConvertStats stats;
  LCE_CHECK(Convert(deployed, {}, &stats).ok());
  std::printf("converted: %d binarized conv(s) lowered, %.1f KiB -> %.1f KiB "
              "of constants\n",
              stats.bconvs_lowered, g.ConstantBytes() / 1024.0,
              deployed.ConstantBytes() / 1024.0);
  const std::string path = "/tmp/stripes_bnn.lcem";
  LCE_CHECK(SaveModel(deployed, path).ok());

  Graph loaded;
  LCE_CHECK(LoadModel(path, &loaded).ok());
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(loaded, {}, &model).ok());
  ExecutionContext exec(model);
  int correct = 0;
  for (int i = 0; i < 64; ++i) {
    Tensor in = exec.input(0);
    std::copy(test_x.begin() + i * 64, test_x.begin() + (i + 1) * 64,
              in.data<float>());
    exec.Invoke();
    const float* probs = exec.output(0).data<float>();
    correct += (probs[1] > probs[0] ? 1 : 0) == test_y[i] ? 1 : 0;
  }
  std::printf("deployed model (from %s): held-out acc %.2f\n", path.c_str(),
              correct / 64.0f);
  return (correct / 64.0f == test_acc) ? 0 : 1;
}
