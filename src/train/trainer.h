// A minimal trainer for training-dialect graphs, closing the paper's
// Figure 1 loop inside this repo: Larq's role is training BNNs with
// float-emulated binarization and the straight-through estimator (STE);
// this module provides just enough of that to produce *learned* weights
// whose converted inference graphs can be validated end to end (the
// equivalence tests elsewhere use random weights).
//
// Scope (deliberately toy -- the paper's training contribution is Larq's,
// not LCE's): full-batch/ mini-batch SGD or Adam over the op subset the
// zoo builders emit on small inputs:
//   Conv2D (float and binarize_weights), FullyConnected (float and
//   binarized), FakeSign, BatchNorm (trainable per-channel affine), Relu,
//   PRelu, DepthwiseConv2D, AvgPool2D, Add, GlobalAvgPool, MaxPool2D,
//   Softmax (as the head of a cross-entropy loss).
//
// The forward pass is the engine's: each Step / Evaluate clones the graph
// at the batch size (CloneGraphWithInputShapes; the clone shares the
// latent weight buffers and copies the attr vectors), compiles the clone
// and runs one ExecutionContext::Invoke whose ExecutionOptions::observer
// copies every node's output out for the backward pass. Only the backward
// pass and the optimizer updates are the trainer's own code.
//
// Gradients follow standard BNN practice:
//  * FakeSign activations: STE with the |x| <= 1 clip (Hubara et al.).
//  * Binarized weights: the latent float weights receive the gradient of
//    their sign, clipped to |w| <= 1 (the paper trains binary weights with
//    Adam and the STE, fp variables with SGD -- both optimizers are here).
#ifndef LCE_TRAIN_TRAINER_H_
#define LCE_TRAIN_TRAINER_H_

#include <map>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "graph/ir.h"

namespace lce::train {

enum class Optimizer { kSgd, kAdam };

struct TrainOptions {
  float learning_rate = 0.01f;
  float momentum = 0.9f;        // SGD
  float beta1 = 0.9f;           // Adam
  float beta2 = 0.999f;
  float epsilon = 1e-7f;
  // Paper section 5.1: Adam for binary (latent) weights, SGD with momentum
  // for full-precision variables.
  Optimizer binary_optimizer = Optimizer::kAdam;
  Optimizer float_optimizer = Optimizer::kSgd;
};

// Trains the graph's constants and trainable attrs in place. The graph must
// have exactly one input and one Softmax output (the classifier head).
class Trainer {
 public:
  // Validates the op subset and compiles the graph once; check status()
  // before training.
  Trainer(Graph& g, TrainOptions options = {});

  Status status() const { return status_; }

  // One optimization step on a batch. `x` is [batch, ...input dims...]
  // flattened to the graph's input element count times batch; labels are
  // class indices. Returns the mean cross-entropy loss (pre-update).
  float Step(const std::vector<float>& x, const std::vector<int>& labels);

  // Mean accuracy of the current parameters on a batch (no update).
  float Evaluate(const std::vector<float>& x, const std::vector<int>& labels);

 private:
  void Forward(const std::vector<float>& x, int batch);
  float LossAndGrad(const std::vector<int>& labels);
  void Backward();
  void ApplyUpdates();

  // Parameter slots: latent weights (constants) and attr vectors.
  struct Param {
    float* data = nullptr;
    std::int64_t size = 0;
    bool binary = false;  // latent binarized weights
    std::vector<float> grad, m, v;  // grad + optimizer state
    std::int64_t steps = 0;
  };

  Graph& graph_;
  TrainOptions options_;
  Status status_;
  std::vector<int> order_;
  // Per-value forward tensors and gradients (batch-major float storage).
  std::map<int, std::vector<float>> value_data_;
  std::map<int, std::vector<float>> value_grad_;
  std::map<int, Param> params_;  // key: value id (weights) or ~node id (attrs)
  int batch_ = 0;
};

}  // namespace lce::train

#endif  // LCE_TRAIN_TRAINER_H_
