// Graph IR shared by the training-graph builders, the converter and the
// inference runtime (graph/compiled_model.h).
//
// Two graph dialects live in the same IR, mirroring the paper's Figure 1
// pipeline:
//
//  * The *training dialect* is what Larq constructs: binarization is
//    emulated in float (kFakeSign activations, Conv2D nodes flagged
//    binarize_weights) and batch normalization is a separate node.
//
//  * The *inference dialect* is what the converter emits: kLceQuantize /
//    kLceBConv2d / kLceBMaxPool2d operating on bitpacked tensors, with
//    batch norm and activations fused into the bconv output transform.
//
// Values are SSA-like: each value has exactly one producer node (or none for
// graph inputs/constants) and any number of consumers.
#ifndef LCE_GRAPH_IR_H_
#define LCE_GRAPH_IR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/quantization.h"
#include "core/status.h"
#include "core/tensor.h"
#include "core/types.h"
#include "kernels/bconv2d.h"
#include "kernels/conv_params.h"

namespace lce {

enum class OpType : std::uint8_t {
  // Training + shared full-precision ops.
  kConv2D = 0,        // float conv; attr binarize_weights marks emulated bconv
  kDepthwiseConv2D,   // float depthwise conv
  kFakeSign,          // float sign(x) emulation of binarization
  kBatchNorm,         // per-channel affine from folded BN statistics
  kRelu,
  kPRelu,             // per-channel parametric ReLU (ReActNet's RPReLU core)
  kMaxPool2D,
  kAvgPool2D,
  kGlobalAvgPool,
  kAdd,
  kConcat,            // channel-axis concatenation (DenseNet-style models)
  kMulChannel,        // x[N,H,W,C] * gate[N,C] broadcast (R2B gating)
  kSlice,             // channel-range slice (MeliusNet improvement blocks)
  kFullyConnected,
  kSoftmax,
  // Int8 dialect (emitted by the post-training quantizer).
  kQuantizeInt8,      // float -> int8 (affine)
  kDequantizeInt8,    // int8 -> float
  kConv2DInt8,        // quantized convolution
  // Inference dialect (emitted by the converter).
  kLceQuantize,       // float -> bitpacked
  kLceDequantize,     // bitpacked -> float
  kLceBConv2d,        // bitpacked in; float or bitpacked out
  kLceBMaxPool2d,     // bitpacked in/out
  kLceBFullyConnected,  // bitpacked in; float out (binary MLP classifier)
};

// Range validator for op-type bytes read from untrusted model files; must
// pass before a raw byte is static_cast to OpType. Keep in sync with the
// last enumerator above.
constexpr bool IsValidOpType(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(OpType::kLceBFullyConnected);
}

std::string_view OpTypeName(OpType t);

// Exact operand count per op; -1 means variadic (kConcat, >= 2). The
// operand contract (Graph::InferOutput) checks every node against it.
int ExpectedArity(OpType t);

// The inference dialect's binary ops (bitpack, unpack and every op that
// reads bitpacked operands): what the profile's binary share and the
// printer's binary MAC split count.
bool IsBinaryOp(OpType t);

// One attrs struct shared by all ops; each op reads the fields it needs.
struct OpAttrs {
  // Convolution / pooling geometry.
  Conv2DGeometry conv;
  Pool2DGeometry pool;
  // Fused / emulated activation.
  Activation activation = Activation::kNone;
  // Training dialect: conv weights are binarized (sign) at execution time.
  bool binarize_weights = false;
  // Batch norm (training dialect): folded per-channel affine parameters.
  std::vector<float> bn_scale;
  std::vector<float> bn_offset;
  // LceBConv2d (inference dialect): fused output transform.
  std::vector<float> multiplier;
  std::vector<float> bias;  // also used as conv/fc bias in float ops
  Activation pre_activation = Activation::kNone;
  BConvOutputType bconv_output = BConvOutputType::kFloat;
  // Fully connected.
  int fc_in_features = 0;
  int fc_out_features = 0;
  // Channel slice (kSlice).
  int slice_begin = 0;
  int slice_count = 0;
  // Int8 dialect: affine quantization parameters.
  QuantParams input_quant;
  QuantParams weight_quant;   // symmetric (zero_point 0)
  QuantParams output_quant;
  std::vector<std::int32_t> bias_int32;  // kConv2DInt8 bias, scale s_in*s_w
  std::vector<float> weight_scales;      // per-channel weight quantization
  std::vector<float> prelu_slope;        // kPRelu negative-side slopes
};

struct Value {
  int id = -1;
  std::string name;
  DataType dtype = DataType::kFloat32;
  Shape shape;
  bool is_constant = false;
  Tensor constant_data;  // only set when is_constant
  int producer = -1;     // node id, -1 for inputs/constants
  std::vector<int> consumers;  // node ids (duplicates allowed)
  bool alive = true;     // false after removal by a rewrite
};

struct Node {
  int id = -1;
  std::string name;
  OpType type = OpType::kConv2D;
  std::vector<int> inputs;   // value ids
  std::vector<int> outputs;  // value ids (all current ops have exactly 1)
  OpAttrs attrs;
  bool alive = true;  // false after removal by a rewrite
};

class Graph {
 public:
  // --- construction ------------------------------------------------------
  int AddInput(std::string name, DataType dtype, Shape shape);
  int AddConstant(std::string name, Tensor data);
  // Adds a node after checking it against the op's contract (InferOutput),
  // which also fills in the derived geometry and the output value's dtype
  // and shape. Returns the output value id. Invalid operands are a
  // programmer error (LCE_CHECK).
  int AddNode(OpType type, std::string name, std::vector<int> inputs,
              OpAttrs attrs);

  // Fallible variant used when building from untrusted data (the model
  // deserializer): returns an error instead of aborting.
  Status TryAddNode(OpType type, std::string name, std::vector<int> inputs,
                    OpAttrs attrs, int* out_value);

  void MarkOutput(int value_id) { output_ids_.push_back(value_id); }

  // --- access -------------------------------------------------------------
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<Value>>& values() const { return values_; }
  Node& node(int id) { return *nodes_[id]; }
  const Node& node(int id) const { return *nodes_[id]; }
  Value& value(int id) { return *values_[id]; }
  const Value& value(int id) const { return *values_[id]; }
  const std::vector<int>& input_ids() const { return input_ids_; }
  const std::vector<int>& output_ids() const { return output_ids_; }

  // Node ids in execution (creation) order, skipping removed nodes.
  std::vector<int> TopologicalOrder() const;

  // Number of live nodes / live nodes of a given type.
  int LiveNodeCount() const;
  int CountOps(OpType t) const;

  // --- rewriting (used by the converter) ----------------------------------
  // Rewires every consumer of `from` (and graph outputs) to use `to`.
  void ReplaceAllUses(int from_value, int to_value);
  // Marks a node and its output values dead; inputs lose this consumer.
  void RemoveNode(int node_id);
  // Replaces input value `old_v` of `node_id` with `new_v`.
  void ReplaceInput(int node_id, int old_v, int new_v);
  // Changes the dtype of a value (e.g. float -> bitpacked during lowering).
  void SetValueType(int value_id, DataType dtype);

  // The operand contract of every op, stated once. Checks the operand
  // count, each operand's dtype and rank, and the conv, pool and fully
  // connected geometry against the operand shapes (every extent, stride and
  // filter within 2^24); writes the geometry it derives into `attrs` (the
  // caller supplies only strides, filters and padding) and returns the
  // output dtype and shape. TryAddNode runs it to build each node, and the
  // validator (graph/validator.h) re-runs it on every stored node.
  static Status InferOutput(OpType type,
                            const std::vector<const Value*>& inputs,
                            OpAttrs* attrs, DataType* dtype, Shape* shape);

  // Total byte size of all live constants (for model-size reporting).
  std::size_t ConstantBytes() const;

 private:
  int NewValue(std::string name, DataType dtype, Shape shape);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Value>> values_;
  std::vector<int> input_ids_;
  std::vector<int> output_ids_;
};

}  // namespace lce

#endif  // LCE_GRAPH_IR_H_
