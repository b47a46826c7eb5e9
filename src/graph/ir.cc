#include "graph/ir.h"

#include <algorithm>
#include <initializer_list>
#include <queue>
#include <string>

#include "core/macros.h"
#include "kernels/bconv2d.h"

namespace lce {

std::string_view OpTypeName(OpType t) {
  switch (t) {
    case OpType::kConv2D: return "Conv2D";
    case OpType::kDepthwiseConv2D: return "DepthwiseConv2D";
    case OpType::kFakeSign: return "FakeSign";
    case OpType::kBatchNorm: return "BatchNorm";
    case OpType::kRelu: return "Relu";
    case OpType::kPRelu: return "PRelu";
    case OpType::kMaxPool2D: return "MaxPool2D";
    case OpType::kAvgPool2D: return "AvgPool2D";
    case OpType::kGlobalAvgPool: return "GlobalAvgPool";
    case OpType::kAdd: return "Add";
    case OpType::kConcat: return "Concat";
    case OpType::kMulChannel: return "MulChannel";
    case OpType::kSlice: return "Slice";
    case OpType::kFullyConnected: return "FullyConnected";
    case OpType::kSoftmax: return "Softmax";
    case OpType::kQuantizeInt8: return "QuantizeInt8";
    case OpType::kDequantizeInt8: return "DequantizeInt8";
    case OpType::kConv2DInt8: return "Conv2DInt8";
    case OpType::kLceQuantize: return "LceQuantize";
    case OpType::kLceDequantize: return "LceDequantize";
    case OpType::kLceBConv2d: return "LceBConv2d";
    case OpType::kLceBMaxPool2d: return "LceBMaxPool2d";
    case OpType::kLceBFullyConnected: return "LceBFullyConnected";
  }
  return "unknown";
}

int Graph::NewValue(std::string name, DataType dtype, Shape shape) {
  auto v = std::make_unique<Value>();
  v->id = static_cast<int>(values_.size());
  v->name = std::move(name);
  v->dtype = dtype;
  v->shape = shape;
  values_.push_back(std::move(v));
  return values_.back()->id;
}

int Graph::AddInput(std::string name, DataType dtype, Shape shape) {
  const int id = NewValue(std::move(name), dtype, shape);
  input_ids_.push_back(id);
  return id;
}

int Graph::AddConstant(std::string name, Tensor data) {
  const int id = NewValue(std::move(name), data.dtype(), data.shape());
  values_[id]->is_constant = true;
  values_[id]->constant_data = std::move(data);
  return id;
}

int ExpectedArity(OpType t) {
  switch (t) {
    case OpType::kConv2D:
    case OpType::kDepthwiseConv2D:
    case OpType::kConv2DInt8:
    case OpType::kLceBConv2d:
    case OpType::kFullyConnected:
    case OpType::kLceBFullyConnected:
    case OpType::kAdd:
    case OpType::kMulChannel:
      return 2;
    case OpType::kConcat:
      return -1;
    default:
      return 1;
  }
}

bool IsBinaryOp(OpType t) {
  return t == OpType::kLceQuantize || t == OpType::kLceDequantize ||
         t == OpType::kLceBConv2d || t == OpType::kLceBMaxPool2d ||
         t == OpType::kLceBFullyConnected;
}

namespace {

// One bound on every convolution, pooling and fully connected extent,
// stride and filter. The output-size arithmetic of Conv2DGeometry and
// Pool2DGeometry works in `int`, so an untrusted value near INT_MAX would
// overflow it; anything beyond this bound is far outside what any model
// uses. It matches the bound the deserializer places on tensor dimensions.
constexpr std::int64_t kMaxGeometryDim = std::int64_t{1} << 24;

bool AllInRange(std::initializer_list<std::int64_t> dims) {
  return std::all_of(dims.begin(), dims.end(), [](std::int64_t d) {
    return d >= 1 && d <= kMaxGeometryDim;
  });
}

// Whether operand `i` of a `type` node may hold `dtype`. The int8 and
// bitpacked ops are listed; every other operand is float32.
bool OperandDTypeOk(OpType type, std::size_t i, DataType dtype) {
  switch (type) {
    case OpType::kConv2DInt8:
    case OpType::kDequantizeInt8:
      return dtype == DataType::kInt8;
    case OpType::kLceDequantize:
    case OpType::kLceBMaxPool2d:
      return dtype == DataType::kBitpacked;
    case OpType::kLceBConv2d:
    case OpType::kLceBFullyConnected:
      // Bitpacked activations; the weights may also still be float32.
      return dtype == DataType::kBitpacked ||
             (i == 1 && dtype == DataType::kFloat32);
    default:
      return dtype == DataType::kFloat32;
  }
}

// The output dtype of a `type` node; every op not listed outputs float32.
DataType OutputDType(OpType type, const OpAttrs& attrs) {
  switch (type) {
    case OpType::kQuantizeInt8:
    case OpType::kConv2DInt8:
      return DataType::kInt8;
    case OpType::kLceQuantize:
    case OpType::kLceBMaxPool2d:
      return DataType::kBitpacked;
    case OpType::kLceBConv2d:
      return attrs.bconv_output == BConvOutputType::kBitpacked
                 ? DataType::kBitpacked
                 : DataType::kFloat32;
    default:
      return DataType::kFloat32;
  }
}

Status RankError(const Value& v, const char* want) {
  return Status::InvalidArgument("operand '" + v.name + "' must have rank " +
                                 want + ", got " +
                                 std::to_string(v.shape.rank()));
}

// Derives a convolution's geometry from x [N, H, W, C] and its weights
// (OHWI, or [fh, fw, C] for depthwise); strides and padding come from `g`.
Status ResolveConv(const Value& x, const Value& w, bool depthwise,
                   Conv2DGeometry* g) {
  if (x.shape.rank() != 4) return RankError(x, "4");
  if (w.shape.rank() != (depthwise ? 3 : 4)) {
    return RankError(w, depthwise ? "3" : "4");
  }
  const Shape& xs = x.shape;
  const Shape& ws = w.shape;
  const int f = depthwise ? 0 : 1;  // w's filter-height axis
  const std::int64_t out_c = depthwise ? xs.dim(3) : ws.dim(0);
  if (ws.dim(f + 2) != xs.dim(3)) {
    return Status::InvalidArgument("conv weight/input channel mismatch");
  }
  if (!AllInRange({xs.dim(0), xs.dim(1), xs.dim(2), xs.dim(3), out_c,
                   ws.dim(f), ws.dim(f + 1), g->stride_h, g->stride_w})) {
    return Status::InvalidArgument("conv geometry out of supported range");
  }
  g->batch = static_cast<int>(xs.dim(0));
  g->in_h = static_cast<int>(xs.dim(1));
  g->in_w = static_cast<int>(xs.dim(2));
  g->in_c = static_cast<int>(xs.dim(3));
  g->out_c = static_cast<int>(out_c);
  g->filter_h = static_cast<int>(ws.dim(f));
  g->filter_w = static_cast<int>(ws.dim(f + 1));
  if (g->out_h() < 1 || g->out_w() < 1) {
    return Status::InvalidArgument(
        "conv output would be empty (filter larger than input?)");
  }
  return Status::Ok();
}

// Derives a pooling window's geometry from x [N, H, W, C]; the filter,
// strides and padding come from `g`.
Status ResolvePool(const Value& x, Pool2DGeometry* g) {
  const Shape& xs = x.shape;
  if (xs.rank() != 4) return RankError(x, "4");
  if (!AllInRange({xs.dim(0), xs.dim(1), xs.dim(2), xs.dim(3), g->filter_h,
                   g->filter_w, g->stride_h, g->stride_w})) {
    return Status::InvalidArgument("pool geometry out of supported range");
  }
  g->batch = static_cast<int>(xs.dim(0));
  g->in_h = static_cast<int>(xs.dim(1));
  g->in_w = static_cast<int>(xs.dim(2));
  g->channels = static_cast<int>(xs.dim(3));
  if (g->out_h() < 1 || g->out_w() < 1) {
    return Status::InvalidArgument("pool output would be empty");
  }
  return Status::Ok();
}

// Derives a fully connected layer's features from x [N, in] and its
// weights [out, in]. N is bounded too: the layer runs as a 1x1 convolution
// whose geometry holds it.
Status ResolveFc(const Value& x, const Value& w, OpAttrs* attrs) {
  if (x.shape.rank() != 2) return RankError(x, "2");
  if (w.shape.rank() != 2) return RankError(w, "2");
  if (x.shape.dim(1) != w.shape.dim(1)) {
    return Status::InvalidArgument("fc input feature mismatch");
  }
  if (!AllInRange({x.shape.dim(0), w.shape.dim(0), w.shape.dim(1)})) {
    return Status::InvalidArgument(
        "fc batch or features out of supported range");
  }
  attrs->fc_out_features = static_cast<int>(w.shape.dim(0));
  attrs->fc_in_features = static_cast<int>(w.shape.dim(1));
  return Status::Ok();
}

}  // namespace

Status Graph::InferOutput(OpType type, const std::vector<const Value*>& in,
                          OpAttrs* attrs, DataType* dtype, Shape* shape) {
  // The operand count comes first: node records in a model file can claim
  // any count, and the cases below read in[0] (and in[1] for binary ops).
  const int arity = ExpectedArity(type);
  if (arity >= 0 ? static_cast<int>(in.size()) != arity : in.size() < 2) {
    return Status::InvalidArgument("wrong operand count (" +
                                   std::to_string(in.size()) + ")");
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!OperandDTypeOk(type, i, in[i]->dtype)) {
      return Status::InvalidArgument(
          "operand '" + in[i]->name + "' may not be " +
          std::string(DataTypeName(in[i]->dtype)));
    }
  }
  *dtype = OutputDType(type, *attrs);
  const Value& x = *in[0];
  const Shape& xs = x.shape;
  switch (type) {
    case OpType::kConv2D:
    case OpType::kDepthwiseConv2D:
    case OpType::kConv2DInt8:
    case OpType::kLceBConv2d: {
      const Conv2DGeometry& g = attrs->conv;
      LCE_RETURN_IF_ERROR(ResolveConv(
          x, *in[1], type == OpType::kDepthwiseConv2D, &attrs->conv));
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.out_c};
      return Status::Ok();
    }
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D:
    case OpType::kLceBMaxPool2d: {
      const Pool2DGeometry& g = attrs->pool;
      LCE_RETURN_IF_ERROR(ResolvePool(x, &attrs->pool));
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.channels};
      return Status::Ok();
    }
    case OpType::kFullyConnected:
    case OpType::kLceBFullyConnected:
      LCE_RETURN_IF_ERROR(ResolveFc(x, *in[1], attrs));
      *shape = Shape{xs.dim(0), attrs->fc_out_features};
      return Status::Ok();
    case OpType::kBatchNorm:
    case OpType::kPRelu:
    case OpType::kSoftmax:
    case OpType::kLceQuantize:
      // Per-channel and bitpacking ops work along the last axis.
      if (xs.rank() < 1) return RankError(x, ">= 1");
      *shape = xs;
      return Status::Ok();
    case OpType::kFakeSign:
    case OpType::kRelu:
    case OpType::kQuantizeInt8:
    case OpType::kDequantizeInt8:
    case OpType::kLceDequantize:
      *shape = xs;
      return Status::Ok();
    case OpType::kGlobalAvgPool:
      if (xs.rank() != 4) return RankError(x, "4");
      *shape = Shape{xs.dim(0), xs.dim(3)};
      return Status::Ok();
    case OpType::kAdd:
      if (xs != in[1]->shape) {
        return Status::InvalidArgument("add operand shapes must match");
      }
      *shape = xs;
      return Status::Ok();
    case OpType::kConcat: {
      std::int64_t channels = 0;
      for (const Value* v : in) {
        if (v->shape.rank() != 4) return RankError(*v, "4");
        if (v->shape.dim(0) != xs.dim(0) || v->shape.dim(1) != xs.dim(1) ||
            v->shape.dim(2) != xs.dim(2)) {
          return Status::InvalidArgument("concat spatial mismatch");
        }
        channels += v->shape.dim(3);
      }
      *shape = Shape{xs.dim(0), xs.dim(1), xs.dim(2), channels};
      return Status::Ok();
    }
    case OpType::kSlice:
      if (xs.rank() != 4) return RankError(x, "4");
      if (attrs->slice_begin < 0 || attrs->slice_count <= 0 ||
          std::int64_t{attrs->slice_begin} + attrs->slice_count > xs.dim(3)) {
        return Status::InvalidArgument("slice range out of bounds");
      }
      *shape = Shape{xs.dim(0), xs.dim(1), xs.dim(2), attrs->slice_count};
      return Status::Ok();
    case OpType::kMulChannel: {
      const Shape& gate = in[1]->shape;
      if (xs.rank() != 4) return RankError(x, "4");
      if (gate.rank() != 2) return RankError(*in[1], "2");
      if (gate.dim(0) != xs.dim(0) || gate.dim(1) != xs.dim(3)) {
        return Status::InvalidArgument("gate shape does not match input");
      }
      *shape = xs;
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("invalid op type");
}

int Graph::AddNode(OpType type, std::string name, std::vector<int> inputs,
                   OpAttrs attrs) {
  int out = -1;
  const Status s =
      TryAddNode(type, std::move(name), std::move(inputs), std::move(attrs),
                 &out);
  LCE_CHECK(s.ok());
  return out;
}

Status Graph::TryAddNode(OpType type, std::string name,
                         std::vector<int> inputs, OpAttrs attrs,
                         int* out_value) {
  std::vector<const Value*> in_vals;
  in_vals.reserve(inputs.size());
  for (int id : inputs) {
    if (id < 0 || id >= static_cast<int>(values_.size())) {
      return Status::InvalidArgument("node input id out of range");
    }
    in_vals.push_back(values_[id].get());
  }

  DataType dtype;
  Shape shape;
  const Status s = InferOutput(type, in_vals, &attrs, &dtype, &shape);
  if (!s.ok()) {
    return Status::InvalidArgument(std::string(OpTypeName(type)) + " node '" +
                                   name + "': " + s.message());
  }

  auto n = std::make_unique<Node>();
  n->id = static_cast<int>(nodes_.size());
  n->name = std::move(name);
  n->type = type;
  n->inputs = std::move(inputs);
  n->attrs = std::move(attrs);
  const int out = NewValue(n->name + ":out", dtype, shape);
  values_[out]->producer = n->id;
  n->outputs.push_back(out);
  for (int id : n->inputs) values_[id]->consumers.push_back(n->id);
  nodes_.push_back(std::move(n));
  *out_value = out;
  return Status::Ok();
}

std::vector<int> Graph::TopologicalOrder() const {
  // Kahn's algorithm over live nodes; ties broken by node id so the order is
  // deterministic and respects construction order where possible.
  std::vector<int> pending_inputs(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    if (!n->alive) continue;
    int deps = 0;
    for (int v : n->inputs) {
      const int p = values_[v]->producer;
      if (p >= 0 && nodes_[p]->alive) ++deps;
    }
    pending_inputs[n->id] = deps;
  }
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (const auto& n : nodes_) {
    if (n->alive && pending_inputs[n->id] == 0) ready.push(n->id);
  }
  std::vector<int> order;
  while (!ready.empty()) {
    const int id = ready.top();
    ready.pop();
    order.push_back(id);
    for (int out : nodes_[id]->outputs) {
      for (int c : values_[out]->consumers) {
        if (!nodes_[c]->alive) continue;
        if (--pending_inputs[c] == 0) ready.push(c);
      }
    }
  }
  return order;
}

int Graph::LiveNodeCount() const {
  int n = 0;
  for (const auto& node : nodes_) n += node->alive ? 1 : 0;
  return n;
}

int Graph::CountOps(OpType t) const {
  int n = 0;
  for (const auto& node : nodes_) n += (node->alive && node->type == t) ? 1 : 0;
  return n;
}

void Graph::ReplaceAllUses(int from_value, int to_value) {
  if (from_value == to_value) return;
  Value& from = *values_[from_value];
  for (int c : from.consumers) {
    Node& n = *nodes_[c];
    for (int& in : n.inputs) {
      if (in == from_value) {
        in = to_value;
        values_[to_value]->consumers.push_back(c);
      }
    }
  }
  from.consumers.clear();
  for (int& out : output_ids_) {
    if (out == from_value) out = to_value;
  }
}

void Graph::RemoveNode(int node_id) {
  Node& n = *nodes_[node_id];
  if (!n.alive) return;
  n.alive = false;
  for (int in : n.inputs) {
    auto& cons = values_[in]->consumers;
    cons.erase(std::remove(cons.begin(), cons.end(), node_id), cons.end());
  }
  for (int out : n.outputs) values_[out]->alive = false;
}

void Graph::ReplaceInput(int node_id, int old_v, int new_v) {
  Node& n = *nodes_[node_id];
  bool replaced = false;
  for (int& in : n.inputs) {
    if (in == old_v && !replaced) {
      in = new_v;
      replaced = true;
    }
  }
  LCE_CHECK(replaced);
  auto& cons = values_[old_v]->consumers;
  auto it = std::find(cons.begin(), cons.end(), node_id);
  if (it != cons.end()) cons.erase(it);
  values_[new_v]->consumers.push_back(node_id);
}

void Graph::SetValueType(int value_id, DataType dtype) {
  values_[value_id]->dtype = dtype;
}

std::size_t Graph::ConstantBytes() const {
  // Count only constants consumed by live nodes.
  std::size_t bytes = 0;
  for (const auto& v : values_) {
    if (!v->is_constant) continue;
    bool used = false;
    for (int c : v->consumers) {
      if (nodes_[c]->alive) {
        used = true;
        break;
      }
    }
    if (used) bytes += v->constant_data.byte_size();
  }
  return bytes;
}

}  // namespace lce
