#include "graph/ir.h"

#include <algorithm>
#include <queue>
#include <set>

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

namespace {

// Upper bound on strides and pool filters accepted from attrs. The output
// size arithmetic in Conv2DGeometry/Pool2DGeometry works in `int`, so an
// untrusted stride near INT_MAX would overflow it; anything beyond this
// bound is far outside what any model uses.
constexpr int kMaxStride = 1 << 24;

// Fills in the geometry fields that are derivable from the operand shapes
// (batch, input dims, filter dims, channel counts); the builder only needs
// to provide strides and padding.
Status ResolveAttrs(OpType type, OpAttrs& attrs,
                    const std::vector<const Value*>& inputs) {
  // Geometry sanity for conv/pool ops; prevents division by zero and
  // overflow when attrs come from an untrusted model file.
  switch (type) {
    case OpType::kConv2D:
    case OpType::kLceBConv2d:
    case OpType::kConv2DInt8:
    case OpType::kDepthwiseConv2D:
      if (attrs.conv.stride_h <= 0 || attrs.conv.stride_w <= 0 ||
          attrs.conv.stride_h > kMaxStride || attrs.conv.stride_w > kMaxStride) {
        return Status::InvalidArgument("conv stride out of range");
      }
      break;
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D:
    case OpType::kLceBMaxPool2d:
      if (attrs.pool.stride_h <= 0 || attrs.pool.stride_w <= 0 ||
          attrs.pool.filter_h <= 0 || attrs.pool.filter_w <= 0 ||
          attrs.pool.stride_h > kMaxStride || attrs.pool.stride_w > kMaxStride ||
          attrs.pool.filter_h > kMaxStride || attrs.pool.filter_w > kMaxStride) {
        return Status::InvalidArgument("pool geometry out of range");
      }
      break;
    default:
      break;
  }
  switch (type) {
    case OpType::kConv2D:
    case OpType::kConv2DInt8:
    case OpType::kLceBConv2d: {
      if (inputs.size() < 2) return Status::InvalidArgument("conv needs x, w");
      const Shape& x = inputs[0]->shape;
      const Shape& w = inputs[1]->shape;  // OHWI
      if (x.rank() != 4 || w.rank() != 4) {
        return Status::InvalidArgument("conv operands must be rank 4");
      }
      attrs.conv.batch = static_cast<int>(x.dim(0));
      attrs.conv.in_h = static_cast<int>(x.dim(1));
      attrs.conv.in_w = static_cast<int>(x.dim(2));
      attrs.conv.in_c = static_cast<int>(x.dim(3));
      attrs.conv.out_c = static_cast<int>(w.dim(0));
      attrs.conv.filter_h = static_cast<int>(w.dim(1));
      attrs.conv.filter_w = static_cast<int>(w.dim(2));
      if (w.dim(3) != x.dim(3)) {
        return Status::InvalidArgument("conv channel mismatch");
      }
      if (attrs.conv.out_h() < 1 || attrs.conv.out_w() < 1) {
        return Status::InvalidArgument(
            "conv output would be empty (filter larger than input?)");
      }
      return Status::Ok();
    }
    case OpType::kDepthwiseConv2D: {
      if (inputs.size() < 2) return Status::InvalidArgument("dwconv needs x, w");
      const Shape& x = inputs[0]->shape;
      const Shape& w = inputs[1]->shape;  // [fh, fw, c]
      if (x.rank() != 4 || w.rank() != 3) {
        return Status::InvalidArgument("dwconv operand ranks");
      }
      if (w.dim(2) != x.dim(3)) {
        return Status::InvalidArgument("dwconv channel mismatch");
      }
      attrs.conv.batch = static_cast<int>(x.dim(0));
      attrs.conv.in_h = static_cast<int>(x.dim(1));
      attrs.conv.in_w = static_cast<int>(x.dim(2));
      attrs.conv.in_c = static_cast<int>(x.dim(3));
      attrs.conv.out_c = attrs.conv.in_c;
      attrs.conv.filter_h = static_cast<int>(w.dim(0));
      attrs.conv.filter_w = static_cast<int>(w.dim(1));
      return Status::Ok();
    }
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D:
    case OpType::kLceBMaxPool2d: {
      if (inputs.empty()) return Status::InvalidArgument("pool needs input");
      const Shape& x = inputs[0]->shape;
      if (x.rank() != 4) return Status::InvalidArgument("pool rank");
      attrs.pool.batch = static_cast<int>(x.dim(0));
      attrs.pool.in_h = static_cast<int>(x.dim(1));
      attrs.pool.in_w = static_cast<int>(x.dim(2));
      attrs.pool.channels = static_cast<int>(x.dim(3));
      if (attrs.pool.out_h() < 1 || attrs.pool.out_w() < 1) {
        return Status::InvalidArgument("pool output would be empty");
      }
      return Status::Ok();
    }
    case OpType::kFullyConnected:
    case OpType::kLceBFullyConnected: {
      if (inputs.size() < 2) return Status::InvalidArgument("fc needs x, w");
      if (inputs[0]->shape.rank() != 2 || inputs[1]->shape.rank() != 2) {
        return Status::InvalidArgument("fc operands must be rank 2");
      }
      attrs.fc_out_features = static_cast<int>(inputs[1]->shape.dim(0));
      attrs.fc_in_features = static_cast<int>(inputs[1]->shape.dim(1));
      if (inputs[0]->shape.dim(1) != attrs.fc_in_features) {
        return Status::InvalidArgument("fc feature mismatch");
      }
      return Status::Ok();
    }
    default:
      return Status::Ok();
  }
}

}  // namespace

Status Graph::InferOutput(OpType type, const OpAttrs& attrs,
                          const std::vector<const Value*>& inputs,
                          DataType* dtype, Shape* shape) {
  // Arity must be checked before any case dereferences inputs[0]/inputs[1]:
  // node records in a model file can claim any operand count.
  const int arity = ExpectedArity(type);
  if (arity >= 0 ? static_cast<int>(inputs.size()) != arity
                 : inputs.size() < 2) {
    return Status::InvalidArgument("wrong operand count for " +
                                   std::string(OpTypeName(type)));
  }
  switch (type) {
    case OpType::kConv2D: {
      const Conv2DGeometry& g = attrs.conv;
      *dtype = DataType::kFloat32;
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.out_c};
      return Status::Ok();
    }
    case OpType::kLceBConv2d: {
      const Conv2DGeometry& g = attrs.conv;
      if (inputs[0]->dtype != DataType::kBitpacked) {
        return Status::InvalidArgument("LceBConv2d input must be bitpacked");
      }
      *dtype = attrs.bconv_output == BConvOutputType::kBitpacked
                   ? DataType::kBitpacked
                   : DataType::kFloat32;
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.out_c};
      return Status::Ok();
    }
    case OpType::kDepthwiseConv2D: {
      const Conv2DGeometry& g = attrs.conv;
      *dtype = DataType::kFloat32;
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.in_c};
      return Status::Ok();
    }
    case OpType::kFakeSign:
    case OpType::kBatchNorm:
    case OpType::kRelu:
    case OpType::kPRelu:
    case OpType::kSoftmax:
      *dtype = DataType::kFloat32;
      *shape = inputs[0]->shape;
      return Status::Ok();
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D: {
      const Pool2DGeometry& g = attrs.pool;
      *dtype = DataType::kFloat32;
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.channels};
      return Status::Ok();
    }
    case OpType::kLceBMaxPool2d: {
      const Pool2DGeometry& g = attrs.pool;
      if (inputs[0]->dtype != DataType::kBitpacked) {
        return Status::InvalidArgument("LceBMaxPool2d input must be bitpacked");
      }
      *dtype = DataType::kBitpacked;
      *shape = Shape{g.batch, g.out_h(), g.out_w(), g.channels};
      return Status::Ok();
    }
    case OpType::kGlobalAvgPool: {
      const Shape& x = inputs[0]->shape;
      if (x.rank() != 4) return Status::InvalidArgument("gap rank");
      *dtype = DataType::kFloat32;
      *shape = Shape{x.dim(0), x.dim(3)};
      return Status::Ok();
    }
    case OpType::kAdd: {
      if (inputs.size() != 2 || inputs[0]->shape != inputs[1]->shape) {
        return Status::InvalidArgument("add operands must match");
      }
      *dtype = DataType::kFloat32;
      *shape = inputs[0]->shape;
      return Status::Ok();
    }
    case OpType::kConcat: {
      if (inputs.size() < 2) return Status::InvalidArgument("concat arity");
      const Shape& first = inputs[0]->shape;
      if (first.rank() != 4) return Status::InvalidArgument("concat rank");
      std::int64_t channels = 0;
      for (const Value* v : inputs) {
        if (v->shape.rank() != 4 || v->shape.dim(0) != first.dim(0) ||
            v->shape.dim(1) != first.dim(1) || v->shape.dim(2) != first.dim(2)) {
          return Status::InvalidArgument("concat spatial mismatch");
        }
        channels += v->shape.dim(3);
      }
      *dtype = DataType::kFloat32;
      *shape = Shape{first.dim(0), first.dim(1), first.dim(2), channels};
      return Status::Ok();
    }
    case OpType::kSlice: {
      const Shape& x = inputs[0]->shape;
      if (x.rank() != 4) return Status::InvalidArgument("slice rank");
      if (attrs.slice_begin < 0 || attrs.slice_count <= 0 ||
          attrs.slice_begin + attrs.slice_count > x.dim(3)) {
        return Status::InvalidArgument("slice range out of bounds");
      }
      *dtype = DataType::kFloat32;
      *shape = Shape{x.dim(0), x.dim(1), x.dim(2), attrs.slice_count};
      return Status::Ok();
    }
    case OpType::kMulChannel: {
      if (inputs.size() != 2) return Status::InvalidArgument("mulch arity");
      const Shape& x = inputs[0]->shape;
      const Shape& gate = inputs[1]->shape;
      if (x.rank() != 4 || gate.rank() != 2 || gate.dim(0) != x.dim(0) ||
          gate.dim(1) != x.dim(3)) {
        return Status::InvalidArgument("mulch shape mismatch");
      }
      *dtype = DataType::kFloat32;
      *shape = x;
      return Status::Ok();
    }
    case OpType::kFullyConnected: {
      *dtype = DataType::kFloat32;
      *shape = Shape{inputs[0]->shape.dim(0), attrs.fc_out_features};
      return Status::Ok();
    }
    case OpType::kLceBFullyConnected: {
      if (inputs[0]->dtype != DataType::kBitpacked) {
        return Status::InvalidArgument(
            "LceBFullyConnected input must be bitpacked");
      }
      *dtype = DataType::kFloat32;
      *shape = Shape{inputs[0]->shape.dim(0), attrs.fc_out_features};
      return Status::Ok();
    }
    case OpType::kQuantizeInt8:
      if (inputs[0]->dtype != DataType::kFloat32) {
        return Status::InvalidArgument("QuantizeInt8 input must be float");
      }
      *dtype = DataType::kInt8;
      *shape = inputs[0]->shape;
      return Status::Ok();
    case OpType::kDequantizeInt8:
      if (inputs[0]->dtype != DataType::kInt8) {
        return Status::InvalidArgument("DequantizeInt8 input must be int8");
      }
      *dtype = DataType::kFloat32;
      *shape = inputs[0]->shape;
      return Status::Ok();
    case OpType::kConv2DInt8: {
      const Conv2DGeometry& cg = attrs.conv;
      if (inputs[0]->dtype != DataType::kInt8 ||
          inputs[1]->dtype != DataType::kInt8) {
        return Status::InvalidArgument("Conv2DInt8 operands must be int8");
      }
      *dtype = DataType::kInt8;
      *shape = Shape{cg.batch, cg.out_h(), cg.out_w(), cg.out_c};
      return Status::Ok();
    }
    case OpType::kLceQuantize:
      *dtype = DataType::kBitpacked;
      *shape = inputs[0]->shape;
      return Status::Ok();
    case OpType::kLceDequantize:
      *dtype = DataType::kFloat32;
      *shape = inputs[0]->shape;
      return Status::Ok();
  }
  return Status::Internal("unhandled op type");
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

  LCE_RETURN_IF_ERROR(ResolveAttrs(type, attrs, in_vals));

  DataType dtype;
  Shape shape;
  LCE_RETURN_IF_ERROR(InferOutput(type, attrs, in_vals, &dtype, &shape));

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

Status Graph::Validate() const {
  for (const auto& n : nodes_) {
    if (!n->alive) continue;
    std::vector<const Value*> in_vals;
    for (int id : n->inputs) {
      const Value& v = *values_[id];
      if (!v.alive) {
        return Status::Internal("node " + n->name + " uses dead value " +
                                v.name);
      }
      in_vals.push_back(&v);
    }
    DataType dtype;
    Shape shape;
    LCE_RETURN_IF_ERROR(Graph::InferOutput(n->type, n->attrs, in_vals, &dtype,
                                           &shape));
    const Value& out = *values_[n->outputs[0]];
    if (out.dtype != dtype || out.shape != shape) {
      return Status::Internal("node " + n->name +
                              " output mismatch: stored " + out.shape.ToString() +
                              " inferred " + shape.ToString());
    }
    if (out.producer != n->id) {
      return Status::Internal("producer back-link broken at " + n->name);
    }
  }
  // All graph outputs must be alive.
  for (int out : output_ids_) {
    if (!values_[out]->alive) return Status::Internal("dead graph output");
  }
  return Status::Ok();
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
