#include "graph/validator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/tensor.h"
#include "core/types.h"
#include "kernels/bconv2d.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

std::string Desc(const Node& n) {
  return std::string(OpTypeName(n.type)) + " node '" + n.name + "'";
}

Status Bad(const Node& n, const std::string& what) {
  return Status::InvalidArgument(Desc(n) + ": " + what);
}

bool PositiveFinite(float v) { return std::isfinite(v) && v > 0.0f; }

// Activation-side quantization parameters: kernels divide by the scale and
// add/subtract the zero point in int32 arithmetic, so both must be in sane
// ranges before a kernel ever sees them.
Status CheckQuant(const Node& n, const char* which, const QuantParams& q) {
  if (!PositiveFinite(q.scale)) {
    return Bad(n, std::string(which) + " quant scale must be finite and > 0");
  }
  if (q.zero_point < -128 || q.zero_point > 127) {
    return Bad(n, std::string(which) + " quant zero point out of int8 range");
  }
  return Status::Ok();
}

// Weight operands must be constants with backing storage: Compile hands the
// raw weight pointer to kernel constructors, so a non-constant (or
// storage-less) weight would dereference null before Invoke even runs.
Status CheckConstWeight(const Node& n, const Value& w) {
  if (!w.is_constant || !w.constant_data.allocated()) {
    return Bad(n, "weight operand '" + w.name + "' must be a constant");
  }
  return Status::Ok();
}

// Optional per-channel attribute vectors must be empty or exactly
// channel-sized; kernels index them with channel subscripts.
Status CheckPerChannel(const Node& n, const char* name, std::size_t got,
                       std::int64_t channels) {
  if (got == 0) return Status::Ok();
  if (static_cast<std::int64_t>(got) != channels) {
    return Bad(n, std::string(name) + " must be empty or have " +
                      std::to_string(channels) + " entries, got " +
                      std::to_string(got));
  }
  return Status::Ok();
}

// Every enum-valued attribute must hold a defined enumerator, whether or not
// this op reads it: the serializer stores the full attribute struct per node,
// so any field can carry bytes straight from the file.
Status CheckEnums(const Node& n) {
  const OpAttrs& a = n.attrs;
  if (!IsValidPadding(static_cast<std::uint8_t>(a.conv.padding)) ||
      !IsValidPadding(static_cast<std::uint8_t>(a.pool.padding))) {
    return Bad(n, "invalid padding");
  }
  if (!IsValidActivation(static_cast<std::uint8_t>(a.activation)) ||
      !IsValidActivation(static_cast<std::uint8_t>(a.pre_activation))) {
    return Bad(n, "invalid activation");
  }
  if (!IsValidGraphBConvOutputType(
          static_cast<std::uint8_t>(a.bconv_output))) {
    return Bad(n, "invalid bconv output type");
  }
  return Status::Ok();
}

// Re-runs the operand contract (Graph::InferOutput) on a copy of the node's
// attrs and requires the stored geometry and output value to equal what it
// derives, so kernels can trust attrs and output shapes at Run time even if
// a rewrite desynchronized them.
Status CheckContract(const Graph& g, const Node& n) {
  std::vector<const Value*> inputs;
  inputs.reserve(n.inputs.size());
  for (int id : n.inputs) inputs.push_back(&g.value(id));
  OpAttrs derived = n.attrs;
  DataType dtype;
  Shape shape;
  const Status s = Graph::InferOutput(n.type, inputs, &derived, &dtype, &shape);
  if (!s.ok()) return Bad(n, s.message());
  if (derived.conv != n.attrs.conv || derived.pool != n.attrs.pool ||
      derived.fc_in_features != n.attrs.fc_in_features ||
      derived.fc_out_features != n.attrs.fc_out_features) {
    return Bad(n, "stored geometry does not match operand shapes");
  }
  const Value& out = g.value(n.outputs[0]);
  if (out.dtype != dtype || out.shape != shape) {
    return Bad(n, "stored output " + std::string(DataTypeName(out.dtype)) +
                      out.shape.ToString() + " does not match inferred " +
                      std::string(DataTypeName(dtype)) + shape.ToString());
  }
  if (out.producer != n.id) return Bad(n, "output's producer link is broken");
  return Status::Ok();
}

// Bounds a convolution's im2col footprint (rows x depth elements), which no
// kernel materialises as a patch matrix. Up to a small constant factor it
// is the size of the indirection table the binary kernels build at Compile
// (rows x taps int32 entries), the only per-convolution table, which lives
// outside the planned arena, so the arena cap does not cover it. Float and
// int8 convolutions keep the same cap, although they build no table and
// their scratch is block-sized.
Status CheckIm2ColBytes(const Node& n, std::int64_t depth,
                        std::int64_t elem_bytes,
                        const ResourceLimits& limits) {
  const Conv2DGeometry& g = n.attrs.conv;
  std::int64_t rows = g.batch;
  std::int64_t bytes = 0;
  if (__builtin_mul_overflow(rows, g.out_h(), &rows) ||
      __builtin_mul_overflow(rows, g.out_w(), &rows) ||
      __builtin_mul_overflow(rows, depth, &bytes) ||
      __builtin_mul_overflow(bytes, elem_bytes, &bytes) ||
      static_cast<std::uint64_t>(bytes) > limits.max_im2col_bytes) {
    return Status::ResourceExhausted(
        Desc(n) + ": im2col scratch would exceed the resource limit");
  }
  return Status::Ok();
}

// Per-node resource checks.
Status ValidateNodeResources(const Node& n, const ResourceLimits& limits) {
  if (static_cast<std::int64_t>(n.inputs.size()) > limits.max_node_inputs) {
    return Status::ResourceExhausted(Desc(n) + ": too many operands");
  }
  switch (n.type) {
    case OpType::kConv2D:
      return CheckIm2ColBytes(
          n,
          static_cast<std::int64_t>(n.attrs.conv.filter_h) *
              n.attrs.conv.filter_w * n.attrs.conv.in_c,
          /*elem_bytes=*/4, limits);
    case OpType::kConv2DInt8:
      return CheckIm2ColBytes(
          n,
          static_cast<std::int64_t>(n.attrs.conv.filter_h) *
              n.attrs.conv.filter_w * n.attrs.conv.in_c,
          /*elem_bytes=*/1, limits);
    case OpType::kLceBConv2d:
      return CheckIm2ColBytes(
          n,
          static_cast<std::int64_t>(n.attrs.conv.filter_h) *
              n.attrs.conv.filter_w *
              BitpackedWords(n.attrs.conv.in_c),
          /*elem_bytes=*/static_cast<std::int64_t>(sizeof(TBitpacked)),
          limits);
    default:
      return Status::Ok();
  }
}

// One live node: its operand contract, plus the rules the contract cannot
// state -- enums, constant weights, per-channel attribute vectors,
// quantization parameters and the ops' padding restrictions. The node's
// operand and output ids must be in range for `g`.
Status ValidateNode(const Graph& g, const Node& n) {
  if (!IsValidOpType(static_cast<std::uint8_t>(n.type))) {
    return Status::InvalidArgument("node '" + n.name + "' has invalid op type");
  }
  if (n.outputs.size() != 1) {
    return Bad(n, "must have exactly one output");
  }
  LCE_RETURN_IF_ERROR(CheckEnums(n));
  LCE_RETURN_IF_ERROR(CheckContract(g, n));

  const OpAttrs& a = n.attrs;
  switch (n.type) {
    case OpType::kConv2D:
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, g.value(n.inputs[1])));
      return CheckPerChannel(n, "bias", a.bias.size(), a.conv.out_c);
    case OpType::kDepthwiseConv2D:
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, g.value(n.inputs[1])));
      if (a.conv.padding == Padding::kSameOne) {
        return Bad(n, "one-padding is not supported for depthwise conv");
      }
      return CheckPerChannel(n, "bias", a.bias.size(), a.conv.in_c);
    case OpType::kConv2DInt8:
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, g.value(n.inputs[1])));
      if (a.conv.padding == Padding::kSameOne) {
        return Bad(n, "one-padding is not supported for int8 conv");
      }
      LCE_RETURN_IF_ERROR(CheckQuant(n, "input", a.input_quant));
      LCE_RETURN_IF_ERROR(CheckQuant(n, "output", a.output_quant));
      if (!PositiveFinite(a.weight_quant.scale)) {
        return Bad(n, "weight quant scale must be finite and > 0");
      }
      if (a.weight_quant.zero_point != 0) {
        return Bad(n, "weight quantization must be symmetric (zero point 0)");
      }
      for (float s : a.weight_scales) {
        if (!PositiveFinite(s)) {
          return Bad(n, "weight scales must be finite and > 0");
        }
      }
      LCE_RETURN_IF_ERROR(CheckPerChannel(n, "weight_scales",
                                          a.weight_scales.size(),
                                          a.conv.out_c));
      return CheckPerChannel(n, "bias_int32", a.bias_int32.size(),
                             a.conv.out_c);
    case OpType::kLceBConv2d:
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, g.value(n.inputs[1])));
      LCE_RETURN_IF_ERROR(
          CheckPerChannel(n, "multiplier", a.multiplier.size(), a.conv.out_c));
      return CheckPerChannel(n, "bias", a.bias.size(), a.conv.out_c);
    case OpType::kFullyConnected:
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, g.value(n.inputs[1])));
      return CheckPerChannel(n, "bias", a.bias.size(), a.fc_out_features);
    case OpType::kLceBFullyConnected:
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, g.value(n.inputs[1])));
      LCE_RETURN_IF_ERROR(CheckPerChannel(n, "multiplier", a.multiplier.size(),
                                          a.fc_out_features));
      return CheckPerChannel(n, "bias", a.bias.size(), a.fc_out_features);
    case OpType::kBatchNorm: {
      // The contract guarantees a last (channel) axis.
      const Shape& x = g.value(n.inputs[0]).shape;
      const std::int64_t c = x.dim(x.rank() - 1);
      if (static_cast<std::int64_t>(a.bn_scale.size()) != c ||
          static_cast<std::int64_t>(a.bn_offset.size()) != c) {
        return Bad(n, "bn_scale/bn_offset must have one entry per channel");
      }
      return Status::Ok();
    }
    case OpType::kPRelu: {
      const Shape& x = g.value(n.inputs[0]).shape;
      if (static_cast<std::int64_t>(a.prelu_slope.size()) !=
          x.dim(x.rank() - 1)) {
        return Bad(n, "prelu_slope must have one entry per channel");
      }
      return Status::Ok();
    }
    case OpType::kQuantizeInt8:
      return CheckQuant(n, "output", a.output_quant);
    case OpType::kDequantizeInt8:
      return CheckQuant(n, "input", a.input_quant);
    default:
      return Status::Ok();
  }
}

Status ValidateGraphImpl(const Graph& g, const ResourceLimits& limits) {
  if (static_cast<std::int64_t>(g.nodes().size()) > limits.max_nodes) {
    return Status::ResourceExhausted("graph exceeds the node-count limit");
  }
  if (static_cast<std::int64_t>(g.values().size()) > limits.max_values) {
    return Status::ResourceExhausted("graph exceeds the value-count limit");
  }

  // Per-value legality and resource accounting.
  std::size_t constant_bytes = 0;
  for (const auto& v : g.values()) {
    if (!v->alive) continue;
    if (!IsValidDType(static_cast<std::uint8_t>(v->dtype))) {
      return Status::InvalidArgument("value '" + v->name +
                                     "' has invalid dtype");
    }
    for (int d = 0; d < v->shape.rank(); ++d) {
      if (v->shape.dim(d) < 1) {
        return Status::InvalidArgument("value '" + v->name +
                                       "' has a non-positive dimension");
      }
    }
    if (v->dtype == DataType::kBitpacked && v->shape.rank() < 1) {
      return Status::InvalidArgument(
          "value '" + v->name +
          "' is bitpacked but has no channel dimension to pack");
    }
    std::size_t bytes = 0;
    if (!Tensor::CheckedByteSize(v->dtype, v->shape, &bytes)) {
      return Status::InvalidArgument("value '" + v->name +
                                     "' size overflows");
    }
    if (bytes > limits.max_tensor_bytes) {
      return Status::ResourceExhausted("value '" + v->name +
                                       "' exceeds the tensor byte limit");
    }
    std::int64_t elements = 0;
    if (!v->shape.checked_num_elements(&elements) ||
        elements > limits.max_tensor_elements) {
      return Status::ResourceExhausted("value '" + v->name +
                                       "' exceeds the element limit");
    }
    if (v->is_constant) {
      if (!v->constant_data.allocated() ||
          v->constant_data.dtype() != v->dtype ||
          v->constant_data.shape() != v->shape) {
        return Status::InvalidArgument("constant '" + v->name +
                                       "' storage mismatch");
      }
      if (__builtin_add_overflow(constant_bytes, bytes, &constant_bytes) ||
          constant_bytes > limits.max_model_bytes) {
        return Status::ResourceExhausted(
            "total constant bytes exceed the model limit");
      }
    }
    // Alive-producer invariant: an alive value's producer must be alive too
    // (Compile relies on this when assigning lifetimes).
    if (v->producer >= 0) {
      if (v->producer >= static_cast<int>(g.nodes().size()) ||
          !g.node(v->producer).alive) {
        return Status::InvalidArgument("value '" + v->name +
                                       "' is produced by a removed node");
      }
    }
  }

  // Graph inputs must be live, non-constant values (an ExecutionContext
  // hands out writable arena views for them).
  for (int id : g.input_ids()) {
    if (id < 0 || id >= static_cast<int>(g.values().size()) ||
        !g.value(id).alive || g.value(id).is_constant) {
      return Status::InvalidArgument("invalid graph input");
    }
  }
  for (int id : g.output_ids()) {
    if (id < 0 || id >= static_cast<int>(g.values().size()) ||
        !g.value(id).alive) {
      return Status::InvalidArgument("invalid graph output");
    }
  }

  // Per-node semantics and resources.
  std::int64_t live_nodes = 0;
  for (const auto& n : g.nodes()) {
    if (!n->alive) continue;
    ++live_nodes;
    for (int id : n->inputs) {
      if (id < 0 || id >= static_cast<int>(g.values().size()) ||
          !g.value(id).alive) {
        return Status::InvalidArgument("node '" + n->name +
                                       "' has an invalid operand");
      }
    }
    for (int id : n->outputs) {
      if (id < 0 || id >= static_cast<int>(g.values().size())) {
        return Status::InvalidArgument("node '" + n->name +
                                       "' has an invalid output");
      }
    }
    LCE_RETURN_IF_ERROR(ValidateNode(g, *n));
    LCE_RETURN_IF_ERROR(ValidateNodeResources(*n, limits));
  }

  // Acyclicity: every live node must be reachable in a topological sweep.
  if (static_cast<std::int64_t>(g.TopologicalOrder().size()) != live_nodes) {
    return Status::InvalidArgument("graph contains a cycle");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateGraph(const Graph& g, const ResourceLimits& limits) {
  Status st = ValidateGraphImpl(g, limits);
  if (!st.ok()) {
    // Exposed alongside the robustness work: a rising reject count in a
    // deployment's metrics dump means someone is feeding it bad models.
    static telemetry::Metric* rejects =
        telemetry::MetricsRegistry::Global().Counter("validator.rejects");
    rejects->Add(1);
  }
  return st;
}

Status ValidateShapeBucketRequest(const Graph& g, InputSignature sig,
                                  const ResourceLimits& limits) {
  // The request itself: a zero/negative extent is nonsense, and anything
  // past the cap is refused before a single byte of the clone exists.
  if (sig.batch < 1) {
    return Status::InvalidArgument("specialization batch must be >= 1, got " +
                                   std::to_string(sig.batch));
  }
  const bool has_image =
      std::any_of(g.input_ids().begin(), g.input_ids().end(),
                  [&g](int vid) { return g.value(vid).shape.rank() == 4; });
  if (!has_image && (sig.h != 0 || sig.w != 0)) {
    return Status::InvalidArgument(
        "specialization " + sig.ToString() +
        " resizes a graph with no rank-4 [N, H, W, C] image input");
  }
  if (has_image) {
    for (const int extent : {sig.h, sig.w}) {
      if (extent < 1) {
        return Status::InvalidArgument(
            "shape bucket resolution must be >= 1, got " + sig.ToString());
      }
      if (static_cast<std::int64_t>(extent) > limits.max_input_hw) {
        return Status::ResourceExhausted(
            "shape bucket resolution " + sig.ToString() +
            " exceeds the max_input_hw limit (" +
            std::to_string(limits.max_input_hw) + ")");
      }
    }
  }
  // The graph side: a specialization replaces the leading dimension of
  // every graph input (and the H/W of its image inputs), which is only
  // meaningful for batch-1 inputs. Per-tensor element caps on the
  // specialized inputs are pre-checked here, overflow-checked so a hostile
  // extent cannot wrap the math; the full validator re-checks every
  // intermediate tensor when the specialization compiles.
  for (const int vid : g.input_ids()) {
    const Value& v = g.value(vid);
    if (v.shape.rank() < 1 || v.shape.dim(0) != 1) {
      return Status::InvalidArgument(
          "specializations require batch-1 graph inputs; input '" + v.name +
          "' has shape " + v.shape.ToString());
    }
    Shape specialized = v.shape;
    specialized.dim(0) = sig.batch;
    if (specialized.rank() == 4) {
      specialized.dim(1) = sig.h;
      specialized.dim(2) = sig.w;
    }
    std::int64_t elements = 0;
    if (!specialized.checked_num_elements(&elements) ||
        elements > limits.max_tensor_elements) {
      return Status::ResourceExhausted(
          "input '" + v.name + "' exceeds the per-tensor element limit at " +
          sig.ToString());
    }
  }
  return Status::Ok();
}

}  // namespace lce
