#include "graph/validator.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "core/tensor.h"
#include "core/types.h"
#include "kernels/bconv2d.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

// Spatial / filter / stride bound for convolution and pooling geometry.
// Keeps all downstream `int` arithmetic (output sizes, padding amounts,
// im2col indexing) far from overflow while being orders of magnitude above
// any real model. Matches the bound the deserializer places on tensor
// dimensions.
constexpr std::int64_t kMaxConvDim = std::int64_t{1} << 24;

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

Status CheckDType(const Node& n, const Value& v, DataType want) {
  if (v.dtype != want) {
    return Bad(n, "operand '" + v.name + "' must be " +
                      std::string(DataTypeName(want)) + ", got " +
                      std::string(DataTypeName(v.dtype)));
  }
  return Status::Ok();
}

Status CheckRank(const Node& n, const Value& v, int rank) {
  if (v.shape.rank() != rank) {
    return Bad(n, "operand '" + v.name + "' must have rank " +
                      std::to_string(rank) + ", got " +
                      std::to_string(v.shape.rank()));
  }
  return Status::Ok();
}

Status CheckMinRank(const Node& n, const Value& v, int rank) {
  if (v.shape.rank() < rank) {
    return Bad(n, "operand '" + v.name + "' must have rank >= " +
                      std::to_string(rank));
  }
  return Status::Ok();
}

// Weight operands must be constants with backing storage: Prepare hands the
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

// Re-derives convolution geometry from the operand shapes (the same rules
// graph construction uses) and cross-checks the stored attrs, so kernels can
// trust attrs.conv at Run time even if a rewrite desynchronized it.
Status CheckConvGeometry(const Node& n, const Value& x, const Value& w,
                         bool depthwise) {
  const Conv2DGeometry& g = n.attrs.conv;
  LCE_RETURN_IF_ERROR(CheckRank(n, x, 4));
  LCE_RETURN_IF_ERROR(CheckRank(n, w, depthwise ? 3 : 4));
  const std::int64_t in_c = x.shape.dim(3);
  const std::int64_t out_c = depthwise ? in_c : w.shape.dim(0);
  const std::int64_t fh = depthwise ? w.shape.dim(0) : w.shape.dim(1);
  const std::int64_t fw = depthwise ? w.shape.dim(1) : w.shape.dim(2);
  const std::int64_t w_in_c = depthwise ? w.shape.dim(2) : w.shape.dim(3);
  if (w_in_c != in_c) return Bad(n, "weight/input channel mismatch");
  if (g.batch != x.shape.dim(0) || g.in_h != x.shape.dim(1) ||
      g.in_w != x.shape.dim(2) || g.in_c != in_c || g.out_c != out_c ||
      g.filter_h != fh || g.filter_w != fw) {
    return Bad(n, "conv geometry does not match operand shapes");
  }
  if (g.in_h > kMaxConvDim || g.in_w > kMaxConvDim ||
      g.filter_h > kMaxConvDim || g.filter_w > kMaxConvDim ||
      g.stride_h < 1 || g.stride_w < 1 || g.stride_h > kMaxConvDim ||
      g.stride_w > kMaxConvDim) {
    return Bad(n, "conv geometry out of supported range");
  }
  // Safe to evaluate only after the range checks above.
  if (g.out_h() < 1 || g.out_w() < 1) {
    return Bad(n, "conv output would be empty");
  }
  return Status::Ok();
}

Status CheckPoolGeometry(const Node& n, const Value& x) {
  const Pool2DGeometry& g = n.attrs.pool;
  LCE_RETURN_IF_ERROR(CheckRank(n, x, 4));
  if (g.batch != x.shape.dim(0) || g.in_h != x.shape.dim(1) ||
      g.in_w != x.shape.dim(2) || g.channels != x.shape.dim(3)) {
    return Bad(n, "pool geometry does not match input shape");
  }
  if (g.filter_h < 1 || g.filter_w < 1 || g.stride_h < 1 || g.stride_w < 1 ||
      g.filter_h > kMaxConvDim || g.filter_w > kMaxConvDim ||
      g.stride_h > kMaxConvDim || g.stride_w > kMaxConvDim ||
      g.in_h > kMaxConvDim || g.in_w > kMaxConvDim) {
    return Bad(n, "pool geometry out of supported range");
  }
  if (g.out_h() < 1 || g.out_w() < 1) {
    return Bad(n, "pool output would be empty");
  }
  return Status::Ok();
}

Status CheckFcGeometry(const Node& n, const Value& x, const Value& w) {
  LCE_RETURN_IF_ERROR(CheckRank(n, x, 2));
  LCE_RETURN_IF_ERROR(CheckRank(n, w, 2));
  if (n.attrs.fc_out_features != w.shape.dim(0) ||
      n.attrs.fc_in_features != w.shape.dim(1)) {
    return Bad(n, "fc features do not match weight shape");
  }
  if (x.shape.dim(1) != n.attrs.fc_in_features) {
    return Bad(n, "fc input feature mismatch");
  }
  return Status::Ok();
}

// Exact operand count per op; -1 means variadic (kConcat, >= 2).
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

// Bounds a convolution's im2col patch-matrix footprint (rows x depth
// elements). That is the float kernel's Run-time patch scratch, and up to
// a small constant factor the indirection table the binary and int8 kernels
// build at Compile (rows x taps int32 entries). Both live outside the
// planned arena, so the arena cap does not cover them.
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

// Per-node resource checks (separate from semantics so ValidateNode stays
// limit-free for callers that only care about legality).
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

}  // namespace

Status ValidateNode(const Graph& g, const Node& n) {
  if (!IsValidOpType(static_cast<std::uint8_t>(n.type))) {
    return Status::InvalidArgument("node '" + n.name + "' has invalid op type");
  }
  const int arity = ExpectedArity(n.type);
  if (arity >= 0 ? static_cast<int>(n.inputs.size()) != arity
                 : n.inputs.size() < 2) {
    return Bad(n, "wrong operand count (" + std::to_string(n.inputs.size()) +
                      ")");
  }
  if (n.outputs.size() != 1) {
    return Bad(n, "must have exactly one output");
  }
  LCE_RETURN_IF_ERROR(CheckEnums(n));

  const OpAttrs& a = n.attrs;
  const Value& x = g.value(n.inputs[0]);
  switch (n.type) {
    case OpType::kConv2D: {
      const Value& w = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, w));
      LCE_RETURN_IF_ERROR(CheckDType(n, w, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckConvGeometry(n, x, w, /*depthwise=*/false));
      return CheckPerChannel(n, "bias", a.bias.size(), a.conv.out_c);
    }
    case OpType::kDepthwiseConv2D: {
      const Value& w = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, w));
      LCE_RETURN_IF_ERROR(CheckDType(n, w, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckConvGeometry(n, x, w, /*depthwise=*/true));
      if (a.conv.padding == Padding::kSameOne) {
        return Bad(n, "one-padding is not supported for depthwise conv");
      }
      return CheckPerChannel(n, "bias", a.bias.size(), a.conv.in_c);
    }
    case OpType::kConv2DInt8: {
      const Value& w = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kInt8));
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, w));
      LCE_RETURN_IF_ERROR(CheckDType(n, w, DataType::kInt8));
      LCE_RETURN_IF_ERROR(CheckConvGeometry(n, x, w, /*depthwise=*/false));
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
    }
    case OpType::kLceBConv2d: {
      const Value& w = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kBitpacked));
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, w));
      if (w.dtype != DataType::kFloat32 && w.dtype != DataType::kBitpacked) {
        return Bad(n, "weights must be float32 or bitpacked");
      }
      LCE_RETURN_IF_ERROR(CheckConvGeometry(n, x, w, /*depthwise=*/false));
      LCE_RETURN_IF_ERROR(
          CheckPerChannel(n, "multiplier", a.multiplier.size(), a.conv.out_c));
      return CheckPerChannel(n, "bias", a.bias.size(), a.conv.out_c);
    }
    case OpType::kFullyConnected: {
      const Value& w = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, w));
      LCE_RETURN_IF_ERROR(CheckDType(n, w, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckFcGeometry(n, x, w));
      return CheckPerChannel(n, "bias", a.bias.size(), a.fc_out_features);
    }
    case OpType::kLceBFullyConnected: {
      const Value& w = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kBitpacked));
      LCE_RETURN_IF_ERROR(CheckConstWeight(n, w));
      if (w.dtype != DataType::kFloat32 && w.dtype != DataType::kBitpacked) {
        return Bad(n, "weights must be float32 or bitpacked");
      }
      LCE_RETURN_IF_ERROR(CheckFcGeometry(n, x, w));
      LCE_RETURN_IF_ERROR(CheckPerChannel(n, "multiplier", a.multiplier.size(),
                                          a.fc_out_features));
      return CheckPerChannel(n, "bias", a.bias.size(), a.fc_out_features);
    }
    case OpType::kFakeSign:
    case OpType::kRelu:
      return CheckDType(n, x, DataType::kFloat32);
    case OpType::kBatchNorm: {
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckMinRank(n, x, 1));
      const std::int64_t c = x.shape.dim(x.shape.rank() - 1);
      if (static_cast<std::int64_t>(a.bn_scale.size()) != c ||
          static_cast<std::int64_t>(a.bn_offset.size()) != c) {
        return Bad(n, "bn_scale/bn_offset must have one entry per channel");
      }
      return Status::Ok();
    }
    case OpType::kPRelu: {
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckMinRank(n, x, 1));
      const std::int64_t c = x.shape.dim(x.shape.rank() - 1);
      if (static_cast<std::int64_t>(a.prelu_slope.size()) != c) {
        return Bad(n, "prelu_slope must have one entry per channel");
      }
      return Status::Ok();
    }
    case OpType::kSoftmax:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckMinRank(n, x, 1);
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckPoolGeometry(n, x);
    case OpType::kLceBMaxPool2d:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kBitpacked));
      return CheckPoolGeometry(n, x);
    case OpType::kGlobalAvgPool:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckRank(n, x, 4);
    case OpType::kAdd: {
      const Value& b = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      LCE_RETURN_IF_ERROR(CheckDType(n, b, DataType::kFloat32));
      if (x.shape != b.shape) return Bad(n, "operand shapes must match");
      return Status::Ok();
    }
    case OpType::kConcat:
      for (int id : n.inputs) {
        LCE_RETURN_IF_ERROR(CheckDType(n, g.value(id), DataType::kFloat32));
      }
      return Status::Ok();
    case OpType::kMulChannel: {
      const Value& gate = g.value(n.inputs[1]);
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckDType(n, gate, DataType::kFloat32);
    }
    case OpType::kSlice:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckRank(n, x, 4);
    case OpType::kQuantizeInt8:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckQuant(n, "output", a.output_quant);
    case OpType::kDequantizeInt8:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kInt8));
      return CheckQuant(n, "input", a.input_quant);
    case OpType::kLceQuantize:
      LCE_RETURN_IF_ERROR(CheckDType(n, x, DataType::kFloat32));
      return CheckMinRank(n, x, 1);
    case OpType::kLceDequantize:
      return CheckDType(n, x, DataType::kBitpacked);
  }
  return Status::InvalidArgument("node '" + n.name + "' has invalid op type");
}

namespace {

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
    // (Prepare relies on this when assigning lifetimes).
    if (v->producer >= 0) {
      if (v->producer >= static_cast<int>(g.nodes().size()) ||
          !g.node(v->producer).alive) {
        return Status::InvalidArgument("value '" + v->name +
                                       "' is produced by a removed node");
      }
    }
  }

  // Graph inputs must be live, non-constant values (the interpreter hands
  // out writable arena views for them).
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

  // Structural re-inference: stored output shapes/dtypes must match what the
  // ops produce, and producer back-links must hold.
  LCE_RETURN_IF_ERROR(g.Validate());

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

Status ValidateShapeBucketRequest(const Graph& g, int input_hw,
                                  const ResourceLimits& limits) {
  // The resolution itself: zero/negative is nonsense, and anything past
  // the cap is refused before a single byte of the clone exists. The
  // square is overflow-checked so a hostile resolution near INT_MAX cannot
  // wrap the per-tensor element math downstream (which is itself checked,
  // but this surface should reject with a shape-specific diagnostic).
  if (input_hw < 1) {
    return Status::InvalidArgument(
        "shape bucket resolution must be >= 1, got " +
        std::to_string(input_hw));
  }
  if (static_cast<std::int64_t>(input_hw) > limits.max_input_hw) {
    return Status::ResourceExhausted(
        "shape bucket resolution " + std::to_string(input_hw) +
        " exceeds the max_input_hw limit (" +
        std::to_string(limits.max_input_hw) + ")");
  }
  std::int64_t spatial = 0;
  if (__builtin_mul_overflow(static_cast<std::int64_t>(input_hw),
                             static_cast<std::int64_t>(input_hw), &spatial)) {
    return Status::InvalidArgument("shape bucket resolution overflows");
  }
  // The graph side: bucketing replaces the H/W of every graph input, which
  // is only meaningful for image-shaped batch-1 inputs. Per-tensor element
  // and byte caps on the resized inputs are pre-checked here; the full
  // validator re-checks every intermediate tensor when the variant graph
  // is compiled.
  for (const int vid : g.input_ids()) {
    const Value& v = g.value(vid);
    if (v.shape.rank() != 4 || v.shape.dim(0) != 1) {
      return Status::InvalidArgument(
          "shape buckets require rank-4 batch-1 [1, H, W, C] graph inputs; "
          "input '" + v.name + "' has rank " +
          std::to_string(v.shape.rank()));
    }
    const std::int64_t channels = v.shape.dim(3);
    std::int64_t elements = 0;
    if (__builtin_mul_overflow(spatial, channels, &elements) ||
        elements > limits.max_tensor_elements) {
      return Status::ResourceExhausted(
          "shape bucket input '" + v.name +
          "' exceeds the per-tensor element limit at resolution " +
          std::to_string(input_hw));
    }
  }
  return Status::Ok();
}

}  // namespace lce
