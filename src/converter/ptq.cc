#include "converter/ptq.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "converter/passes.h"
#include "core/macros.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "graph/validator.h"

namespace lce {
namespace {

struct ValueRange {
  float min = std::numeric_limits<float>::max();
  float max = std::numeric_limits<float>::lowest();
  void Update(const float* data, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      min = std::min(min, data[i]);
      max = std::max(max, data[i]);
    }
  }
  bool valid() const { return min <= max; }
};

// Runs calibration batches, recording ranges for every float value
// (including graph inputs).
Status Calibrate(const Graph& g, const PtqOptions& options,
                 std::map<int, ValueRange>* ranges) {
  std::shared_ptr<const CompiledModel> model;
  LCE_RETURN_IF_ERROR(CompiledModel::Compile(g, {}, &model));
  ExecutionOptions eopts;
  eopts.observer = [&](const Node& n, const Tensor& out) {
    if (out.dtype() != DataType::kFloat32) return;
    (*ranges)[n.outputs[0]].Update(out.data<float>(), out.num_elements());
  };
  ExecutionContext exec(model, std::move(eopts));
  Rng rng(options.calibration_seed);
  for (int run = 0; run < options.calibration_runs; ++run) {
    for (int i = 0; i < exec.num_inputs(); ++i) {
      Tensor in = exec.input(i);
      if (in.dtype() != DataType::kFloat32) continue;
      for (std::int64_t j = 0; j < in.num_elements(); ++j) {
        in.data<float>()[j] = rng.Uniform(-1.0f, 1.0f);
      }
      (*ranges)[g.input_ids()[i]].Update(in.data<float>(), in.num_elements());
    }
    exec.Invoke();
  }
  return Status::Ok();
}

int CancelDequantizeQuantizePairs(Graph& g) {
  int cancelled = 0;
  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& q = g.node(static_cast<int>(i));
    if (!q.alive || q.type != OpType::kQuantizeInt8) continue;
    const Value& in = g.value(q.inputs[0]);
    if (in.producer < 0) continue;
    const Node& dq = g.node(in.producer);
    if (!dq.alive || dq.type != OpType::kDequantizeInt8) continue;
    // Cancellation only preserves semantics if both sides use the same
    // quantization parameters.
    const QuantParams& a = dq.attrs.input_quant;
    const QuantParams& b = q.attrs.output_quant;
    if (a.scale != b.scale || a.zero_point != b.zero_point) continue;
    g.ReplaceAllUses(q.outputs[0], dq.inputs[0]);
    g.RemoveNode(q.id);
    ++cancelled;
  }
  return cancelled;
}

}  // namespace

Status QuantizeModelInt8(Graph& g, const PtqOptions& options,
                         PtqStats* stats) {
  PtqStats local;
  PtqStats& s = stats != nullptr ? *stats : local;

  // Fold BatchNorm into the convolutions and ReLU into their producers
  // first, so each conv calibrates and quantizes with both inside: the
  // BatchNorm lands in the int8 weights and bias, the ReLU becomes the
  // requant clamp, and no float glue separates two quantized convolutions.
  FuseBatchNormIntoFloatConv(g);
  FuseActivationIntoFloatOps(g);

  std::map<int, ValueRange> ranges;
  LCE_RETURN_IF_ERROR(Calibrate(g, options, &ranges));

  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    Node& conv = g.node(static_cast<int>(i));
    if (!conv.alive || conv.type != OpType::kConv2D) continue;
    if (conv.attrs.binarize_weights) continue;  // binarized path, not PTQ

    const int x_id = conv.inputs[0];
    const int out_id = conv.outputs[0];
    const auto in_it = ranges.find(x_id);
    const auto out_it = ranges.find(out_id);
    if (in_it == ranges.end() || !in_it->second.valid() ||
        out_it == ranges.end() || !out_it->second.valid()) {
      return Status::FailedPrecondition(
          "calibration did not cover conv " + conv.name);
    }
    const ValueRange in_range = in_it->second;
    const ValueRange out_range = out_it->second;

    // Quantization parameters: affine activations, symmetric weights.
    const QuantParams in_q = ChooseQuantParams(in_range.min, in_range.max);
    const QuantParams out_q = ChooseQuantParams(out_range.min, out_range.max);
    const Value& w = g.value(conv.inputs[1]);
    if (!w.is_constant || w.dtype != DataType::kFloat32) {
      return Status::InvalidArgument("conv " + conv.name +
                                     " has non-constant float weights; "
                                     "cannot post-training quantize");
    }
    const float* wf = w.constant_data.data<float>();
    const int out_c = conv.attrs.conv.out_c;
    const std::int64_t per_filter = w.constant_data.num_elements() / out_c;

    // Symmetric weight quantization: per output channel (TFLite's default)
    // or per tensor.
    QuantParams w_q;
    std::vector<float> weight_scales;
    if (options.per_channel_weights) {
      weight_scales.resize(out_c);
      for (int n = 0; n < out_c; ++n) {
        float bound = 0.0f;
        for (std::int64_t j = 0; j < per_filter; ++j) {
          bound = std::max(bound, std::abs(wf[n * per_filter + j]));
        }
        weight_scales[n] = bound > 0 ? bound / 127.0f : 1.0f;
      }
    } else {
      float w_min = 0.0f, w_max = 0.0f;
      for (std::int64_t j = 0; j < w.constant_data.num_elements(); ++j) {
        w_min = std::min(w_min, wf[j]);
        w_max = std::max(w_max, wf[j]);
      }
      w_q = ChooseQuantParams(w_min, w_max, /*symmetric=*/true);
    }

    // Quantized weights constant.
    Tensor wq(DataType::kInt8, w.shape);
    for (int n = 0; n < out_c; ++n) {
      const QuantParams q = options.per_channel_weights
                                ? QuantParams{weight_scales[n], 0}
                                : w_q;
      for (std::int64_t j = 0; j < per_filter; ++j) {
        wq.data<std::int8_t>()[n * per_filter + j] =
            QuantizeValue(wf[n * per_filter + j], q);
      }
    }
    const int wq_id = g.AddConstant(w.name + ".int8", std::move(wq));

    // Requantized bias at scale s_in * s_w[c].
    std::vector<std::int32_t> bias_i32;
    if (!conv.attrs.bias.empty()) {
      bias_i32.resize(conv.attrs.bias.size());
      for (std::size_t j = 0; j < conv.attrs.bias.size(); ++j) {
        const double sw = options.per_channel_weights ? weight_scales[j]
                                                      : w_q.scale;
        bias_i32[j] = static_cast<std::int32_t>(
            std::lround(conv.attrs.bias[j] / (in_q.scale * sw)));
      }
    }

    // QuantizeInt8 on the input.
    OpAttrs q_attrs;
    q_attrs.output_quant = in_q;
    const int x_q = g.AddNode(OpType::kQuantizeInt8, conv.name + ".quant",
                              {x_id}, q_attrs);

    // The quantized convolution (fused activation carried over).
    OpAttrs c_attrs;
    c_attrs.conv.stride_h = conv.attrs.conv.stride_h;
    c_attrs.conv.stride_w = conv.attrs.conv.stride_w;
    c_attrs.conv.padding = conv.attrs.conv.padding;
    c_attrs.activation = conv.attrs.activation;
    c_attrs.input_quant = in_q;
    c_attrs.weight_quant = w_q;
    c_attrs.weight_scales = std::move(weight_scales);
    c_attrs.output_quant = out_q;
    c_attrs.bias_int32 = std::move(bias_i32);
    const int y_q = g.AddNode(OpType::kConv2DInt8, conv.name + ".int8",
                              {x_q, wq_id}, c_attrs);

    // DequantizeInt8 back to float for the surrounding graph.
    OpAttrs dq_attrs;
    dq_attrs.input_quant = out_q;
    const int y = g.AddNode(OpType::kDequantizeInt8, conv.name + ".dequant",
                            {y_q}, dq_attrs);

    g.ReplaceAllUses(out_id, y);
    g.RemoveNode(conv.id);
    // The dequantize output stands in for the old conv output everywhere,
    // so downstream convolutions calibrate against the same range.
    ranges[y] = out_range;
    ++s.convs_quantized;
  }

  s.quantize_pairs_cancelled = CancelDequantizeQuantizePairs(g);
  // A cancelled pair leaves its dequantize without consumers.
  EliminateDeadNodes(g);
  return ValidateGraph(g, ResourceLimits::Unlimited());
}

}  // namespace lce
