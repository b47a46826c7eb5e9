#include "converter/passes.h"

#include <map>
#include <string>
#include <vector>

#include "core/bitpack.h"
#include "core/macros.h"

namespace lce {
namespace {

// True when the value is one of the graph's declared outputs.
bool IsGraphOutput(const Graph& g, int value_id) {
  for (int out : g.output_ids()) {
    if (out == value_id) return true;
  }
  return false;
}

// The single live consumer of a value, or -1 if it has zero or 2+ consumers.
int SingleConsumer(const Graph& g, int value_id) {
  int found = -1;
  for (int c : g.value(value_id).consumers) {
    if (!g.node(c).alive) continue;
    if (found >= 0 && found != c) return -1;
    found = c;
  }
  // A node can consume the same value twice (e.g. Add(x, x)); treat that as
  // a single consumer only if the pattern passes below tolerate it -- they
  // all re-check the consumer's op type, so this is safe.
  return found;
}

// Creates a bitpacked weights constant from float weights, packing the last
// (input-channel) dimension: OHWI conv weights become [O][fh][fw][words(I)]
// and [out][in] fully connected weights [out][words(in)], the converter's
// 32x binary weight compression.
int PackWeightsConstant(Graph& g, const Value& w_float) {
  const Shape& s = w_float.shape;
  const std::int64_t in = s.dim(s.rank() - 1);
  Tensor packed(DataType::kBitpacked, s);
  BitpackMatrix(w_float.constant_data.data<float>(), s.num_elements() / in,
                static_cast<int>(in), packed.data<TBitpacked>());
  return g.AddConstant(w_float.name + ".bitpacked", std::move(packed));
}

// The lowering both binarized-weight passes share. Each live `from` node
// with binarize_weights whose input is a live FakeSign and whose weights are
// a float constant of `weight_rank` becomes a `to` node with attrs
// `make_attrs(node)`, reading LceQuantize(sign input) -- one per FakeSign
// (bitpacking extracts exactly the sign bits, so quantize(x) ==
// bitpack(sign(x))) -- and the bitpacked weights. Any other candidate keeps
// its float op, and nothing is added for it. Returns the lowered count.
template <typename MakeAttrs>
int LowerBinarized(Graph& g, OpType from, int weight_rank, OpType to,
                   MakeAttrs make_attrs) {
  int lowered = 0;
  // FakeSign node id -> LceQuantize output value, so nodes sharing a
  // binarized input share one quantize op.
  std::map<int, int> quantize_cache;
  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& n = g.node(static_cast<int>(i));
    if (!n.alive || n.type != from || !n.attrs.binarize_weights) continue;
    const Value& x = g.value(n.inputs[0]);
    if (x.producer < 0) continue;
    const Node& sign = g.node(x.producer);
    if (!sign.alive || sign.type != OpType::kFakeSign) continue;
    const Value& w = g.value(n.inputs[1]);
    if (!w.is_constant || w.dtype != DataType::kFloat32 ||
        w.shape.rank() != weight_rank) {
      continue;
    }

    auto [q, inserted] = quantize_cache.try_emplace(sign.id, -1);
    if (inserted) {
      q->second = g.AddNode(OpType::kLceQuantize, sign.name + ".quantize",
                            {sign.inputs[0]}, OpAttrs{});
    }
    const int packed_w = PackWeightsConstant(g, w);
    const int out = g.AddNode(to, n.name + ".lce", {q->second, packed_w},
                              make_attrs(n));
    g.ReplaceAllUses(n.outputs[0], out);
    g.RemoveNode(n.id);
    ++lowered;
  }
  return lowered;
}

}  // namespace

int FuseBatchNormIntoFloatConv(Graph& g) {
  int fused = 0;
  const auto node_count = g.nodes().size();  // new nodes appended during loop
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& bn = g.node(static_cast<int>(i));
    if (!bn.alive || bn.type != OpType::kBatchNorm) continue;
    const Value& in = g.value(bn.inputs[0]);
    if (in.producer < 0) continue;
    Node& conv = g.node(in.producer);
    if (!conv.alive) continue;
    if (conv.type != OpType::kConv2D && conv.type != OpType::kDepthwiseConv2D) {
      continue;
    }
    if (conv.attrs.binarize_weights) continue;  // handled by the bconv pass
    if (conv.attrs.activation != Activation::kNone) continue;  // order matters
    if (SingleConsumer(g, in.id) != bn.id || IsGraphOutput(g, in.id)) continue;

    const Value& w = g.value(conv.inputs[1]);
    const auto& scale = bn.attrs.bn_scale;
    const auto& offset = bn.attrs.bn_offset;
    const int out_c = conv.attrs.conv.out_c;
    // Skip malformed candidates instead of asserting: passes may run on
    // graphs that originated from an untrusted model file.
    if (!w.is_constant || w.dtype != DataType::kFloat32 || out_c <= 0 ||
        static_cast<int>(scale.size()) != out_c ||
        static_cast<int>(offset.size()) != out_c ||
        (!conv.attrs.bias.empty() &&
         static_cast<int>(conv.attrs.bias.size()) != out_c)) {
      continue;
    }

    // New scaled weights constant.
    Tensor new_w(DataType::kFloat32, w.shape);
    const float* src = w.constant_data.data<float>();
    float* dst = new_w.data<float>();
    if (conv.type == OpType::kConv2D) {
      // OHWI: channel index is the outermost dimension.
      const std::int64_t per_filter = w.shape.num_elements() / out_c;
      for (int o = 0; o < out_c; ++o) {
        for (std::int64_t j = 0; j < per_filter; ++j) {
          dst[o * per_filter + j] = src[o * per_filter + j] * scale[o];
        }
      }
    } else {
      // Depthwise [fh, fw, C]: channel index is the innermost dimension.
      const std::int64_t positions = w.shape.num_elements() / out_c;
      for (std::int64_t p = 0; p < positions; ++p) {
        for (int c = 0; c < out_c; ++c) {
          dst[p * out_c + c] = src[p * out_c + c] * scale[c];
        }
      }
    }
    const int new_w_id = g.AddConstant(w.name + ".bn_folded", std::move(new_w));
    g.ReplaceInput(conv.id, conv.inputs[1], new_w_id);

    // New bias = old_bias * scale + offset.
    std::vector<float> new_bias(out_c);
    for (int o = 0; o < out_c; ++o) {
      const float old_b = conv.attrs.bias.empty() ? 0.0f : conv.attrs.bias[o];
      new_bias[o] = old_b * scale[o] + offset[o];
    }
    conv.attrs.bias = std::move(new_bias);

    g.ReplaceAllUses(bn.outputs[0], conv.outputs[0]);
    g.RemoveNode(bn.id);
    ++fused;
  }
  return fused;
}

int FuseActivationIntoFloatOps(Graph& g) {
  int fused = 0;
  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& relu = g.node(static_cast<int>(i));
    if (!relu.alive || relu.type != OpType::kRelu) continue;
    const Value& in = g.value(relu.inputs[0]);
    if (in.producer < 0) continue;
    Node& prod = g.node(in.producer);
    if (!prod.alive) continue;
    const bool fusable =
        (prod.type == OpType::kConv2D && !prod.attrs.binarize_weights) ||
        prod.type == OpType::kDepthwiseConv2D || prod.type == OpType::kAdd ||
        prod.type == OpType::kFullyConnected;
    if (!fusable || prod.attrs.activation != Activation::kNone) continue;
    if (SingleConsumer(g, in.id) != relu.id || IsGraphOutput(g, in.id)) continue;

    prod.attrs.activation = Activation::kRelu;
    g.ReplaceAllUses(relu.outputs[0], prod.outputs[0]);
    g.RemoveNode(relu.id);
    ++fused;
  }
  return fused;
}

int LowerBinarizedConvs(Graph& g) {
  return LowerBinarized(
      g, OpType::kConv2D, /*weight_rank=*/4, OpType::kLceBConv2d,
      [](const Node& conv) {
        OpAttrs attrs;
        attrs.conv.stride_h = conv.attrs.conv.stride_h;
        attrs.conv.stride_w = conv.attrs.conv.stride_w;
        attrs.conv.padding = conv.attrs.conv.padding;
        attrs.bconv_output = BConvOutputType::kFloat;
        attrs.pre_activation = conv.attrs.activation;  // usually kNone
        return attrs;
      });
}

int LowerBinarizedFullyConnected(Graph& g) {
  return LowerBinarized(g, OpType::kFullyConnected, /*weight_rank=*/2,
                        OpType::kLceBFullyConnected, [](const Node& fc) {
                          OpAttrs attrs;
                          attrs.pre_activation = fc.attrs.activation;
                          return attrs;
                        });
}

int FuseBConvOutputTransform(Graph& g) {
  int fused = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < g.nodes().size(); ++i) {
      Node& bc = g.node(static_cast<int>(i));
      const bool is_bconv = bc.alive && bc.type == OpType::kLceBConv2d;
      const bool is_bfc = bc.alive && bc.type == OpType::kLceBFullyConnected;
      if (!is_bconv && !is_bfc) continue;
      if (is_bconv && bc.attrs.bconv_output != BConvOutputType::kFloat) {
        continue;
      }
      const int out = bc.outputs[0];
      if (IsGraphOutput(g, out)) continue;
      const int consumer = SingleConsumer(g, out);
      if (consumer < 0) continue;
      Node& next = g.node(consumer);

      if (next.type == OpType::kRelu && bc.attrs.multiplier.empty() &&
          bc.attrs.bias.empty() &&
          bc.attrs.pre_activation == Activation::kNone) {
        bc.attrs.pre_activation = Activation::kRelu;
        g.ReplaceAllUses(next.outputs[0], out);
        g.RemoveNode(next.id);
        ++fused;
        changed = true;
        continue;
      }

      if (next.type == OpType::kBatchNorm) {
        const auto& scale = next.attrs.bn_scale;
        const auto& offset = next.attrs.bn_offset;
        const int out_c = is_bfc ? bc.attrs.fc_out_features
                                 : bc.attrs.conv.out_c;
        // Every vector indexed below must cover out_c entries; skip the
        // fusion (rather than read out of bounds) when they do not.
        if (out_c <= 0 || static_cast<int>(scale.size()) != out_c ||
            static_cast<int>(offset.size()) != out_c ||
            (!bc.attrs.multiplier.empty() &&
             static_cast<int>(bc.attrs.multiplier.size()) != out_c) ||
            (!bc.attrs.bias.empty() &&
             static_cast<int>(bc.attrs.bias.size()) != out_c)) {
          continue;
        }
        std::vector<float> mult(out_c), bias(out_c);
        for (int o = 0; o < out_c; ++o) {
          const float m = bc.attrs.multiplier.empty() ? 1.0f : bc.attrs.multiplier[o];
          const float b = bc.attrs.bias.empty() ? 0.0f : bc.attrs.bias[o];
          mult[o] = m * scale[o];
          bias[o] = b * scale[o] + offset[o];
        }
        bc.attrs.multiplier = std::move(mult);
        bc.attrs.bias = std::move(bias);
        g.ReplaceAllUses(next.outputs[0], out);
        g.RemoveNode(next.id);
        ++fused;
        changed = true;
        continue;
      }
    }
  }
  return fused;
}

int SwapMaxPoolSign(Graph& g) {
  int swapped = 0;
  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& mp = g.node(static_cast<int>(i));
    if (!mp.alive || mp.type != OpType::kMaxPool2D) continue;
    const int out = mp.outputs[0];
    if (IsGraphOutput(g, out)) continue;
    const int consumer = SingleConsumer(g, out);
    if (consumer < 0) continue;
    const Node& q = g.node(consumer);
    if (q.type != OpType::kLceQuantize) continue;

    OpAttrs q_attrs;
    const int q_out = g.AddNode(OpType::kLceQuantize, mp.name + ".pre_quantize",
                                {mp.inputs[0]}, q_attrs);
    OpAttrs bmp_attrs;
    bmp_attrs.pool.filter_h = mp.attrs.pool.filter_h;
    bmp_attrs.pool.filter_w = mp.attrs.pool.filter_w;
    bmp_attrs.pool.stride_h = mp.attrs.pool.stride_h;
    bmp_attrs.pool.stride_w = mp.attrs.pool.stride_w;
    bmp_attrs.pool.padding = mp.attrs.pool.padding;
    const int bmp_out = g.AddNode(OpType::kLceBMaxPool2d, mp.name + ".binary",
                                  {q_out}, bmp_attrs);

    g.ReplaceAllUses(q.outputs[0], bmp_out);
    g.RemoveNode(q.id);
    g.RemoveNode(mp.id);
    ++swapped;
  }
  return swapped;
}

int ElideQuantize(Graph& g) {
  int elided = 0;
  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    Node& bc = g.node(static_cast<int>(i));
    if (!bc.alive || bc.type != OpType::kLceBConv2d) continue;
    if (bc.attrs.bconv_output != BConvOutputType::kFloat) continue;
    const int out = bc.outputs[0];
    if (IsGraphOutput(g, out)) continue;
    const auto& consumers = g.value(out).consumers;
    if (consumers.empty()) continue;
    bool all_quantize = true;
    for (int c : consumers) {
      if (!g.node(c).alive || g.node(c).type != OpType::kLceQuantize) {
        all_quantize = false;
        break;
      }
    }
    if (!all_quantize) continue;

    // Switch the bconv to direct bitpacked output; the fused transform
    // becomes the precomputed-threshold comparison.
    bc.attrs.bconv_output = BConvOutputType::kBitpacked;
    g.SetValueType(out, DataType::kBitpacked);
    // Copy: RemoveNode mutates the consumer list we're iterating.
    const std::vector<int> qs(consumers.begin(), consumers.end());
    for (int c : qs) {
      Node& q = g.node(c);
      if (!q.alive) continue;
      g.ReplaceAllUses(q.outputs[0], out);
      g.RemoveNode(q.id);
    }
    ++elided;
  }
  return elided;
}

int CancelLceQuantizeDequantize(Graph& g) {
  int cancelled = 0;
  const auto node_count = g.nodes().size();
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& q = g.node(static_cast<int>(i));
    if (!q.alive || q.type != OpType::kLceQuantize) continue;
    const Value& in = g.value(q.inputs[0]);
    if (in.producer < 0) continue;
    const Node& dq = g.node(in.producer);
    if (!dq.alive || dq.type != OpType::kLceDequantize) continue;
    // quantize(dequantize(x)) == x for bitpacked x: dequantize emits exact
    // +/-1.0 floats whose sign bits reproduce the original words.
    g.ReplaceAllUses(q.outputs[0], dq.inputs[0]);
    g.RemoveNode(q.id);
    ++cancelled;
  }
  return cancelled;
}

int EliminateDeadNodes(Graph& g) {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < g.nodes().size(); ++i) {
      const Node& n = g.node(static_cast<int>(i));
      if (!n.alive) continue;
      bool used = false;
      for (int out : n.outputs) {
        if (IsGraphOutput(g, out)) used = true;
        for (int c : g.value(out).consumers) {
          if (g.node(c).alive) used = true;
        }
      }
      if (!used) {
        g.RemoveNode(n.id);
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

}  // namespace lce
