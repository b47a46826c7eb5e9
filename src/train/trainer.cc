#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/bitpack.h"
#include "core/macros.h"
#include "graph/compiled_model.h"
#include "graph/shape_variant.h"

namespace lce::train {
namespace {

// Parameter-map keys: weight constants use their value id; attr vectors use
// negative keys derived from the owning node.
int BiasKey(int node_id) { return -(node_id * 4 + 1); }
int BnScaleKey(int node_id) { return -(node_id * 4 + 2); }
int BnOffsetKey(int node_id) { return -(node_id * 4 + 3); }

}  // namespace

Trainer::Trainer(Graph& g, TrainOptions options)
    : graph_(g), options_(options) {
  order_ = g.TopologicalOrder();
  if (g.input_ids().size() != 1 || g.output_ids().size() != 1) {
    status_ = Status::InvalidArgument("trainer needs one input, one output");
    return;
  }
  const Value& out = g.value(g.output_ids()[0]);
  if (out.producer < 0 || g.node(out.producer).type != OpType::kSoftmax) {
    status_ = Status::InvalidArgument(
        "trainer expects a Softmax classifier head");
    return;
  }

  for (int id : order_) {
    Node& n = graph_.node(id);
    switch (n.type) {
      case OpType::kConv2D:
      case OpType::kFullyConnected: {
        if (n.attrs.activation != Activation::kNone) {
          status_ = Status::Unimplemented(
              "trainer requires explicit activation nodes (op " + n.name + ")");
          return;
        }
        // Latent weights.
        Value& w = graph_.value(n.inputs[1]);
        LCE_CHECK(w.is_constant);
        Param p;
        p.data = w.constant_data.data<float>();
        p.size = w.constant_data.num_elements();
        p.binary = n.attrs.binarize_weights;
        params_[w.id] = std::move(p);
        if (!n.attrs.bias.empty()) {
          Param pb;
          pb.data = n.attrs.bias.data();
          pb.size = static_cast<std::int64_t>(n.attrs.bias.size());
          params_[BiasKey(id)] = std::move(pb);
        }
        break;
      }
      case OpType::kBatchNorm: {
        Param ps;
        ps.data = n.attrs.bn_scale.data();
        ps.size = static_cast<std::int64_t>(n.attrs.bn_scale.size());
        params_[BnScaleKey(id)] = std::move(ps);
        Param po;
        po.data = n.attrs.bn_offset.data();
        po.size = static_cast<std::int64_t>(n.attrs.bn_offset.size());
        params_[BnOffsetKey(id)] = std::move(po);
        break;
      }
      case OpType::kAdd:
        if (n.attrs.activation != Activation::kNone) {
          status_ = Status::Unimplemented("fused activation on Add");
          return;
        }
        break;
      case OpType::kDepthwiseConv2D: {
        if (n.attrs.activation != Activation::kNone) {
          status_ = Status::Unimplemented("fused activation on dwconv");
          return;
        }
        Value& w = graph_.value(n.inputs[1]);
        LCE_CHECK(w.is_constant);
        Param p;
        p.data = w.constant_data.data<float>();
        p.size = w.constant_data.num_elements();
        params_[w.id] = std::move(p);
        break;
      }
      case OpType::kPRelu: {
        Param p;
        p.data = n.attrs.prelu_slope.data();
        p.size = static_cast<std::int64_t>(n.attrs.prelu_slope.size());
        params_[BnScaleKey(id)] = std::move(p);  // slot reuse: one vec/node
        break;
      }
      case OpType::kFakeSign:
      case OpType::kRelu:
      case OpType::kMaxPool2D:
      case OpType::kAvgPool2D:
      case OpType::kGlobalAvgPool:
      case OpType::kSoftmax:
        break;
      default:
        status_ = Status::Unimplemented(
            "op not supported by the trainer: " +
            std::string(OpTypeName(n.type)));
        return;
    }
  }
  // The forward pass runs on the engine: a graph it rejects fails here
  // instead of aborting inside Step.
  std::shared_ptr<const CompiledModel> model;
  status_ = CompiledModel::Compile(graph_, {}, &model);
  if (!status_.ok()) return;
  for (auto& [key, p] : params_) {
    p.grad.assign(p.size, 0.0f);
    p.m.assign(p.size, 0.0f);
    p.v.assign(p.size, 0.0f);
  }
}

void Trainer::Forward(const std::vector<float>& x, int batch) {
  batch_ = batch;
  value_data_.clear();
  value_grad_.clear();

  const int input_id = graph_.input_ids()[0];
  Shape input_shape = graph_.value(input_id).shape;
  LCE_CHECK_EQ(static_cast<std::int64_t>(x.size()),
               input_shape.num_elements() * batch);
  value_data_[input_id] = x;

  // A batch-N clone of the current parameters: its constants share the
  // latent weight buffers ApplyUpdates writes, and each replayed node
  // copies its bias / BN / PReLU attr vectors, so Compile packs this
  // step's values.
  input_shape.dim(0) *= batch;
  std::unique_ptr<Graph> clone;
  std::vector<int> node_map;
  Status s = CloneGraphWithInputShapes(graph_, {input_shape}, &clone,
                                       &node_map);
  LCE_CHECK(s.ok() && "trainer graph does not replay at this batch");
  std::shared_ptr<const CompiledModel> model;
  s = CompiledModel::Compile(*clone, {}, &model);
  LCE_CHECK(s.ok() && "trainer graph clone failed to compile");

  // Backward needs every activation, but the arena reuses buffers, so the
  // observer copies each node's output out as it is produced.
  ExecutionOptions eopts;
  eopts.observer = [&](const Node& n, const Tensor& out) {
    const float* p = out.data<float>();
    const int vid = graph_.node(node_map[n.id]).outputs[0];
    value_data_[vid].assign(p, p + out.num_elements());
  };
  ExecutionContext exec(model, std::move(eopts));
  std::copy(x.begin(), x.end(), exec.input(0).data<float>());
  exec.Invoke();
}

float Trainer::LossAndGrad(const std::vector<int>& labels) {
  const int out_id = graph_.output_ids()[0];
  const Node& softmax = graph_.node(graph_.value(out_id).producer);
  const auto& probs = value_data_.at(out_id);
  const int c = static_cast<int>(
      graph_.value(out_id).shape.num_elements());

  // Cross-entropy; the combined softmax+CE gradient lands on the softmax
  // *input*: dL/dz = (p - onehot) / batch.
  float loss = 0.0f;
  auto& dz = value_grad_[softmax.inputs[0]];
  dz.assign(probs.size(), 0.0f);
  for (int b = 0; b < batch_; ++b) {
    const float p = std::max(
        probs[static_cast<std::int64_t>(b) * c + labels[b]], 1e-12f);
    loss += -std::log(p);
    for (int i = 0; i < c; ++i) {
      dz[static_cast<std::int64_t>(b) * c + i] =
          (probs[static_cast<std::int64_t>(b) * c + i] -
           (i == labels[b] ? 1.0f : 0.0f)) /
          batch_;
    }
  }
  return loss / batch_;
}

void Trainer::Backward() {
  const auto elems_of = [&](int vid) {
    return graph_.value(vid).shape.num_elements();
  };
  const auto grad_of = [&](int vid) -> std::vector<float>& {
    auto& g = value_grad_[vid];
    if (g.empty()) g.assign(elems_of(vid) * batch_, 0.0f);
    return g;
  };

  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const Node& n = graph_.node(*it);
    const int out_id = n.outputs[0];
    const auto gi = value_grad_.find(
        n.type == OpType::kSoftmax ? n.inputs[0] : out_id);
    if (n.type == OpType::kSoftmax) continue;  // handled by LossAndGrad
    if (gi == value_grad_.end()) continue;     // no gradient flows here
    const std::vector<float>& dy = gi->second;

    switch (n.type) {
      case OpType::kConv2D: {
        const auto& xin = value_data_.at(n.inputs[0]);
        const Value& wv = graph_.value(n.inputs[1]);
        const float* w = wv.constant_data.data<float>();
        // A binarized conv ran on the signs of its latent weights.
        std::vector<float> w_sign;
        if (n.attrs.binarize_weights) {
          w_sign.resize(wv.constant_data.num_elements());
          for (std::size_t i = 0; i < w_sign.size(); ++i) {
            w_sign[i] = SignValue(w[i]);
          }
          w = w_sign.data();
        }
        auto& dx = grad_of(n.inputs[0]);
        auto& dw = params_.at(wv.id).grad;
        float* db = n.attrs.bias.empty() ? nullptr
                                         : params_.at(BiasKey(n.id)).grad.data();
        const Conv2DGeometry& g = n.attrs.conv;
        const int oh = g.out_h(), ow = g.out_w();
        const int ph = g.pad_h_begin(), pw = g.pad_w_begin();
        const std::int64_t in_per = elems_of(n.inputs[0]);
        const std::int64_t out_per = elems_of(out_id);
        const float pad = g.padding == Padding::kSameOne ? 1.0f : 0.0f;
        for (int b = 0; b < batch_; ++b) {
          const float* xi = xin.data() + b * in_per;
          const float* dyo = dy.data() + b * out_per;
          float* dxi = dx.data() + b * in_per;
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              for (int oc = 0; oc < g.out_c; ++oc) {
                const float gy =
                    dyo[(static_cast<std::int64_t>(oy) * ow + ox) * g.out_c + oc];
                if (gy == 0.0f) continue;
                if (db != nullptr) db[oc] += gy;
                for (int ky = 0; ky < g.filter_h; ++ky) {
                  const int iy = oy * g.stride_h - ph + ky;
                  for (int kx = 0; kx < g.filter_w; ++kx) {
                    const int ix = ox * g.stride_w - pw + kx;
                    const std::int64_t wk =
                        ((static_cast<std::int64_t>(oc) * g.filter_h + ky) *
                             g.filter_w + kx) * g.in_c;
                    float* dwk = dw.data() + wk;
                    if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
                      for (int c = 0; c < g.in_c; ++c) dwk[c] += gy * pad;
                      continue;
                    }
                    const std::int64_t xk =
                        (static_cast<std::int64_t>(iy) * g.in_w + ix) * g.in_c;
                    const float* xt = xi + xk;
                    const float* wt = w + wk;
                    float* dxt = dxi + xk;
                    for (int c = 0; c < g.in_c; ++c) {
                      dwk[c] += gy * xt[c];
                      dxt[c] += gy * wt[c];
                    }
                  }
                }
              }
            }
          }
        }
        break;
      }
      case OpType::kFullyConnected: {
        const auto& xin = value_data_.at(n.inputs[0]);
        const Value& wv = graph_.value(n.inputs[1]);
        const float* w = wv.constant_data.data<float>();
        auto& dx = grad_of(n.inputs[0]);
        auto& dw = params_.at(wv.id).grad;
        float* db = n.attrs.bias.empty() ? nullptr
                                         : params_.at(BiasKey(n.id)).grad.data();
        const int fin = n.attrs.fc_in_features;
        const int fout = n.attrs.fc_out_features;
        for (int b = 0; b < batch_; ++b) {
          for (int o = 0; o < fout; ++o) {
            const float gy = dy[static_cast<std::int64_t>(b) * fout + o];
            if (gy == 0.0f) continue;
            if (db != nullptr) db[o] += gy;
            for (int i = 0; i < fin; ++i) {
              float weff = w[static_cast<std::int64_t>(o) * fin + i];
              if (n.attrs.binarize_weights) weff = SignValue(weff);
              dw[static_cast<std::int64_t>(o) * fin + i] +=
                  gy * xin[static_cast<std::int64_t>(b) * fin + i];
              dx[static_cast<std::int64_t>(b) * fin + i] += gy * weff;
            }
          }
        }
        break;
      }
      case OpType::kFakeSign: {
        // Straight-through estimator with the |x| <= 1 clip.
        const auto& xin = value_data_.at(n.inputs[0]);
        auto& dx = grad_of(n.inputs[0]);
        for (std::size_t i = 0; i < dy.size(); ++i) {
          if (std::abs(xin[i]) <= 1.0f) dx[i] += dy[i];
        }
        break;
      }
      case OpType::kBatchNorm: {
        const auto& xin = value_data_.at(n.inputs[0]);
        auto& dx = grad_of(n.inputs[0]);
        auto& dscale = params_.at(BnScaleKey(n.id)).grad;
        auto& doffset = params_.at(BnOffsetKey(n.id)).grad;
        const int c = static_cast<int>(n.attrs.bn_scale.size());
        for (std::size_t i = 0; i < dy.size(); ++i) {
          const int ch = static_cast<int>(i % c);
          dscale[ch] += dy[i] * xin[i];
          doffset[ch] += dy[i];
          dx[i] += dy[i] * n.attrs.bn_scale[ch];
        }
        break;
      }
      case OpType::kRelu: {
        const auto& xin = value_data_.at(n.inputs[0]);
        auto& dx = grad_of(n.inputs[0]);
        for (std::size_t i = 0; i < dy.size(); ++i) {
          if (xin[i] > 0.0f) dx[i] += dy[i];
        }
        break;
      }
      case OpType::kPRelu: {
        const auto& xin = value_data_.at(n.inputs[0]);
        auto& dx = grad_of(n.inputs[0]);
        auto& dslope = params_.at(BnScaleKey(n.id)).grad;
        const int c = static_cast<int>(n.attrs.prelu_slope.size());
        for (std::size_t i = 0; i < dy.size(); ++i) {
          const int ch = static_cast<int>(i % c);
          if (xin[i] > 0.0f) {
            dx[i] += dy[i];
          } else {
            dx[i] += dy[i] * n.attrs.prelu_slope[ch];
            dslope[ch] += dy[i] * xin[i];
          }
        }
        break;
      }
      case OpType::kDepthwiseConv2D: {
        const auto& xin = value_data_.at(n.inputs[0]);
        const Value& wv = graph_.value(n.inputs[1]);
        const float* w = wv.constant_data.data<float>();
        auto& dx = grad_of(n.inputs[0]);
        auto& dw = params_.at(wv.id).grad;
        const Conv2DGeometry& g = n.attrs.conv;
        const int oh = g.out_h(), ow = g.out_w();
        const int ph = g.pad_h_begin(), pw = g.pad_w_begin();
        const std::int64_t in_per = elems_of(n.inputs[0]);
        const std::int64_t out_per = elems_of(out_id);
        for (int b = 0; b < batch_; ++b) {
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              for (int c = 0; c < g.in_c; ++c) {
                const float gy =
                    dy[b * out_per +
                       (static_cast<std::int64_t>(oy) * ow + ox) * g.in_c + c];
                if (gy == 0.0f) continue;
                for (int ky = 0; ky < g.filter_h; ++ky) {
                  const int iy = oy * g.stride_h - ph + ky;
                  if (iy < 0 || iy >= g.in_h) continue;
                  for (int kx = 0; kx < g.filter_w; ++kx) {
                    const int ix = ox * g.stride_w - pw + kx;
                    if (ix < 0 || ix >= g.in_w) continue;
                    const std::int64_t xidx =
                        b * in_per +
                        (static_cast<std::int64_t>(iy) * g.in_w + ix) *
                            g.in_c + c;
                    const std::int64_t widx =
                        (static_cast<std::int64_t>(ky) * g.filter_w + kx) *
                            g.in_c + c;
                    dw[widx] += gy * xin[xidx];
                    dx[xidx] += gy * w[widx];
                  }
                }
              }
            }
          }
        }
        break;
      }
      case OpType::kAvgPool2D: {
        auto& dx = grad_of(n.inputs[0]);
        const Pool2DGeometry& g = n.attrs.pool;
        const int oh = g.out_h(), ow = g.out_w();
        const int ph = g.pad_h_begin(), pw = g.pad_w_begin();
        const std::int64_t in_per = elems_of(n.inputs[0]);
        const std::int64_t out_per = elems_of(out_id);
        for (int b = 0; b < batch_; ++b) {
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              for (int c = 0; c < g.channels; ++c) {
                const float gy =
                    dy[b * out_per +
                       (static_cast<std::int64_t>(oy) * ow + ox) * g.channels +
                       c];
                if (gy == 0.0f) continue;
                int count = 0;
                for (int ky = 0; ky < g.filter_h; ++ky) {
                  const int iy = oy * g.stride_h - ph + ky;
                  if (iy < 0 || iy >= g.in_h) continue;
                  for (int kx = 0; kx < g.filter_w; ++kx) {
                    const int ix = ox * g.stride_w - pw + kx;
                    if (ix < 0 || ix >= g.in_w) continue;
                    ++count;
                  }
                }
                if (count == 0) continue;
                const float share = gy / count;
                for (int ky = 0; ky < g.filter_h; ++ky) {
                  const int iy = oy * g.stride_h - ph + ky;
                  if (iy < 0 || iy >= g.in_h) continue;
                  for (int kx = 0; kx < g.filter_w; ++kx) {
                    const int ix = ox * g.stride_w - pw + kx;
                    if (ix < 0 || ix >= g.in_w) continue;
                    dx[b * in_per +
                       (static_cast<std::int64_t>(iy) * g.in_w + ix) *
                           g.channels + c] += share;
                  }
                }
              }
            }
          }
        }
        break;
      }
      case OpType::kAdd: {
        auto& da = grad_of(n.inputs[0]);
        for (std::size_t i = 0; i < dy.size(); ++i) da[i] += dy[i];
        auto& db2 = grad_of(n.inputs[1]);
        for (std::size_t i = 0; i < dy.size(); ++i) db2[i] += dy[i];
        break;
      }
      case OpType::kMaxPool2D: {
        const auto& xin = value_data_.at(n.inputs[0]);
        auto& dx = grad_of(n.inputs[0]);
        const Pool2DGeometry& g = n.attrs.pool;
        const int oh = g.out_h(), ow = g.out_w();
        const int ph = g.pad_h_begin(), pw = g.pad_w_begin();
        const std::int64_t in_per = elems_of(n.inputs[0]);
        const std::int64_t out_per = elems_of(out_id);
        for (int b = 0; b < batch_; ++b) {
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              for (int c = 0; c < g.channels; ++c) {
                const float gy =
                    dy[b * out_per +
                       (static_cast<std::int64_t>(oy) * ow + ox) * g.channels +
                       c];
                if (gy == 0.0f) continue;
                // Route to the argmax of the window.
                float best = -1e30f;
                std::int64_t best_idx = -1;
                for (int ky = 0; ky < g.filter_h; ++ky) {
                  const int iy = oy * g.stride_h - ph + ky;
                  if (iy < 0 || iy >= g.in_h) continue;
                  for (int kx = 0; kx < g.filter_w; ++kx) {
                    const int ix = ox * g.stride_w - pw + kx;
                    if (ix < 0 || ix >= g.in_w) continue;
                    const std::int64_t idx =
                        b * in_per +
                        (static_cast<std::int64_t>(iy) * g.in_w + ix) *
                            g.channels + c;
                    if (xin[idx] > best) {
                      best = xin[idx];
                      best_idx = idx;
                    }
                  }
                }
                if (best_idx >= 0) dx[best_idx] += gy;
              }
            }
          }
        }
        break;
      }
      case OpType::kGlobalAvgPool: {
        auto& dx = grad_of(n.inputs[0]);
        const Shape& s = graph_.value(n.inputs[0]).shape;
        const int hw = static_cast<int>(s.dim(1) * s.dim(2));
        const int c = static_cast<int>(s.dim(3));
        for (int b = 0; b < batch_; ++b) {
          for (int ch = 0; ch < c; ++ch) {
            const float gy = dy[static_cast<std::int64_t>(b) * c + ch] / hw;
            for (int p = 0; p < hw; ++p) {
              dx[static_cast<std::int64_t>(b) * hw * c + p * c + ch] += gy;
            }
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

void Trainer::ApplyUpdates() {
  for (auto& [key, p] : params_) {
    const Optimizer opt =
        p.binary ? options_.binary_optimizer : options_.float_optimizer;
    ++p.steps;
    for (std::int64_t i = 0; i < p.size; ++i) {
      float g = p.grad[i];
      if (p.binary) {
        // STE weight clip: gradients vanish outside [-1, 1].
        if (std::abs(p.data[i]) > 1.0f) g = 0.0f;
      }
      if (opt == Optimizer::kSgd) {
        p.m[i] = options_.momentum * p.m[i] + g;
        p.data[i] -= options_.learning_rate * p.m[i];
      } else {
        p.m[i] = options_.beta1 * p.m[i] + (1.0f - options_.beta1) * g;
        p.v[i] = options_.beta2 * p.v[i] + (1.0f - options_.beta2) * g * g;
        const float mhat =
            p.m[i] / (1.0f - std::pow(options_.beta1,
                                      static_cast<float>(p.steps)));
        const float vhat =
            p.v[i] / (1.0f - std::pow(options_.beta2,
                                      static_cast<float>(p.steps)));
        p.data[i] -=
            options_.learning_rate * mhat / (std::sqrt(vhat) + options_.epsilon);
      }
      if (p.binary) {
        p.data[i] = std::clamp(p.data[i], -1.0f, 1.0f);
      }
      p.grad[i] = 0.0f;
    }
  }
}

float Trainer::Step(const std::vector<float>& x,
                    const std::vector<int>& labels) {
  LCE_CHECK(status_.ok());
  Forward(x, static_cast<int>(labels.size()));
  const float loss = LossAndGrad(labels);
  Backward();
  ApplyUpdates();
  return loss;
}

float Trainer::Evaluate(const std::vector<float>& x,
                        const std::vector<int>& labels) {
  LCE_CHECK(status_.ok());
  Forward(x, static_cast<int>(labels.size()));
  const int out_id = graph_.output_ids()[0];
  const auto& probs = value_data_.at(out_id);
  const int c = static_cast<int>(graph_.value(out_id).shape.num_elements());
  int correct = 0;
  for (int b = 0; b < batch_; ++b) {
    int arg = 0;
    for (int i = 1; i < c; ++i) {
      if (probs[static_cast<std::int64_t>(b) * c + i] >
          probs[static_cast<std::int64_t>(b) * c + arg]) {
        arg = i;
      }
    }
    correct += arg == labels[b] ? 1 : 0;
  }
  return static_cast<float>(correct) / batch_;
}

}  // namespace lce::train
