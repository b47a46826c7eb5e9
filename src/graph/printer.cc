#include "graph/printer.h"

#include <cstdio>


namespace lce {
namespace {

std::int64_t NodeMacs(const Node& n) {
  switch (n.type) {
    case OpType::kConv2D:
    case OpType::kLceBConv2d:
      return n.attrs.conv.macs();
    case OpType::kDepthwiseConv2D: {
      const Conv2DGeometry& c = n.attrs.conv;
      return static_cast<std::int64_t>(c.batch) * c.out_h() * c.out_w() *
             c.filter_h * c.filter_w * c.in_c;
    }
    case OpType::kFullyConnected:
    case OpType::kLceBFullyConnected:
      return static_cast<std::int64_t>(n.attrs.fc_in_features) *
             n.attrs.fc_out_features;
    default:
      return 0;
  }
}

std::int64_t NodeParams(const Graph& g, const Node& n) {
  std::int64_t params = static_cast<std::int64_t>(n.attrs.bias.size()) +
                        n.attrs.bn_scale.size() + n.attrs.bn_offset.size() +
                        n.attrs.multiplier.size();
  for (int in : n.inputs) {
    const Value& v = g.value(in);
    if (v.is_constant) params += v.constant_data.num_elements();
  }
  return params;
}

}  // namespace

std::string GraphSummary(const Graph& g) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-4s %-16s %-26s %-22s %12s %12s\n", "#",
                "op", "name", "output", "MACs", "params");
  out += line;
  int idx = 0;
  std::int64_t total_macs = 0, total_params = 0;
  for (int id : g.TopologicalOrder()) {
    const Node& n = g.node(id);
    const Value& v = g.value(n.outputs[0]);
    const std::string shape =
        std::string(DataTypeName(v.dtype)) + v.shape.ToString();
    const std::int64_t macs = NodeMacs(n);
    const std::int64_t params = NodeParams(g, n);
    total_macs += macs;
    total_params += params;
    std::snprintf(line, sizeof(line), "%-4d %-16s %-26s %-22s %12lld %12lld\n",
                  idx++, std::string(OpTypeName(n.type)).c_str(),
                  n.name.c_str(), shape.c_str(),
                  static_cast<long long>(macs),
                  static_cast<long long>(params));
    out += line;
  }
  std::int64_t binary_macs = 0;
  for (int id : g.TopologicalOrder()) {
    const Node& n = g.node(id);
    if (n.type == OpType::kLceBConv2d ||
        n.type == OpType::kLceBFullyConnected ||
        ((n.type == OpType::kConv2D || n.type == OpType::kFullyConnected) &&
         n.attrs.binarize_weights)) {
      binary_macs += NodeMacs(n);
    }
  }
  std::snprintf(line, sizeof(line),
                "total: %lld MACs (%lld binary, %lld float), %lld params, "
                "%.2f MiB constants\n",
                static_cast<long long>(total_macs),
                static_cast<long long>(binary_macs),
                static_cast<long long>(total_macs - binary_macs),
                static_cast<long long>(total_params),
                g.ConstantBytes() / (1024.0 * 1024.0));
  out += line;
  return out;
}

std::string GraphToDot(const Graph& g) {
  std::string out = "digraph model {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  char line[512];
  for (int id : g.TopologicalOrder()) {
    const Node& n = g.node(id);
    const Value& v = g.value(n.outputs[0]);
    std::snprintf(line, sizeof(line),
                  "  n%d [label=\"%s\\n%s%s\"%s];\n", n.id,
                  std::string(OpTypeName(n.type)).c_str(),
                  std::string(DataTypeName(v.dtype)).c_str(),
                  v.shape.ToString().c_str(),
                  IsBinaryOp(n.type)
                      ? ", style=filled, fillcolor=lightblue"
                      : "");
    out += line;
  }
  for (int id : g.TopologicalOrder()) {
    const Node& n = g.node(id);
    for (int in : n.inputs) {
      const Value& v = g.value(in);
      if (v.is_constant) continue;
      if (v.producer >= 0) {
        std::snprintf(line, sizeof(line), "  n%d -> n%d;\n", v.producer, n.id);
        out += line;
      } else {
        std::snprintf(line, sizeof(line),
                      "  in%d [label=\"input %s\", shape=ellipse];\n  in%d -> "
                      "n%d;\n",
                      v.id, v.shape.ToString().c_str(), v.id, n.id);
        out += line;
      }
    }
  }
  out += "}\n";
  return out;
}

}  // namespace lce
