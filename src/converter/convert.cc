#include "converter/convert.h"

#include "converter/passes.h"
#include "core/macros.h"
#include "graph/shape_variant.h"
#include "graph/validator.h"
#include "telemetry/tracer.h"

namespace lce {

Graph CloneGraph(const Graph& g) {
  std::vector<Shape> shapes;
  for (const int id : g.input_ids()) shapes.push_back(g.value(id).shape);
  std::unique_ptr<Graph> clone;
  const Status st = CloneGraphWithInputShapes(g, shapes, &clone);
  LCE_CHECK(st.ok() && "a graph replays at its own input shapes");
  return std::move(*clone);
}

Status Convert(Graph& g, const ConvertOptions& options, ConvertStats* stats) {
  ConvertStats local;
  ConvertStats& s = stats != nullptr ? *stats : local;

  LCE_TRACE_SCOPE_CAT("converter/convert", "converter");

  const auto validate = [&](const char* pass) -> Status {
    LCE_TRACE_SCOPE_CAT("converter/validate", "converter");
    Status st = ValidateGraph(g, ResourceLimits::Unlimited());
    if (!st.ok()) {
      return Status::Internal(std::string("validation failed after pass ") +
                              pass + ": " + st.message());
    }
    return Status::Ok();
  };
  // Runs one rewrite pass under a span carrying its rewrite count; the span
  // name must be a string literal (static storage, see TraceScope).
  const auto run_pass = [](const char* span_name, auto&& pass_fn) -> int {
    telemetry::TraceScope span(span_name, "converter");
    const int rewrites = pass_fn();
    span.AddArg("rewrites", rewrites);
    return rewrites;
  };

  if (options.fuse_batch_norm) {
    s.batch_norms_fused_into_float_conv = run_pass(
        "pass/FuseBatchNormIntoFloatConv",
        [&] { return FuseBatchNormIntoFloatConv(g); });
    LCE_RETURN_IF_ERROR(validate("FuseBatchNormIntoFloatConv"));
  }
  if (options.fuse_activations) {
    s.activations_fused = run_pass("pass/FuseActivationIntoFloatOps",
                                   [&] { return FuseActivationIntoFloatOps(g); });
    LCE_RETURN_IF_ERROR(validate("FuseActivationIntoFloatOps"));
  }
  s.bconvs_lowered = run_pass("pass/LowerBinarizedConvs",
                              [&] { return LowerBinarizedConvs(g); });
  LCE_RETURN_IF_ERROR(validate("LowerBinarizedConvs"));
  s.bfcs_lowered = run_pass("pass/LowerBinarizedFullyConnected",
                            [&] { return LowerBinarizedFullyConnected(g); });
  LCE_RETURN_IF_ERROR(validate("LowerBinarizedFullyConnected"));
  // Remove the now-unused FakeSign nodes immediately: they would otherwise
  // register as extra consumers and block the single-consumer patterns of
  // the fusion passes below.
  s.dead_nodes_removed += run_pass("pass/EliminateDeadNodes",
                                   [&] { return EliminateDeadNodes(g); });
  LCE_RETURN_IF_ERROR(validate("EliminateDeadNodes(post-lowering)"));
  if (options.fuse_bconv_output_transform) {
    s.bconv_transforms_fused = run_pass(
        "pass/FuseBConvOutputTransform",
        [&] { return FuseBConvOutputTransform(g); });
    LCE_RETURN_IF_ERROR(validate("FuseBConvOutputTransform"));
  }
  if (options.swap_maxpool_sign) {
    s.maxpools_binarized = run_pass("pass/SwapMaxPoolSign",
                                    [&] { return SwapMaxPoolSign(g); });
    LCE_RETURN_IF_ERROR(validate("SwapMaxPoolSign"));
  }
  if (options.elide_quantize) {
    s.quantizes_elided = run_pass("pass/ElideQuantize",
                                  [&] { return ElideQuantize(g); });
    LCE_RETURN_IF_ERROR(validate("ElideQuantize"));
    s.quantizes_elided += run_pass(
        "pass/CancelLceQuantizeDequantize",
        [&] { return CancelLceQuantizeDequantize(g); });
    LCE_RETURN_IF_ERROR(validate("CancelLceQuantizeDequantize"));
  }
  s.dead_nodes_removed += run_pass("pass/EliminateDeadNodes",
                                   [&] { return EliminateDeadNodes(g); });
  LCE_RETURN_IF_ERROR(validate("EliminateDeadNodes"));
  return Status::Ok();
}

}  // namespace lce
