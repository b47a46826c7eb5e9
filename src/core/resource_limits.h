// Resource limits for the untrusted-model path.
//
// Model files are untrusted input (docs/ROBUSTNESS.md): a corrupt or hostile
// .lcem file must never make the engine crash, abort, or allocate without
// bound. These limits are threaded through the deserializer, the semantic
// validator, the memory planner and the interpreter; every size computation
// on model-derived data is overflow-checked against them before any
// allocation happens.
//
// The defaults are deliberately generous -- far above anything a real zoo
// model needs at 224x224 input -- so that legitimate models never hit them,
// while still being finite so that adversarial dimension combinations are
// rejected with Status::ResourceExhausted instead of exhausting memory.
#ifndef LCE_CORE_RESOURCE_LIMITS_H_
#define LCE_CORE_RESOURCE_LIMITS_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace lce {

struct ResourceLimits {
  // Per-tensor caps (logical elements and storage bytes).
  std::int64_t max_tensor_elements = std::int64_t{1} << 28;  // 268M elements
  std::size_t max_tensor_bytes = std::size_t{2} << 30;       // 2 GiB

  // Total bytes of constant (weight) data in one model.
  std::size_t max_model_bytes = std::size_t{4} << 30;  // 4 GiB

  // Cap on the planned intermediate-tensor arena.
  std::size_t max_arena_bytes = std::size_t{8} << 30;  // 8 GiB

  // Worst-case im2col patch-matrix footprint of a single convolution
  // (rows * filter_volume * element_size); bounds kernel scratch space and
  // the per-convolution indirection tables, which live outside the planned
  // arena.
  std::size_t max_im2col_bytes = std::size_t{2} << 30;  // 2 GiB

  // Graph-structure caps.
  std::int64_t max_nodes = std::int64_t{1} << 20;
  std::int64_t max_values = std::int64_t{1} << 21;
  std::int64_t max_node_inputs = 1024;

  // Shape-polymorphic surface (docs/SERVING.md, "Multi-resolution
  // serving"). A multi-resolution CompiledModel carries one ShapeVariant
  // per resolution bucket; each bucket costs O(IR) metadata plus its own
  // arena plan, so both dimensions need caps: a hostile (or misconfigured)
  // client cycling through resolutions must not compile unbounded variants,
  // and one absurd resolution must not plan an unbounded arena (the
  // per-bucket arena is already bounded by max_arena_bytes above, which
  // applies to every variant build independently).
  std::int64_t max_shape_buckets = 8;
  // Largest admissible square input resolution for a shape bucket.
  // 4096 px is far above any zoo scenario (96-320 px) while keeping
  // indirection tables and tile plans comfortably sized.
  std::int64_t max_input_hw = 4096;

  // No limits (trusted in-process graphs); overflow checks stay active.
  static ResourceLimits Unlimited() {
    ResourceLimits l;
    l.max_tensor_elements = std::numeric_limits<std::int64_t>::max();
    l.max_tensor_bytes = std::numeric_limits<std::size_t>::max();
    l.max_model_bytes = std::numeric_limits<std::size_t>::max();
    l.max_arena_bytes = std::numeric_limits<std::size_t>::max();
    l.max_im2col_bytes = std::numeric_limits<std::size_t>::max();
    l.max_nodes = std::numeric_limits<std::int64_t>::max();
    l.max_values = std::numeric_limits<std::int64_t>::max();
    l.max_node_inputs = std::numeric_limits<std::int64_t>::max();
    l.max_shape_buckets = std::numeric_limits<std::int64_t>::max();
    l.max_input_hw = std::numeric_limits<std::int64_t>::max();
    return l;
  }
};

}  // namespace lce

#endif  // LCE_CORE_RESOURCE_LIMITS_H_
