// Input-shape graph cloning for specialized compilation (docs/SERVING.md,
// "Multi-resolution serving").
//
// A specialization runs the *same* model at another InputSignature
// (batch, h, w), so its graph differs from the root graph only in the
// leading and spatial dimensions of every non-constant value.
// CloneGraphWithInputShapes rebuilds that graph by replaying the root
// graph's live nodes against the new input shapes: AddNode's shape
// inference re-derives all geometry (conv/pool batch and spatial dims,
// output sizes) from the new operand shapes, so no per-op shape handling
// lives here. A model whose structure cannot follow the new shapes (for
// example a flatten feeding a fixed-width fully connected layer) fails the
// replay with InvalidArgument instead of producing a broken graph -- that
// failure IS the shape-admissibility answer for such models.
//
// Constants are NOT copied: the clone's constant Values hold Tensors that
// share the root graph's underlying buffers. The clone therefore costs
// O(IR nodes), not O(model bytes) -- the packed weights stay shared one
// level up, in CompiledModel::Specialize.
#ifndef LCE_GRAPH_SHAPE_VARIANT_H_
#define LCE_GRAPH_SHAPE_VARIANT_H_

#include <memory>
#include <vector>

#include "core/status.h"
#include "graph/ir.h"

namespace lce {

// Shared replay engine: clones `src` with graph input i reshaped to
// `input_shapes[i]` (must match src.input_ids() in count; dtypes are kept).
// Every live node is replayed through TryAddNode, so shape inference and
// attr resolution re-derive all geometry against the new operand shapes; a
// node that cannot legally execute at the new shapes fails the clone with
// the node's own InvalidArgument. On success `*out` holds the clone and,
// when non-null, `*node_map` maps every clone node id to the id of the
// source node it replays (used by CompiledModel::Specialize to pair each
// clone kernel with the root kernel whose packed weights it shares).
Status CloneGraphWithInputShapes(const Graph& src,
                                 const std::vector<Shape>& input_shapes,
                                 std::unique_ptr<Graph>* out,
                                 std::vector<int>* node_map = nullptr);

// Clones `src` with every rank-4 [1, H, W, C] graph input resized to
// [1, input_hw, input_hw, C]: a fresh single-resolution graph, the
// independent reference a square batch-1 specialization is checked
// against. Requirements checked here:
//   * input_hw >= 1;
//   * every graph input has rank 4 with leading (batch) dimension 1.
Status CloneGraphWithInputSize(const Graph& src, int input_hw,
                               std::unique_ptr<Graph>* out,
                               std::vector<int>* node_map = nullptr);

}  // namespace lce

#endif  // LCE_GRAPH_SHAPE_VARIANT_H_
