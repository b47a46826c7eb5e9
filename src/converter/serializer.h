// LCEM model-file serialization: the deployable artifact the converter
// produces (playing the role of the TFLite flatbuffer in the paper).
// Binary weights are stored bitpacked, so binarized layers take 1 bit per
// weight -- 32x smaller than the float training checkpoint.
//
// Format (little endian):
//   magic "LCEM", u32 version
//   u32 num_leading_values            (graph inputs + constants, id order)
//     per value: u8 kind(0=input,1=constant), str name, u8 dtype, u8 rank,
//                i64 dims[rank]; constants append u64 nbytes + raw data
//   u32 num_nodes                     (live nodes, topological order)
//     per node: str name, u8 op, u32 n_inputs, u32 ids[n], attrs
//   u32 n_graph_inputs, u32 ids[...]; u32 n_graph_outputs, u32 ids[...]
#ifndef LCE_CONVERTER_SERIALIZER_H_
#define LCE_CONVERTER_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/resource_limits.h"
#include "core/status.h"
#include "graph/ir.h"

namespace lce {

// Serializes the live part of the graph. Node order is topological, value
// ids are renumbered densely. Returns an empty buffer if the graph is
// structurally inconsistent (a live node referencing an unserializable
// value); SaveModel turns that into a Status.
std::vector<std::uint8_t> SerializeGraph(const Graph& g);

// Parses a serialized model. The byte stream is untrusted: every structural
// defect returns kDataLoss, every semantic defect kInvalidArgument and every
// limit violation kResourceExhausted -- never a crash, abort or unbounded
// allocation. On success the graph has passed full ValidateGraph, so
// CompiledModel::Compile and ExecutionContext::Invoke on it are safe.
Status DeserializeGraph(const std::uint8_t* data, std::size_t size, Graph* g,
                        const ResourceLimits& limits = {});

// File convenience wrappers. Load errors include the path and the OS error.
Status SaveModel(const Graph& g, const std::string& path);
Status LoadModel(const std::string& path, Graph* g,
                 const ResourceLimits& limits = {});

}  // namespace lce

#endif  // LCE_CONVERTER_SERIALIZER_H_
