// Umbrella header: the public API surface of the LCE reproduction.
//
//   #include "lce.h"
//
// pulls in everything a downstream user needs for the train -> convert ->
// deploy workflow:
//
//   * building graphs            (lce::Graph, lce::ModelBuilder, models/zoo.h)
//   * converting to inference    (lce::Convert, lce::QuantizeModelInt8)
//   * serializing models         (lce::SaveModel / lce::LoadModel)
//   * running inference          (lce::CompiledModel::Compile once, then
//                                 one lce::ExecutionContext per stream
//                                 of requests, see docs/SERVING.md)
//   * profiling and accounting   (lce::profiling::*, lce::ComputeModelStats)
//
// The lower-level kernel and GEMM headers (kernels/, gemm/) are public too
// but only needed when embedding individual operators without the graph
// runtime.
#ifndef LCE_LCE_H_
#define LCE_LCE_H_

#include "converter/convert.h"
#include "converter/ptq.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "core/tensor.h"
#include "graph/compiled_model.h"
#include "graph/printer.h"
#include "graph/validator.h"
#include "models/builder.h"
#include "models/macs.h"
#include "models/zoo.h"
#include "profiling/bench_utils.h"
#include "profiling/model_profiler.h"

#endif  // LCE_LCE_H_
