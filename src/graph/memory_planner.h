// Static arena memory planner for intermediate tensors, in the style of
// TFLite's greedy-by-size planner: values with non-overlapping lifetimes
// share arena space.
#ifndef LCE_GRAPH_MEMORY_PLANNER_H_
#define LCE_GRAPH_MEMORY_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lce {

struct BufferRequest {
  int id = 0;            // caller-defined identifier (value id)
  std::size_t size = 0;  // bytes
  int first_use = 0;     // step index where the buffer is written
  int last_use = 0;      // last step index where the buffer is read
};

struct BufferPlacement {
  int id = 0;
  std::size_t offset = 0;
};

// Assigns arena offsets (aligned to `alignment`) so that any two buffers
// with overlapping [first_use, last_use] lifetimes do not overlap in memory.
// Returns the placements and sets `arena_size` to the total bytes needed.
std::vector<BufferPlacement> PlanMemory(std::vector<BufferRequest> requests,
                                        std::size_t alignment,
                                        std::size_t* arena_size);

// Cross-bucket arena accounting for shape-bucketed compilation
// (docs/SERVING.md, "Multi-resolution serving"). Each resolution bucket
// plans its own arena; a context that serves one bucket at a time only
// ever needs the largest of them resident, so the high-water mark -- not
// the per-bucket sum -- is the honest resident-memory figure. A serving
// executor realizes this reuse by holding one context and replacing it
// when the bucket changes; these numbers are what that bound works out
// to, published as the planner.bucket_arena_* gauges.
struct CrossBucketArena {
  // max over buckets: resident bytes per context slot when contexts are
  // rebuilt/evicted across buckets instead of kept per bucket.
  std::size_t high_water = 0;
  // sum over buckets: what keeping every bucket's arena resident at once
  // would cost (the reuse saving is unshared_sum - high_water).
  std::size_t unshared_sum = 0;  // saturates at SIZE_MAX on overflow
};
CrossBucketArena PlanCrossBucketArena(
    const std::vector<std::size_t>& bucket_arena_sizes);

}  // namespace lce

#endif  // LCE_GRAPH_MEMORY_PLANNER_H_
