// ExecutionContext pool with reuse, reset-on-return and quarantine
// (docs/SERVING.md).
//
// Arenas are the per-request cost of the CompiledModel/ExecutionContext
// split; a server that allocated one per request would pay an
// arena-sized malloc+free on every inference and make
// `serving.resident_arena_bytes` churn with load. The pool keeps up to
// `capacity` contexts alive and hands them out one request at a time:
//
//   * Acquire()  -- reuse a pooled context, or lazily create one while
//                   under capacity. All `capacity` contexts checked out =>
//                   Status::ResourceExhausted (the server sizes capacity to
//                   its in-flight limit, so this is a hard invariant rather
//                   than a wait).
//   * Release()  -- with an Ok (or never-ran) request: Reset() the context
//                   (arena zeroed, profile cleared) and return it to the
//                   free list, so the next request sees a state
//                   bit-identical to a fresh context.
//                   with a failed Invoke: QUARANTINE. A run that ended
//                   mid-model (cancellation, induced kernel error, scratch
//                   exhaustion) leaves unspecified bytes in the arena and
//                   the gemm scratch; the context is destroyed, never
//                   reused, and its slot is replenished lazily by a later
//                   Acquire. `serving.pool.quarantined_total` counts these.
//
// SIGNATURES. The pool serves a root CompiledModel and every
// specialization on its registry (CompiledModel::Specialize), sharing one
// set of packed weights. Free lists are keyed by InputSignature --
// Acquire(sig) hands out a context of exactly that signature's model, so a
// context's arena always matches both the resolution and the lane count of
// the work it receives. The pool never compiles: it finds each model
// through CompiledModel::Lookup, and a signature missing from the registry
// is InvalidArgument, never a silently-wrong arena.
//
// The `capacity` bound covers contexts of *all* signatures together:
// checked-out plus parked contexts never exceed capacity, so resident
// arena bytes stay bounded by capacity * max-specialization-arena however
// resolutions and batch sizes mix. When the bound forces it, an idle
// context of another signature is evicted (destroyed,
// `serving.pool.evicted_total`) to make room -- the pool adapts its
// resident mix to the traffic actually being served, which is what
// realizes the cross-bucket arena high-water reuse that
// PlanCrossBucketArena accounts for.
#ifndef LCE_SERVING_CONTEXT_POOL_H_
#define LCE_SERVING_CONTEXT_POOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/status.h"
#include "graph/compiled_model.h"

namespace lce::serving {

class ContextPool {
 public:
  // Pool over `root` and the specializations on its registry.
  ContextPool(std::shared_ptr<const CompiledModel> root, int capacity,
              ExecutionOptions options = {});

  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

  // Hands out a context executing `sig` (resolved as CompiledModel::Lookup
  // resolves it; the root's signature -- or h == w == 0 -- is the root).
  // InvalidArgument when no model with that signature is registered.
  // ResourceExhausted when every slot is checked out or when a replacement
  // context's arena allocation fails (in which case nothing is leaked and a
  // later Acquire retries the allocation).
  Status Acquire(InputSignature sig, std::unique_ptr<ExecutionContext>* out);

  // Returns a context after a request. `invoke_status` is the request's
  // Invoke status -- Status::Ok() for a request that never invoked. The
  // context goes back to its own signature's free list.
  void Release(std::unique_ptr<ExecutionContext> ctx,
               const Status& invoke_status);

  int capacity() const { return capacity_; }
  // Contexts currently checked out to requests (all signatures).
  int outstanding() const;
  // Contexts parked in the free lists (reused without allocation).
  int pooled() const;
  // Contexts this pool destroyed after failed runs (the per-pool view of
  // the process-wide serving.pool.quarantined_total counter; feeds
  // ServerStats::quarantined).
  std::int64_t quarantined() const;
  // Idle contexts destroyed to make room for another signature.
  std::int64_t evicted() const;

 private:
  const std::shared_ptr<const CompiledModel> root_;
  const int capacity_;
  const ExecutionOptions options_;

  mutable std::mutex mu_;
  // Idle contexts, by the signature of the model they execute.
  std::map<InputSignature, std::vector<std::unique_ptr<ExecutionContext>>>
      free_;
  int outstanding_ = 0;
  std::int64_t quarantined_ = 0;
  std::int64_t evicted_ = 0;
};

}  // namespace lce::serving

#endif  // LCE_SERVING_CONTEXT_POOL_H_
