// Per-request execution context for the GEMM kernels: thread pool handle,
// kernel-profile selection and reusable scratch memory (packing buffers).
//
// The kernel profile mirrors the paper's two benchmark devices: `kSimd`
// corresponds to the hand-tuned NEON path (here: AVX2 / hardware-popcount
// x86 kernels) and `kScalar` to a portable fallback, giving a second "device"
// for the appendix experiments.
//
// Threading model (docs/SERVING.md): the thread pool is *shared* -- many
// contexts may reference one process pool -- but the scratch slots are
// *owned*, one set per context. A Context must therefore never be used by
// two requests at once; concurrent requests each get their own Context
// (an ExecutionContext holds one), which is what makes sharing a prepared
// CompiledModel across threads safe.
#ifndef LCE_GEMM_CONTEXT_H_
#define LCE_GEMM_CONTEXT_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

#include "core/aligned_buffer.h"
#include "core/cancellation.h"
#include "core/macros.h"
#include "core/thread_pool.h"
#include "serving/fault_injection.h"
#include "telemetry/metrics.h"

namespace lce::gemm {

enum class KernelProfile {
  kSimd = 0,    // best vectorized kernels compiled in (AVX-512/AVX2/NEON)
  kScalar = 1,  // portable scalar kernels
};

class Context {
 public:
  // Creates a context with its own private pool (single-stream use: tests,
  // micro-benchmarks, the standalone-kernel API).
  explicit Context(int num_threads = 1,
                   KernelProfile profile = KernelProfile::kSimd)
      : pool_(std::make_shared<ThreadPool>(num_threads)), profile_(profile) {}

  // Creates a context on an existing (typically process-shared) pool; the
  // serving path hands every ExecutionContext the same pool this way.
  explicit Context(std::shared_ptr<ThreadPool> pool,
                   KernelProfile profile = KernelProfile::kSimd)
      : pool_(std::move(pool)), profile_(profile) {
    LCE_CHECK(pool_ != nullptr && "Context requires a thread pool");
  }

  ThreadPool& pool() { return *pool_; }
  int num_threads() const { return pool_->num_threads(); }

  KernelProfile profile() const { return profile_; }

  // Returns scratch memory of at least `bytes` bytes, reused across calls.
  // Slots are independent buffers and a fixed contract between the kernels:
  // slot 0 holds the float GEMM's per-shard blocks of gathered patch rows
  // (block-sized, independent of the image; a 1x1, stride-1 convolution or
  // a fully connected layer asks for none); slot 2 the ConvPipeline's
  // per-shard scratch (every binary and int8 convolution and binary fully
  // connected layer). Only bench code (bench/) uses slot 1: the im2col
  // baseline's patch matrix, with its accumulator in slot 2 and the
  // full-matrix Int8Gemm's K-padded rows in slot 0. An out-of-range slot
  // is a programmer error, not a resize request.
  //
  // Where NDEBUG is not defined (Debug and sanitizer builds), every call
  // fills the bytes it returns with 0xFF: NaN as floats, -1 as integers. A
  // kernel that reads scratch it did not write in this call then fails
  // deterministically instead of reading whatever an earlier call or the
  // allocator left. Release builds skip the fill.
  //
  // Every request is recorded in the per-slot high-water gauges
  // `gemm.scratch_bytes.slot<N>`, which is what the fused-BConv2D tests use
  // to prove the full-image accumulator is gone from the hot path.
  // Allocation failure (real OOM, or the LCE_FAULT_INJECTION scratch fault
  // point) throws std::bad_alloc; ExecutionContext::Invoke catches it and
  // returns Status::ResourceExhausted, so an overloaded server sheds the
  // request instead of aborting the process (docs/SERVING.md).
  std::uint8_t* Scratch(int slot, std::size_t bytes) {
    LCE_CHECK(slot >= 0 && slot < kNumScratchSlots &&
              "Context::Scratch slot out of range");
    static telemetry::Metric* gauges[kNumScratchSlots] = {
        telemetry::MetricsRegistry::Global().Gauge("gemm.scratch_bytes.slot0"),
        telemetry::MetricsRegistry::Global().Gauge("gemm.scratch_bytes.slot1"),
        telemetry::MetricsRegistry::Global().Gauge("gemm.scratch_bytes.slot2")};
    gauges[slot]->SetMax(static_cast<std::int64_t>(bytes));
    auto& buf = scratch_[slot];
    if (!buf || buf->size() < bytes) {
      if (LCE_FAULT_SCRATCH_ALLOC_SHOULD_FAIL(slot)) throw std::bad_alloc();
      buf = std::make_unique<AlignedBuffer>(bytes);
    }
#ifndef NDEBUG
    std::memset(buf->data(), 0xFF, bytes);
#endif
    return buf->data();
  }

  static constexpr int kNumScratchSlots = 3;

  // Cooperative-cancellation token of the request currently executing on
  // this context, or null. Set by ExecutionContext::Invoke for the duration
  // of the call; long-running kernels (the ConvPipeline engine) poll it at
  // block boundaries and exit early once it expires.
  const CancellationToken* cancellation() const { return cancellation_; }
  void set_cancellation(const CancellationToken* token) {
    cancellation_ = token;
  }

 private:
  std::shared_ptr<ThreadPool> pool_;
  KernelProfile profile_;
  std::unique_ptr<AlignedBuffer> scratch_[kNumScratchSlots];
  const CancellationToken* cancellation_ = nullptr;
};

}  // namespace lce::gemm

#endif  // LCE_GEMM_CONTEXT_H_
