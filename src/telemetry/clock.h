// The single monotonic clock behind every LCE timestamp: tracer spans,
// ExecutionContext per-op profiles, BConv2d stage times and benchmark
// timing all read this clock, so latencies from different layers are
// directly comparable.
#ifndef LCE_TELEMETRY_CLOCK_H_
#define LCE_TELEMETRY_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace lce::telemetry {

// Monotonic nanoseconds since an arbitrary epoch (steady_clock's). The
// native unit of trace events; never affected by wall-clock adjustments.
inline std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Same clock in seconds, for code that aggregates double-valued latencies.
// steady_clock epochs fit well inside double's 53-bit mantissa at
// nanosecond granularity, so differences of these values are exact to well
// under a nanosecond.
inline double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

}  // namespace lce::telemetry

#endif  // LCE_TELEMETRY_CLOCK_H_
