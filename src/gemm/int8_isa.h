// Runtime ISA tier selection for the int8 convolution path.
//
// Every tier runs the same dot-product block kernel over the same
// weight-stationary PackedInt8DotPanels (gemm/int8_gemm.h): AVX-512 VNNI
// vpdpbusd, NEON sdot, AVX2 masked vpmaddubsw, or the portable scalar
// loop. Which kernel runs is decided here, once per kernel invocation,
// from three inputs in priority order:
//
//   1. SetInt8TierOverrideForTest()   (tests sweeping every tier)
//   2. the LCE_FORCE_ISA env var      (benches, CI fallback coverage)
//   3. CPUID feature detection        (BestInt8Tier())
//
// A forced tier that is not compiled in or not supported by the running
// CPU is ignored rather than honored, so a stray env var can never select
// an illegal kernel. The selected tier is exported through the
// `conv2d_int8.tier` gauge (kernels/conv2d_int8.cc).
#ifndef LCE_GEMM_INT8_ISA_H_
#define LCE_GEMM_INT8_ISA_H_

namespace lce::gemm {

// Int8 micro-kernel tiers. Values are stable and exported through the
// `conv2d_int8.tier` gauge (asserted by the perf-smoke CI job), so they
// must not be renumbered. Value 2 is retired.
enum class Int8Tier : int {
  kScalar = 1,   // portable lane-form loop, vectorized by the compiler
  kAvx2Dot = 3,  // AVX2 masked vpmaddubsw+vpmaddwd dot-product kernel
  kNeonDot = 4,  // Arm sdot dot-product kernel
  kVnni = 5,     // AVX-512 VNNI vpdpbusd dot-product kernel
};

// Whether `tier` is compiled into this binary AND supported by the running
// CPU (CPUID + XCR0 on x86). kScalar is always available.
bool Int8TierAvailable(Int8Tier tier);

// Best available tier, in the fixed order vnni > neondot > avx2dot >
// scalar. An AVX-512 host without VNNI runs avx2dot.
Int8Tier BestInt8Tier();

// BestInt8Tier() with the test hook and LCE_FORCE_ISA overrides applied.
// Recognized LCE_FORCE_ISA values: "vnni", "neondot", "avx2dot",
// "scalar" (unknown values are ignored). The env var is read once per
// process.
Int8Tier SelectInt8Tier();

// Test hook: force a tier programmatically (takes precedence over the env
// var). Pass 0 to clear. Takes effect at the next kernel invocation; not
// meant to race with in-flight runs.
void SetInt8TierOverrideForTest(int tier);

const char* Int8TierName(Int8Tier tier);

}  // namespace lce::gemm

#endif  // LCE_GEMM_INT8_ISA_H_
