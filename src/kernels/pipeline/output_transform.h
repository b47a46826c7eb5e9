// Output transforms of the ConvPipeline (policy seam #3): turn a tile of
// int32 accumulator rows into final output, in place on the cache-resident
// tile. One implementation per output flavor:
//
//   * FloatOutputTransform      — fused activation + channel-wise
//     multiplier/bias (batch-norm fusion), float output.
//   * BitpackedOutputTransform  — compares the accumulator against
//     precomputed per-channel thresholds and writes bitpacked output
//     directly (binarized-layer chaining; paper section 3.3).
//   * Int32OutputTransform      — raw accumulator copy (tests/debugging).
//   * Int8RequantTransform      — TFLite-style requantization
//     out = clamp(z_out + M * (acc - z_in * rowsum(w) + bias)).
//
// The fused pipeline applies them per row-tile block; the benchmarks' im2col
// baseline (bench/im2col_baseline.h) applies the same transforms once over
// the full image, so the two are bit-identical by construction.
#ifndef LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_
#define LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "kernels/conv_params.h"

namespace lce::pipeline {

class OutputTransform {
 public:
  virtual ~OutputTransform() = default;

  // Transforms `nrows` accumulator rows (stride out_c) holding flattened
  // output positions [row0, row0 + nrows), writing into `out` (the start of
  // the full output buffer; the transform applies the row0 offset itself).
  // Output row r starts `out_stride` output elements (bitpacked words for
  // the bitpacked flavor) after row r - 1: the dense width, or more when
  // the output is a channel slice of a wider buffer.
  virtual void Apply(const std::int32_t* acc, std::int64_t row0,
                     std::int64_t nrows, void* out,
                     std::int64_t out_stride) const = 0;
};

// v = mult[c] * pre_act(acc) + bias[c]; mult/bias empty means 1 / 0.
class FloatOutputTransform : public OutputTransform {
 public:
  FloatOutputTransform(int out_c, Activation pre_activation,
                       std::vector<float> multiplier, std::vector<float> bias);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out, std::int64_t out_stride) const override;

 private:
  int out_c_;
  Activation pre_;
  std::vector<float> mult_, bias_;
};

// bit = (acc < cmp[c]) XOR flip[c], with thresholds precomputed by binary
// search over the monotone float transform (the converter's "thresholds
// pre-computed ... to decide whether each output value is a one or zero
// bit"). `k_bits` bounds the accumulator range for the search.
class BitpackedOutputTransform : public OutputTransform {
 public:
  BitpackedOutputTransform(int out_c, int k_bits, Activation pre_activation,
                           const std::vector<float>& multiplier,
                           const std::vector<float>& bias);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out, std::int64_t out_stride) const override;

 private:
  int out_c_;
  // Thresholds in branch-free canonical form: flipped channels (negative
  // multiplier) store cmp = threshold+1 and flip = 1 (a > t <=> !(a < t+1));
  // constant channels use cmp = INT32_MIN with flip carrying the constant.
  std::vector<std::int32_t> cmp_;
  std::vector<std::uint32_t> flip_;
};

class Int32OutputTransform : public OutputTransform {
 public:
  explicit Int32OutputTransform(int out_c) : out_c_(out_c) {}
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out, std::int64_t out_stride) const override;

 private:
  int out_c_;
};

// out = clamp(z_out + M[c] * (acc - z_in * row_sums[c] + bias[c])), int8,
// where M[c] * x is MultiplyByQuantizedMultiplier (core/quantization.h)
// and the z_out add cannot wrap. `row_sums` holds the packed weights'
// per-channel sums (input zero-point correction) and is read only by the
// constructor; bias may be empty (0); multiplier/shift hold one entry per
// channel, or a single broadcast entry (per-tensor).
//
// The constructor folds everything per channel into offset = bias - z_in *
// row_sums (int32, wrapping), the shift split into left/right counts
// clamped to [0, 32] and the right shift's rounding term, so Apply is one
// branch-free loop the compiler vectorizes in int64 lanes (docs/KERNELS.md
// "Int8 path").
class Int8RequantTransform : public OutputTransform {
 public:
  Int8RequantTransform(int out_c, std::int32_t z_in, std::int32_t z_out,
                       const std::int32_t* row_sums,
                       const std::vector<std::int32_t>& bias,
                       const std::vector<std::int32_t>& multiplier,
                       const std::vector<int>& shift, std::int32_t act_min,
                       std::int32_t act_max);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out, std::int64_t out_stride) const override;

 private:
  int out_c_;
  std::int32_t z_out_, act_min_, act_max_;
  // Per output channel.
  std::vector<std::int32_t> offset_, mult_, left_, right_;
  std::vector<std::int64_t> round_;  // 2^(right - 1), or 0 when right is 0
};

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_
