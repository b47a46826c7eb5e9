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
  virtual void Apply(const std::int32_t* acc, std::int64_t row0,
                     std::int64_t nrows, void* out) const = 0;
};

// v = mult[c] * pre_act(acc) + bias[c]; mult/bias empty means 1 / 0.
class FloatOutputTransform : public OutputTransform {
 public:
  FloatOutputTransform(int out_c, Activation pre_activation,
                       std::vector<float> multiplier, std::vector<float> bias);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;

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
             void* out) const override;

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
             void* out) const override;

 private:
  int out_c_;
};

// out = clamp(z_out + M[c] * (acc - z_in * row_sums[c] + bias[c])), int8.
// `row_sums` points at the packed weight matrix's per-row sums (input
// zero-point correction) and must outlive the transform; multiplier/shift
// hold one entry per channel, or a single broadcast entry (per-tensor).
class Int8RequantTransform : public OutputTransform {
 public:
  Int8RequantTransform(int out_c, std::int32_t z_in, std::int32_t z_out,
                       const std::int32_t* row_sums,
                       std::vector<std::int32_t> bias,
                       std::vector<std::int32_t> multiplier,
                       std::vector<int> shift, std::int32_t act_min,
                       std::int32_t act_max);
  void Apply(const std::int32_t* acc, std::int64_t row0, std::int64_t nrows,
             void* out) const override;

 private:
  int out_c_;
  std::int32_t z_in_, z_out_;
  const std::int32_t* row_sums_;
  std::vector<std::int32_t> bias_;
  std::vector<std::int32_t> mult_;
  std::vector<int> shift_;
  bool per_channel_;
  std::int32_t act_min_, act_max_;
};

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_OUTPUT_TRANSFORM_H_
