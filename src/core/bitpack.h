// Bitpacking primitives (the heart of LceQuantize / LceDequantize).
//
// Encoding, following the paper: a 0 bit represents the real value +1.0 and a
// 1 bit represents -1.0 -- i.e. the bit is the float sign bit. Values are
// packed along the innermost (channel) dimension, 32 per TBitpacked word,
// LSB first; trailing padding bits are 0, which encodes +1.0 (one-padding).
#ifndef LCE_CORE_BITPACK_H_
#define LCE_CORE_BITPACK_H_

#include <cstdint>

#include "core/tensor.h"
#include "core/types.h"

namespace lce {

// sign(x) with sign(0) = +1, the binarization function used throughout.
inline float SignValue(float x) { return x < 0.0f ? -1.0f : 1.0f; }

// Packs `channels` float values into ceil(channels/32) words at `dst`.
// Padding bits (channels..32*words) are set to 0 (+1.0).
void BitpackRow(const float* src, int channels, TBitpacked* dst);

// Unpacks `channels` values from bitpacked words into +/-1.0 floats.
void UnpackRow(const TBitpacked* src, int channels, float* dst);

// Packs an entire tensor whose innermost dimension is `channels`.
// src: [outer, channels] float, dst: [outer, words(channels)] bitpacked.
void BitpackMatrix(const float* src, std::int64_t outer, int channels,
                   TBitpacked* dst);
// The same over source rows `src_stride` floats apart (src_stride >=
// channels): a channel slice of a wider buffer.
void BitpackMatrix(const float* src, std::int64_t outer, int channels,
                   std::int64_t src_stride, TBitpacked* dst);

void UnpackMatrix(const TBitpacked* src, std::int64_t outer, int channels,
                  float* dst);

// Convenience wrappers operating on Tensors. The destination tensor must
// have dtype kBitpacked (resp. kFloat32) and the same logical shape.
// BitpackTensor's source may be a strided view (Tensor::row_stride()).
void BitpackTensor(const Tensor& src, Tensor& dst);
void UnpackTensor(const Tensor& src, Tensor& dst);

// Returns the dot product of two bitpacked vectors of `bits` logical
// elements (reference implementation used in tests):
//   dot = bits - 2 * popcount(a XOR b)
std::int32_t BinaryDotReference(const TBitpacked* a, const TBitpacked* b,
                                int bits);

}  // namespace lce

#endif  // LCE_CORE_BITPACK_H_
