#include "core/bitpack.h"

#include <bit>
#include <cstring>

#include "core/macros.h"

namespace lce {

void BitpackRow(const float* src, int channels, TBitpacked* dst) {
  const int words = BitpackedWords(channels);
  std::memset(dst, 0, static_cast<std::size_t>(words) * sizeof(TBitpacked));
  int c = 0;
  // Full words: extract the float sign bit directly.
  for (int w = 0; w + 1 <= channels / kBitpackWordSize; ++w) {
    TBitpacked bits = 0;
    for (int b = 0; b < kBitpackWordSize; ++b, ++c) {
      std::uint32_t u;
      std::memcpy(&u, &src[c], sizeof(u));
      bits |= (u >> 31) << b;
    }
    dst[w] = bits;
  }
  // Remainder.
  if (c < channels) {
    TBitpacked bits = 0;
    for (int b = 0; c < channels; ++b, ++c) {
      std::uint32_t u;
      std::memcpy(&u, &src[c], sizeof(u));
      bits |= (u >> 31) << b;
    }
    dst[words - 1] = bits;
  }
}

void UnpackRow(const TBitpacked* src, int channels, float* dst) {
  for (int c = 0; c < channels; ++c) {
    const bool neg = (src[c / kBitpackWordSize] >> (c % kBitpackWordSize)) & 1;
    dst[c] = neg ? -1.0f : 1.0f;
  }
}

void BitpackMatrix(const float* src, std::int64_t outer, int channels,
                   TBitpacked* dst) {
  BitpackMatrix(src, outer, channels, channels, dst);
}

void BitpackMatrix(const float* src, std::int64_t outer, int channels,
                   std::int64_t src_stride, TBitpacked* dst) {
  const int words = BitpackedWords(channels);
  for (std::int64_t i = 0; i < outer; ++i) {
    BitpackRow(src + i * src_stride, channels, dst + i * words);
  }
}

void UnpackMatrix(const TBitpacked* src, std::int64_t outer, int channels,
                  float* dst) {
  const int words = BitpackedWords(channels);
  for (std::int64_t i = 0; i < outer; ++i) {
    UnpackRow(src + i * words, channels, dst + i * channels);
  }
}

void BitpackTensor(const Tensor& src, Tensor& dst) {
  LCE_CHECK(src.dtype() == DataType::kFloat32);
  LCE_CHECK(dst.dtype() == DataType::kBitpacked);
  LCE_CHECK(src.shape() == dst.shape());
  const int channels = static_cast<int>(src.shape().dim(src.shape().rank() - 1));
  const std::int64_t outer = src.num_elements() / channels;
  BitpackMatrix(src.data<float>(), outer, channels, src.row_stride(),
                dst.data<TBitpacked>());
}

void UnpackTensor(const Tensor& src, Tensor& dst) {
  LCE_CHECK(src.dtype() == DataType::kBitpacked);
  LCE_CHECK(dst.dtype() == DataType::kFloat32);
  LCE_CHECK(src.shape() == dst.shape());
  const int channels = static_cast<int>(src.shape().dim(src.shape().rank() - 1));
  const std::int64_t outer = src.num_elements() / channels;
  UnpackMatrix(src.data<TBitpacked>(), outer, channels, dst.data<float>());
}

std::int32_t BinaryDotReference(const TBitpacked* a, const TBitpacked* b,
                                int bits) {
  const int words = BitpackedWords(bits);
  std::int32_t popcnt = 0;
  for (int w = 0; w < words; ++w) {
    popcnt += std::popcount(a[w] ^ b[w]);
  }
  // Padding bits are 0 in both operands, so they XOR to 0 and each padded
  // lane contributes +1 to (bits_padded - 2*popcnt). Using the logical `bits`
  // here cancels that contribution exactly.
  return bits - 2 * popcnt;
}

}  // namespace lce
