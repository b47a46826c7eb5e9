// Bitpacking (LceQuantize core) tests: encoding semantics, round trips,
// padding behaviour and the XOR-POPCOUNT dot-product identity, including
// parameterized sweeps over channel counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "core/tensor.h"
#include "kernels/quantize_ops.h"

namespace lce {
namespace {

TEST(Bitpack, ZeroBitEncodesPlusOne) {
  // Paper: "a 0 valued bit represents a real value of 1.0 while 1 represents
  // a real value of -1.0".
  const float src[2] = {3.5f, -0.25f};
  TBitpacked word = 0;
  BitpackRow(src, 2, &word);
  EXPECT_EQ(word & 1u, 0u);         // +3.5 -> 0 bit
  EXPECT_EQ((word >> 1) & 1u, 1u);  // -0.25 -> 1 bit
}

TEST(Bitpack, SignOfZeroIsPlusOne) {
  const float src[1] = {0.0f};
  TBitpacked word = 0xffffffff;
  BitpackRow(src, 1, &word);
  EXPECT_EQ(word, 0u);
  EXPECT_EQ(SignValue(0.0f), 1.0f);
}

TEST(Bitpack, NegativeZeroBinarizesToMinusOne) {
  // Bitpacking extracts the IEEE sign bit, so -0.0f maps to -1.0. This is a
  // deliberate, documented property of the fast path; FakeSign(x<0) maps
  // -0.0 to +1.0 but training pipelines never produce negative zeros on the
  // binarization path (activations come out of BN/ReLU arithmetic).
  const float src[1] = {-0.0f};
  TBitpacked word = 0;
  BitpackRow(src, 1, &word);
  EXPECT_EQ(word & 1u, 1u);
}

TEST(Bitpack, PaddingBitsAreZero) {
  std::vector<float> src(35, -1.0f);  // all -1 -> all valid bits set
  TBitpacked words[2] = {0, 0};
  BitpackRow(src.data(), 35, words);
  EXPECT_EQ(words[0], 0xffffffffu);
  EXPECT_EQ(words[1], 0x7u);  // only bits 0..2 set; padding zero
}

class BitpackRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitpackRoundTrip, UnpackRecoversSigns) {
  const int channels = GetParam();
  Rng rng(channels);
  std::vector<float> src(channels);
  for (auto& v : src) v = rng.Uniform(-2.0f, 2.0f);
  std::vector<TBitpacked> packed(BitpackedWords(channels));
  BitpackRow(src.data(), channels, packed.data());
  std::vector<float> unpacked(channels);
  UnpackRow(packed.data(), channels, unpacked.data());
  for (int c = 0; c < channels; ++c) {
    EXPECT_EQ(unpacked[c], SignValue(src[c])) << "channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(ChannelSweep, BitpackRoundTrip,
                         ::testing::Values(1, 2, 31, 32, 33, 63, 64, 65, 96,
                                           100, 128, 256, 257));

class BinaryDotIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BinaryDotIdentity, MatchesFloatDot) {
  const int bits = GetParam();
  Rng rng(bits * 7 + 1);
  std::vector<float> a(bits), b(bits);
  for (auto& v : a) v = rng.Sign();
  for (auto& v : b) v = rng.Sign();
  std::vector<TBitpacked> pa(BitpackedWords(bits)), pb(BitpackedWords(bits));
  BitpackRow(a.data(), bits, pa.data());
  BitpackRow(b.data(), bits, pb.data());

  std::int32_t expected = 0;
  for (int i = 0; i < bits; ++i) {
    expected += static_cast<std::int32_t>(a[i] * b[i]);
  }
  EXPECT_EQ(BinaryDotReference(pa.data(), pb.data(), bits), expected);
}

INSTANTIATE_TEST_SUITE_P(BitSweep, BinaryDotIdentity,
                         ::testing::Values(1, 5, 31, 32, 33, 64, 100, 288, 576,
                                           2304));

TEST(Bitpack, TensorRoundTrip) {
  Rng rng(99);
  Tensor src(DataType::kFloat32, Shape{1, 3, 3, 50});
  FillUniform(src, rng);
  Tensor packed(DataType::kBitpacked, src.shape());
  Tensor unpacked(DataType::kFloat32, src.shape());
  BitpackTensor(src, packed);
  UnpackTensor(packed, unpacked);
  for (std::int64_t i = 0; i < src.num_elements(); ++i) {
    EXPECT_EQ(unpacked.data<float>()[i], SignValue(src.data<float>()[i]));
  }
}

TEST(Bitpack, MatrixPackingIsRowIndependent) {
  // Packing rows individually must equal packing the matrix at once.
  const int channels = 45, rows = 6;
  Rng rng(3);
  std::vector<float> src(rows * channels);
  for (auto& v : src) v = rng.Uniform();
  const int words = BitpackedWords(channels);
  std::vector<TBitpacked> whole(rows * words), single(words);
  BitpackMatrix(src.data(), rows, channels, whole.data());
  for (int r = 0; r < rows; ++r) {
    BitpackRow(src.data() + r * channels, channels, single.data());
    for (int w = 0; w < words; ++w) {
      EXPECT_EQ(whole[r * words + w], single[w]) << "row " << r;
    }
  }
}

// LceQuantize over a channel slice of a wider buffer (a Concat input
// written in place): the packed words equal the dense run's, and the
// floats around the slice -- a sign-bit-set sentinel that would set a bit
// if read -- are neither read into the result nor written. Channel counts
// below, at, between and past whole words.
TEST(Bitpack, LceQuantizeFromStridedSource) {
  constexpr std::uint32_t kSentinel = 0xffc0beefu;  // a negative NaN
  constexpr int kOffset = 6;
  for (const int channels : {7, 32, 45, 64, 100}) {
    const Shape shape{2, 3, 3, channels};
    const std::int64_t rows = 18;
    const int stride = channels + 13;
    Rng rng(channels);
    Tensor dense_src(DataType::kFloat32, shape);
    FillUniform(dense_src, rng);
    std::vector<std::uint32_t> wide(rows * stride, kSentinel);
    for (std::int64_t r = 0; r < rows; ++r) {
      std::memcpy(&wide[r * stride + kOffset],
                  dense_src.data<float>() + r * channels,
                  static_cast<std::size_t>(channels) * sizeof(float));
    }
    const std::vector<std::uint32_t> before = wide;

    Tensor dense_out(DataType::kBitpacked, shape);
    Tensor strided_out(DataType::kBitpacked, shape);
    LceQuantize(dense_src, dense_out);
    const Tensor slice = Tensor::StridedView(DataType::kFloat32, shape,
                                             wide.data() + kOffset, stride);
    LceQuantize(slice, strided_out);
    EXPECT_EQ(std::memcmp(strided_out.raw_data(), dense_out.raw_data(),
                          dense_out.byte_size()),
              0)
        << channels << " channels";
    EXPECT_EQ(wide, before) << channels << " channels";
  }
}

}  // namespace
}  // namespace lce
