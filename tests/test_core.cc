// Core type tests: shapes, tensors, aligned buffers, status, quantization
// helpers and the deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "core/aligned_buffer.h"
#include "core/quantization.h"
#include "core/random.h"
#include "core/shape.h"
#include "core/status.h"
#include "core/tensor.h"
#include "core/types.h"

namespace lce {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{1, 56, 56, 64};
  EXPECT_EQ(s.rank(), 4);
  EXPECT_EQ(s.dim(0), 1);
  EXPECT_EQ(s.dim(3), 64);
  EXPECT_EQ(s.num_elements(), 1 * 56 * 56 * 64);
  EXPECT_EQ(s.ToString(), "[1, 56, 56, 64]");
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
  EXPECT_EQ(Shape{}, Shape{});
}

TEST(Shape, EmptyShapeHasOneElement) {
  // Rank-0 shapes represent scalars.
  EXPECT_EQ(Shape{}.num_elements(), 1);
}

TEST(DataTypes, ByteSizes) {
  EXPECT_EQ(DataTypeByteSize(DataType::kFloat32), 4u);
  EXPECT_EQ(DataTypeByteSize(DataType::kInt8), 1u);
  EXPECT_EQ(DataTypeByteSize(DataType::kInt32), 4u);
  EXPECT_EQ(DataTypeByteSize(DataType::kBitpacked), 4u);
}

TEST(DataTypes, BitpackedWords) {
  EXPECT_EQ(BitpackedWords(1), 1);
  EXPECT_EQ(BitpackedWords(32), 1);
  EXPECT_EQ(BitpackedWords(33), 2);
  EXPECT_EQ(BitpackedWords(64), 2);
  EXPECT_EQ(BitpackedWords(256), 8);
}

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDefaultAlignment,
            0u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(64);
  auto* p = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, ZeroFills) {
  AlignedBuffer buf(128);
  buf.Zero();
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf.data()[i], 0);
}

TEST(AlignedBuffer, DebugBuildsPoisonFreshStorage) {
#ifdef NDEBUG
  GTEST_SKIP() << "Release builds leave fresh buffers unfilled";
#else
  // Every fresh buffer -- arena, tensor, packed weights -- starts as 0xFF,
  // so a read before the first write fails deterministically.
  AlignedBuffer buf(100);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf.data()[i], 0xFF) << i;
  }
  Tensor t(DataType::kFloat32, Shape{2, 3});
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_TRUE(std::isnan(t.data<float>()[i])) << i;
  }
#endif
}

TEST(Tensor, FloatStorage) {
  Tensor t(DataType::kFloat32, Shape{2, 3});
  EXPECT_EQ(t.num_elements(), 6);
  EXPECT_EQ(t.storage_elements(), 6);
  EXPECT_EQ(t.byte_size(), 24u);
  t.Zero();
  EXPECT_EQ(t.data<float>()[5], 0.0f);
}

TEST(Tensor, BitpackedStoragePadsChannels) {
  // 40 channels pack into 2 words per row.
  Tensor t(DataType::kBitpacked, Shape{1, 4, 4, 40});
  EXPECT_EQ(t.num_elements(), 16 * 40);
  EXPECT_EQ(t.storage_elements(), 16 * 2);
  EXPECT_EQ(t.byte_size(), 16u * 2u * 4u);
}

TEST(Tensor, ViewDoesNotOwn) {
  float data[6] = {1, 2, 3, 4, 5, 6};
  Tensor v = Tensor::View(DataType::kFloat32, Shape{2, 3}, data);
  EXPECT_EQ(v.data<float>(), data);
  v.data<float>()[0] = 9.0f;
  EXPECT_EQ(data[0], 9.0f);
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::InvalidArgument("bad conv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad conv");
}

TEST(Quantization, RoundTripValues) {
  const QuantParams q = ChooseQuantParams(-2.0f, 2.0f);
  for (float v : {-1.9f, -0.5f, 0.0f, 0.77f, 1.9f}) {
    const float rt = DequantizeValue(QuantizeValue(v, q), q);
    EXPECT_NEAR(rt, v, q.scale);
  }
}

TEST(Quantization, SymmetricHasZeroZeroPoint) {
  const QuantParams q = ChooseQuantParams(-3.0f, 1.5f, /*symmetric=*/true);
  EXPECT_EQ(q.zero_point, 0);
  EXPECT_NEAR(q.scale, 3.0f / 127.0f, 1e-6f);
}

TEST(Quantization, MultiplierDecomposition) {
  for (double m : {0.0003, 0.02, 0.7, 1.3, 240.0}) {
    std::int32_t quantized;
    int shift;
    QuantizeMultiplier(m, &quantized, &shift);
    const double reconstructed =
        static_cast<double>(quantized) / (1LL << 31) * std::pow(2.0, shift);
    EXPECT_NEAR(reconstructed, m, m * 1e-6);
  }
}

TEST(Quantization, MultiplyByQuantizedMultiplier) {
  std::int32_t quantized;
  int shift;
  QuantizeMultiplier(0.25, &quantized, &shift);
  EXPECT_EQ(MultiplyByQuantizedMultiplier(400, quantized, shift), 100);
  EXPECT_EQ(MultiplyByQuantizedMultiplier(-400, quantized, shift), -100);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.Uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, SignsAreBalanced) {
  Rng rng(11);
  int pos = 0;
  for (int i = 0; i < 10000; ++i) pos += rng.Sign() > 0 ? 1 : 0;
  EXPECT_GT(pos, 4500);
  EXPECT_LT(pos, 5500);
}

TEST(Rng, FillBitpackedKeepsPaddingBitsZero) {
  Rng rng(5);
  Tensor t(DataType::kBitpacked, Shape{1, 2, 2, 40});  // 8 valid bits in word 1
  FillBitpacked(t, rng);
  const TBitpacked* p = t.data<TBitpacked>();
  for (int row = 0; row < 4; ++row) {
    EXPECT_EQ(p[row * 2 + 1] >> 8, 0u) << "padding bits must stay 0 (+1.0)";
  }
}

}  // namespace
}  // namespace lce
