// Cortex-A76 cost model tests (the Table 1 numbers).
#include <gtest/gtest.h>

#include "costmodel/cortex_a76.h"

namespace lce::costmodel {
namespace {

TEST(Table1, FloatMacThroughput) {
  const auto a = AnalyzeMacSequence(MacPrecision::kFloat32);
  EXPECT_EQ(a.instruction_names, std::vector<std::string>{"fmla"});
  EXPECT_DOUBLE_EQ(a.macs_per_cycle, 8.0);  // paper: 8 MACs/cycle
}

TEST(Table1, Int8MacThroughput) {
  const auto a = AnalyzeMacSequence(MacPrecision::kInt8);
  EXPECT_EQ(a.instruction_names, std::vector<std::string>{"sdot"});
  EXPECT_DOUBLE_EQ(a.macs_per_cycle, 32.0);  // paper: 32 MACs/cycle
}

TEST(Table1, BinaryMacSequence) {
  const auto a = AnalyzeMacSequence(MacPrecision::kBinary);
  // Paper: "we perform 1024 binary MACs using 24 instructions, which takes
  // 13 cycles, or equivalently just over 78 MACs per cycle".
  EXPECT_EQ(a.instructions, 24);
  EXPECT_EQ(a.macs, 1024);
  EXPECT_DOUBLE_EQ(a.cycles, 13.0);
  EXPECT_GT(a.macs_per_cycle, 78.0);
  EXPECT_LT(a.macs_per_cycle, 79.0);
  const std::vector<std::string> expected = {"eor", "cnt", "addp", "uadalp"};
  EXPECT_EQ(a.instruction_names, expected);
}

TEST(Table1, TheoreticalSpeedups) {
  // Paper section 4.1: "a 9.75x speedup over float and a 2.43x speedup over
  // 8-bit" (using 78 MACs/cycle; our unrounded value is slightly higher).
  const double vs_float =
      TheoreticalSpeedup(MacPrecision::kFloat32, MacPrecision::kBinary);
  EXPECT_NEAR(vs_float, 9.75, 0.15);
  const double vs_int8 =
      TheoreticalSpeedup(MacPrecision::kInt8, MacPrecision::kBinary);
  EXPECT_NEAR(vs_int8, 2.43, 0.05);
  const double int8_vs_float =
      TheoreticalSpeedup(MacPrecision::kFloat32, MacPrecision::kInt8);
  EXPECT_DOUBLE_EQ(int8_vs_float, 4.0);
}

TEST(Table1, MemoryTrafficRatios) {
  // Paper: "memory reads ... would be 32x and 8x faster, respectively".
  EXPECT_DOUBLE_EQ(
      MemoryTrafficRatio(MacPrecision::kFloat32, MacPrecision::kBinary), 32.0);
  EXPECT_DOUBLE_EQ(
      MemoryTrafficRatio(MacPrecision::kInt8, MacPrecision::kBinary), 8.0);
}

TEST(Scheduler, RestrictedInstructionsSerializeOnOnePipe) {
  // 4 cnt alone: one per cycle on V1, +1 drain.
  std::vector<const InstrSpec*> seq(4, &Cnt());
  EXPECT_DOUBLE_EQ(ScheduleCycles(seq), 5.0);
  // 4 eor alone: dual-issued, 2 cycles, +1 drain.
  std::vector<const InstrSpec*> eors(4, &Eor());
  EXPECT_DOUBLE_EQ(ScheduleCycles(eors), 3.0);
  // 4 cnt + 4 eor co-issue: V1 runs cnt, V0 runs eor -> 4 cycles, +1.
  std::vector<const InstrSpec*> mixed;
  for (int i = 0; i < 4; ++i) {
    mixed.push_back(&Cnt());
    mixed.push_back(&Eor());
  }
  EXPECT_DOUBLE_EQ(ScheduleCycles(mixed), 5.0);
}

TEST(InstrTable, ThroughputsMatchOptimizationGuide) {
  EXPECT_DOUBLE_EQ(Fmla().throughput, 2.0);
  EXPECT_DOUBLE_EQ(Sdot().throughput, 2.0);
  EXPECT_DOUBLE_EQ(Eor().throughput, 2.0);
  EXPECT_DOUBLE_EQ(Cnt().throughput, 1.0);
  EXPECT_DOUBLE_EQ(Addp().throughput, 2.0);
  EXPECT_DOUBLE_EQ(Uadalp().throughput, 1.0);
}

}  // namespace
}  // namespace lce::costmodel
