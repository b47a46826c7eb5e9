// Graph printer tests: summary table contents and DOT export structure.
#include <gtest/gtest.h>

#include "converter/convert.h"
#include "graph/printer.h"
#include "models/builder.h"

namespace lce {
namespace {

Graph TinyModel() {
  Graph g;
  ModelBuilder b(g, 71);
  int x = b.Input(8, 8, 3);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 4);
  g.MarkOutput(x);
  return g;
}

TEST(Printer, SummaryListsEveryOpAndTotals) {
  Graph g = TinyModel();
  const std::string s = GraphSummary(g);
  EXPECT_NE(s.find("Conv2D"), std::string::npos);
  EXPECT_NE(s.find("FakeSign"), std::string::npos);
  EXPECT_NE(s.find("BatchNorm"), std::string::npos);
  EXPECT_NE(s.find("GlobalAvgPool"), std::string::npos);
  EXPECT_NE(s.find("FullyConnected"), std::string::npos);
  EXPECT_NE(s.find("total:"), std::string::npos);
  EXPECT_NE(s.find("binary"), std::string::npos);
}

TEST(Printer, SummaryReflectsConversion) {
  Graph g = TinyModel();
  ASSERT_TRUE(Convert(g).ok());
  const std::string s = GraphSummary(g);
  EXPECT_NE(s.find("LceBConv2d"), std::string::npos);
  EXPECT_NE(s.find("LceQuantize"), std::string::npos);
  EXPECT_EQ(s.find("FakeSign"), std::string::npos);
  EXPECT_EQ(s.find("BatchNorm"), std::string::npos) << "BN must be fused";
  EXPECT_NE(s.find("bitpacked"), std::string::npos)
      << "bitpacked tensor types must be visible";
}

TEST(Printer, DotIsWellFormed) {
  Graph g = TinyModel();
  ASSERT_TRUE(Convert(g).ok());
  const std::string dot = GraphToDot(g);
  EXPECT_EQ(dot.find("digraph model {"), 0u);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos)
      << "binary ops should be highlighted";
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  // Every live node appears exactly once as a definition.
  for (int id : g.TopologicalOrder()) {
    const std::string def =
        std::string("n").append(std::to_string(id)).append(" [label=");
    EXPECT_NE(dot.find(def), std::string::npos) << def;
  }
}

}  // namespace
}  // namespace lce
