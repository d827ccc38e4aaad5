// Unit tests for the util substrate: RNG determinism and distributions,
// summary statistics, tables, and DOT emission.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/dot.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using acfc::util::DotGraph;
using acfc::util::Rng;
using acfc::util::Summary;
using acfc::util::Table;

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, CopyPreservesStream) {
  Rng a(7);
  a.next_u64();
  Rng snapshot = a;  // as the simulator does at checkpoint time
  std::vector<std::uint64_t> from_a, from_snapshot;
  for (int i = 0; i < 10; ++i) from_a.push_back(a.next_u64());
  for (int i = 0; i < 10; ++i) from_snapshot.push_back(snapshot.next_u64());
  EXPECT_EQ(from_a, from_snapshot);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(17, 17), 17);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 4000; ++i)
    ++seen[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  for (int count : seen) EXPECT_GT(count, 700);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(9);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), acfc::util::InternalError);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(Summary, EmptyThrowsOnMean) {
  Summary s;
  EXPECT_THROW(s.mean(), acfc::util::InternalError);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), acfc::util::InternalError);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.write_csv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, NumericRowFormatting) {
  Table t({"v"});
  t.add_row_numeric({3.14159265}, 3);
  EXPECT_EQ(t.row(0)[0], "3.14");
}

TEST(Dot, EmitsNodesAndEdges) {
  DotGraph g("test");
  g.add_node("a", "entry");
  g.add_node("b", "exit");
  g.add_edge("a", "b", "style=dashed");
  const std::string text = g.str();
  EXPECT_NE(text.find("digraph"), std::string::npos);
  EXPECT_NE(text.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(text.find("style=dashed"), std::string::npos);
}

TEST(Dot, EscapesQuotesInLabels) {
  DotGraph g("test");
  g.add_node("n", "say \"hi\"");
  EXPECT_NE(g.str().find("\\\"hi\\\""), std::string::npos);
}

}  // namespace
