// Unit tests for the MiniMP DSL parser and printer, including round-trip
// (parse → print → parse) structural stability and error reporting.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "mp/lower.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "util/error.h"

namespace {

using namespace acfc::mp;
using acfc::util::ProgramError;

constexpr const char* kJacobiSource = R"(
# Figure 2 of the paper: misaligned Jacobi.
program jacobi2 {
  for it in 0 .. 10 {
    compute 5.0 label "stencil";
    if (rank % 2 == 0) {
      checkpoint "even";
      if (rank + 1 < nprocs) {
        send to rank + 1 tag 1;
        recv from rank + 1 tag 1;
      }
    } else {
      send to rank - 1 tag 1;
      recv from rank - 1 tag 1;
      checkpoint "odd";
    }
  }
}
)";

TEST(Parser, ParsesJacobi) {
  const Program p = parse(kJacobiSource);
  EXPECT_EQ(p.name, "jacobi2");
  ASSERT_EQ(p.body.size(), 1u);
  EXPECT_EQ(p.body.stmts[0]->kind(), StmtKind::kLoop);
  EXPECT_EQ(checkpoint_count(p), 2);
}

TEST(Parser, LoopBounds) {
  const Program p = parse(kJacobiSource);
  const auto& loop = static_cast<const LoopStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(loop.var, "it");
  EXPECT_EQ(loop.lo.const_value(), 0);
  EXPECT_EQ(loop.hi.const_value(), 10);
}

TEST(Parser, SendRecvParameters) {
  const Program p = parse(
      "program t { send to (rank + 1) % nprocs tag 3 bytes 64; "
      "recv from any tag 3; }");
  const auto& send = static_cast<const SendStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(send.tag, 3);
  EXPECT_EQ(send.bytes, 64);
  EXPECT_EQ(send.dest.str(), "(rank + 1) % nprocs");
  const auto& recv = static_cast<const RecvStmt&>(*p.body.stmts[1]);
  EXPECT_TRUE(recv.any_source);
  EXPECT_EQ(recv.tag, 3);
}

TEST(Parser, ComputeWithIntegerCost) {
  const Program p = parse("program t { compute 2; }");
  EXPECT_DOUBLE_EQ(static_cast<const ComputeStmt&>(*p.body.stmts[0]).cost,
                   2.0);
}

TEST(Parser, CheckpointNote) {
  const Program p = parse("program t { checkpoint \"phase-1\"; }");
  EXPECT_EQ(static_cast<const CheckpointStmt&>(*p.body.stmts[0]).note,
            "phase-1");
}

TEST(Parser, Collectives) {
  const Program p =
      parse("program t { barrier tag 2; bcast root 0 tag 1 bytes 128; }");
  EXPECT_EQ(p.body.stmts[0]->kind(), StmtKind::kBarrier);
  const auto& bcast = static_cast<const BcastStmt&>(*p.body.stmts[1]);
  EXPECT_EQ(bcast.tag, 1);
  EXPECT_EQ(bcast.bytes, 128);
}

TEST(Parser, LoopSugarGetsFreshVariable) {
  const Program p =
      parse("program t { loop 4 { compute 1.0; } loop 2 { compute 1.0; } }");
  const auto& l0 = static_cast<const LoopStmt&>(*p.body.stmts[0]);
  const auto& l1 = static_cast<const LoopStmt&>(*p.body.stmts[1]);
  EXPECT_NE(l0.var, l1.var);
  EXPECT_EQ(l0.hi.const_value(), 4);
}

TEST(Parser, PredicatePrecedence) {
  const Program p = parse(
      "program t { if (rank == 0 || rank == 1 && nprocs > 2) "
      "{ compute 1.0; } }");
  const auto& iff = static_cast<const IfStmt&>(*p.body.stmts[0]);
  // || binds loosest: (rank==0) || ((rank==1) && (nprocs>2)).
  EXPECT_EQ(iff.cond.kind(), PredKind::kOr);
}

TEST(Parser, ParenthesizedPredicate) {
  const Program p = parse(
      "program t { if ((rank == 0 || rank == 1) && nprocs > 2) "
      "{ compute 1.0; } }");
  const auto& iff = static_cast<const IfStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(iff.cond.kind(), PredKind::kAnd);
  EXPECT_EQ(iff.cond.lhs().kind(), PredKind::kOr);
}

TEST(Parser, ParenthesizedArithmeticInPredicate) {
  const Program p =
      parse("program t { if ((rank + 1) % 2 == 0) { compute 1.0; } }");
  const auto& iff = static_cast<const IfStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(iff.cond.kind(), PredKind::kCmp);
  EXPECT_EQ(iff.cond.cmp_lhs().str(), "(rank + 1) % 2");
}

TEST(Parser, IrregularPredicateAndExpr) {
  const Program p = parse(
      "program t { if (irregular(1)) { compute 1.0; } "
      "if (irregular(2) == 3) { compute 1.0; } "
      "send to irregular(4); }");
  const auto& p0 = static_cast<const IfStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(p0.cond.kind(), PredKind::kIrregular);
  const auto& p1 = static_cast<const IfStmt&>(*p.body.stmts[1]);
  EXPECT_EQ(p1.cond.kind(), PredKind::kCmp);
  const auto& send = static_cast<const SendStmt&>(*p.body.stmts[2]);
  EXPECT_EQ(send.dest.kind(), ExprKind::kIrregular);
}

TEST(Parser, NegatedPredicate) {
  const Program p = parse("program t { if (!(rank == 0)) { compute 1.0; } }");
  const auto& iff = static_cast<const IfStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(iff.cond.kind(), PredKind::kNot);
}

TEST(Parser, CommentsIgnored) {
  const Program p = parse(
      "program t { # a comment\n compute 1.0; # trailing\n }");
  EXPECT_EQ(p.body.size(), 1u);
}

TEST(Parser, IntRangeNotConfusedWithFloat) {
  // "0 .. 10" and "0..10" both parse: '..' must not lex as a float dot.
  const Program p = parse("program t { for i in 0..10 { compute 1.0; } }");
  const auto& loop = static_cast<const LoopStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(loop.hi.const_value(), 10);
}

TEST(Parser, ErrorsCarryLocation) {
  try {
    parse("program t {\n  compute ;\n}");
    FAIL() << "expected ProgramError";
  } catch (const ProgramError& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);
  }
}

TEST(Parser, OutOfRangeTagOrBytesFails) {
  // Each literal (the last word) is past what an int holds, and the last
  // past any integer type; none may wrap into range. The error names the
  // literal's own line and column.
  for (const std::string stmt :
       {"send to 0 tag 4294967297", "send to 0 tag 1 bytes 4294967296",
        "recv from 0 tag 2147483648", "barrier tag 2147483648",
        "allreduce tag 2147483648", "bcast root 0 tag 2147483648",
        "reduce root 0 bytes 2147483648",
        "send to 0 tag 99999999999999999999"}) {
    SCOPED_TRACE(stmt);
    const std::string source = "program t {\n  " + stmt + ";\n}";
    const std::string at =
        "at 2:" + std::to_string(stmt.rfind(' ') + 2 + 2);
    try {
      parse(source);
      ADD_FAILURE() << "parsed";
    } catch (const ProgramError& e) {
      EXPECT_NE(std::string(e.what()).find(at), std::string::npos)
          << e.what();
    }
  }
  // The largest int still parses and prints back as written.
  const std::string text =
      "program t {\n  send to 0 tag 2147483647 bytes 2147483647;\n}\n";
  EXPECT_EQ(print(parse(text)), text);
}

TEST(Parser, CollectiveTagPastTheLoweringBoundFails) {
  // Lowering adds kCollectiveTagBase to a collective's tag, so its largest
  // tag is the one that lowers to the largest int; one more is an error
  // at the literal.
  ASSERT_EQ(kMaxCollectiveTag + kCollectiveTagBase,
            std::numeric_limits<int>::max());
  const std::string max = std::to_string(kMaxCollectiveTag);
  const std::string over = std::to_string(kMaxCollectiveTag + 1);
  for (const std::string head :
       {"barrier", "bcast root 0", "reduce root 0", "allreduce"}) {
    SCOPED_TRACE(head);
    const std::string text =
        "program t {\n  " + head + " tag " + max + ";\n}\n";
    const Program p = parse(text);
    EXPECT_EQ(print(p), text);
    // Every lowered message carries the largest int as its tag.
    const std::string lowered = print(lower_collectives(p));
    EXPECT_NE(lowered.find(
                  "tag " + std::to_string(std::numeric_limits<int>::max())),
              std::string::npos)
        << lowered;
    const std::string stmt = head + " tag " + over;
    try {
      parse("program t {\n  " + stmt + ";\n}");
      ADD_FAILURE() << "parsed";
    } catch (const ProgramError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("at 2:" + std::to_string(stmt.rfind(' ') + 4)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("want 0.." + max), std::string::npos) << what;
    }
  }
}

TEST(Parser, MissingSemicolonFails) {
  EXPECT_THROW(parse("program t { compute 1.0 }"), ProgramError);
}

TEST(Parser, UnterminatedStringFails) {
  EXPECT_THROW(parse("program t { checkpoint \"oops; }"), ProgramError);
}

TEST(Parser, TrailingGarbageFails) {
  EXPECT_THROW(parse("program t { } extra"), ProgramError);
}

TEST(Parser, UnknownStatementFails) {
  EXPECT_THROW(parse("program t { fly to the moon; }"), ProgramError);
}

TEST(Parser, MissingFileThrows) {
  EXPECT_THROW(parse_file("/nonexistent/path.mp"), ProgramError);
}

TEST(Printer, RoundTripJacobi) {
  const Program p = parse(kJacobiSource);
  const std::string text = print(p);
  const Program q = parse(text);
  EXPECT_EQ(q.stmt_count(), p.stmt_count());
  EXPECT_EQ(checkpoint_count(q), checkpoint_count(p));
  // Second round trip is a fixed point.
  EXPECT_EQ(print(q), text);
}

TEST(Printer, RoundTripAllStatementKinds) {
  const char* source =
      "program all {\n"
      "  compute 1.5 label \"w\";\n"
      "  send to rank + 1 tag 2 bytes 8;\n"
      "  recv from any tag 2;\n"
      "  recv from rank - 1;\n"
      "  checkpoint \"c\";\n"
      "  barrier tag 1;\n"
      "  bcast root 0 tag 3 bytes 16;\n"
      "  if (rank % 2 == 0) {\n"
      "    compute 1.0;\n"
      "  } else {\n"
      "    compute 2.0;\n"
      "  }\n"
      "  for i in 1 .. nprocs {\n"
      "    send to i tag 4;\n"
      "  }\n"
      "}\n";
  const Program p = parse(source);
  const Program q = parse(print(p));
  EXPECT_EQ(q.stmt_count(), p.stmt_count());
  EXPECT_EQ(print(q), print(p));
}

}  // namespace
