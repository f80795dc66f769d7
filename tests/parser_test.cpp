// Unit tests for the Fortran-subset parser (fir/parser.h).
#include <gtest/gtest.h>

#include "fir/unparse.h"
#include "tests/test_util.h"

namespace ap::fir {
namespace {

using test::expr_ok;
using test::parse_ok;

TEST(Parser, MinimalProgram) {
  auto p = parse_ok("      PROGRAM T\n      END\n");
  ASSERT_EQ(p->units.size(), 1u);
  EXPECT_EQ(p->units[0]->kind, UnitKind::Program);
  EXPECT_EQ(p->units[0]->name, "T");
}

TEST(Parser, SubroutineWithParams) {
  auto p = parse_ok("      SUBROUTINE S(A, B, N)\n      RETURN\n      END\n");
  const auto& u = *p->units[0];
  EXPECT_EQ(u.kind, UnitKind::Subroutine);
  ASSERT_EQ(u.params.size(), 3u);
  EXPECT_EQ(u.params[0], "A");
  EXPECT_EQ(u.params[2], "N");
}

TEST(Parser, Declarations) {
  auto p = parse_ok(R"(
      PROGRAM T
      INTEGER I, J(10), K(4,5)
      DOUBLE PRECISION X
      LOGICAL FLAG
      DIMENSION Y(8)
      PARAMETER (N = 16)
      END
)");
  const auto& u = *p->units[0];
  EXPECT_EQ(u.find_decl("I")->type, Type::Integer);
  EXPECT_TRUE(u.find_decl("J")->is_array());
  EXPECT_EQ(u.find_decl("K")->dims.size(), 2u);
  EXPECT_EQ(u.find_decl("X")->type, Type::Real);
  EXPECT_EQ(u.find_decl("FLAG")->type, Type::Logical);
  EXPECT_TRUE(u.find_decl("Y")->is_array());
  EXPECT_TRUE(u.find_decl("N")->is_param_const);
}

TEST(Parser, DimensionMergesWithTypeStatement) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /B/ M(3,4)
      DOUBLE PRECISION M
      END
)");
  const auto* d = p->units[0]->find_decl("M");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->type, Type::Real);
  EXPECT_EQ(d->dims.size(), 2u);
}

TEST(Parser, CommonBlocks) {
  auto p = parse_ok(R"(
      PROGRAM T
      COMMON /BLK/ A(4), B
      COMMON /BLK2/ C
      END
)");
  const auto& u = *p->units[0];
  ASSERT_EQ(u.commons.size(), 2u);
  EXPECT_EQ(u.commons[0].name, "BLK");
  EXPECT_EQ(u.commons[0].vars.size(), 2u);
  EXPECT_EQ(u.commons[1].vars[0], "C");
}

TEST(Parser, AssumedSizeDims) {
  auto p = parse_ok(R"(
      SUBROUTINE S(A, B)
      DOUBLE PRECISION A(*), B(10, *)
      END
)");
  const auto& u = *p->units[0];
  EXPECT_EQ(u.find_decl("A")->dims.size(), 1u);
  EXPECT_EQ(u.find_decl("A")->dims[0].hi, nullptr);
  EXPECT_EQ(u.find_decl("B")->dims.size(), 2u);
  EXPECT_NE(u.find_decl("B")->dims[0].hi, nullptr);
  EXPECT_EQ(u.find_decl("B")->dims[1].hi, nullptr);
}

TEST(Parser, EndDoLoop) {
  auto p = parse_ok(R"(
      PROGRAM T
      DO I = 1, 10
        X = I
      ENDDO
      END
)");
  auto* loop = test::find_loop(*p->units[0], "I");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->body.size(), 1u);
  EXPECT_EQ(loop->do_step, nullptr);
}

TEST(Parser, LabeledDoWithContinue) {
  auto p = parse_ok(R"(
      PROGRAM T
      DO 100 I = 1, 10
        X = I
100   CONTINUE
      Y = 2
      END
)");
  const auto& u = *p->units[0];
  ASSERT_EQ(u.body.size(), 2u);  // loop + trailing assignment
  EXPECT_EQ(u.body[0]->kind, StmtKind::Do);
  EXPECT_EQ(u.body[0]->body.size(), 1u);  // CONTINUE marker dropped
}

TEST(Parser, SharedLabelClosesNestedLoops) {
  auto p = parse_ok(R"(
      PROGRAM T
      DO 200 N = 1, 4
      DO 200 J = 1, 4
        X = N + J
200   CONTINUE
      END
)");
  const auto& u = *p->units[0];
  ASSERT_EQ(u.body.size(), 1u);
  const Stmt& outer = *u.body[0];
  EXPECT_EQ(outer.do_var, "N");
  ASSERT_EQ(outer.body.size(), 1u);
  const Stmt& inner = *outer.body[0];
  EXPECT_EQ(inner.do_var, "J");
  EXPECT_EQ(inner.body.size(), 1u);
}

TEST(Parser, TripleSharedLabel) {
  auto p = parse_ok(R"(
      PROGRAM T
      DO 2 K = 1, 2
      DO 2 J = 1, 3
      DO 2 I = 1, 4
        X = K + J + I
2     CONTINUE
      END
)");
  const Stmt& k = *p->units[0]->body[0];
  const Stmt& j = *k.body[0];
  const Stmt& i = *j.body[0];
  EXPECT_EQ(k.do_var, "K");
  EXPECT_EQ(j.do_var, "J");
  EXPECT_EQ(i.do_var, "I");
  EXPECT_EQ(i.body.size(), 1u);
}

TEST(Parser, LabeledTerminatorIsRealStatement) {
  auto p = parse_ok(R"(
      PROGRAM T
      DO 5 I = 1, 4
5       X = I
      END
)");
  const Stmt& loop = *p->units[0]->body[0];
  ASSERT_EQ(loop.body.size(), 1u);
  EXPECT_EQ(loop.body[0]->kind, StmtKind::Assign);
}

// Labels are per unit: a unit whose first loop reuses the label that
// closed the previous unit's last loop still gets its body.
TEST(Parser, LabelReuseAcrossUnitsKeepsLoopBody) {
  auto p = parse_ok(R"(
      SUBROUTINE A
      REAL X(10)
      DO 10 I = 1, 10
        X(I) = 1.0
   10 CONTINUE
      END
      SUBROUTINE B
      REAL Y(10)
      DO 10 I = 1, 10
        Y(I) = 2.0
   10 CONTINUE
      END
)");
  ASSERT_EQ(p->units.size(), 2u);
  for (const auto& u : p->units) {
    ASSERT_EQ(u->body.size(), 1u) << u->name;
    EXPECT_EQ(u->body[0]->kind, StmtKind::Do) << u->name;
    EXPECT_EQ(u->body[0]->body.size(), 1u) << u->name;
  }
}

TEST(Parser, DoWithStep) {
  auto p = parse_ok("      PROGRAM T\n      DO I = 10, 1, -1\n      X = I\n      ENDDO\n      END\n");
  auto* loop = test::find_loop(*p->units[0], "I");
  ASSERT_NE(loop, nullptr);
  ASSERT_NE(loop->do_step, nullptr);
}

TEST(Parser, BlockIfElse) {
  auto p = parse_ok(R"(
      PROGRAM T
      IF (X .GT. 0) THEN
        Y = 1
      ELSE
        Y = 2
        Z = 3
      ENDIF
      END
)");
  const Stmt& s = *p->units[0]->body[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  EXPECT_EQ(s.body.size(), 1u);
  EXPECT_EQ(s.else_body.size(), 2u);
}

TEST(Parser, LogicalIf) {
  auto p = parse_ok("      PROGRAM T\n      IF (X .LT. 0) X = 0\n      END\n");
  const Stmt& s = *p->units[0]->body[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  ASSERT_EQ(s.body.size(), 1u);
  EXPECT_EQ(s.body[0]->kind, StmtKind::Assign);
}

TEST(Parser, CallStatement) {
  auto p = parse_ok(R"(
      PROGRAM T
      CALL FOO(X, Y(3), 2 + 1)
      END
      SUBROUTINE FOO(A, B, C)
      END
)");
  const Stmt& s = *p->units[0]->body[0];
  EXPECT_EQ(s.kind, StmtKind::Call);
  EXPECT_EQ(s.name, "FOO");
  EXPECT_EQ(s.args.size(), 3u);
}

TEST(Parser, WriteAndStop) {
  auto p = parse_ok(R"(
      PROGRAM T
      WRITE(*,*) 'VAL', X
      WRITE(6,*) Y
      STOP 'DONE'
      END
)");
  const auto& body = p->units[0]->body;
  EXPECT_EQ(body[0]->kind, StmtKind::Write);
  EXPECT_EQ(body[0]->args.size(), 2u);
  EXPECT_EQ(body[1]->kind, StmtKind::Write);
  EXPECT_EQ(body[2]->kind, StmtKind::Stop);
  EXPECT_EQ(body[2]->name, "DONE");
}

TEST(Parser, LibraryDirectiveMarksUnit) {
  auto p = parse_ok(R"(
      PROGRAM T
      END
C$LIBRARY
      SUBROUTINE LIBFN(A)
      DOUBLE PRECISION A(*)
      END
)");
  EXPECT_FALSE(p->units[0]->external_library);
  EXPECT_TRUE(p->units[1]->external_library);
}

TEST(Parser, OriginIdsAssignedInOrder) {
  auto p = parse_ok(R"(
      PROGRAM T
      DO I = 1, 2
      DO J = 1, 2
        X = I
      ENDDO
      ENDDO
      DO K = 1, 2
        Y = K
      ENDDO
      END
)");
  EXPECT_EQ(test::find_loop(*p->units[0], "I")->origin_id, 0);
  EXPECT_EQ(test::find_loop(*p->units[0], "J")->origin_id, 1);
  EXPECT_EQ(test::find_loop(*p->units[0], "K")->origin_id, 2);
}

// ---- expressions ----------------------------------------------------------

TEST(ParserExpr, Precedence) {
  auto e = expr_ok("A + B * C");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::Add);
  EXPECT_EQ(e->args[1]->bin_op, BinOp::Mul);
}

TEST(ParserExpr, PowerRightAssociative) {
  auto e = expr_ok("A ** B ** C");
  ASSERT_EQ(e->bin_op, BinOp::Pow);
  EXPECT_EQ(e->args[1]->bin_op, BinOp::Pow);
}

TEST(ParserExpr, UnaryMinus) {
  auto e = expr_ok("-A + B");
  EXPECT_EQ(e->bin_op, BinOp::Add);
  EXPECT_EQ(e->args[0]->kind, ExprKind::Unary);
}

TEST(ParserExpr, RelationalAndLogical) {
  auto e = expr_ok("A .LT. B .AND. C .GE. D .OR. .NOT. E");
  EXPECT_EQ(e->bin_op, BinOp::Or);
  EXPECT_EQ(e->args[0]->bin_op, BinOp::And);
  EXPECT_EQ(e->args[1]->kind, ExprKind::Unary);
}

TEST(ParserExpr, ArrayRefVsIntrinsic) {
  auto a = expr_ok("FOO(I, J)");
  EXPECT_EQ(a->kind, ExprKind::ArrayRef);
  auto m = expr_ok("MAX(I, J)");
  EXPECT_EQ(m->kind, ExprKind::Intrinsic);
  auto mod = expr_ok("MOD(I, 8)");
  EXPECT_EQ(mod->kind, ExprKind::Intrinsic);
}

TEST(ParserExpr, SubscriptedSubscript) {
  auto e = expr_ok("T(IX(7) + I)");
  ASSERT_EQ(e->kind, ExprKind::ArrayRef);
  const Expr& sub = *e->args[0];
  EXPECT_EQ(sub.bin_op, BinOp::Add);
  EXPECT_EQ(sub.args[0]->kind, ExprKind::ArrayRef);
}

TEST(ParserExpr, SectionsInSubscripts) {
  auto e = expr_ok("A(1:N, J)");
  ASSERT_EQ(e->args.size(), 2u);
  EXPECT_EQ(e->args[0]->kind, ExprKind::Section);
  EXPECT_EQ(e->args[1]->kind, ExprKind::VarRef);
}

TEST(ParserExpr, UnknownAndUniqueOperators) {
  auto u = expr_ok("UNKNOWN(A, B)");
  EXPECT_EQ(u->kind, ExprKind::Unknown);
  auto q = expr_ok("UNIQUE(ID, I)");
  EXPECT_EQ(q->kind, ExprKind::Unique);
  EXPECT_EQ(q->args.size(), 2u);
}

TEST(ParserExpr, StructuralEquality) {
  auto a = expr_ok("A(I) + 2 * B");
  auto b = expr_ok("A(I) + 2 * B");
  auto c = expr_ok("A(I) + 3 * B");
  EXPECT_TRUE(expr_equal(*a, *b));
  EXPECT_FALSE(expr_equal(*a, *c));
}

TEST(ParserExpr, CloneIsDeepAndEqual) {
  auto a = expr_ok("MAX(A(I,J), B - 1) ** 2");
  auto b = a->clone();
  EXPECT_TRUE(expr_equal(*a, *b));
  b->args[0]->name = "MIN";
  EXPECT_FALSE(expr_equal(*a, *b));
}

// ---- error cases -----------------------------------------------------------

TEST(ParserError, MissingEnd) {
  DiagnosticEngine d;
  EXPECT_EQ(parse_program("      PROGRAM T\n      X = 1\n", d), nullptr);
  EXPECT_TRUE(d.has_errors());
}

TEST(ParserError, UnbalancedEndif) {
  DiagnosticEngine d;
  auto p = parse_program(
      "      PROGRAM T\n      IF (X .GT. 0) THEN\n      Y = 1\n      END\n", d);
  EXPECT_EQ(p, nullptr);
}

TEST(ParserError, MalformedDo) {
  DiagnosticEngine d;
  EXPECT_EQ(parse_program("      PROGRAM T\n      DO I = 1\n      ENDDO\n      END\n", d),
            nullptr);
}

TEST(ParserError, GarbageStatement) {
  DiagnosticEngine d;
  EXPECT_EQ(parse_program("      PROGRAM T\n      + = 3\n      END\n", d), nullptr);
}

// ---- unparser round-trips ---------------------------------------------------

TEST(Unparse, RoundTripPreservesStructure) {
  const char* src = R"(
      PROGRAM T
      PARAMETER (N = 8)
      COMMON /B/ A(8), S
      DO 10 I = 1, N
        A(I) = I * 2.5D0
10    CONTINUE
      S = 0.0D0
      DO 20 I = 1, N
        S = S + A(I)
20    CONTINUE
      IF (S .GT. 100.0D0) THEN
        WRITE(*,*) 'BIG', S
      ENDIF
      END
)";
  auto p1 = parse_ok(src);
  std::string text1 = unparse(*p1);
  auto p2 = parse_ok(text1);
  std::string text2 = unparse(*p2);
  EXPECT_EQ(text1, text2);  // unparse is a fixed point of parse∘unparse
}

TEST(Unparse, OmpDirectivesRendered) {
  auto p = parse_ok(
      "      PROGRAM T\n      DO I = 1, 8\n      X = I\n      ENDDO\n      END\n");
  auto* loop = test::find_loop(*p->units[0], "I");
  loop->omp.parallel = true;
  loop->omp.privates.push_back("X");
  loop->omp.reductions.push_back({"+", "S"});
  std::string text = unparse(*p);
  EXPECT_NE(text.find("!$OMP PARALLEL DO"), std::string::npos);
  EXPECT_NE(text.find("PRIVATE(X)"), std::string::npos);
  EXPECT_NE(text.find("REDUCTION(+:S)"), std::string::npos);
}

TEST(Unparse, CodeSizeExcludesLibraryUnits) {
  auto p = parse_ok(R"(
      PROGRAM T
      X = 1
      END
C$LIBRARY
      SUBROUTINE BIG(A)
      DOUBLE PRECISION A(*)
      A(1) = 1.0
      A(2) = 2.0
      A(3) = 3.0
      END
)");
  size_t lines = code_size_lines(*p);
  EXPECT_EQ(lines, 3u);  // PROGRAM T / X = 1 / END
}

}  // namespace
}  // namespace ap::fir
