// Unit tests for the dependence tester (analysis/deptest.h): the
// ZIV/SIV/GCD/Banerjee battery, section overlap, the unique() injectivity
// rule, and whole-pair verdicts over loops extracted from small programs.
#include <gtest/gtest.h>

#include "analysis/deptest.h"
#include "analysis/refs.h"
#include "sema/symbols.h"
#include "tests/test_util.h"

namespace ap::analysis {
namespace {

using test::expr_ok;
using test::parse_ok;

DepContext make_ctx(std::string parallel_var,
                    std::map<std::string, LoopBounds> bounds = {},
                    std::set<std::string> written_scalars = {},
                    std::set<std::string> written_arrays = {}) {
  DepContext ctx;
  ctx.parallel_var = std::move(parallel_var);
  ctx.bounds = std::move(bounds);
  ctx.scalar_invariant = [written_scalars](const std::string& n) {
    return !written_scalars.count(n);
  };
  ctx.array_readonly = [written_arrays](const std::string& n) {
    return !written_arrays.count(n);
  };
  return ctx;
}

DimVerdict dim(const char* e1, const char* e2, const DepContext& ctx,
               std::vector<InnerLoop> a_loops = {},
               std::vector<InnerLoop> b_loops = {}) {
  auto x1 = expr_ok(e1);
  auto x2 = expr_ok(e2);
  return test_dim(x1.get(), a_loops, x2.get(), b_loops, ctx);
}

// ---- ZIV ------------------------------------------------------------------

TEST(DimTest, ZivDistinctConstants) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("1", "48", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, ZivEqualConstantsNoInfo) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("5", "5", ctx), DimVerdict::NoInfo);
}

TEST(DimTest, ZivCancelledSymbols) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("N + 1", "N + 3", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, ZivUncancelledSymbolsNoInfo) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("N", "M", ctx), DimVerdict::NoInfo);
}

// ---- strong SIV ------------------------------------------------------------

TEST(DimTest, StrongSivZeroDistanceForcesZero) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("I", "I", ctx), DimVerdict::ForcesZero);
  EXPECT_EQ(dim("2*I + 3", "2*I + 3", ctx), DimVerdict::ForcesZero);
}

TEST(DimTest, StrongSivWithCancelledSymbolsForcesZero) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("IX(7) + I", "IX(7) + I", ctx), DimVerdict::ForcesZero);
}

TEST(DimTest, StrongSivDistinctSymbolsNoInfo) {
  // The PCINIT pathology: cannot prove IX(7) != IX(4).
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("IX(7) + I", "IX(4) + I", ctx), DimVerdict::NoInfo);
}

TEST(DimTest, StrongSivNonDivisibleDistance) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("2*I", "2*I + 1", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, StrongSivConstantDistanceCarries) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("I", "I + 1", ctx), DimVerdict::NoInfo);  // distance 1
}

TEST(DimTest, StrongSivDistanceBeyondTrip) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 8}}});
  EXPECT_EQ(dim("I", "I + 100", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, WrittenArrayElementNotASymbol) {
  auto ctx = make_ctx("I", {}, {}, {"IX"});  // IX written in the loop
  EXPECT_EQ(dim("IX(7) + I", "IX(7) + I", ctx), DimVerdict::NoInfo);
}

TEST(DimTest, VariantScalarDefeatsAnalysis) {
  auto ctx = make_ctx("I", {}, {"K"});
  EXPECT_EQ(dim("K + I", "K + I", ctx), DimVerdict::NoInfo);
}

// ---- GCD / Banerjee ---------------------------------------------------------

TEST(DimTest, GcdTestDisproves) {
  auto ctx = make_ctx("I");
  // 2i = 2i' + 1 has no integer solution.
  EXPECT_EQ(dim("2*I", "2*I + 1", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, BanerjeeDisjointRanges) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  // i and i' + 100 can never meet given i,i' in [1,10].
  EXPECT_EQ(dim("I", "I + 100", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, BanerjeeRespectsDisableFlag) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  ctx.use_banerjee = false;
  ctx.use_siv_refinement = false;
  EXPECT_EQ(dim("I", "I + 100", ctx), DimVerdict::NoInfo);
}

TEST(DimTest, SivRefinementInnerTermsBounded) {
  // a*(i-i') + j - j' = 0 with j in [1,4]: |j-j'| <= 3 < a => only delta 0.
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 100}}, {"J", LoopBounds{1, 4}}});
  InnerLoop jl{"J", nullptr, nullptr, nullptr};
  EXPECT_EQ(dim("10*I + J", "10*I + J", ctx, {jl}, {jl}),
            DimVerdict::ForcesZero);
}

TEST(DimTest, SivRefinementInnerTermsTooWide) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 100}}, {"J", LoopBounds{1, 40}}});
  InnerLoop jl{"J", nullptr, nullptr, nullptr};
  EXPECT_EQ(dim("10*I + J", "10*I + J", ctx, {jl}, {jl}), DimVerdict::NoInfo);
}

TEST(DimTest, UnboundedInnerVarNoInfo) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 100}}});  // no J bounds
  InnerLoop jl{"J", nullptr, nullptr, nullptr};
  EXPECT_EQ(dim("10*I + J", "10*I + J", ctx, {jl}, {jl}), DimVerdict::NoInfo);
}

// ---- weak SIV variants --------------------------------------------------------

TEST(DimTest, WeakZeroSivNonIntegerSolution) {
  auto ctx = make_ctx("I");
  // 2i + 1 == 4 has no integer solution.
  EXPECT_EQ(dim("2*I + 1", "4", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, WeakZeroSivOutsideRange) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  // i == 50 is outside [1,10].
  EXPECT_EQ(dim("I", "50", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, WeakZeroSivInsideRange) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  EXPECT_EQ(dim("I", "5", ctx), DimVerdict::NoInfo);  // iteration 5 touches it
}

TEST(DimTest, WeakZeroSivSymmetric) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  EXPECT_EQ(dim("50", "I", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, WeakCrossingSivNonInteger) {
  auto ctx = make_ctx("I");
  // i == -i' + 1 => 2*(i+i') odd cases: 2i vs -2i'+3: 2(i+i') == 3.
  EXPECT_EQ(dim("2*I", "-2*I + 3", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, WeakCrossingSivOutsideRange) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  // i + i' == 100 impossible for i,i' in [1,10].
  EXPECT_EQ(dim("I", "-I + 100", ctx), DimVerdict::NeverEqual);
}

TEST(DimTest, WeakCrossingSivPossible) {
  auto ctx = make_ctx("I", {{"I", LoopBounds{1, 10}}});
  EXPECT_EQ(dim("I", "-I + 11", ctx), DimVerdict::NoInfo);  // crossing at 5.5
}

// ---- sections ---------------------------------------------------------------
// Standalone "lo:hi" is not an expression, so sections are built directly.

fir::ExprPtr section(const char* lo, const char* hi) {
  return fir::make_section(expr_ok(lo), expr_ok(hi));
}

DimVerdict dim_secs(fir::ExprPtr e1, fir::ExprPtr e2, const DepContext& ctx) {
  return test_dim(e1.get(), {}, e2.get(), {}, ctx);
}

TEST(DimTest, DisjointConstantSections) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim_secs(section("1", "4"), section("5", "8"), ctx),
            DimVerdict::NeverEqual);
}

TEST(DimTest, OverlappingSections) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim_secs(section("1", "4"), section("4", "8"), ctx),
            DimVerdict::NoInfo);
}

TEST(DimTest, SectionVsScalarInside) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim_secs(section("1", "4"), expr_ok("3"), ctx), DimVerdict::NoInfo);
  EXPECT_EQ(dim_secs(section("1", "4"), expr_ok("9"), ctx),
            DimVerdict::NeverEqual);
}

TEST(DimTest, SymbolicSectionNoInfo) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim_secs(section("1", "N"), section("1", "N"), ctx),
            DimVerdict::NoInfo);
}

// ---- unique -----------------------------------------------------------------

TEST(DimTest, UniqueInjectivityForcesZero) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("UNIQUE(I, J)", "UNIQUE(I, J)", ctx), DimVerdict::ForcesZero);
}

TEST(DimTest, UniqueWithAffineComponent) {
  auto ctx = make_ctx("K");
  // ID = base + K on both sides: the ID component forces equal K.
  EXPECT_EQ(dim("UNIQUE(IDBEGS(ISS) + K, I)", "UNIQUE(IDBEGS(ISS) + K, I)", ctx),
            DimVerdict::ForcesZero);
}

TEST(DimTest, UniqueArityMismatchNoInfo) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("UNIQUE(I)", "UNIQUE(I, J)", ctx), DimVerdict::NoInfo);
}

TEST(DimTest, UniqueVsPlainNoInfo) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("UNIQUE(I)", "I", ctx), DimVerdict::NoInfo);
}

TEST(DimTest, UniqueComponentNeverEqual) {
  auto ctx = make_ctx("I");
  EXPECT_EQ(dim("UNIQUE(I, 1)", "UNIQUE(I, 2)", ctx), DimVerdict::NeverEqual);
}

// ---- whole-pair verdicts over real loops -------------------------------------

struct PairFixture {
  std::unique_ptr<fir::Program> prog;
  std::unique_ptr<sema::SemaContext> sema;
  LoopRefs refs;
  DepContext ctx;

  explicit PairFixture(const char* src, const char* loop_var) {
    prog = parse_ok(src);
    DiagnosticEngine d;
    sema = std::make_unique<sema::SemaContext>(*prog, d);
    EXPECT_TRUE(sema->valid()) << d.render_all();
    fir::Stmt* loop = test::find_loop(*prog->units[0], loop_var);
    EXPECT_NE(loop, nullptr);
    const sema::UnitInfo* ui = sema->unit_info(prog->units[0]->name);
    refs = collect_loop_refs(*loop, *ui);
    std::set<std::string> wscal, warr;
    for (const auto& r : refs.refs) {
      if (r.is_write) {
        if (r.is_scalar)
          wscal.insert(r.array);
        else
          warr.insert(r.array);
      }
    }
    wscal.insert(loop->do_var);
    ctx = make_ctx(loop_var, {}, wscal, warr);
    ctx.bounds[loop->do_var] = fold_bounds(*loop, *ui);
    fir::walk_stmts(loop->body, [&](const fir::Stmt& s) {
      if (s.kind == fir::StmtKind::Do)
        ctx.bounds[s.do_var] = fold_bounds(s, *ui);
      return true;
    });
  }

  PairVerdict first_pair(const std::string& array) {
    const MemRef* w = nullptr;
    const MemRef* o = nullptr;
    for (const auto& r : refs.refs) {
      if (r.array != array) continue;
      if (r.is_write && !w) {
        w = &r;
        continue;
      }
      if (!o) o = &r;
    }
    EXPECT_NE(w, nullptr);
    EXPECT_NE(o, nullptr);
    return test_pair(*w, *o, ctx);
  }
};

TEST(PairTest, IndependentColumns) {
  PairFixture f(R"(
      PROGRAM T
      COMMON /C/ A(8,8)
      DO I = 1, 8
        A(1,I) = A(2,I) + 1.0
      ENDDO
      END
)",
                "I");
  EXPECT_EQ(f.first_pair("A"), PairVerdict::Independent);  // rows 1 vs 2
}

TEST(PairTest, SelfUpdateNotCarried) {
  PairFixture f(R"(
      PROGRAM T
      COMMON /C/ A(8)
      DO I = 1, 8
        A(I) = A(I) * 2.0
      ENDDO
      END
)",
                "I");
  EXPECT_EQ(f.first_pair("A"), PairVerdict::NotCarried);
}

TEST(PairTest, ShiftedReadMayCarry) {
  PairFixture f(R"(
      PROGRAM T
      COMMON /C/ A(9)
      DO I = 2, 8
        A(I) = A(I-1) + 1.0
      ENDDO
      END
)",
                "I");
  EXPECT_EQ(f.first_pair("A"), PairVerdict::MayCarry);
}

TEST(PairTest, RankMismatchConservative) {
  MemRef a, b;
  a.array = b.array = "A";
  a.is_write = true;
  auto s1 = expr_ok("I");
  auto s2 = expr_ok("I");
  auto s3 = expr_ok("J");
  a.subs = {s1.get()};
  b.subs = {s2.get(), s3.get()};
  auto ctx = make_ctx("I");
  EXPECT_EQ(test_pair(a, b, ctx), PairVerdict::MayCarry);
}

TEST(PairTest, WholeArrayConservative) {
  MemRef a, b;
  a.array = b.array = "A";
  a.is_write = true;
  a.whole_array = true;
  auto s = expr_ok("I");
  b.subs = {s.get()};
  auto ctx = make_ctx("I");
  EXPECT_EQ(test_pair(a, b, ctx), PairVerdict::MayCarry);
}

TEST(PairTest, ReadReadIndependent) {
  MemRef a, b;
  a.array = b.array = "A";
  auto ctx = make_ctx("I");
  EXPECT_EQ(test_pair(a, b, ctx), PairVerdict::Independent);
}

}  // namespace
}  // namespace ap::analysis
