// Unit tests for the shared lexer (fir/lexer.h).
#include <gtest/gtest.h>

#include "fir/lexer.h"

namespace ap::fir {
namespace {

std::vector<Token> lex_ok(std::string_view src) {
  DiagnosticEngine d;
  auto toks = lex(src, d);
  EXPECT_FALSE(d.has_errors()) << d.render_all();
  return toks;
}

std::vector<Tok> kinds(std::string_view src) {
  std::vector<Tok> out;
  for (const auto& t : lex_ok(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInput) { EXPECT_TRUE(lex_ok("").empty()); }

TEST(Lexer, IdentifiersAreUpperCased) {
  auto toks = lex_ok("  abc Def GHI_2");
  ASSERT_EQ(toks.size(), 4u);  // 3 idents + newline
  EXPECT_EQ(toks[0].text, "ABC");
  EXPECT_EQ(toks[1].text, "DEF");
  EXPECT_EQ(toks[2].text, "GHI_2");
}

TEST(Lexer, IntegerLiteral) {
  auto toks = lex_ok(" 42 ");
  ASSERT_GE(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, Tok::IntLit);
  EXPECT_EQ(toks[0].int_val, 42);
}

TEST(Lexer, RealLiteralForms) {
  struct Case { const char* text; double value; };
  for (const Case& c : {Case{" 1.5 ", 1.5}, Case{" 2. ", 2.0},
                        Case{" .25 ", 0.25}, Case{" 2.D0 ", 2.0},
                        Case{" 1.5E-3 ", 0.0015}, Case{" 2.0D+1 ", 20.0},
                        Case{" 3E2 ", 300.0}}) {
    auto toks = lex_ok(c.text);
    ASSERT_GE(toks.size(), 1u) << c.text;
    EXPECT_EQ(toks[0].kind, Tok::RealLit) << c.text;
    EXPECT_DOUBLE_EQ(toks[0].real_val, c.value) << c.text;
  }
}

TEST(Lexer, DotOperators) {
  auto k = kinds(" A .EQ. B .AND. C .LT. D .OR. .NOT. E ");
  std::vector<Tok> expect = {Tok::Ident, Tok::EqEq,  Tok::Ident, Tok::AndAnd,
                             Tok::Ident, Tok::Less,  Tok::Ident, Tok::OrOr,
                             Tok::NotNot, Tok::Ident, Tok::Newline};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, NumberFollowedByDotOperator) {
  // "1.EQ." must lex as integer 1 then .EQ., not real "1." then garbage.
  auto toks = lex_ok(" IF (I.EQ.1) X = 1 ");
  bool saw_eq = false;
  for (const auto& t : toks)
    if (t.kind == Tok::EqEq) saw_eq = true;
  EXPECT_TRUE(saw_eq);
}

TEST(Lexer, SymbolicRelationalOperators) {
  auto k = kinds(" A == B /= C <= D >= E < F > G ");
  std::vector<Tok> expect = {Tok::Ident, Tok::EqEq,      Tok::Ident, Tok::NotEq,
                             Tok::Ident, Tok::LessEq,    Tok::Ident,
                             Tok::GreaterEq, Tok::Ident, Tok::Less,  Tok::Ident,
                             Tok::Greater,   Tok::Ident, Tok::Newline};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, PowerVsStar) {
  auto k = kinds(" A ** B * C ");
  std::vector<Tok> expect = {Tok::Ident, Tok::Power, Tok::Ident, Tok::Star,
                             Tok::Ident, Tok::Newline};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, ColumnOneCommentSkipsLine) {
  auto toks = lex_ok("C this is a comment\n      X = 1\n* also a comment\n");
  // Only "X = 1" tokens survive.
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "X");
}

TEST(Lexer, BangCommentAnywhere) {
  auto toks = lex_ok("      X = 1  ! trailing\n");
  ASSERT_EQ(toks.size(), 4u);
}

TEST(Lexer, DirectiveCommentSurfacesAsToken) {
  auto toks = lex_ok("C$LIBRARY\n      X = 1\n");
  ASSERT_GE(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, Tok::Ident);
  EXPECT_EQ(toks[0].text, "$LIBRARY");
}

TEST(Lexer, StringLiteral) {
  auto toks = lex_ok("      WRITE(*,*) 'HELLO WORLD'\n");
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == Tok::StrLit && t.text == "HELLO WORLD") found = true;
  EXPECT_TRUE(found);
}

TEST(Lexer, UnterminatedStringReportsError) {
  DiagnosticEngine d;
  lex("      X = 'OOPS\n", d);
  EXPECT_TRUE(d.has_errors());
}

TEST(Lexer, StatementLabelFlaggedAtLineStart) {
  auto toks = lex_ok("200   CONTINUE\n      X = 200\n");
  EXPECT_EQ(toks[0].kind, Tok::IntLit);
  EXPECT_TRUE(toks[0].at_line_start);
  // The 200 on the second line is not at line start.
  bool found_inner = false;
  for (size_t i = 1; i < toks.size(); ++i)
    if (toks[i].kind == Tok::IntLit && !toks[i].at_line_start) found_inner = true;
  EXPECT_TRUE(found_inner);
}

TEST(Lexer, NewlinesOnlyAfterContent) {
  auto toks = lex_ok("\n\n      X = 1\n\n\n      Y = 2\n");
  int newlines = 0;
  for (const auto& t : toks)
    if (t.kind == Tok::Newline) ++newlines;
  EXPECT_EQ(newlines, 2);
}

TEST(Lexer, BracketsAndBraces) {
  auto k = kinds(" A[1] { } ");
  std::vector<Tok> expect = {Tok::Ident,  Tok::LBracket, Tok::IntLit,
                             Tok::RBracket, Tok::LBrace, Tok::RBrace,
                             Tok::Newline};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, LogicalLiterals) {
  auto k = kinds(" .TRUE. .FALSE. ");
  std::vector<Tok> expect = {Tok::TrueLit, Tok::FalseLit, Tok::Newline};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, UnknownDotOperatorReportsError) {
  DiagnosticEngine d;
  lex(" A .FOO. B ", d);
  EXPECT_TRUE(d.has_errors());
}

// A '.' that starts no operator is reported where it stands, and the
// tokens after it keep their columns.
TEST(Lexer, StrayDotKeepsColumns) {
  DiagnosticEngine d;
  auto toks = lex("  X .AB Y\n", d);
  ASSERT_TRUE(d.has_errors());
  EXPECT_NE(d.render_all().find("1:5"), std::string::npos) << d.render_all();
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == Tok::Ident && t.text == "Y") {
      EXPECT_EQ(t.loc.column, 9u);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Lexer, SourceLocations) {
  auto toks = lex_ok("      X = 1\n      Y = 2\n");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].loc.line, 1u);
  // Y starts line 2.
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == Tok::Ident && t.text == "Y") {
      EXPECT_EQ(t.loc.line, 2u);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(TokenCursor, PeekAdvanceAccept) {
  DiagnosticEngine d;
  TokenCursor cur(lex(" A + B ", d));
  EXPECT_TRUE(cur.at(Tok::Ident));
  EXPECT_TRUE(cur.at_ident("a"));
  cur.advance();
  EXPECT_TRUE(cur.accept(Tok::Plus));
  EXPECT_FALSE(cur.accept(Tok::Minus));
  EXPECT_TRUE(cur.accept_ident("B"));
  EXPECT_TRUE(cur.accept(Tok::Newline));
  EXPECT_TRUE(cur.at(Tok::End));
}

TEST(TokenCursor, RewindRestoresPosition) {
  DiagnosticEngine d;
  TokenCursor cur(lex(" A B C ", d));
  size_t save = cur.position();
  cur.advance();
  cur.advance();
  cur.rewind(save);
  EXPECT_TRUE(cur.at_ident("A"));
}

}  // namespace
}  // namespace ap::fir
